"""Bounded exhaustive search over protocol states.

The search space for given bounds is: every labelled block forest on
`n_blocks` non-genesis blocks (each block's parent is genesis or another
block; the (n+1)^(n-1) rooted-forest count is the oracle for this space),
times the slot assignments of the chosen slot mode, times every set of valid
FFG votes assigned to validators up to validator-permutation symmetry.
Canonical form: the per-validator vote subsets form a non-decreasing sequence
under a fixed total order of subsets, so no two emitted states are validator
permutations of each other.

Work is organized in graph units (one forest plus slot assignment); a unit
whose forest has no conflicting block pair is skipped whole in safety
searches, where the property holds vacuously.  Within a unit, the monotone
combination bound (`kernels.bound_combinations`) drops every distinct-vote
combination whose unanimity state cannot hit; only the rest are projected and
scanned, in the same canonical order.  Dropped rows count as pruned, so
checked + pruned always covers the whole space.

Block relabelling is exploited at two levels (`ffgmc.symmetry`, which also
gives the soundness argument): only the first unit of each isomorphism
class is scanned, later ones reuse its counts, and within a unit only the
kept combinations that are lexicographically minimal in their orbit under
the unit's automorphisms are scanned.  Rows settled that way count as
checked (and separately as symmetric), exactly as a scan would count them.

`search`, `find_example` and `check_lfp_gfp` all run one scan plan
(`_plan`): every unit in canonical order, where the first unit of each
class is either settled whole or cut into scan tasks.  A class's levels
(distinct-vote counts u = 0, 1, ...) are laid end to end in canonical
order, and each task takes the next `_BOUND_CHUNK` combinations of that
sequence: a task may span levels, never classes.  The calling process
claims and scans tasks itself, and with jobs > 1 forked helpers claim them
too; results fold in plan order (`_fold`), so every report equals the
single-process one.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import mmap
import multiprocessing
import multiprocessing.synchronize
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import comb
from multiprocessing import connection
from typing import Callable, Iterator, Optional

import numpy as np

from .finality import finality_view, justified_checkpoints, justified_checkpoints_gfp
from .kernels import (
    MODE_CONFLICTING_FINALIZED,
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    MODE_LFP_NE_GFP,
    bound_combinations,
    scan_states,
)
from .model import (
    GENESIS,
    GENESIS_CHECKPOINT,
    Block,
    BlockForest,
    Checkpoint,
    FfgVote,
    InputError,
    ProtocolState,
    SignedVote,
)
from .mutation import Mutation
from .slashing import SafetyVerdict, accountable_safety, disagreement
from .symmetry import automorphisms, orbit_minimal, unit_key
from .tables import (
    GraphTables,
    build_graph_tables,
    check_level,
    min_signers_for_quorum,
    project_tables,
    quorum_families,
    state_count,
    state_table,
    unit_universe,
)

VERDICT_HOLDS = "holds-exhaustively"
VERDICT_COUNTEREXAMPLE = "counterexample-found"
VERDICT_INCONCLUSIVE = "inconclusive"

PROPERTY_MODES = {
    "finalized-nongenesis": MODE_FINALIZED_NONGENESIS,
    "justified-nongenesis": MODE_JUSTIFIED_NONGENESIS,
    "conflicting-finalized": MODE_CONFLICTING_FINALIZED,
}


class SearchBudgetExceeded(Exception):
    """Raised by find_example when the state budget runs out before a hit."""

    def __init__(self, states_checked: int):
        super().__init__(f"search budget exhausted after {states_checked} states")
        self.states_checked = states_checked


@dataclass(frozen=True)
class Bounds:
    """Search-space limits.

    `max_slot` caps block slots in free slot mode, `max_chkp_slot` caps
    checkpoint slots of the candidate universe, `max_ffg_votes` caps distinct
    FFG votes and `max_votes` total signed votes.  Omitted caps default to
    max_slot = n_blocks, max_chkp_slot = n_blocks + 1, max_ffg_votes =
    max_votes.
    """

    n_blocks: int
    n_validators: int
    max_votes: int
    max_ffg_votes: Optional[int] = None
    max_slot: Optional[int] = None
    max_chkp_slot: Optional[int] = None
    slot_rule: str = "strict"
    slot_mode: str = "depth"
    graph_filter: Optional[str] = None

    def __post_init__(self):
        if self.max_ffg_votes is None:
            object.__setattr__(self, "max_ffg_votes", self.max_votes)
        if self.max_slot is None:
            object.__setattr__(self, "max_slot", self.n_blocks)
        if self.max_chkp_slot is None and self.graph_filter is None:
            object.__setattr__(self, "max_chkp_slot", self.n_blocks + 1)
        for name in ("n_blocks", "n_validators", "max_votes", "max_ffg_votes", "max_slot",
                     "max_chkp_slot"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise InputError(f"{name} must be non-negative")
        if self.n_validators < 1:
            raise InputError("n_validators must be positive")
        if self.slot_rule not in ("strict", "nonstrict"):
            raise InputError(f"unknown slot rule {self.slot_rule!r}")
        if self.slot_mode not in ("depth", "free"):
            raise InputError(f"unknown slot mode {self.slot_mode!r}")
        if self.slot_mode == "depth" and self.max_slot < self.n_blocks:
            raise InputError("max_slot below the deepest chain in depth slot mode")
        if self.slot_mode == "free" and self.n_blocks >= 1 and self.max_slot < 1:
            raise InputError("max_slot below 1 leaves no slot for a block in free slot mode")


@dataclass(frozen=True)
class Counterexample:
    state: ProtocolState
    safety: SafetyVerdict
    graph_index: int


@dataclass(frozen=True)
class SearchReport:
    verdict: str
    counterexample: Optional[Counterexample]
    states_checked: int
    graphs_checked: int
    states_pruned: int
    states_bounded: int   # part of states_pruned dropped by the monotone bound
    states_symmetric: int  # part of states_checked settled by symmetry, not scanned
    wall_time: float
    budget: Optional[int] = None


def forest_count(n: int) -> int:
    """Labelled rooted forests on n vertices: (n+1)^(n-1)."""
    if n < 0:
        raise InputError("forest size must be non-negative")
    if n == 0:
        return 1
    return (n + 1) ** (n - 1)


def enumerate_forests(n: int) -> Iterator[BlockForest]:
    """All labelled forests on blocks b1..bn, slots set to depth.

    Every block's parent is genesis or another block (a parentless root is
    identified with a genesis child); assignments are emitted in
    lexicographic parent-vector order, acyclic ones only.
    """
    if n < 0:
        raise InputError("forest size must be non-negative")
    names = [f"b{i}" for i in range(1, n + 1)]
    for parents in itertools.product(range(n + 1), repeat=n):
        # parents[i] = 0 means genesis, j >= 1 means block b_j
        if any(parents[i] == i + 1 for i in range(n)):
            continue
        depths = _depths_or_none(parents, n)
        if depths is None:
            continue
        yield BlockForest(
            Block(names[i], depths[i], GENESIS if parents[i] == 0 else names[parents[i] - 1])
            for i in range(n)
        )


def _depths_or_none(parents: tuple[int, ...], n: int) -> Optional[list[int]]:
    depths: list[Optional[int]] = [None] * n
    for i in range(n):
        trail = []
        cur = i
        while depths[cur] is None:
            trail.append(cur)
            nxt = parents[cur]
            if nxt == 0:
                depths[cur] = 1
                break
            nxt -= 1
            if nxt in trail:
                return None  # cycle
            cur = nxt
        for t in reversed(trail):
            if depths[t] is None:
                depths[t] = depths[parents[t] - 1] + 1
    return depths  # type: ignore[return-value]


def _slot_variants(forest: BlockForest, bounds: Bounds) -> Iterator[BlockForest]:
    if bounds.slot_mode == "depth":
        yield forest
        return
    names = [i for i in forest.ids() if i != GENESIS]
    parents = {b.id: b.parent for b in forest}
    for slots in itertools.product(range(1, bounds.max_slot + 1), repeat=len(names)):
        assigned = dict(zip(names, slots))
        assigned[GENESIS] = 0
        if all(assigned[parents[i]] < assigned[i] for i in names if parents[i] is not None):
            yield BlockForest(
                Block(i, assigned[i], parents[i]) for i in names
            )


def iter_units(bounds: Bounds) -> Iterator[BlockForest]:
    """Graph units of the search, in canonical order.

    A catalog graph is one unit with its built-in slots; the slot mode only
    affects enumerated forests.
    """
    if bounds.graph_filter is not None:
        from .catalog import catalog_forest

        yield catalog_forest(bounds.graph_filter)
        return
    for forest in enumerate_forests(bounds.n_blocks):
        yield from _slot_variants(forest, bounds)


def _chkp_bound(bounds: Bounds, forest: BlockForest) -> int:
    if bounds.max_chkp_slot is not None:
        return bounds.max_chkp_slot
    return max(b.slot for b in forest) + 1


def _distinct_vote_range(bounds: Bounds, n_votes: int) -> range:
    return range(0, min(bounds.max_ffg_votes, n_votes, bounds.max_votes) + 1)


def _unit_total_states(bounds: Bounds, n_votes: int) -> int:
    """Rows of a unit with `n_votes` valid votes, counted without a row table."""
    return sum(
        comb(n_votes, u) * state_count(u, bounds.n_validators, bounds.max_votes)
        for u in _distinct_vote_range(bounds, n_votes)
    )


@dataclass(frozen=True)
class _Counts:
    """Rows of one scan task, a settled unit or a whole run, up to its hit or
    budget cut; a sum takes its hit and cut from the right operand."""

    checked: int = 0
    pruned: int = 0      # rows not scanned, bounded ones included
    bounded: int = 0     # rows of combinations the monotone bound dropped
    symmetric: int = 0   # checked rows settled by symmetry rather than scanned
    hit: Optional[tuple] = None  # (u, combo, row masks)
    cut: bool = False            # the budget ran out inside

    def __add__(self, other: _Counts) -> _Counts:
        return _Counts(
            self.checked + other.checked,
            self.pruned + other.pruned,
            self.bounded + other.bounded,
            self.symmetric + other.symmetric,
            other.hit,
            other.cut,
        )


_BOUND_CHUNK = 4096  # most combinations in one scan task, over one class's levels
_MAX_LEVEL_COMBOS = 1 << 62  # most combinations of one scanned level: ranks are int64


@lru_cache(maxsize=None)
def _binomials(m: int, u: int) -> np.ndarray:
    """(u + 1, m) table of C(y, k); within a level of `_plan`, each fits int64."""
    return np.array(
        [[comb(y, k) for y in range(m)] for k in range(u + 1)], dtype=np.int64
    ).reshape(u + 1, m)


def _combinations(m: int, u: int, start: int, count: int) -> np.ndarray:
    """The size-u combinations of range(m) of lexicographic ranks start ..
    start + count - 1, as a (count, u) array, by the combinatorial number
    system: rank r of c_0 < ... < c_{u-1} has
    C(m, u) - 1 - r = sum_k C(m - 1 - c_{u-k}, k) over k = u .. 1, so each
    element is one search in a column of binomials.  C(m, u) is at most
    `_MAX_LEVEL_COMBOS` (`_plan` refuses larger levels).
    """
    table = _binomials(m, u)
    rest = comb(m, u) - 1 - np.arange(start, start + count, dtype=np.int64)
    out = np.empty((count, u), dtype=np.int64)
    for k in range(u, 0, -1):
        y = np.searchsorted(table[k], rest, side="right") - 1
        out[:, u - k] = m - 1 - y
        rest -= table[k][y]
    return out


def _vote_permutations(tables: GraphTables) -> np.ndarray:
    """The unit's nontrivial automorphisms as (A, M) vote-index permutations."""
    index = {vote: i for i, vote in enumerate(tables.votes)}
    perms = []
    for image in automorphisms(tables.forest):
        move = lambda cp: Checkpoint(image[cp.block], cp.c, cp.p)
        perms.append([index[FfgVote(move(v.source), move(v.target))] for v in tables.votes])
    return np.array(perms, dtype=np.int64).reshape(len(perms), len(tables.votes))


@dataclass(frozen=True)
class _Unit:
    """A scanned unit's tables and its automorphisms as vote permutations."""

    tables: GraphTables
    perms: np.ndarray


def _kept_combinations(
    unit: _Unit, u: int, lo: int, hi: int, mode: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(positions, combinations, minimal): the size-u vote combinations of
    ranks lo .. hi - 1 that the monotone bound keeps, in canonical order;
    positions are ranks, and `minimal` marks the kept combinations that are
    lexicographically minimal in their orbit under the unit's automorphisms,
    the only ones scanned.

    The lfp/gfp comparison has no bound and keeps every combination.  The
    orbit filter runs after the bound, which is relabelling-invariant.
    """
    chunk = _combinations(len(unit.tables.votes), u, lo, hi - lo)
    if mode == MODE_LFP_NE_GFP:
        keep = np.arange(hi - lo)
    else:
        keep = np.flatnonzero(bound_combinations(unit.tables, chunk, mode))
    combos = chunk[keep]
    return lo + keep, combos, orbit_minimal(combos, unit.perms)


def _scan_range(
    plan: _Plan,
    unit: _Unit,
    u: int,
    lo: int,
    hi: int,
    limit: Optional[int] = None,
    stopped: Optional[Callable[[], bool]] = None,
) -> Optional[_Counts]:
    """Scan the size-u combinations of ranks lo .. hi - 1 of a unit in order,
    all kept and orbit-minimal ones in one kernel call.

    With a `limit` (the budget left), the range is counted, not scanned: the
    caller knows that no hit lies among its first `limit` checked rows.
    Every kept combination checks `n_rows` rows, scanned or settled by
    symmetry, so the cut falls in combination `cut_at` after `part` rows, and
    the scanned rows are those of the minimal combinations before it, plus
    `part` if it is minimal itself.  `stopped` is polled before the range is
    bounded; a scan it stops returns None.
    """
    if stopped is not None and stopped():
        return None
    bounds = plan.bounds
    states, rows_pruned, total_rows = state_table(
        u, bounds.n_validators, bounds.max_votes, plan.min_signers
    )
    n_rows = states.shape[0]
    positions, combos, minimal = _kept_combinations(unit, u, lo, hi, plan.mode)
    # hit and checked count the rows of every kept combination in scan order;
    # only the minimal combinations (`scan`) reach the kernel
    rows = positions.size * n_rows
    hit = -1
    if limit is None and n_rows and minimal.any():
        scan = np.flatnonzero(minimal)
        families = quorum_families(
            u, bounds.n_validators, bounds.max_votes, plan.min_signers, plan.mutation
        )
        projected = project_tables(unit.tables, combos[scan])
        scan_hit, scanned = scan_states(states, families, projected, bounds.n_validators, plan.mode)
        if scan_hit >= 0:
            hit = int(scan[scan_hit // n_rows]) * n_rows + scan_hit % n_rows
        checked = hit + 1 if hit >= 0 else rows
    else:
        checked = rows if limit is None else min(rows, limit)
        cut_at, part = divmod(checked, n_rows) if n_rows else (0, 0)
        scanned = n_rows * int(minimal[:cut_at].sum()) + (part if part and minimal[cut_at] else 0)
    # count the combinations up to the hit or budget cut, else the whole range
    ended = hit >= 0 or checked < rows
    kept = (hit if hit >= 0 else checked) // n_rows + 1 if ended else positions.size
    skipped = (int(positions[kept - 1]) + 1 if ended else hi) - lo - kept  # dropped by the bound
    found = None
    if hit >= 0:
        found = (u, tuple(int(x) for x in combos[kept - 1]),
                 tuple(int(x) for x in states[hit % n_rows]))
    return _Counts(
        checked,
        skipped * total_rows + kept * rows_pruned,
        skipped * n_rows,
        checked - scanned,
        hit=found,
        cut=hit < 0 and ended,
    )


def _scan_task(
    plan: _Plan,
    unit: _Unit,
    segments: list[tuple[int, int, int]],
    limit: Optional[int] = None,
    stopped: Optional[Callable[[], bool]] = None,
) -> Optional[_Counts]:
    """Scan, or with a `limit` count, a task's (u, lo, hi) segments in order,
    as `_scan_range` does one: the limit left carries from segment to
    segment, and the task ends at a hit or a budget cut; a scan `stopped`
    ends returns None."""
    total = _Counts()
    for u, lo, hi in segments:
        left = None if limit is None else limit - total.checked
        counts = _scan_range(plan, unit, u, lo, hi, left, stopped)
        if counts is None:
            return None
        total += counts
        if total.hit is not None or total.cut:
            break
    return total


def materialize_state(
    bounds: Bounds, tables: GraphTables, combo: tuple[int, ...], masks: tuple[int, ...]
) -> ProtocolState:
    """Rebuild the ProtocolState for one canonical assignment row."""
    votes = []
    for validator, mask in enumerate(masks):
        for pos, vote_idx in enumerate(combo):
            if (mask >> pos) & 1:
                votes.append(SignedVote(tables.votes[vote_idx], validator))
    return ProtocolState(
        tables.forest, bounds.n_validators, frozenset(votes), bounds.slot_rule
    )


_VACUITY_MODES = (MODE_COUNTEREXAMPLE, MODE_CONFLICTING_FINALIZED)


@dataclass
class _Plan:
    """Every unit of a run in canonical order, and the scan tasks of the
    first unit of each isomorphism class.

    A class's first unit is settled whole when it is vacuous (a safety mode
    and no conflicting checkpoint pair: its rows are counted from its vote
    count, not scanned, and no other table of it is built).  Otherwise its
    levels u = 0, 1, ... are laid end to end in canonical order and cut
    into tasks of `_BOUND_CHUNK` combinations of that sequence (the last
    one shorter), numbered in canonical order; each class starts a new
    task.  Later units of a class reuse its counts.

    The plan ends at the first level whose tables are over a size limit
    (`refusal`: that unit and its error).  No task lies past it, so a run
    whose hit or budget cut comes first ends as before, and one that reaches
    it is refused there.
    """

    bounds: Bounds
    mutation: Mutation
    mode: int
    min_signers: int
    units: list[BlockForest]
    keys: list[tuple]
    reps: dict[int, _Unit] = field(default_factory=dict)    # first unit of a scanned class
    vacuous: dict[int, int] = field(default_factory=dict)   # vote count of a vacuous one
    tasks: dict[int, range] = field(default_factory=dict)   # task numbers of a scanned one
    levels: list[tuple[int, int]] = field(default_factory=list)  # (unit, u) per level
    # position of each level's first combination: a class's sequence starts
    # at its first task times `_BOUND_CHUNK`, and task i holds positions
    # i * _BOUND_CHUNK .. (i + 1) * _BOUND_CHUNK - 1
    starts: list[int] = field(default_factory=list)
    n_tasks: int = 0
    refusal: Optional[tuple[int, InputError]] = None

    def task(self, i: int) -> tuple[_Unit, list[tuple[int, int, int]]]:
        """(unit, segments): task i scans, for each (u, lo, hi) segment in
        order, the size-u combinations of ranks lo .. hi - 1."""
        begin, end = i * _BOUND_CHUNK, (i + 1) * _BOUND_CHUNK
        level = bisect.bisect_right(self.starts, begin) - 1
        index = self.levels[level][0]
        unit = self.reps[index]
        segments = []
        for k in range(level, len(self.levels)):
            (owner, u), start = self.levels[k], self.starts[k]
            if owner != index or start >= end:
                break
            size = comb(len(unit.tables.votes), u)
            segments.append((u, max(begin - start, 0), min(end - start, size)))
        return unit, segments


def _plan(bounds: Bounds, mutation: Mutation, mode: int, min_signers: int) -> _Plan:
    """Build the scan plan, up to the first level over a size limit."""
    units = list(iter_units(bounds))
    plan = _Plan(bounds, mutation, mode, min_signers, units, [unit_key(f) for f in units])
    seen, checked_levels = set(), set()
    for index, (forest, key) in enumerate(zip(units, plan.keys)):
        if key in seen:
            continue
        seen.add(key)
        first = plan.n_tasks
        position = first * _BOUND_CHUNK
        try:
            chkp_bound = _chkp_bound(bounds, forest)
            universe = unit_universe(forest, bounds.slot_rule, chkp_bound)
            _, votes, cp_conflict = universe
            scanned = mode not in _VACUITY_MODES or bool(cp_conflict.any())
            if scanned:
                tables = build_graph_tables(
                    forest, bounds.slot_rule, chkp_bound, mutation, universe
                )
                plan.reps[index] = _Unit(tables, _vote_permutations(tables))
            else:
                plan.vacuous[index] = len(votes)
            for u in _distinct_vote_range(bounds, len(votes)):
                if (u, scanned) not in checked_levels:
                    check_level(u, bounds.n_validators, bounds.max_votes, min_signers, scanned)
                    checked_levels.add((u, scanned))
                if scanned:
                    n_combos = comb(len(votes), u)
                    if n_combos > _MAX_LEVEL_COMBOS:
                        raise InputError(
                            f"{n_combos} combinations of {u} of {len(votes)} votes "
                            "exceed the rank limit 2**62; lower max_ffg_votes or max_chkp_slot"
                        )
                    plan.levels.append((index, u))
                    plan.starts.append(position)
                    position += n_combos
                    plan.n_tasks = -(-position // _BOUND_CHUNK)
        except InputError as error:
            # the refused unit keeps the tasks of its levels that fit
            plan.tasks[index] = range(first, plan.n_tasks)
            plan.refusal = (index, error)
            return plan
        if scanned:
            plan.tasks[index] = range(first, plan.n_tasks)
    return plan


_NO_STOP = (1 << 63) - 1


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _start_helper(ctx, tasks: _Tasks, writer) -> multiprocessing.process.BaseProcess:
    helper = ctx.Process(target=_help, args=(tasks, writer), daemon=True)
    helper.start()
    return helper


def _help(tasks: _Tasks, writer) -> None:
    """A helper process: claim tasks in plan order, send back their counts."""
    while True:
        i = tasks.claim()
        if i is None:
            return
        try:
            counts = tasks.scan(i)
        except Exception:
            writer.send((i, traceback.format_exc()))
            return
        if counts is not None:
            writer.send((i, counts))


class _Tasks:
    """The plan's scan tasks, claimed in plan order by the calling process and
    by forked helpers, and each scanned whole, without the budget, which
    only `_fold` applies.  They share the next task to claim and the stop
    index: the lowest task known to end the run (a hit or a budget cut).  No
    task past it is claimed, and a running one is abandoned between
    segments.
    """

    def __init__(self, plan: _Plan):
        self.plan = plan
        self.shared, self.lock = [0, _NO_STOP], contextlib.nullcontext()
        self.done: dict[int, object] = {}   # task -> counts, or a helper's traceback
        self.helpers: list = []
        self.readers: list = []             # result pipes of helpers still running

    def fork(self, jobs: int) -> None:
        """Start min(jobs, usable CPUs) - 1 helpers, none if one task or less."""
        n_helpers = min(jobs, _usable_cpus(), self.plan.n_tasks) - 1
        if n_helpers < 1:
            return
        ctx = multiprocessing.get_context("fork")
        shared = memoryview(mmap.mmap(-1, 16)).cast("q")   # anonymous, so inherited
        shared[0], shared[1] = self.shared
        self.shared, self.lock = shared, ctx.Lock()
        for _ in range(n_helpers):
            reader, writer = ctx.Pipe(duplex=False)
            self.readers.append(reader)
            self.helpers.append(_start_helper(ctx, self, writer))
            writer.close()

    def claim(self) -> Optional[int]:
        with self.lock:
            i = self.shared[0]
            if i >= self.plan.n_tasks or i > self.shared[1]:
                return None
            self.shared[0] = i + 1
        return i

    def stop(self, i: int) -> None:
        with self.lock:
            self.shared[1] = min(self.shared[1], i)

    def scan(self, i: int) -> Optional[_Counts]:
        counts = _scan_task(self.plan, *self.plan.task(i), stopped=lambda: self.shared[1] < i)
        if counts is not None and counts.hit is not None:
            self.stop(i)
        return counts

    def result(self, i: int) -> _Counts:
        """Task i's counts; tasks are claimed and scanned here until it is done."""
        while i not in self.done:
            self._receive(0)
            if i in self.done:
                break
            j = self.claim()
            if j is not None:
                counts = self.scan(j)
                if counts is not None:
                    self.done[j] = counts
            elif self.readers:
                self._receive(None)
            else:
                raise RuntimeError(f"scan task {i} was lost: its helper exited without a result")
        counts = self.done.pop(i)
        if isinstance(counts, str):
            raise RuntimeError(f"scan task {i} failed in a helper process:\n{counts}")
        return counts

    def _receive(self, timeout: Optional[float]) -> None:
        if not self.readers:
            return
        for reader in connection.wait(self.readers, timeout):
            try:
                i, counts = reader.recv()
            except EOFError:
                self.readers.remove(reader)
                reader.close()
            else:
                self.done[i] = counts

    def close(self) -> None:
        """Stop and reap the helpers; the task each was running is abandoned."""
        for helper in self.helpers:
            helper.kill()
        for helper in self.helpers:
            helper.join()
        for reader in self.readers:
            reader.close()
        self.helpers, self.readers = [], []


def _fold(
    plan: _Plan, tasks: _Tasks, budget: Optional[int]
) -> tuple[_Counts, int, Optional[_Unit]]:
    """Fold the plan in canonical order, stopping at the first hit or budget cut.

    Returns the counts up to there, the number of units visited and the
    hit's unit.  The budget is applied here only, by counting: tasks are
    scanned without it, and a task whose checked rows exceed the budget
    left holds no hit before the cut (its hit, if any, is its last checked
    row), so its cut is counted with `_scan_range`'s limit, on the row a
    sequential scan would stop at.  A later unit of a class reuses the
    class's counts when the budget left covers them (no tables are built for
    it); otherwise it holds no hit either, and its class's tasks are counted
    on its own tables, whose labelling places the bound's and the orbit
    filter's combinations.  The plan's refusal is raised when the fold
    reaches it.
    """
    run = _Counts()
    memo: dict[tuple, tuple[int, _Counts]] = {}   # class key -> (first unit, its counts)
    for index, key in enumerate(plan.keys):
        if index in plan.tasks:
            total = _Counts()
            for i in plan.tasks[index]:
                left = None if budget is None else budget - run.checked
                counts = tasks.result(i)
                if left is not None and counts.checked > left:
                    tasks.stop(i)
                    counts = _scan_task(plan, *plan.task(i), limit=left)
                total += counts
                run += counts
                if run.hit is not None or run.cut:
                    return run, index + 1, plan.reps[index]
            if plan.refusal is not None and plan.refusal[0] == index:
                raise plan.refusal[1]
            memo[key] = (index, total)
        elif index in plan.vacuous:
            n_votes = plan.vacuous[index]
            counts = _Counts(pruned=_unit_total_states(plan.bounds, n_votes))
            memo[key] = (index, counts)
            run += counts
        else:
            first, known = memo[key]
            if budget is None or budget - run.checked >= known.checked:
                run += replace(known, symmetric=known.checked)
                continue
            forest = plan.units[index]
            tables = build_graph_tables(
                forest, plan.bounds.slot_rule, _chkp_bound(plan.bounds, forest), plan.mutation
            )
            unit = _Unit(tables, _vote_permutations(tables))
            for i in plan.tasks[first]:
                run += _scan_task(plan, unit, plan.task(i)[1], limit=budget - run.checked)
                if run.cut:
                    return run, index + 1, unit
    return run, len(plan.keys), None


def _run(
    bounds: Bounds,
    mutation: Mutation,
    mode: int,
    min_signers: int,
    budget: Optional[int],
    jobs: int,
) -> tuple[_Counts, int, Optional[_Unit]]:
    """Plan the run, then fold it with the calling process and jobs - 1 helpers."""
    if budget is not None and budget < 0:
        raise InputError("budget must be non-negative")
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    plan = _plan(bounds, mutation, mode, min_signers)
    tasks = _Tasks(plan)
    try:
        tasks.fork(jobs)
        return _fold(plan, tasks, budget)
    finally:
        tasks.close()


def _disagrees(what: str) -> RuntimeError:
    return RuntimeError(f"kernel {what} does not replay: kernel and reference disagree")


def search(
    bounds: Bounds,
    mutation: Mutation = Mutation.NONE,
    budget: Optional[int] = None,
    jobs: int = 1,
) -> SearchReport:
    """Exhaust the bounded space or stop at the first (canonical) counterexample."""
    start = time.perf_counter()
    min_signers = min_signers_for_quorum(bounds.n_validators) if mutation == Mutation.NONE else 0
    run, graphs, unit = _run(bounds, mutation, MODE_COUNTEREXAMPLE, min_signers, budget, jobs)
    wall = time.perf_counter() - start
    counterexample = None
    if run.hit is not None:
        state = materialize_state(bounds, unit.tables, *run.hit[1:])
        safety = accountable_safety(state, mutation)
        if safety.holds:
            raise _disagrees("counterexample")
        counterexample = Counterexample(state, safety, graphs - 1)
        verdict = VERDICT_COUNTEREXAMPLE
    else:
        verdict = VERDICT_INCONCLUSIVE if run.cut else VERDICT_HOLDS
    return SearchReport(
        verdict=verdict,
        counterexample=counterexample,
        states_checked=run.checked,
        graphs_checked=graphs,
        states_pruned=run.pruned,
        states_bounded=run.bounded,
        states_symmetric=run.symmetric,
        wall_time=wall,
        budget=budget,
    )


def find_example(
    bounds: Bounds, property_name: str, budget: Optional[int] = None
) -> Optional[ProtocolState]:
    """First state (canonical order) satisfying the property, or None.

    All three findable properties need a justification quorum of distinct
    senders, so the quorum-of-signers floor applies here as in unmutated
    search runs.  The state found is checked against `finality_view`.
    """
    try:
        mode = PROPERTY_MODES[property_name]
    except KeyError:
        raise InputError(
            f"unknown property {property_name!r}; choose from {', '.join(PROPERTY_MODES)}"
        ) from None
    min_signers = min_signers_for_quorum(bounds.n_validators)
    run, _, unit = _run(bounds, Mutation.NONE, mode, min_signers, budget, jobs=1)
    if run.cut:
        raise SearchBudgetExceeded(run.checked)
    if run.hit is None:
        return None
    state = materialize_state(bounds, unit.tables, *run.hit[1:])
    view = finality_view(state)
    if mode == MODE_CONFLICTING_FINALIZED:
        holds = disagreement(state, view)
    else:
        found = view.finalized if mode == MODE_FINALIZED_NONGENESIS else view.justified
        holds = bool(found - {GENESIS_CHECKPOINT})
    if not holds:
        raise _disagrees("example")
    return state


@dataclass(frozen=True)
class FixpointReport:
    states_checked: int
    states_symmetric: int   # part of states_checked settled by symmetry, not scanned
    mismatch: Optional[ProtocolState]


def check_lfp_gfp(bounds: Bounds, mutation: Mutation = Mutation.NONE) -> FixpointReport:
    """Compare least and greatest justification fixpoints over every state.

    A mismatch is confirmed by both reference fixpoints over its unit's
    checkpoints.
    """
    run, _, unit = _run(bounds, mutation, MODE_LFP_NE_GFP, min_signers=0, budget=None, jobs=1)
    mismatch = None
    if run.hit is not None:
        mismatch = materialize_state(bounds, unit.tables, *run.hit[1:])
        universe = unit.tables.checkpoints
        if justified_checkpoints(mismatch, universe, mutation) == justified_checkpoints_gfp(
            mismatch, universe, mutation
        ):
            raise _disagrees("fixpoint mismatch")
    return FixpointReport(
        states_checked=run.checked, states_symmetric=run.symmetric, mismatch=mismatch
    )
