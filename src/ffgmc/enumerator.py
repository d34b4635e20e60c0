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
searches, where the property holds vacuously, and so is one none of whose
levels has a row under the signer floor.  Within a unit, the monotone
combination bound keeps only the distinct-vote combinations whose unanimity
state can hit (`kernels.KeptCombinations`, which generates them level by
level from reachable cores); only those are projected and scanned, in the
same canonical order.  Rows of the others count as pruned, so checked +
pruned always covers the whole space.

Block relabelling is exploited at two levels (`ffgmc.symmetry`, which also
gives the soundness argument): only the first unit of each isomorphism
class is scanned, later ones reuse its counts, and within a unit only the
kept combinations that are lexicographically minimal in their orbit under
the unit's automorphisms are scanned.  Rows settled that way count as
checked (and separately as symmetric), exactly as a scan would count them.

`search` and `find_example` run one scan plan (`_plan`), built in one walk
over the units (`_classes`, which `check_lfp_gfp` reads too): the class
number of every unit in canonical order, and for the first unit of each
class, either its vote count, when it is settled whole, or one scan task.
The plan holds no unit's forest beyond a task's tables.  A task scans its
class's levels (distinct-vote counts u = 0, 1, ...) in canonical order,
with one kernel call per level that holds an orbit-minimal kept
combination.  With jobs > 1 and more than one task, forked helpers scan
the tasks, which the calling process hands out one at a time (`_scans`);
results fold in plan order (`_fold`), so every report equals the
single-process one.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import time
from dataclasses import dataclass, field, replace
from math import comb
from typing import Iterator, Optional

import numpy as np

from .finality import finality_view
from .kernels import (
    MODE_CONFLICTING_FINALIZED,
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    rank,
    scan_states,
)
from .model import (
    GENESIS,
    GENESIS_CHECKPOINT,
    Block,
    BlockForest,
    InputError,
    ProtocolState,
    SignedVote,
)
from .mutation import Mutation
from .slashing import SafetyVerdict, accountable_safety, disagreement
from .symmetry import orbit_minimal, unit_key
from .tables import (
    GraphTables,
    build_graph_tables,
    check_level,
    min_signers_for_quorum,
    project_tables,
    state_count,
    state_table,
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
    max_votes.  A `graph_filter` (one catalog graph) takes n_blocks = 0.
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
        if self.graph_filter is not None and self.n_blocks != 0:
            raise InputError("a catalog graph fixes its own blocks: n_blocks must be 0")
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
    identified with a genesis child); forests are emitted in lexicographic
    parent-vector order.  Only acyclic vectors are built: blocks are placed
    in order, and block i takes parent p unless p's chain over the blocks
    already placed leads back to i.  Depths are read off the finished vector.
    """
    if n < 0:
        raise InputError("forest size must be non-negative")
    names = [f"b{i}" for i in range(1, n + 1)]
    parents = [0] * n   # parents[i] = 0 means genesis, j >= 1 means block b_j

    def depth(i: int) -> int:
        return 1 if parents[i] == 0 else depth(parents[i] - 1) + 1

    def place(i: int) -> Iterator[BlockForest]:
        if i == n:
            yield BlockForest(
                Block(names[j], depth(j), GENESIS if parents[j] == 0 else names[parents[j] - 1])
                for j in range(n)
            )
            return
        for p in range(n + 1):
            j = p - 1
            while 0 <= j < i:
                j = parents[j] - 1
            if j != i:
                parents[i] = p
                yield from place(i + 1)

    yield from place(0)


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


def _classes(bounds: Bounds) -> Iterator[tuple[BlockForest, int, bool]]:
    """(unit, class, first): each unit in canonical order, the number of its
    isomorphism class (`unit_key`, classes numbered by first appearance) and
    whether it is the first unit of that class."""
    numbers: dict[tuple, int] = {}
    for forest in iter_units(bounds):
        key = unit_key(forest)
        first = key not in numbers
        yield forest, numbers.setdefault(key, len(numbers)), first


def _graph_tables(bounds: Bounds, forest: BlockForest, mutation: Mutation) -> GraphTables:
    """A unit's graph tables, over the checkpoints up to `max_chkp_slot`, or
    for a catalog graph with no such cap, up to one past its last slot."""
    chkp = bounds.max_chkp_slot
    if chkp is None:
        chkp = max(b.slot for b in forest) + 1
    return build_graph_tables(forest, bounds.slot_rule, chkp, mutation)


def _distinct_vote_range(bounds: Bounds, n_votes: int) -> range:
    return range(0, min(bounds.max_ffg_votes, n_votes, bounds.max_votes) + 1)


def _unit_total_states(bounds: Bounds, n_votes: int) -> int:
    """Rows of a unit with `n_votes` valid votes, counted without a row table."""
    return sum(
        comb(n_votes, u) * state_count(u, bounds.n_validators, bounds.max_votes, 0)
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
    hit: Optional[tuple] = None  # (combo, row masks)
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


def _kept_combinations(plan: _Plan, tables: GraphTables, u: int) -> tuple[np.ndarray, np.ndarray]:
    """(combinations, minimal): the size-u vote combinations that the
    monotone bound keeps (`GraphTables.kept`, up to the unit's last level),
    in canonical order, and which of them are lexicographically minimal in
    their orbit under the unit's automorphisms, the only ones scanned.  The
    orbit filter runs after the bound, which is relabelling-invariant.
    """
    top = _distinct_vote_range(plan.bounds, len(tables.votes))[-1]
    combos = tables.kept(plan.mode, top).level(u)
    minimal = orbit_minimal(combos, tables.perms) if len(combos) else np.zeros(0, dtype=bool)
    return combos, minimal


def _scan_level(plan: _Plan, tables: GraphTables, u: int, limit: Optional[int] = None) -> _Counts:
    """Scan the size-u combinations of a unit in order, all kept and
    orbit-minimal ones in one kernel call.

    Rows are counted by `state_count`; the level's `state_table` is built
    only for that kernel call.  With a `limit` (the budget left), the level
    is counted, not scanned: the caller knows that no hit lies among its
    first `limit` checked rows.  Every kept combination checks `n_rows`
    rows, scanned or settled by symmetry, so one stop rule counts every
    level: after `stop` checked rows it stops in kept combination `cut_at`
    after `part` rows, and the scanned rows are those of the minimal
    combinations before it, plus `part` if it is minimal itself.  A hit at
    kept row h stops at h, and the hit row is checked and scanned too; a
    budget cut stops at `limit`, and a whole level after its last row.  The
    combinations the bound dropped before a stop are counted from the rank
    of the one it stops in (`kernels.rank`).
    """
    n_validators, max_votes = plan.bounds.n_validators, plan.bounds.max_votes
    n_rows = state_count(u, n_validators, max_votes, plan.min_signers)
    total_rows = state_count(u, n_validators, max_votes, 0)
    n_combos = comb(len(tables.votes), u)
    combos, minimal = _kept_combinations(plan, tables, u)
    if not len(combos):
        return _Counts(pruned=n_combos * total_rows, bounded=n_combos * n_rows)
    # stop and scanned count the rows of every kept combination in scan order;
    # only the minimal combinations (`scan`) reach the kernel
    rows = len(combos) * n_rows
    stop, found = rows if limit is None else min(rows, limit), None
    if limit is None and n_rows and minimal.any():
        scan = np.flatnonzero(minimal)
        level = state_table(u, n_validators, max_votes, plan.min_signers, plan.mutation)
        projected = project_tables(tables, combos[scan])
        scan_hit, _ = scan_states(level, projected, n_validators, plan.mode)
        if scan_hit >= 0:
            stop = int(scan[scan_hit // n_rows]) * n_rows + scan_hit % n_rows
            found = (tuple(int(x) for x in combos[stop // n_rows]),
                     tuple(int(x) for x in level[0][stop % n_rows]))
    hit = found is not None
    checked = stop + hit
    cut_at, part = divmod(stop, n_rows) if n_rows else (0, 0)
    scanned = n_rows * int(minimal[:cut_at].sum()) + (part if part and minimal[cut_at] else 0) + hit
    # count the combinations up to the stop row, else the whole level
    ended = hit or stop < rows
    kept = cut_at + 1 if ended else len(combos)
    skipped = (rank(combos[cut_at], len(tables.votes)) + 1 if ended else n_combos) - kept
    return _Counts(
        checked,
        skipped * total_rows + kept * (total_rows - n_rows),
        skipped * n_rows,
        checked - scanned,
        hit=found,
        cut=ended and not hit,
    )


def _scan_task(
    plan: _Plan,
    tables: GraphTables,
    levels: range,
    limit: Optional[int] = None,
    budget: Optional[int] = None,
) -> _Counts:
    """Scan, or with a `limit` count, a class's `levels` in order, as
    `_scan_level` does one: the limit left carries from level to level, and
    the task ends at a hit or a budget cut.  A scan also ends after the
    level that takes its checked rows past the run's `budget`: the run is
    cut within those levels, where the fold counts the cut with a limit."""
    total = _Counts()
    for u in levels:
        left = None if limit is None else limit - total.checked
        total += _scan_level(plan, tables, u, left)
        if total.hit is not None or total.cut or (budget is not None and total.checked > budget):
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
    """The class number of every unit of a run in canonical order, and one
    scan task for the first unit of each isomorphism class that is not
    settled whole.  No unit's forest is held: a task's tables hold its own.

    A class's first unit is settled whole when it is vacuous (a safety mode
    and no conflicting checkpoint pair) or floor-empty (`tables.state_count`
    is 0 at every level under the signer floor, so a scan would check no
    row and prune every one): its rows are counted from its vote count by
    `tables.state_count`, not scanned.  Of its graph tables only `votes` is
    read, and `cp_conflict` in the safety modes, so no other relation of it
    is evaluated and no size limit applies to it.  Otherwise its task,
    (first unit, tables, levels), scans its levels u = 0, 1, ... in
    canonical order; tasks are numbered in canonical order.  Later units of
    a class reuse its counts.

    Planning ends at the first scanned level whose tables are over a size
    limit (`tables.check_level`; `refusal`: that unit and its error).  The
    refused unit's task holds only the levels before it, so a run whose hit
    or budget cut comes first ends as before, and one that reaches it is
    refused there.  `classes` ends at the refused unit: the fold cannot get
    past it, so no later unit is walked.
    """

    bounds: Bounds
    mutation: Mutation
    mode: int
    min_signers: int
    classes: list[int] = field(default_factory=list)        # class number of each unit
    vacuous: dict[int, int] = field(default_factory=dict)   # vote count of a settled one
    tasks: list[tuple[int, GraphTables, range]] = field(default_factory=list)
    refusal: Optional[tuple[int, InputError]] = None


def _plan(bounds: Bounds, mutation: Mutation, mode: int, min_signers: int) -> _Plan:
    """Build the scan plan, up to the first level over a size limit."""
    plan = _Plan(bounds, mutation, mode, min_signers)
    for index, (forest, number, first) in enumerate(_classes(bounds)):
        plan.classes.append(number)
        if not first:
            continue
        try:
            tables = _graph_tables(bounds, forest, mutation)
            n_votes = len(tables.votes)
            levels = _distinct_vote_range(bounds, n_votes)
            if (mode in _VACUITY_MODES and not tables.cp_conflict.any()) or not any(
                state_count(u, bounds.n_validators, bounds.max_votes, min_signers) for u in levels
            ):
                plan.vacuous[index] = n_votes
                continue
            plan.tasks.append((index, tables, range(0)))
            for u in levels:
                check_level(u, bounds.n_validators, bounds.max_votes, min_signers)
                plan.tasks[-1] = (index, tables, range(u + 1))
        except InputError as error:
            plan.refusal = (index, error)
            break
    return plan


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _start_helper(ctx, plan: _Plan, budget: Optional[int], pipe):
    helper = ctx.Process(target=_help, args=(plan, budget, pipe), daemon=True)
    helper.start()
    return helper


def _help(plan: _Plan, budget: Optional[int], pipe) -> None:
    """A helper process: scan each task whose index arrives, and send back
    its counts or the traceback of its failure."""
    import traceback

    for i in iter(pipe.recv, None):
        _, tables, levels = plan.tasks[i]
        try:
            counts = _scan_task(plan, tables, levels, budget=budget)
        except Exception:
            counts = traceback.format_exc()
        pipe.send(counts)


def _scans(plan: _Plan, budget: Optional[int], jobs: int) -> Iterator[_Counts]:
    """Each scan task's counts, in plan order.  A task is scanned without the
    budget, which only `_fold` applies, up to a hit or past the run's
    `budget` (`_scan_task`).

    With min(jobs, usable CPUs, tasks) >= 2 that many forked helpers scan
    the tasks, and the calling process only hands them out: a helper is sent
    the next task index whenever it reports, but none past the lowest task
    known to hit.  A task whose helper exits without a result is lost, and
    raises when it is reached; closing the generator kills and reaps every
    helper.  Otherwise the tasks are scanned here, and no process module is
    loaded.
    """
    n_helpers = min(jobs, _usable_cpus(), len(plan.tasks))
    if n_helpers < 2:
        for _, tables, levels in plan.tasks:
            yield _scan_task(plan, tables, levels, budget=budget)
        return
    import multiprocessing
    from multiprocessing import connection

    ctx = multiprocessing.get_context("fork")
    helpers, idle, running = [], [], {}   # running: pipe -> its helper's task
    done: dict[int, object] = {}          # task -> counts, a traceback, or None if lost
    sent, end = 0, len(plan.tasks)        # tasks handed out; tasks up to the first hit
    try:
        for _ in range(n_helpers):
            pipe, theirs = ctx.Pipe()
            helpers.append(_start_helper(ctx, plan, budget, theirs))
            theirs.close()
            idle.append(pipe)
        for i in range(len(plan.tasks)):
            while i not in done:
                while idle and sent < end:
                    pipe = idle.pop()
                    with contextlib.suppress(OSError):   # a helper gone is seen at recv
                        pipe.send(sent)
                    running[pipe], sent = sent, sent + 1
                for pipe in connection.wait(running):
                    task = running.pop(pipe)
                    try:
                        done[task] = pipe.recv()
                        idle.append(pipe)
                    except (EOFError, OSError):
                        done[task] = None
                        pipe.close()
                    if isinstance(done[task], _Counts) and done[task].hit is not None:
                        end = min(end, task + 1)
            counts = done.pop(i)
            if counts is None:
                raise RuntimeError(f"scan task {i} was lost: its helper exited without a result")
            if isinstance(counts, str):
                raise RuntimeError(f"scan task {i} failed in a helper process:\n{counts}")
            yield counts
    finally:
        for helper in helpers:
            helper.kill()
            helper.join()
        for pipe in idle + list(running):
            pipe.close()


def _fold(
    plan: _Plan, scans: Iterator[_Counts], budget: Optional[int]
) -> tuple[_Counts, int, Optional[GraphTables]]:
    """Fold the plan in canonical order, stopping at the first hit or budget cut.

    Returns the counts up to there, the number of units visited and the
    graph tables of the hit's unit.  The budget is applied here only, by
    counting: a task whose checked rows exceed the budget left holds no hit
    before the cut (its hit, if any, is its last checked row), so its cut is
    counted with `_scan_level`'s limit, on the row a sequential scan would
    stop at.  A later unit of a class reuses the class's counts when the
    budget left covers them (no tables are built for it); otherwise it holds
    no hit either, and its class's levels are counted on its own tables,
    whose labelling places the bound's and the orbit filter's combinations.
    The plan holds no unit, so that unit's forest is regenerated by walking
    the units again up to it.  The plan's refusal is raised when the fold
    gets past its last unit, the refused one.  `scans` yields the tasks'
    counts in plan order (`_scans`).
    """
    run = _Counts()
    memo: dict[int, tuple[range, _Counts]] = {}   # class -> (its levels, its counts)
    task = 0   # the task of the next scanned class
    for index, number in enumerate(plan.classes):
        if task < len(plan.tasks) and plan.tasks[task][0] == index:
            _, tables, levels = plan.tasks[task]
            left = None if budget is None else budget - run.checked
            counts = next(scans)
            if left is not None and counts.checked > left:
                counts = _scan_task(plan, tables, levels, limit=left)
            task += 1
            run += counts
            if run.hit is not None or run.cut:
                return run, index + 1, tables
            memo[number] = (levels, counts)
        elif index in plan.vacuous:
            counts = _Counts(pruned=_unit_total_states(plan.bounds, plan.vacuous[index]))
            memo[number] = (range(0), counts)
            run += counts
        elif number in memo:
            levels, known = memo[number]
            if budget is None or budget - run.checked >= known.checked:
                run += replace(known, symmetric=known.checked)
                continue
            forest = next(itertools.islice(iter_units(plan.bounds), index, None))
            tables = _graph_tables(plan.bounds, forest, plan.mutation)
            run += _scan_task(plan, tables, levels, limit=budget - run.checked)
            return run, index + 1, tables
    if plan.refusal is not None:
        raise plan.refusal[1]
    return run, len(plan.classes), None


def _run(
    bounds: Bounds,
    mutation: Mutation,
    mode: int,
    min_signers: int,
    budget: Optional[int],
    jobs: int,
) -> tuple[_Counts, int, Optional[GraphTables]]:
    """Plan the run, then fold it, with its tasks scanned by up to `jobs`
    helper processes (`_scans`)."""
    if budget is not None and budget < 0:
        raise InputError("budget must be non-negative")
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    plan = _plan(bounds, mutation, mode, min_signers)
    scans = _scans(plan, budget, jobs)
    try:
        return _fold(plan, scans, budget)
    finally:
        scans.close()


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
    run, graphs, tables = _run(bounds, mutation, MODE_COUNTEREXAMPLE, min_signers, budget, jobs)
    wall = time.perf_counter() - start
    counterexample = None
    if run.hit is not None:
        state = materialize_state(bounds, tables, *run.hit)
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
    run, _, tables = _run(bounds, Mutation.NONE, mode, min_signers, budget, jobs=1)
    if run.cut:
        raise SearchBudgetExceeded(run.checked)
    if run.hit is None:
        return None
    state = materialize_state(bounds, tables, *run.hit)
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
    mismatch: Optional[ProtocolState]   # always None: no state has two fixpoints


def check_lfp_gfp(bounds: Bounds, mutation: Mutation = Mutation.NONE) -> FixpointReport:
    """Show that least and greatest justification fixpoints agree on every state.

    They are equal by slot order (`kernels._eligible`), which
    `GraphTables.sandwich` checks when it is evaluated: here on the first
    unit of each isomorphism class, a relabelling of the others.  Every row
    counts as checked, by arithmetic; none is scanned.
    """
    votes: list[int] = []   # vote count of each class's first unit
    checked = 0
    for forest, number, first in _classes(bounds):
        if first:
            tables = _graph_tables(bounds, forest, mutation)
            tables.sandwich   # evaluated, so the slot order is checked
            votes.append(len(tables.votes))
        checked += _unit_total_states(bounds, votes[number])
    return FixpointReport(states_checked=checked, mismatch=None)
