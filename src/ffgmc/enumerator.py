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
state can hit (`kernels.kept_levels`, which a scan task reads level by
level as it grows reachable cores); only those are projected and scanned,
in the same canonical order.  Rows of the others count as pruned, so
checked + pruned always covers the whole space.

Block relabelling is exploited at two levels (`ffgmc.symmetry`, which also
gives the soundness argument): only the first unit of each isomorphism
class is scanned, later ones reuse its counts, and within a unit only the
kept combinations that are lexicographically minimal in their orbit under
the unit's automorphisms are scanned.  Rows settled that way count as
checked (and separately as symmetric), exactly as a scan would count them.

`search` and `find_example` run one scan plan (`_plan`), built in one walk
over the units (`_classes`, which `check_lfp_gfp` reads too): the class
number of every unit in canonical order, and for the first unit of each
class, either its counts, when the class is settled without a scan, or one
scan task.  The plan holds no unit's forest beyond a task's tables.  A task
scans its class's levels (distinct-vote counts u = 0, 1, ...) in canonical
order, with one kernel call per level that holds an orbit-minimal kept
combination, and returns a hit as its state.  With jobs > 1 and more than
one task, forked helpers scan the tasks in fixed shares, and the calling
process reads their results in plan order (`_scans`); the fold (`_fold`)
only counts, over the settled classes' and the tasks' counts in plan
order, so every report equals the single-process one.  The run's budget
is read from the plan where it is used: a task scans at most one level
past it, and only the fold cuts the run.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field, replace
from math import comb
from typing import Iterator, Optional, Sequence

import numpy as np

from .finality import finality_view
from .kernels import (
    MODE_CONFLICTING_FINALIZED,
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    kept_levels,
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
    # part of states_checked settled by symmetry, not scanned: every checked
    # row of a later unit of a class among them, up to a budget cut in it
    states_symmetric: int
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
    """Rows of one scan task, a unit of a settled class or a whole run, up to
    its hit or budget cut; a sum takes its hit and cut from the right operand."""

    checked: int = 0
    pruned: int = 0      # rows not scanned, bounded ones included
    bounded: int = 0     # rows of combinations the monotone bound dropped
    symmetric: int = 0   # checked rows settled by symmetry rather than scanned
    hit: Optional[ProtocolState] = None   # the state of its hit row
    cut: bool = False                     # the budget ran out inside

    def __add__(self, other: _Counts) -> _Counts:
        return _Counts(
            self.checked + other.checked,
            self.pruned + other.pruned,
            self.bounded + other.bounded,
            self.symmetric + other.symmetric,
            other.hit,
            other.cut,
        )


def _scan_level(
    plan: _Plan, tables: GraphTables, combos: np.ndarray, limit: Optional[int] = None
) -> _Counts:
    """Scan one level of a unit in order: its size-u vote combinations, of
    which the monotone bound keeps `combos` (`kernels.kept_levels`), in
    canonical order.  Only the kept ones that are lexicographically minimal
    in their orbit under the unit's automorphisms are scanned, all in one
    kernel call; the orbit filter runs after the bound, which is
    relabelling-invariant.

    Rows are counted by `state_count`; the level's `state_table` is built
    only for that kernel call.  With a `limit` (the budget left), the level
    is counted, not scanned: the caller knows that no hit lies among its
    first `limit` checked rows.  Every kept combination checks `n_rows`
    rows, scanned or settled by symmetry, so one stop rule counts every
    level: after `stop` checked rows it stops in kept combination `cut_at`
    after `part` rows, and the scanned rows are those of the minimal
    combinations before it, plus `part` if it is minimal itself.  A hit at
    kept row h stops at h, and the hit row is checked and scanned too, and
    returned as its state (`materialize_state`); a budget cut stops at
    `limit`, and a whole level after its last row.  The combinations the
    bound dropped before a stop are counted from the rank of the one it
    stops in (`kernels.rank`).
    """
    n_validators, max_votes = plan.bounds.n_validators, plan.bounds.max_votes
    u = combos.shape[1]
    n_rows = state_count(u, n_validators, max_votes, plan.min_signers)
    total_rows = state_count(u, n_validators, max_votes, 0)
    n_combos = comb(len(tables.votes), u)
    minimal = orbit_minimal(combos, tables.perms)
    # stop and scanned count the rows of every kept combination in scan order;
    # only the minimal combinations (`scan`) reach the kernel
    rows = len(combos) * n_rows
    stop, found = rows if limit is None else min(rows, limit), None
    if limit is None and n_rows and minimal.any():
        scan = np.flatnonzero(minimal)
        level = state_table(u, n_validators, max_votes, plan.min_signers, plan.mutation)
        projected = project_tables(tables, combos[scan])
        scan_hit, _ = scan_states(level, projected, plan.mode)
        if scan_hit >= 0:
            stop = int(scan[scan_hit // n_rows]) * n_rows + scan_hit % n_rows
            found = materialize_state(
                plan.bounds, tables, combos[stop // n_rows], level[0][stop % n_rows]
            )
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
    plan: _Plan, tables: GraphTables, levels: range, limit: Optional[int] = None
) -> _Counts:
    """Scan, or with a `limit` count, a class's `levels` u = 0, 1, ... in
    order, as `_scan_level` does one, each on the kept combinations that
    `kernels.kept_levels` grows for it when it is reached, so the cores
    last only as long as the task, and a level's combinations only as long
    as its `_scan_level` call: the limit left carries from level to level,
    and the task ends at a hit or a budget cut.  A scan also ends after the
    level that takes its checked rows past the run's budget (`_Plan`): the
    run is cut within those levels, where the fold counts the cut with a
    limit."""
    total, kept = _Counts(), kept_levels(tables, plan.mode, len(levels) - 1)
    for _ in levels:
        left = None if limit is None else limit - total.checked
        total += _scan_level(plan, tables, next(kept), left)
        past = plan.budget is not None and total.checked > plan.budget
        if total.hit is not None or total.cut or past:
            break
    return total


def materialize_state(
    bounds: Bounds, tables: GraphTables, combo: Sequence[int], masks: Sequence[int]
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
    """The class number of every unit of a run in canonical order, the
    counts of each settled class, and one scan task for the first unit of
    each other isomorphism class.  No unit's forest is held: a task's tables
    hold its own.

    A class is settled when its first unit is vacuous (a safety mode and no
    conflicting checkpoint pair) or floor-empty (`tables.state_count` is 0
    at every level under the signer floor, so a scan would check no row and
    prune every one): `settled` maps its number to the counts of one of its
    units, every row pruned, counted from its vote count by
    `tables.state_count`, not scanned.  Of its graph tables only `votes` is
    read, and `cp_conflict` in the safety modes, so no other relation of it
    is evaluated and only the checkpoint limit applies to it.  Otherwise its
    task, (tables of its first unit, levels), scans its levels u = 0, 1, ...
    in canonical order, and tasks are in canonical order.  `budget`, the
    run's, is read where a scan ends (`_scan_task`) and a cut is counted
    (`_fold`).

    Planning ends at the first scanned level whose tables are over a size
    limit (`tables.check_level`; `refusal`: its error), so the refused unit
    is the last one in `classes`: the fold cannot get past it, and no later
    unit is walked.  Its task holds only the levels before the refused one,
    and a unit refused at its checkpoints has no task, so a run whose hit or
    budget cut comes first ends as before, and one that reaches it is
    refused there.
    """

    bounds: Bounds
    mutation: Mutation
    mode: int
    min_signers: int
    budget: Optional[int] = None
    classes: list[int] = field(default_factory=list)           # class number of each unit
    settled: dict[int, _Counts] = field(default_factory=dict)  # class -> counts of a unit
    tasks: list[tuple[GraphTables, range]] = field(default_factory=list)
    refusal: Optional[InputError] = None


def _plan(bounds: Bounds, mutation: Mutation, mode: int, min_signers: int) -> _Plan:
    """Build the scan plan, up to the first level over a size limit.
    Planning reads no budget: `_run` sets the plan's."""
    plan = _Plan(bounds, mutation, mode, min_signers)
    for forest, number, first in _classes(bounds):
        plan.classes.append(number)
        if not first:
            continue
        try:
            tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot, mutation)
            n_votes = len(tables.votes)
            levels = _distinct_vote_range(bounds, n_votes)
            if (mode in _VACUITY_MODES and not tables.cp_conflict.any()) or not any(
                state_count(u, bounds.n_validators, bounds.max_votes, min_signers) for u in levels
            ):
                plan.settled[number] = _Counts(pruned=_unit_total_states(bounds, n_votes))
                continue
            plan.tasks.append((tables, range(0)))
            for u in levels:
                check_level(u, bounds.n_validators, bounds.max_votes, min_signers)
                plan.tasks[-1] = (tables, range(u + 1))
        except InputError as error:
            plan.refusal = error
            break
    return plan


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _start_helper(ctx, plan: _Plan, pipe, share: range, inherited: list):
    helper = ctx.Process(target=_help, args=(plan, pipe, share, inherited), daemon=True)
    helper.start()
    return helper


def _help(plan: _Plan, pipe, share: range, inherited: list) -> None:
    """A helper process: scan the tasks of its `share` in order, and send
    each one's counts, a hit as its state, or the traceback of its failure
    over its write-only `pipe`.  It first closes the calling process's pipe
    ends that it `inherited` through fork (its own read end and those of
    earlier helpers), so a send fails once the calling process is gone, and
    it then returns quietly.  It stops after a task of its own that hits or
    fails, since the fold reads no task past that one."""
    import traceback

    for end in inherited:
        end.close()
    for i in share:
        try:
            counts = _scan_task(plan, *plan.tasks[i])
        except Exception:
            counts = traceback.format_exc()
        try:
            pipe.send(counts)
        except BrokenPipeError:
            return
        if isinstance(counts, str) or counts.hit is not None:
            return


def _scans(plan: _Plan, jobs: int) -> Iterator[_Counts]:
    """Each scan task's counts, in plan order.  A task is scanned without the
    budget, which only `_fold` applies, up to a hit or past the run's
    budget (`_scan_task`).

    With H = min(jobs, usable CPUs, tasks) >= 2, H forked helpers scan the
    tasks in fixed shares: helper k scans tasks k, k + H, k + 2H, ... in
    order and only writes, one result per task over its own one-way pipe,
    so the calling process reads task i from pipe i mod H, in plan order,
    and sends nothing.  A helper stops at its own first hit or failure; it
    may scan past another helper's hit until the fold reaches that one.  A
    task whose pipe ends without a result was lost, and raises when it is
    reached; closing the generator kills and reaps every helper.  Otherwise
    the tasks are scanned here, and no process module is loaded.
    """
    n_helpers = min(jobs, _usable_cpus(), len(plan.tasks))
    if n_helpers < 2:
        for tables, levels in plan.tasks:
            yield _scan_task(plan, tables, levels)
        return
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    helpers, pipes = [], []
    try:
        for k in range(n_helpers):
            pipe, theirs = ctx.Pipe(duplex=False)
            pipes.append(pipe)
            share = range(k, len(plan.tasks), n_helpers)
            helpers.append(_start_helper(ctx, plan, theirs, share, list(pipes)))
            theirs.close()
        for i in range(len(plan.tasks)):
            try:
                counts = pipes[i % n_helpers].recv()
            except (EOFError, OSError):
                raise RuntimeError(f"scan task {i} was lost: its helper exited without a result")
            if isinstance(counts, str):
                raise RuntimeError(f"scan task {i} failed in a helper process:\n{counts}")
            yield counts
    finally:
        for helper in helpers:
            helper.kill()
            helper.join()
        for pipe in pipes:
            pipe.close()


def _fold(plan: _Plan, scans: Iterator[_Counts]) -> tuple[_Counts, int]:
    """Fold the plan in canonical order, stopping at the first hit or budget cut.

    Returns the counts up to there and the number of units visited.  Only
    counting happens here, in one body for every unit: a unit whose class is
    known (settled, or scanned at an earlier unit) reuses its counts, every
    checked row of a later unit settled by symmetry, and the first unit of
    any other class takes the next task's counts from `scans`, which yields
    them in plan order (`_scans`).  The plan's budget is applied here only,
    on one path: a unit whose checked rows exceed the budget left holds no
    hit before the cut (a task's hit, if any, is its last checked row, and
    a known class has none), so its cut is counted by `_scan_task` with that
    limit, on the row a sequential scan would stop at, and on the unit's own
    tables, whose labelling places the bound's and the orbit filter's
    combinations.  The plan holds no later unit, so its forest is
    regenerated by walking the units again up to it, and the rows of its
    cut, like those of a whole later unit, count as symmetric.  The plan's
    refusal is raised when the fold gets past the units before the refused
    one: at the end of its task, or at once when it has none.
    """
    run, memo, tasks = _Counts(), dict(plan.settled), iter(plan.tasks)   # memo: class -> counts
    for index, number in enumerate(plan.classes):
        later = number in memo   # or the first unit of a settled class, which checks no row
        if later:
            counts = replace(memo[number], symmetric=memo[number].checked)
        else:
            task = next(tasks, None)
            if task is None:   # the refused unit, refused before it had a task
                break
            counts = next(scans)
        left = None if plan.budget is None else plan.budget - run.checked
        if left is not None and counts.checked > left:
            if later:
                forest = next(itertools.islice(iter_units(plan.bounds), index, None))
                tables = build_graph_tables(
                    forest, plan.bounds.slot_rule, plan.bounds.max_chkp_slot, plan.mutation
                )
                task = tables, _distinct_vote_range(plan.bounds, len(tables.votes))
            cut = _scan_task(plan, *task, limit=left)
            return run + (replace(cut, symmetric=cut.checked) if later else cut), index + 1
        run += counts
        if run.hit is not None:
            return run, index + 1
        memo.setdefault(number, counts)
    if plan.refusal is not None:
        raise plan.refusal
    return run, len(plan.classes)


def _run(
    bounds: Bounds, mutation: Mutation, mode: int, budget: Optional[int], jobs: int
) -> tuple[_Counts, int]:
    """Plan the run, with the signer floor of an unmutated quorum
    (`tables.min_signers_for_quorum`) and the run's budget, then fold it,
    with its tasks scanned by up to `jobs` helper processes (`_scans`)."""
    if budget is not None and budget < 0:
        raise InputError("budget must be non-negative")
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    min_signers = min_signers_for_quorum(bounds.n_validators) if mutation == Mutation.NONE else 0
    plan = replace(_plan(bounds, mutation, mode, min_signers), budget=budget)
    scans = _scans(plan, jobs)
    try:
        return _fold(plan, scans)
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
    run, graphs = _run(bounds, mutation, MODE_COUNTEREXAMPLE, budget, jobs)
    wall = time.perf_counter() - start
    counterexample = None
    if run.hit is not None:
        safety = accountable_safety(run.hit, mutation)
        if safety.holds:
            raise _disagrees("counterexample")
        counterexample = Counterexample(run.hit, safety, graphs - 1)
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
    run, _ = _run(bounds, Mutation.NONE, mode, budget, jobs=1)
    if run.cut:
        raise SearchBudgetExceeded(run.checked)
    if run.hit is None:
        return None
    view = finality_view(run.hit)
    if mode == MODE_CONFLICTING_FINALIZED:
        holds = disagreement(run.hit, view)
    else:
        found = view.finalized if mode == MODE_FINALIZED_NONGENESIS else view.justified
        holds = bool(found - {GENESIS_CHECKPOINT})
    if not holds:
        raise _disagrees("example")
    return run.hit


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
            tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot, mutation)
            tables.sandwich   # evaluated, so the slot order is checked
            votes.append(len(tables.votes))
        checked += _unit_total_states(bounds, votes[number])
    return FixpointReport(states_checked=checked, mismatch=None)
