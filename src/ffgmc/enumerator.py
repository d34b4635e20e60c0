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
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from math import comb
from typing import Iterator, Optional

import numpy as np

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
    Block,
    BlockForest,
    Checkpoint,
    FfgVote,
    InputError,
    ProtocolState,
    SignedVote,
)
from .mutation import Mutation
from .slashing import SafetyVerdict, accountable_safety
from .symmetry import automorphisms, orbit_minimal, unit_key
from .tables import (
    GraphTables,
    build_graph_tables,
    min_signers_for_quorum,
    project_tables,
    quorum_families,
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
    max_votes.  `n_checkpoints` only shapes emitted SMT instances.
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
    n_checkpoints: Optional[int] = None

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
        if self.n_checkpoints is not None and self.n_checkpoints < 1:
            raise InputError("n_checkpoints must be positive")
        if self.n_validators < 1:
            raise InputError("n_validators must be positive")
        if self.slot_rule not in ("strict", "nonstrict"):
            raise InputError(f"unknown slot rule {self.slot_rule!r}")
        if self.slot_mode not in ("depth", "free"):
            raise InputError(f"unknown slot mode {self.slot_mode!r}")
        if self.slot_mode == "depth" and self.max_slot < self.n_blocks:
            raise InputError("max_slot below the deepest chain in depth slot mode")


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


def _unit_total_states(bounds: Bounds, tables: GraphTables, min_signers: int) -> int:
    total = 0
    for u in _distinct_vote_range(bounds, len(tables.votes)):
        total += comb(len(tables.votes), u) * state_table(
            u, bounds.n_validators, bounds.max_votes, min_signers
        )[2]
    return total


@dataclass(frozen=True)
class _UnitResult:
    checked: int
    pruned: int        # rows not scanned, bounded ones included
    bounded: int       # rows of combinations the monotone bound dropped
    symmetric: int     # checked rows settled by symmetry rather than scanned
    hit: Optional[tuple] = None  # (u, combo, row masks)
    exhausted_budget: bool = False


_BOUND_CHUNK = 4096
_COMBO_BATCH = 256   # most combinations projected and scanned in one call


def _vote_permutations(tables: GraphTables) -> np.ndarray:
    """The unit's nontrivial automorphisms as (A, M) vote-index permutations."""
    index = {vote: i for i, vote in enumerate(tables.votes)}
    perms = []
    for image in automorphisms(tables.forest):
        move = lambda cp: Checkpoint(image[cp.block], cp.c, cp.p)
        perms.append([index[FfgVote(move(v.source), move(v.target))] for v in tables.votes])
    return np.array(perms, dtype=np.int64).reshape(len(perms), len(tables.votes))


def _kept_combinations(
    tables: GraphTables, u: int, mode: int, mutation: Mutation, perms: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(positions, combinations, minimal) of the size-u vote combinations the
    monotone bound keeps, in canonical order; positions count every
    combination, and `minimal` marks the kept combinations that are
    lexicographically minimal in their orbit under `perms`, the only ones
    scanned.

    The bound runs over fixed-size chunks so memory stays flat however many
    combinations the unit has; the lfp/gfp comparison has no bound and keeps
    every combination.  The orbit filter runs after the bound, which is
    relabelling-invariant.  Batches hold 1, 2, 4, ... up to `_COMBO_BATCH`
    minimal combinations, so a hit early in the unit costs at most about
    twice the scan up to its own combination.
    """
    n_combos = comb(len(tables.votes), u)
    flat = itertools.chain.from_iterable(itertools.combinations(range(len(tables.votes)), u))
    drop_ancestry = Mutation.DROP_ANCESTRY in mutation
    positions = np.zeros(0, dtype=np.int64)
    combos = np.zeros((0, u), dtype=np.int64)
    minimal = np.zeros(0, dtype=bool)
    size = 1
    lo = 0
    while lo < n_combos:
        n = min(size if mode == MODE_LFP_NE_GFP else _BOUND_CHUNK, n_combos - lo)
        chunk = np.fromiter(
            itertools.islice(flat, n * u), dtype=np.int64, count=n * u
        ).reshape(n, u)
        if mode == MODE_LFP_NE_GFP:
            keep = np.arange(n)
        else:
            keep = np.flatnonzero(bound_combinations(tables, chunk, mode, drop_ancestry))
        positions = np.concatenate([positions, lo + keep])
        combos = np.concatenate([combos, chunk[keep]])
        minimal = np.concatenate([minimal, orbit_minimal(chunk[keep], perms)])
        lo += n
        while True:
            ends = np.flatnonzero(minimal)
            if ends.size < size:
                break
            end = int(ends[size - 1]) + 1
            yield positions[:end], combos[:end], minimal[:end]
            positions, combos, minimal = positions[end:], combos[end:], minimal[end:]
            size = min(2 * size, _COMBO_BATCH)
    if positions.size:
        yield positions, combos, minimal


def _scan_unit(
    bounds: Bounds,
    mutation: Mutation,
    forest: BlockForest,
    mode: int,
    min_signers: int,
    budget_left: Optional[int] = None,
) -> tuple[_UnitResult, GraphTables]:
    tables = build_graph_tables(forest, bounds.slot_rule, _chkp_bound(bounds, forest))
    vacuity_modes = (MODE_COUNTEREXAMPLE, MODE_CONFLICTING_FINALIZED)
    if mode in vacuity_modes and not tables.has_conflict:
        total = _unit_total_states(bounds, tables, min_signers)
        return _UnitResult(checked=0, pruned=total, bounded=0, symmetric=0), tables
    perms = _vote_permutations(tables)
    quorum_half = Mutation.QUORUM_HALF in mutation
    checked = pruned = bounded = symmetric = 0
    for u in _distinct_vote_range(bounds, len(tables.votes)):
        states, rows_pruned, total_rows = state_table(
            u, bounds.n_validators, bounds.max_votes, min_signers
        )
        n_rows = states.shape[0]
        families = None
        visited = 0
        for positions, combos, minimal in _kept_combinations(tables, u, mode, mutation, perms):
            # hit and scanned count the rows of the whole batch in scan order;
            # only the minimal combinations (`scan`) reach the kernel
            rows = positions.size * n_rows
            limit = None if budget_left is None else budget_left - checked
            hit, scanned = -1, rows if limit is None else min(rows, limit)
            scan = np.flatnonzero(minimal)
            scan_limit = None
            if scanned < rows:
                # the budget runs out in combination `cut_at`, after `part` rows
                cut_at, part = divmod(scanned, n_rows)
                before = int(np.searchsorted(scan, cut_at))
                in_scan = before < scan.size and scan[before] == cut_at
                scan_limit = before * n_rows + (part if in_scan else 0)
            scanned_rows = 0
            if n_rows and scan.size and scan_limit != 0:
                if families is None:
                    families = quorum_families(
                        u, bounds.n_validators, bounds.max_votes, min_signers, quorum_half
                    )
                projected = project_tables(tables, combos[scan], mutation)
                scan_hit, scanned_rows = scan_states(
                    states, families, projected, bounds.n_validators, mode, scan_limit
                )
                if scan_hit >= 0:
                    hit = int(scan[scan_hit // n_rows]) * n_rows + scan_hit % n_rows
                    scanned = hit + 1
            checked += scanned
            symmetric += scanned - scanned_rows
            # the rows of the batch's combinations up to the hit or budget cut
            cut = scanned < rows
            last = (hit if hit >= 0 else scanned) // n_rows if cut else positions.size - 1
            skipped = int(positions[last]) - visited - last  # combinations the bound dropped
            bounded += skipped * n_rows
            pruned += skipped * total_rows + (last + 1) * rows_pruned
            visited = int(positions[last]) + 1
            if hit >= 0:
                combo = tuple(int(x) for x in combos[last])
                masks = tuple(int(x) for x in states[hit % n_rows])
                return _UnitResult(
                    checked, pruned, bounded, symmetric, hit=(u, combo, masks)
                ), tables
            if cut:
                return _UnitResult(
                    checked, pruned, bounded, symmetric, exhausted_budget=True
                ), tables
        skipped = comb(len(tables.votes), u) - visited
        bounded += skipped * n_rows
        pruned += skipped * total_rows
    return _UnitResult(checked, pruned, bounded, symmetric), tables


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


def enumerate_states(bounds: Bounds, forest: BlockForest) -> Iterator[ProtocolState]:
    """All states over `forest` within bounds, in canonical scan order."""
    for slotted in _slot_variants(forest, bounds):
        tables = build_graph_tables(slotted, bounds.slot_rule, _chkp_bound(bounds, slotted))
        for u in _distinct_vote_range(bounds, len(tables.votes)):
            states, _, _ = state_table(u, bounds.n_validators, bounds.max_votes, 0)
            for combo in itertools.combinations(range(len(tables.votes)), u):
                for row in states:
                    yield materialize_state(
                        bounds, tables, combo, tuple(int(x) for x in row)
                    )


def _unit_task(args):
    bounds, mutation_value, forest, mode, min_signers = args
    result, tables = _scan_unit(bounds, Mutation(mutation_value), forest, mode, min_signers)
    return result, tables if result.hit else None


@dataclass
class _RunResult:
    """Unit results folded in canonical order, up to the first hit or budget cut."""

    checked: int = 0
    pruned: int = 0
    bounded: int = 0
    symmetric: int = 0
    graphs: int = 0
    hit: Optional[tuple] = None            # (u, combo, row masks)
    tables: Optional[GraphTables] = None   # tables of the hit's unit
    exhausted: bool = False

    def add(self, result: _UnitResult, tables: Optional[GraphTables]) -> bool:
        """Fold in the next unit; True when the run stops there."""
        self.graphs += 1
        self.checked += result.checked
        self.pruned += result.pruned
        self.bounded += result.bounded
        self.symmetric += result.symmetric
        self.hit = result.hit
        self.tables = tables if result.hit is not None else None
        self.exhausted = result.exhausted_budget
        return self.hit is not None or self.exhausted


def _run_units(
    bounds: Bounds,
    mutation: Mutation,
    mode: int,
    min_signers: int,
    budget: Optional[int],
    jobs: int,
) -> _RunResult:
    """Scan units in canonical order, stopping at the first hit.

    Only the first unit of each isomorphism class (`unit_key`) is scanned
    for sure.  Its counts, once it finishes with no hit and no budget cut,
    settle every later unit of the class that the budget left would not cut
    (no tables are built for those); a unit the budget may cut is scanned.

    With jobs > 1 a budget forces sequential execution so mid-unit budget
    cuts stay reproducible; otherwise the pool scans one unit per class.
    Units still queued when a pool run stops are cancelled; those already
    running finish and are discarded.
    """
    if budget is not None and budget < 0:
        raise InputError("budget must be non-negative")
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    units = list(iter_units(bounds))
    keys = [unit_key(forest) for forest in units]
    memo: dict[tuple, _UnitResult] = {}   # class key -> counts of its scanned unit
    run = _RunResult()

    def fold(key, scan) -> bool:
        budget_left = None if budget is None else budget - run.checked
        known = memo.get(key)
        if known is not None and (budget_left is None or budget_left >= known.checked):
            return run.add(replace(known, symmetric=known.checked), None)
        result, tables = scan(budget_left)
        if result.hit is None and not result.exhausted_budget:
            memo[key] = result
        return run.add(result, tables)

    if jobs > 1 and budget is None:
        pool = ProcessPoolExecutor(max_workers=jobs)
        try:
            futures = {}   # class key -> the scan of the class's first unit
            for key, forest in zip(keys, units):
                if key not in futures:
                    futures[key] = pool.submit(
                        _unit_task, (bounds, mutation.value, forest, mode, min_signers)
                    )
            for key in keys:
                if fold(key, lambda _: futures[key].result()):
                    break
        finally:
            pool.shutdown(cancel_futures=True)
        return run
    for forest, key in zip(units, keys):
        if fold(key, lambda left: _scan_unit(bounds, mutation, forest, mode, min_signers, left)):
            break
    return run


def search(
    bounds: Bounds,
    mutation: Mutation = Mutation.NONE,
    budget: Optional[int] = None,
    jobs: int = 1,
) -> SearchReport:
    """Exhaust the bounded space or stop at the first (canonical) counterexample."""
    start = time.perf_counter()
    min_signers = min_signers_for_quorum(bounds.n_validators) if mutation == Mutation.NONE else 0
    run = _run_units(bounds, mutation, MODE_COUNTEREXAMPLE, min_signers, budget, jobs)
    wall = time.perf_counter() - start
    counterexample = None
    if run.hit is not None:
        u, combo, masks = run.hit
        state = materialize_state(bounds, run.tables, combo, masks)
        safety = accountable_safety(state, mutation)
        if safety.holds:
            raise RuntimeError(
                "kernel counterexample does not replay: kernel and reference disagree"
            )
        counterexample = Counterexample(state, safety, run.graphs - 1)
        verdict = VERDICT_COUNTEREXAMPLE
    else:
        verdict = VERDICT_INCONCLUSIVE if run.exhausted else VERDICT_HOLDS
    return SearchReport(
        verdict=verdict,
        counterexample=counterexample,
        states_checked=run.checked,
        graphs_checked=run.graphs,
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
    search runs.
    """
    try:
        mode = PROPERTY_MODES[property_name]
    except KeyError:
        raise InputError(
            f"unknown property {property_name!r}; choose from {', '.join(PROPERTY_MODES)}"
        ) from None
    min_signers = min_signers_for_quorum(bounds.n_validators)
    run = _run_units(bounds, Mutation.NONE, mode, min_signers, budget, jobs=1)
    if run.exhausted:
        raise SearchBudgetExceeded(run.checked)
    if run.hit is None:
        return None
    u, combo, masks = run.hit
    return materialize_state(bounds, run.tables, combo, masks)


@dataclass(frozen=True)
class FixpointReport:
    states_checked: int
    states_symmetric: int   # part of states_checked settled by symmetry, not scanned
    mismatch: Optional[ProtocolState]


def check_lfp_gfp(bounds: Bounds, mutation: Mutation = Mutation.NONE) -> FixpointReport:
    """Compare least and greatest justification fixpoints over every state."""
    run = _run_units(bounds, mutation, MODE_LFP_NE_GFP, min_signers=0, budget=None, jobs=1)
    mismatch = None
    if run.hit is not None:
        u, combo, masks = run.hit
        mismatch = materialize_state(bounds, run.tables, combo, masks)
    return FixpointReport(
        states_checked=run.checked, states_symmetric=run.symmetric, mismatch=mismatch
    )
