"""State-scan kernel: the hot inner loop of the bounded search.

One call scans the canonical vote-assignment rows (`states`, one row of
per-validator vote masks) of C distinct-vote combinations of one graph,
against the bit-packed tables of those combinations, in combination-major,
row-minor order, in one pass with no row limit (the enumerator applies
`--budget` by counting rows).  It returns the first (combination, row)
satisfying the scan mode, as a flat index, plus the number of rows scanned,
exactly as a row-at-a-time scan that stops at the first hit would report
them.

A row is read only through quorum tests (do enough validators' vote masks
meet a vote set X?) and, for counterexamples, through its per-validator
slashability.  Rows inducing the same quorum family
(`tables.quorum_families`) therefore have the same justified and finalized
sets.  Each mode is decided per (combination, family) pair on u-bit vote
masks (`_decide`): the fixpoints run on masks of the votes whose source is
justified (`_eligible`), the finalized checkpoints are read at the votes'
sources, and a conflicting finalized pair is a pair test on those masks.
A decision reads a combination only through its pattern, a few columns of
its tables (`_patterns`), so it runs once per (pattern, family) pair.  Hits
are rare, so only the pairs that hit are kept, and only the combinations of
a hitting pattern are expanded back to rows.

Before any row is scanned, `bound_combinations` drops whole combinations that
cannot hold a hit (the monotone combination bound).

Neither function takes a mutation: the graph tables were built for one
(`tables.build_graph_tables`), and the quorum families carry its quorum rule.
"""

from __future__ import annotations

import numpy as np

from .tables import GraphTables, ProjectedTables

MODE_COUNTEREXAMPLE = 0        # disagreement with under-threshold slashing
MODE_FINALIZED_NONGENESIS = 1
MODE_JUSTIFIED_NONGENESIS = 2
MODE_CONFLICTING_FINALIZED = 3
MODE_LFP_NE_GFP = 4

_PAIR_BATCH = 1 << 12   # (combination or pattern, family) pairs per batch


def backend_name() -> str:
    """Name of the scan implementation, recorded with benchmark results."""
    return "numpy"


def scan_states(
    states: np.ndarray,
    families: tuple[np.ndarray, np.ndarray],
    projected: ProjectedTables,
    n_validators: int,
    mode: int,
) -> tuple[int, int]:
    """Scan every (combination, row) in order; return (first hit or -1, rows scanned).

    `states` is the (S, N) row table of one distinct-vote count u,
    `families` its `quorum_families` (table, index) pair, and `projected`
    holds the tables of C combinations of u votes.  The hit is the flat index
    c * S + r of row r of combination c.

    Soundness.  Every mode reads a row only through q(X) for vote sets X, so
    a (combination, family) verdict stands for every row of that family.
    `_decide` reads a combination only through the columns of its pattern
    (`_patterns`), so combinations of one pattern share their verdicts,
    which are decided once per (pattern, family) pair, in fixed-size pair
    batches.  Patterns are numbered by first appearance over the call, and
    each group of combinations decides only the patterns it is the first to
    need, so a hit in an early group stops the scan as before.  Only the
    pairs that hit are kept, per pattern.  The slashable-validator count of
    a counterexample is per row: a validator with vote mask m is slashable
    iff some vote i of m has partners[c, i] & m != 0; it is counted for each
    combination of a hitting pattern, only on the rows whose family
    disagrees, since `partners` is not part of the pattern.
    """
    table, index = families
    n_rows, n_combos = states.shape[0], projected.sandwich.shape[0]
    if n_rows == 0 or n_combos == 0:
        return -1, 0
    n_families = table.shape[0]
    positions = np.arange(projected.src_sandwich.shape[1], dtype=np.int64)[:, None]
    shifted = table.ravel().astype(np.int64) << positions                 # (u, D * 2**u)
    pattern, firsts = _patterns(projected, mode)
    # (pattern, family) pairs decided up to each combination
    needed = (np.maximum.accumulate(pattern) + 1) * n_families
    hitting = np.zeros(firsts.size, dtype=bool)
    families_hit: dict[int, np.ndarray] = {}   # hitting pattern -> its families that hit
    group = max(1, _PAIR_BATCH // n_families)
    done = 0
    for c_lo in range(0, n_combos, group):
        c_hi = min(c_lo + group, n_combos)
        need = int(needed[c_hi - 1])
        for lo in range(done, need, _PAIR_BATCH):
            pairs = np.arange(lo, min(lo + _PAIR_BATCH, need))
            decided = _decide(
                firsts[pairs // n_families], pairs % n_families, shifted, table, projected, mode,
            )
            for pair in pairs[decided].tolist():
                p, f = divmod(pair, n_families)
                hitting[p] = True
                families_hit.setdefault(p, np.zeros(n_families, dtype=bool))[f] = True
        done = need
        for c in np.flatnonzero(hitting[pattern[c_lo:c_hi]]):
            combo = c_lo + int(c)
            rows = np.flatnonzero(families_hit[int(pattern[combo])][index])
            if mode == MODE_COUNTEREXAMPLE:
                slashable = _holds_pair(states[rows], projected.partners[combo])
                rows = rows[3 * slashable.sum(axis=1) < n_validators]
            if rows.size:
                hit = combo * n_rows + int(rows[0])
                return hit, hit + 1
    return -1, n_combos * n_rows


def bound_combinations(tables: GraphTables, combos: np.ndarray, mode: int) -> np.ndarray:
    """Which vote combinations may still hold a hit of `mode`.

    `combos` is a (C, u) array of vote indices into `tables.votes`, one
    combination per row; the result is a (C,) bool array that is False where
    no canonical row of the combination can hit, so that combination needs
    no projection and no scan.

    Soundness.  Every row of a combination U is a vote set contained in the
    unanimity state, in which all N validators cast every vote of U.
    Justification is the least fixpoint of a monotone operator, and a
    justifying or finalizing quorum only grows with added votes, so the
    justified set, the finalized set and a conflicting finalized pair are
    all monotone in the vote set; no mutation flag changes that (quorum-half
    lowers the threshold, drop-ancestry widens the sandwich clause that
    `tables.sandwich` already holds, e1/e2 touch only slashing).  Hence a row
    can hit only if the unanimity state does.  In the unanimity state every
    vote of U has N senders and the quorum test always passes (3N >= 2N, and
    2N >= N under quorum-half), so the fixpoint reduces to reachability over
    the votes of U, independent of N:

      J = genesis + {k : a vote of U with its source in J sandwiches k}
      F = genesis + (J & {k : U holds a finalizing vote from k})

    A combination is kept iff F holds a conflicting pair (counterexample and
    conflicting-finalized modes; a counterexample also needs few slashable
    validators, so dropping that conjunct only keeps more), F is more than
    genesis (finalized-nongenesis) or J is more than genesis
    (justified-nongenesis).  `MODE_LFP_NE_GFP` compares two fixpoints of the
    same state, which is not monotone, and has no bound.

    J and F are evaluated for all C combinations at once on int64 checkpoint
    masks (checkpoint 0 is genesis).  Each vote carries the mask of the
    checkpoints it sandwiches and, if it is finalizing, the bit of its
    source; a step of J is u gathers on (C,) arrays.  A conflicting pair in
    F has a non-genesis member, which is the source of a finalizing vote of
    U, so the conflict test runs over the u sources.
    """
    if mode == MODE_LFP_NE_GFP:
        raise ValueError("the lfp/gfp comparison is not monotone and has no bound")
    bits = np.int64(1) << np.arange(tables.sandwich.shape[0], dtype=np.int64)[:, None]
    sandwiched = (tables.sandwich * bits).sum(axis=0)[combos].T           # (u, C)
    source = tables.vote_src[combos].T                                  # (u, C)
    justified = np.ones(combos.shape[0], dtype=np.int64)
    while True:
        grown = np.ones_like(justified)
        for src_j, sandwiched_j in zip(source, sandwiched):
            grown |= -((justified >> src_j) & 1) & sandwiched_j
        if np.array_equal(grown, justified):
            break
        justified = grown
    if mode == MODE_JUSTIFIED_NONGENESIS:
        return justified != 1
    finalizing = np.bitwise_or.reduce((tables.fin * bits).sum(axis=0)[combos], axis=1)
    finalized = (justified & finalizing) | 1
    if mode == MODE_FINALIZED_NONGENESIS:
        return finalized != 1
    clash = np.zeros(combos.shape[0], dtype=bool)
    for src_j in source:
        clash |= (((finalized >> src_j) & 1) != 0) & ((tables.cp_conflict[src_j] & finalized) != 0)
    return clash


def _patterns(projected: ProjectedTables, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Number the combinations' patterns by first appearance: each
    combination's pattern, and each pattern's first combination.

    A pattern is the row of the columns `_decide` reads under `mode`:
    (src_sandwich, from_genesis) for the fixpoints, plus `sandwich` to
    justify a checkpoint, or `src_fin` and `clashes` to finalize one.  The
    lexsort is stable, so each run of equal rows is in index order and
    starts at its pattern's first appearance.
    """
    columns = [projected.src_sandwich, projected.from_genesis[:, None]]
    if mode == MODE_JUSTIFIED_NONGENESIS:
        columns.append(projected.sandwich)
    elif mode != MODE_LFP_NE_GFP:
        columns += [projected.src_fin, projected.clashes]
    keys = np.column_stack(columns)
    order = np.lexsort(keys.T)
    ordered = keys[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    firsts = order[starts]
    by_appearance = np.argsort(firsts)
    renumber = np.empty_like(by_appearance)
    renumber[by_appearance] = np.arange(by_appearance.size)
    pattern = np.empty_like(order)
    pattern[order] = renumber[np.cumsum(starts) - 1]
    return pattern, firsts[by_appearance]


def _decide(
    combo: np.ndarray,
    family: np.ndarray,
    shifted: np.ndarray,
    table: np.ndarray,
    projected: ProjectedTables,
    mode: int,
) -> np.ndarray:
    """Whether each (combination, family) pair hits `mode`.

    `shifted` is the family table as int64 shifted left by each vote
    position j (u rows), so a gather from row j is q(X) << j.  Everything
    runs on u-bit vote masks except the justified test, which reads the
    combination's own checkpoint columns (checkpoint 0 is genesis): a
    justified checkpoint need not be any vote's source or target.

    Finalization at the sources.  A finalizing link leaves from the
    checkpoint it finalizes (`finality.finalizes`) and q(0) is false, so
    every finalized checkpoint other than genesis is the source of a vote of
    the combination.  Vote j's source is finalized iff it is genesis, or it
    is justified (j is eligible in the least fixpoint) and q(src_fin[j]).
    Genesis is finalized even with no genesis-sourced vote, but then nothing
    else is justified, so no conflicting pair is lost.  Two finalized
    sources conflict iff the finalized-source mask holds a vote j and one of
    clashes[j], the same pair test as a slashable validator.
    """
    u = projected.src_sandwich.shape[1]
    base = family << u
    src_sandwich = np.ascontiguousarray(projected.src_sandwich[combo].T)   # (u, P)
    from_genesis = projected.from_genesis[combo]
    eligible = _eligible(from_genesis, from_genesis, base, shifted, src_sandwich)
    if mode == MODE_LFP_NE_GFP:
        every = np.full_like(from_genesis, (1 << u) - 1)
        return eligible != _eligible(every, from_genesis, base, shifted, src_sandwich)
    if mode == MODE_JUSTIFIED_NONGENESIS:
        sandwich = projected.sandwich[combo, 1:].T                         # (K - 1, P)
        return table.ravel()[base + (sandwich & eligible)].any(axis=0)
    finalizing = eligible & _quorum_bits(shifted, base, projected.src_fin[combo].T)
    if mode == MODE_FINALIZED_NONGENESIS:
        return (finalizing & ~from_genesis) != 0
    return _holds_pair(finalizing | from_genesis, projected.clashes[combo].T)


def _quorum_bits(shifted: np.ndarray, base: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """sum_j q(masks[j]) << j per (combination, family) pair: one gather per
    vote position, from (u, P) vote masks."""
    bits = np.zeros_like(base)
    for quorum_j, mask_j in zip(shifted, masks):
        bits |= quorum_j[base + mask_j]
    return bits


def _holds_pair(masks: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """Whether each vote mask holds a vote i and one of partners[i]; a row
    of partners is one mask or one mask per entry of `masks`."""
    held = np.zeros(masks.shape, dtype=bool)
    for i, partners_i in enumerate(partners):
        held |= ((masks >> i) & 1).astype(bool) & ((masks & partners_i) != 0)
    return held


def _eligible(eligible, from_genesis, base, shifted, src_sandwich):
    """Iterate justification on eligible-vote masks (P,) from `eligible` to its fixpoint.

    A vote is eligible when its source checkpoint is justified.  The
    justification operator reads a checkpoint set J only through
    E = elig(J): the next set is J' = genesis + {k : q(sandwich[k] & E)}.
    So the step factors exactly through the masks,

        E' = elig(J') = from_genesis | sum_j q(src_sandwich[j] & E) << j,

    one gather per vote position.  Starting from E_0 = elig(J_0), every step
    keeps E_n = elig(J_n): the least fixpoint starts from from_genesis
    (J_0 = {genesis}), the greatest from every vote (J_0 = every checkpoint).
    If E_n = E_{n+1} then J_{n+2} = J_{n+1}, so both iterations stop at the same
    fixpoint, J* = genesis + {k : q(sandwich[k] & E*)}; and J_lfp = J_gfp iff
    E_lfp = E_gfp, since J* is a function of E* and E* = elig(J*).
    """
    while True:
        grown = from_genesis | _quorum_bits(shifted, base, src_sandwich & eligible)
        if np.array_equal(grown, eligible):
            return eligible
        eligible = grown
