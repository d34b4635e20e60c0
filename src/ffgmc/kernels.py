"""State-scan kernel: the hot inner loop of the bounded search.

One call scans the canonical vote-assignment rows of one level (its
`tables.state_table`, one row of per-validator vote masks each; the
enumerator builds it only for such a call) for C distinct-vote
combinations of one graph (the enumerator makes one call per scanned level
of a class), against the bit-packed tables of those combinations, in
combination-major, row-minor order, in one pass with no row limit (the
enumerator applies `--budget` by counting rows).  It returns the first
(combination, row) satisfying the scan mode, as a flat index, plus the
number of rows scanned, exactly as a row-at-a-time scan that stops at the
first hit would report them.

A row is read only through quorum tests (do enough validators' vote masks
meet a vote set X?) and, for counterexamples, through its per-validator
slashability.  Rows inducing the same quorum family (`tables.state_table`
holds the rows, their distinct families and each row's family) therefore
have the same justified and finalized sets.  Each mode is decided per
(combination, family) pair on u-bit vote masks (`_decide`): justification
is one pass over the votes, on masks of the votes whose source is justified
(`_eligible`), the finalized checkpoints are read at the votes' sources, and
a conflicting finalized pair is a pair test on those masks.
A decision reads a combination only through its pattern, a few columns of
its tables (`_patterns`, numbered by `tables.distinct_rows` as the families
are), so it runs once per (pattern, family) pair.  A call first decides every
pair, in pattern-major order and in full batches, each quorum test a gather
from the level's own family table, and only then reads the combinations of
the hitting patterns, in combination order.  Hits are rare, so only the
pairs that hit are kept, and only the combinations of a hitting pattern are
expanded back to rows; a pattern's rows are those of its set of hitting
families, found once per call for each such set.

A scan reads `src_sandwich` and `from_genesis` for justification,
`sandwich` too for the justified test, and `src_fin` and `clashes` too for
the finalizing modes, all computed when the combinations are projected
(`tables.ProjectedTables`).  The slashable pairs of a combination
(`ProjectedTables.partners`) are evaluated only when a counterexample scan
expands that combination's rows.

Only combinations that may hold a hit reach a scan (the monotone
combination bound): `kept_levels` yields a unit's kept combinations one
level at a time, in lexicographic order, growing the reachable cores of
its votes only as far as the level read, so no other combination is listed
or tested, and marks which are cores, the only ones that can hold a first
hit; `rank` places one of them among all the combinations of its size,
exactly at any size.

Nothing here takes a mutation: the graph tables were built for one
(`tables.build_graph_tables`), and the quorum families carry its quorum rule.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Iterator

import numpy as np

from .slashing import one_third_slashable
from .tables import _BATCH_ENTRIES, GraphTables, ProjectedTables, distinct_rows

MODE_COUNTEREXAMPLE = 0        # disagreement with under-threshold slashing
MODE_FINALIZED_NONGENESIS = 1
MODE_JUSTIFIED_NONGENESIS = 2
MODE_CONFLICTING_FINALIZED = 3

_PAIR_BATCH = 1 << 12   # (pattern, family) pairs per `_decide` call


def backend_name() -> str:
    """Name of the scan implementation, recorded with benchmark results."""
    return "numpy"


def scan_states(
    level: tuple[np.ndarray, np.ndarray, np.ndarray], projected: ProjectedTables, mode: int
) -> tuple[int, int]:
    """Scan every (combination, row) in order; return (first hit or -1, rows scanned).

    `level` is the `tables.state_table` of one distinct-vote count u: the
    (S, N) rows, the (D, 2**u) table of their quorum families and the (S,)
    family index of each row; N is read from the rows.  `projected` holds
    the tables of C combinations of u votes.  The hit is the flat index
    c * S + r of row r of combination c.

    Soundness.  Every mode reads a row only through q(X) for vote sets X, so
    a (combination, family) verdict stands for every row of that family.
    `_decide` reads a combination only through the columns of its pattern
    (`_patterns`), so combinations of one pattern share their verdicts,
    which are decided once per (pattern, family) pair.  Patterns are
    numbered by first appearance over the call, and every pair is decided,
    in pattern-major order, in full batches of `_PAIR_BATCH`, before any
    combination is read.  Only the pairs that hit are kept.  Then the
    combinations of the hitting patterns are read in order, so the first hit
    and the rows scanned are those of a row-at-a-time scan.  With every pair
    decided, a hitting pattern's rows are those of its set of hitting
    families, so the rows are found once per such set, and patterns that
    hit on the same families share them.  The slashable-validator count of
    a counterexample is per row: a validator with vote mask m is slashable
    iff some vote i of m has partners(c)[i] & m != 0.  Since the slashable
    pairs are not part of the pattern, that test is tabled for each
    combination of a hitting pattern, once over all 2**u masks (its dirty
    masks), and a row's count is a gather from that table, only on the
    hitting rows; a row whose count reaches a third of N
    (`slashing.one_third_slashable`) is no hit.
    """
    states, table, index = level
    n_rows, n_combos = states.shape[0], projected.from_genesis.shape[0]
    if n_rows == 0 or n_combos == 0:
        return -1, 0
    n_families = table.shape[0]
    pattern, firsts = _patterns(projected, mode)
    n_pairs, families_of = firsts.size * n_families, {}   # hitting pattern -> its families that hit
    for lo in range(0, n_pairs, _PAIR_BATCH):
        pairs = np.arange(lo, min(lo + _PAIR_BATCH, n_pairs))
        decided = _decide(firsts[pairs // n_families], pairs % n_families, table, projected, mode)
        for pair in pairs[decided].tolist():
            p, f = divmod(pair, n_families)
            families_of.setdefault(p, []).append(f)

    @cache
    def rows_of_families(families: tuple) -> np.ndarray:
        hit = np.zeros(n_families, dtype=bool)
        hit[list(families)] = True
        return np.flatnonzero(hit[index])

    # a hitting pattern's rows, keyed once per pattern by its hitting families
    rows_of = cache(lambda p: rows_of_families(tuple(families_of[p])))
    hitting = np.zeros(firsts.size, dtype=bool)
    hitting[list(families_of)] = True
    for combo in np.flatnonzero(hitting[pattern]).tolist():
        rows = rows_of(int(pattern[combo]))
        if mode == MODE_COUNTEREXAMPLE:
            dirty = _holds_pair(np.arange(table.shape[1]), projected.partners(combo))
            rows = rows[~one_third_slashable(dirty[states[rows]].sum(axis=1), states.shape[1])]
        if rows.size:
            hit = combo * n_rows + int(rows[0])
            return hit, hit + 1
    return -1, n_combos * n_rows


def keeps(
    justified: np.ndarray, finalized: np.ndarray, clash: np.ndarray, mode: int
) -> np.ndarray:
    """The monotone bound's test of `mode` on reachable cores, from their
    justified and finalized checkpoint masks (bit 0 is genesis) and whether
    their finalized set holds a conflicting pair (see `kept_levels`)."""
    if mode == MODE_JUSTIFIED_NONGENESIS:
        return justified != 1
    if mode == MODE_FINALIZED_NONGENESIS:
        return finalized != 1
    return clash


def kept_levels(tables: GraphTables, mode: int, top: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The vote combinations of one unit that the monotone combination bound
    keeps under one scan mode, level by level: for u = 0 .. `top`, the kept
    size-u combinations, a (C, u) array of ascending vote indices in
    lexicographic order, and a (C,) bool array of which of them are cores
    (see Padding).  The cores of u votes are grown when level u is
    read, so a reader that stops at level u grows no larger core, and they
    are dropped with the generator.

    Soundness of the bound.  Every row of a combination U is a vote set
    contained in the unanimity state, in which all N validators cast every
    vote of U.  Justification is the least fixpoint of a monotone operator,
    and a justifying or finalizing quorum only grows with added votes, so
    the justified set, the finalized set and a conflicting finalized pair
    are all monotone in the vote set; no mutation flag changes that
    (quorum-half lowers the threshold, drop-ancestry widens the sandwich
    clause that `tables.sandwich` already holds, e1/e2 touch only
    slashing).  Hence a row can hit only if the unanimity state does.  In
    the unanimity state every vote of U has N senders and the quorum test
    always passes (3N >= 2N, and 2N >= N under quorum-half), so the fixpoint
    reduces to reachability over the votes of U, independent of N:

      J = genesis + {k : a vote of U with its source in J sandwiches k}
      F = genesis + (J & {k : U holds a finalizing vote from k})

    U is kept (`keeps`) iff F holds a conflicting pair (counterexample and
    conflicting-finalized modes; a counterexample also needs few slashable
    validators, so dropping that conjunct only keeps more), F is more than
    genesis (finalized-nongenesis) or J is more than genesis
    (justified-nongenesis).  This is the kernel's decision at the
    one-family unanimity table, q(X) = (X != 0), with the checkpoint set J
    standing in for the projection; `test_bound_matches_unanimity_state`
    pins the two together.

    Cores.  The reachable votes of U, those whose source is in J, form its
    core R(U); the others add nothing to J or F, so U is kept iff R(U) is.
    A core is a vote set G with R(G) = G.  A vote sandwiches only
    checkpoints above its source (the slot order stated at `_eligible`,
    which `tables.GraphTables.sandwich` checks) and votes come in source
    order, so no later vote justifies an earlier vote's source, and in
    ascending vote order a core's prefixes are cores.  So the cores of s + 1
    votes are those of s votes, each extended by a later vote whose source
    is in its J, and J, F and the clash flag carry over on int64 checkpoint
    masks (`_grow`).  Every core of fewer than `top` votes is held until the
    next size is grown from it; those of `top` votes are grown in batches,
    and only the kept ones held.  In the modes that keep a conflicting
    finalized pair, they are grown only from the cores of `top` - 1 votes
    that may still gain one (`_may_clash`), through `keeps`, so whatever
    keeps every core keeps them all.

    Padding.  A size-u combination U splits uniquely into its core G and
    u - |G| padding votes, whose sources lie outside J(G); G plus any such
    votes has core G.  So a level's kept combinations are the kept cores of
    at most u votes, each padded in every way (`_padded`), and the kept
    cores of every size read so far are held for that.  They are yielded in
    lexicographic order, the canonical one, each marked as a core (G = U)
    or padded; a combination's rank in it is `rank`, which the enumerator
    needs only where a scan stops.

    A padded U holds no first hit.  A padding vote's source is outside J, so
    it is never eligible: deleting the padding votes from a row of U keeps
    its J and F and can only shrink its slashable set.  Every mode's hit
    justifies a checkpoint other than genesis, and each validator of that
    quorum keeps an eligible vote, so the signer floor still holds.  So a
    hit in U implies one in a row of R(U), at a lower level of the same
    unit, which a scan reaches first: a scan needs only the cores.
    """
    source = tables.vote_src
    bits = np.int64(1) << np.arange(tables.sandwich.shape[0], dtype=np.int64)
    # what each vote adds to a core's (J, F), and the checkpoints its
    # finalized source conflicts with
    adds = np.column_stack([bits @ tables.sandwich, np.where(tables.finalizing, bits[source], 0)])
    clashes = np.where(tables.finalizing, tables.cp_conflict[source], 0)
    # every core of one size: (votes, (J, F) masks, clash); at first the empty core
    cores = (np.zeros((1, 0), np.int64), np.ones((1, 2), np.int64), np.zeros(1, bool))
    kept = []   # (votes, J masks) of the kept cores of each size read so far
    for u in range(top + 1):
        if 0 < u == top and mode in (MODE_COUNTEREXAMPLE, MODE_CONFLICTING_FINALIZED):
            # only the cores that may grow into kept ones (`_may_clash`)
            votes, marks, clash = cores
            may = _may_clash(marks, clash, tables.cp_conflict)
            held = keeps(marks[:, 0], marks[:, 1], may, mode)
            cores = votes[held], marks[held], clash[held]
        if u:
            cores = _grow(cores, adds, clashes, source, mode if u == top else None)
        votes, marks, clash = cores
        if u < top or not u:   # cores of `top` > 0 votes were grown kept-only
            held = keeps(marks[:, 0], marks[:, 1], clash, mode)
            votes, marks = votes[held], marks[held]
        kept.append((votes, marks[:, 0]))
        yield _padded(kept, source)


def _grow(cores, adds, clashes, source, mode) -> tuple[np.ndarray, ...]:
    """(votes, (J, F) masks, clash) of the cores of one vote more than
    `cores`: each extended by each later vote whose source is in its J, with
    J, F and each vote's `adds` ORed in; the vote's source joins a
    conflicting pair of F iff F meets its `clashes` (conflict is symmetric,
    and genesis conflicts with nothing).  With a `mode`, only the cores it
    keeps.  `cores` is read in batches of about `_BATCH_ENTRIES` (core,
    vote) pairs, each filtered as it is grown."""
    votes, marks, clash = cores
    later = np.arange(source.size)
    step = max(1, _BATCH_ENTRIES // source.size)
    batches = []
    for lo in range(0, max(votes.shape[0], 1), step):
        after = votes[lo : lo + step, -1:] if votes.shape[1] else -1
        core, vote = np.nonzero((marks[lo : lo + step, :1] >> source) & (later > after))
        core += lo
        grown = marks[core] | adds[vote]
        grown_clash = clash[core] | ((clashes[vote] & grown[:, 1]) != 0)
        if mode is not None:
            held = keeps(grown[:, 0], grown[:, 1], grown_clash, mode)
            core, vote, grown, grown_clash = core[held], vote[held], grown[held], grown_clash[held]
        batches.append((np.column_stack([votes[core], vote]), grown, grown_clash))
    return tuple(np.concatenate(part) for part in zip(*batches))


def _may_clash(marks: np.ndarray, clash: np.ndarray, cp_conflict: np.ndarray) -> np.ndarray:
    """Whether each core, its (J, F) masks and clash flag, holds a
    conflicting finalized pair or may gain one with one vote more: one more
    vote adds at most its source, which is in J, to F, so only a core whose
    J holds a checkpoint that conflicts with a member of F may gain one."""
    against = np.zeros(clash.shape, np.int64)   # checkpoints conflicting with a member of F
    for k in np.flatnonzero(cp_conflict):
        against |= np.where((marks[:, 1] >> k) & 1, cp_conflict[k], 0)
    return clash | ((marks[:, 0] & against) != 0)


def _padded(kept, source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The level of `kept`'s last size u, (combos, core): each kept core of
    s <= u votes, (votes, J mask), with every u - s of the votes whose
    source is outside its J, drawn in ascending order, sorted into
    lexicographic order, and whether each is a core of u votes, unpadded."""
    u = len(kept) - 1
    later = np.arange(source.size)
    parts = [np.zeros((0, u), dtype=np.int64)]
    for votes, reach in kept:
        if not votes.shape[0]:
            continue
        if votes.shape[1] < u:
            unreachable = ((reach[:, None] >> source) & 1) == 0                     # (G, M)
            core, padding = np.arange(votes.shape[0]), np.zeros((votes.shape[0], 0), np.int64)
            for _ in range(u - votes.shape[1]):
                after = padding[:, -1:] if padding.shape[1] else -1
                row, vote = np.nonzero(unreachable[core] & (later > after))
                core, padding = core[row], np.column_stack([padding[row], vote])
            votes = np.sort(np.hstack([votes[core], padding]), axis=1)
        parts.append(votes)
    combos = np.concatenate(parts)
    # the cores of u votes come last, with no padding
    unpadded = np.arange(len(combos)) >= len(combos) - len(kept[-1][0])
    # lexsort's last key is its first: column 0 leads; u = 0 has no key to sort by
    order = np.lexsort(combos.T[::-1]) if u else slice(None)
    return combos[order], unpadded[order]


def rank(combo, m: int) -> int:
    """The lexicographic rank of `combo` (ascending vote indices) among the
    size-u combinations of range(m), in Python integers, so exact at any
    size, by the combinatorial number system: rank r of c_0 < ... < c_{u-1}
    has C(m, u) - 1 - r = sum_i C(m - 1 - c_i, u - i)."""
    u = len(combo)
    return comb(m, u) - 1 - sum(comb(m - 1 - int(c), u - i) for i, c in enumerate(combo))


def _patterns(projected: ProjectedTables, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Number the combinations' patterns by first appearance: each
    combination's pattern, and each pattern's first combination.

    A pattern is the row of the columns `_decide` reads under `mode`:
    (src_sandwich, from_genesis) for justification, plus `sandwich` to
    justify a checkpoint, or `src_fin` and `clashes` to finalize one;
    `tables.distinct_rows` numbers them, as it numbers quorum families.
    """
    columns = [projected.src_sandwich, projected.from_genesis[:, None]]
    if mode == MODE_JUSTIFIED_NONGENESIS:
        columns.append(projected.sandwich)
    else:
        columns += [projected.src_fin, projected.clashes]
    return distinct_rows(np.column_stack(columns))


def _decide(
    combo: np.ndarray,
    family: np.ndarray,
    table: np.ndarray,
    projected: ProjectedTables,
    mode: int,
) -> np.ndarray:
    """Whether each (combination, family) pair hits `mode`.

    Every quorum test is a gather q(X) = table.ravel()[(family << u) + X]
    from the level's bool family table.  Everything runs on u-bit vote masks
    except the justified test, which reads the combination's own checkpoint
    columns (checkpoint 0 is genesis): a justified checkpoint need not be
    any vote's source or target.

    Finalization at the sources.  A finalizing link leaves from the
    checkpoint it finalizes (`finality.finalizes`) and q(0) is false, so
    every finalized checkpoint other than genesis is the source of a vote of
    the combination.  Vote j's source is finalized iff it is genesis, or it
    is justified (j is eligible) and q(src_fin[j]).
    Genesis is finalized even with no genesis-sourced vote, but then nothing
    else is justified, so no conflicting pair is lost.  Two finalized
    sources conflict iff the finalized-source mask holds a vote j and one of
    clashes[j], the same pair test as a slashable validator.
    """
    u = projected.src_sandwich.shape[1]
    quorum, base = table.ravel(), family << u
    src_sandwich = np.ascontiguousarray(projected.src_sandwich[combo].T)   # (u, P)
    from_genesis = projected.from_genesis[combo]
    eligible = _eligible(from_genesis, base, quorum, src_sandwich)
    if mode == MODE_JUSTIFIED_NONGENESIS:
        sandwich = projected.sandwich[combo, 1:].T                         # (K - 1, P)
        return quorum[base + (sandwich & eligible)].any(axis=0)
    finalizing = eligible & _quorum_bits(quorum, base, projected.src_fin[combo].T)
    if mode == MODE_FINALIZED_NONGENESIS:
        return (finalizing & ~from_genesis) != 0
    return _holds_pair(finalizing | from_genesis, projected.clashes[combo].T)


def _quorum_bits(quorum: np.ndarray, base: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """sum_j q(masks[j]) << j per (combination, family) pair, from (u, P)
    vote masks: one gather from the flat family table `quorum`, then row j
    as bit j of a uint16 (u is at most `tables.MAX_VOTE_BITS`, 16), ORed
    over the rows."""
    positions = np.arange(masks.shape[0], dtype=np.uint16)[:, None]
    bits = np.left_shift(quorum[base + masks], positions, dtype=np.uint16)   # (u, P)
    return np.bitwise_or.reduce(bits, axis=0)


def _holds_pair(masks: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """Whether each vote mask holds a vote i and one of partners[i]; a row
    of partners is one mask or one mask per entry of `masks`."""
    held = np.zeros(masks.shape, dtype=bool)
    for i, partners_i in enumerate(partners):
        held |= ((masks >> i) & 1).astype(bool) & ((masks & partners_i) != 0)
    return held


def _eligible(from_genesis, base, quorum, src_sandwich):
    """Justification on eligible-vote masks (P,), in one pass over the vote positions.

    A vote is eligible when its source checkpoint is justified, and k is
    justified iff it is genesis or q(sandwich[k] & E) for the eligible mask
    E, so bit j of E is from_genesis_j | q(src_sandwich[j] & E) << j.

    Slot order.  A vote supports checkpoint k only if it targets slot k.c
    (`finality.supports`), and a valid vote's source lies at a lower slot,
    under every mutation (quorum-half changes only q, drop-ancestry keeps
    the slot clause).  So whether k is justified depends only on lower
    slots, and by induction the operator has one fixpoint.  Checkpoints are
    c-major and votes in source order (`tables.GraphTables.sandwich` checks
    both), so a vote that sandwiches k has its source index below k and, in
    an ascending combination, precedes every vote whose source is k.  So
    bit j reads only bits below j, which are final when the pass reaches j.
    """
    eligible = from_genesis.copy()
    for j, src_sandwich_j in enumerate(src_sandwich):
        eligible |= quorum[base + (src_sandwich_j & eligible)].astype(np.int64) << j
    return eligible
