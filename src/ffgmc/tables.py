"""Array tables backing the enumeration kernels.

`GraphTables` holds the relations of one unit and mutation, each evaluated
from the reference predicates on its first read: vote validity
(`model.is_valid_ffg_vote`), chain conflict (`model.are_conflicting`), the
sandwich clause (`finality.supports`), the finalizing link
(`finality.finalizes`) and the unit's automorphisms (`symmetry`); slashable
pairs (`slashing.slash_kind`) are evaluated per combination, by
`ProjectedTables.partners`.  The quorum rule enters through
`mutation.quorum_met`, as the least count that meets it
(`min_signers_for_quorum`), against which `state_table` tests its counts.
Nothing downstream reads a mutation flag, so the fast path has no copy of
the rules to drift from the reference, and which relation is evaluated
when is decided here alone.

A level (one distinct-vote count u) has its rows counted by arithmetic
(`state_count`), which is all the plan, the settled classes and the budget
count need.  Its row table and quorum families (`state_table`), the
kernel's inputs, are built only where a kernel call scans the level, and
`check_level` refuses a scanned level over a size limit before that.  The
rows are grown one validator at a time from canonical prefixes, so no
multiset outside the level is built, and a row's quorum counts are sums of
rows of one (2**u, 2**u) bool table, one gather per validator, in the
smallest unsigned dtype that holds N.  `distinct_rows` numbers integer keys
by first appearance, once for a level's quorum families and once per scan
for the kernel's vote patterns.

Bit conventions: checkpoints of one graph are indexed 0..K-1 in (c, p, block)
order with the genesis checkpoint at index 0, and a checkpoint set is an int64
bitmask (K <= 63).  The valid-vote universe of the graph is indexed 0..M-1;
each distinct-vote combination U picks u <= 16 of those votes, and a
validator's vote subset is an int over those u positions.  `ProjectedTables`
packs, per combination, u-bit vote masks per checkpoint (`sandwich`) and per
vote, read at the vote's source checkpoint (`src_sandwich`: the votes that
sandwich it; `src_fin`: its finalizing links; `clashes`: the votes whose
source conflicts with it), plus `from_genesis` (the genesis-sourced votes).
Each column is computed on its first read, so a scan pays only for the
columns its mode reads: the kernel decides every scan mode on the per-vote
masks, and only the justified test reads `sandwich`.  The votes each vote
forms a slashable pair with (`partners(c)`) are evaluated only for a
combination whose rows a counterexample scan expands.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import comb
from typing import Optional

import numpy as np

from .finality import finalizes, supports
from .model import (
    BlockForest,
    Checkpoint,
    FfgVote,
    InputError,
    ProtocolState,
    are_conflicting,
    checkpoints_of,
    is_valid_ffg_vote,
)
from .mutation import Mutation, quorum_met
from .slashing import slash_kind
from .symmetry import automorphisms

MAX_CHECKPOINT_BITS = 63
MAX_VOTE_BITS = 16
MAX_STATE_ROWS = 20_000_000
MAX_ROW_TABLE_BYTES = 1 << 30
_BATCH_ENTRIES = 1 << 15   # (row, vote subset) or (core, vote) entries per batch


class GraphTables:
    """Checkpoint and vote relations of one unit (a forest and its slot
    assignment) under one mutation.

    Each relation is evaluated from the reference predicates on its first
    read and kept, so a unit pays only for what its readers read: the scan
    plan reads `votes` of every class, and `cp_conflict` too in the safety
    modes, where a unit with no conflicting checkpoint pair is vacuous; only
    a scanned class reads the rest, on which its scan task grows the vote
    combinations that the monotone bound keeps (`kernels.kept_levels`),
    held by the task alone.  `checkpoints` refuses a universe over
    `MAX_CHECKPOINT_BITS` on its first read, which is the plan's.
    """

    def __init__(
        self, forest: BlockForest, slot_rule: str, max_chkp_slot: int, mutation: Mutation
    ):
        self.forest, self.mutation, self._max_chkp_slot = forest, mutation, max_chkp_slot
        self._probe = ProtocolState(forest, 1, frozenset(), slot_rule)   # read by the predicates

    @cached_property
    def checkpoints(self) -> tuple[Checkpoint, ...]:
        """The K checkpoints under `max_chkp_slot`, genesis first.

        The universe only grows with its cap, so it is listed first at a cap
        of at most `MAX_CHECKPOINT_BITS`: one over the limit there is refused
        before a larger cap is listed, with its size as a lower bound.
        """
        cap = self._max_chkp_slot
        cps = tuple(checkpoints_of(self._probe, min(cap, MAX_CHECKPOINT_BITS)))
        if len(cps) <= MAX_CHECKPOINT_BITS < cap:
            cps = tuple(checkpoints_of(self._probe, cap))
        if len(cps) > MAX_CHECKPOINT_BITS:
            at_least = "at least " if cap > MAX_CHECKPOINT_BITS else ""
            raise InputError(
                f"checkpoint universe of size {at_least}{len(cps)} exceeds the kernel limit "
                f"{MAX_CHECKPOINT_BITS}; lower max_chkp_slot or n_blocks"
            )
        return cps

    @cached_property
    def votes(self) -> tuple[FfgVote, ...]:
        """The M valid votes (`model.is_valid_ffg_vote`), in (source, target) index order."""
        pairs = (FfgVote(s, t) for s in self.checkpoints for t in self.checkpoints)
        return tuple(v for v in pairs if is_valid_ffg_vote(self._probe, v))

    @cached_property
    def vote_src(self) -> np.ndarray:
        """(M,) checkpoint index of each vote's source."""
        return np.array([self.checkpoints.index(v.source) for v in self.votes], dtype=np.int64)

    @cached_property
    def cp_conflict(self) -> np.ndarray:
        """(K,) int64 masks of the checkpoints each checkpoint conflicts with
        (`model.are_conflicting` on their blocks).

        Conflict is read on checkpoints, not blocks: a block with no
        checkpoint under `max_chkp_slot` conflicts with nothing, so a unit
        with no nonzero mask is vacuous for safety even when its forest forks.
        """
        blocks = self.forest.blocks
        conflicting = {(a, b): are_conflicting(self.forest, a, b) for a in blocks for b in blocks}
        return np.array(
            [sum(1 << j for j, b in enumerate(self.checkpoints) if conflicting[a.block, b.block])
             for a in self.checkpoints],
            dtype=np.int64,
        )

    @cached_property
    def sandwich(self) -> np.ndarray:
        """(K, M) bool: whether each vote supports each checkpoint (`finality.supports`).

        Its evaluation checks the slot order of one-pass justification
        (`kernels._eligible`), so nothing scans, bounds or counts without it.
        """
        sandwich = np.array(
            [[supports(self.forest, v, cp, self.mutation) for v in self.votes]
             for cp in self.checkpoints],
            dtype=bool,
        )
        checkpoint, vote = np.nonzero(sandwich)
        if (np.diff(self.vote_src) < 0).any() or (self.vote_src[vote] >= checkpoint).any():
            raise RuntimeError(
                "graph tables out of slot order: votes must come in source order and "
                "sandwich only checkpoints above their source"
            )
        return sandwich

    @cached_property
    def finalizing(self) -> np.ndarray:
        """(M,) bool: whether each vote finalizes its source (`finality.finalizes`)."""
        return np.array([finalizes(v, v.source) for v in self.votes], dtype=bool)

    @cached_property
    def perms(self) -> np.ndarray:
        """The unit's nontrivial automorphisms (`symmetry.automorphisms`) as
        (A, M) vote-index permutations."""
        index = {vote: i for i, vote in enumerate(self.votes)}
        perms = []
        for image in automorphisms(self.forest):
            move = lambda cp: Checkpoint(image[cp.block], cp.c, cp.p)
            perms.append([index[FfgVote(move(v.source), move(v.target))] for v in self.votes])
        return np.array(perms, dtype=np.int64).reshape(len(perms), len(self.votes))


def build_graph_tables(
    forest: BlockForest, slot_rule: str, max_chkp_slot: Optional[int],
    mutation: Mutation = Mutation.NONE,
) -> GraphTables:
    """The relations of one unit, none of them evaluated yet, over the
    checkpoints up to `max_chkp_slot`, or with None (a catalog graph's
    bounds) up to one slot past the unit's last block slot."""
    if max_chkp_slot is None:
        max_chkp_slot = max(b.slot for b in forest) + 1
    return GraphTables(forest, slot_rule, max_chkp_slot, mutation)


class ProjectedTables:
    """GraphTables restricted to C combinations of u distinct votes, bit-packed.

    Each column is computed from `tables` and `combos` (a (C, u) array of
    vote indices) on its first read and kept, so a scan builds only the
    columns its mode reads (see `kernels`).  Row c of `sandwich` holds, per
    checkpoint, the u-bit mask of the votes of combination c that sandwich
    it.  Every other column is vote-indexed: entry [c, j] is a u-bit mask
    read at vote j's source checkpoint.  `src_sandwich` holds the votes
    that sandwich that source and `src_fin` its finalizing links;
    `from_genesis[c]` is the mask of the genesis-sourced votes.  Bit i of
    `clashes[c, j]` says whether the sources of votes i and j conflict
    (`GraphTables.cp_conflict`).  The slashable pairs are no column: only a
    hit's row expansion reads them, for one combination at a time, so
    `partners(c)` evaluates them for combination c alone.
    """

    def __init__(self, tables: GraphTables, combos: np.ndarray):
        self._tables = tables
        self._combos = combos

    @cached_property
    def _sources(self) -> np.ndarray:
        """(C, u) checkpoint index of each vote's source."""
        return self._tables.vote_src[self._combos]

    @cached_property
    def sandwich(self) -> np.ndarray:
        """(C, K) int64 vote masks."""
        return _pack_votes(self._tables.sandwich[:, self._combos]).T

    @cached_property
    def src_sandwich(self) -> np.ndarray:
        """(C, u) int64 vote masks: the votes that sandwich each source."""
        combos = self._combos
        return _pack_votes(self._tables.sandwich[self._sources[:, :, None], combos[:, None, :]])

    @cached_property
    def from_genesis(self) -> np.ndarray:
        """(C,) int64 vote mask."""
        return _pack_votes(self._sources == 0)

    @cached_property
    def src_fin(self) -> np.ndarray:
        """(C, u) int64 vote masks: the finalizing links of each source."""
        src = self._sources
        same_source = src[:, :, None] == src[:, None, :]
        return _pack_votes(self._tables.finalizing[self._combos][:, None, :] & same_source)

    @cached_property
    def clashes(self) -> np.ndarray:
        """(C, u) int64 vote masks: the votes with a conflicting source."""
        src = self._sources
        clash = (self._tables.cp_conflict[src][:, :, None] >> src[:, None, :]) & 1
        return _pack_votes(clash != 0)

    def partners(self, c: int) -> np.ndarray:
        """(u,) int64 vote masks of combination c: bit i of entry j says
        whether votes i and j form a slashable pair (`slashing.slash_kind`,
        which is symmetric), evaluated on the u(u - 1)/2 pairs at each call."""
        votes = [self._tables.votes[v] for v in self._combos[c]]
        masks = np.zeros(len(votes), dtype=np.int64)
        for i, j in itertools.combinations(range(len(votes)), 2):
            if slash_kind(votes[i], votes[j], self._tables.mutation) is not None:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        return masks


def project_tables(tables: GraphTables, combos: np.ndarray) -> ProjectedTables:
    """Project the tables onto each row of `combos`, a (C, u) array of vote
    indices; the plan has refused any u over `MAX_VOTE_BITS` (`check_level`)."""
    return ProjectedTables(tables, combos)


def _pack_votes(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., u) bool array into int64 vote masks along its last axis,
    one vote position at a time, so no (..., u) int64 array is built."""
    masks = np.zeros(bits.shape[:-1], dtype=np.int64)
    for j in range(bits.shape[-1]):
        masks |= bits[..., j].astype(np.int64) << j
    return masks


@lru_cache(maxsize=None)
def state_table(
    u: int, n_validators: int, max_votes: int, min_signers: int, mutation: Mutation
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's inputs for `u` distinct votes: (rows, families, index).

    `rows` holds the canonical vote-assignment rows, an (S, N) array of
    non-decreasing tuples of per-validator subset masks (one row per
    validator-permutation class), with union exactly the full u-bit set, at
    most `max_votes` signed votes in total and at least `min_signers`
    nonempty masks, in lexicographic order; S is `state_count`.  They are
    grown one validator at a time (`_canonical_rows`), so no multiset that
    fails these tests is built.

    The quorum family of a row (m_1, ..., m_N) is the test
    q(X) = quorum_met(|{v : m_v & X != 0}|, N, mutation) for every vote
    subset X in [0, 2**u); the counts are sums of rows of the (2**u, 2**u)
    table meets[m, X] = (m & X != 0), in the smallest unsigned dtype that
    holds N.  `quorum_met` is a threshold in the count, so q(X) tests the
    count against the least one that meets it (`min_signers_for_quorum`).
    `families` is the (D, 2**u) bool table of the distinct families,
    numbered by their first row, and `index` the (S,) family index of each
    row.  Rows are keyed by their family packed into uint64 words
    (`distinct_rows`), so deduplication compares machine words rather than
    bool rows.  A level over a size limit (`check_level`) is refused rather
    than built.
    """
    check_level(u, n_validators, max_votes, min_signers)
    n_subsets = 2**u
    rows = _canonical_rows(u, n_validators, max_votes, min_signers)
    meets = _meets(u)
    dtype = np.min_scalar_type(n_validators)
    quorum = min_signers_for_quorum(n_validators, mutation)
    n_words = -(-n_subsets // 64)
    keys = np.zeros((rows.shape[0], 8 * n_words), dtype=np.uint8)
    step = max(1, _BATCH_ENTRIES // n_subsets)
    for lo in range(0, rows.shape[0], step):
        block = rows[lo : lo + step]
        counts = np.zeros((block.shape[0], n_subsets), dtype=dtype)
        for v in range(n_validators):
            counts += meets[block[:, v]]
        packed = np.packbits(counts >= quorum, axis=1, bitorder="little")
        keys[lo : lo + step, : packed.shape[1]] = packed
    index, first = distinct_rows(keys.view(np.uint64))
    families = np.unpackbits(
        keys[first], axis=1, count=n_subsets, bitorder="little"
    ).astype(bool)
    for table in (rows, families, index):
        table.flags.writeable = False
    return rows, families, index


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of an (n, w) integer array by first appearance:
    each row's number, and each number's first row.

    One stable `np.lexsort` puts equal rows in runs, each in index order, so
    a run starts at its row's first appearance.  Runs are found by comparing
    neighbours one key column at a time, so no sorted copy of `keys` is held.
    """
    order = np.lexsort(keys.T)
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for column in keys.T:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    firsts = order[starts]
    by_appearance = np.argsort(firsts)
    renumber = np.empty_like(by_appearance)
    renumber[by_appearance] = np.arange(by_appearance.size)
    number = np.empty_like(order)
    number[order] = renumber[np.cumsum(starts) - 1]
    return number, firsts[by_appearance]


def _canonical_rows(u: int, n_validators: int, max_votes: int, min_signers: int) -> np.ndarray:
    """The rows of `state_table`, grown breadth-first one validator at a time.

    A prefix is a non-decreasing tuple of masks, carried with its union and
    its vote total.  Validator n extends it by every mask m that is at
    least its last mask; whose votes, plus a lower bound on the votes still
    owed, fit in `max_votes`; that is 0 only below position N - min_signers
    (so at least `min_signers` masks are nonempty); and that, at the last
    validator, makes the union full.  The bound is the larger of the
    uncovered votes and one vote per later validator that must be nonempty:
    every one after a nonempty m, else those the signer floor forces.  The
    bound never drops a prefix that has a completion, and at the last
    validator it is exact, so the rows are those of the definition.
    Prefixes are extended in order and each block of (prefix, mask) pairs
    is read row-major, so the rows come out in lexicographic order.  Each
    step keeps only (parent prefix, mask) pairs; the rows are read back
    from them at the end.
    """
    n_subsets = 2**u
    masks = np.arange(n_subsets, dtype=np.int64)
    weight = np.zeros(n_subsets, dtype=np.int64)
    for bit in range(u):
        weight += (masks >> bit) & 1
    steps = []
    last = union = spent = np.zeros(1 if min_signers <= n_validators else 0, dtype=np.int64)
    chunk = max(1, _BATCH_ENTRIES // n_subsets)
    for n in range(n_validators):
        if not last.size:
            break
        later = n_validators - 1 - n
        signing = np.full(n_subsets, later)   # later validators that must sign, per mask
        signing[0] = min(later, min_signers)
        pairs = []
        for lo in range(0, last.size, chunk):
            cover = union[lo : lo + chunk, None] | masks
            owed = np.maximum(signing, u - weight[cover])
            fits = (masks >= last[lo : lo + chunk, None]) & (
                spent[lo : lo + chunk, None] + weight + owed <= max_votes
            )
            if n >= n_validators - min_signers:
                fits[:, 0] = False
            if not later:
                fits &= cover == n_subsets - 1
            parent, chosen = np.nonzero(fits)
            pairs.append((parent + lo, chosen))
        parent, last = (np.concatenate(side) for side in zip(*pairs))
        union = union[parent] | last
        spent = spent[parent] + weight[last]
        steps.append((parent, last))
    rows = np.empty((last.size, n_validators), dtype=np.int64)
    at = np.arange(rows.shape[0])
    for n, (parent, chosen) in reversed(list(enumerate(steps))):
        rows[:, n] = chosen[at]
        at = parent[at]
    return rows


def _meets(u: int) -> np.ndarray:
    """The (2**u, 2**u) bool table meets[m, X] = (m & X != 0), built in
    place one vote at a time, so nothing wider than the table is held: with
    vote k added, m & X != 0 iff the lower votes meet, unless both m and X
    hold vote k, when they always do.  It is not kept: each `state_table`
    miss builds its own, in time linear in its size, so a run holds at most
    the one of the level it builds."""
    meets = np.zeros((2**u, 2**u), dtype=bool)
    for h in [1 << k for k in range(u)]:   # vote k is bit h: masks h .. 2h - 1 hold it
        meets[:h, h : 2 * h] = meets[h : 2 * h, :h] = meets[:h, :h]
        meets[h : 2 * h, h : 2 * h] = True
    return meets


@lru_cache(maxsize=None)
def state_count(u: int, n_validators: int, max_votes: int, min_signers: int) -> int:
    """The row count of `state_table`, by arithmetic.

    Inclusion-exclusion over the union: the rows number
    sum_s (-1)^(u - s) C(u, s) g(s), where g(s) (`_multisets`) counts the
    multisets of N subsets of an s-set with at most `max_votes` signed votes
    in total and at least `min_signers` nonempty subsets.  g does not depend
    on u, so the levels of one bound share it.
    """
    return sum(
        (-1) ** (u - s) * comb(u, s) * _multisets(s, n_validators, max_votes, min_signers)
        for s in range(u + 1)
    )


@lru_cache(maxsize=None)
def _multisets(s: int, n_validators: int, max_votes: int, min_signers: int) -> int:
    """g(s) of `state_count`: a DP over popcount classes.

    Class k holds C(s, k) subsets of k votes; a validators drawing from it
    make C(C(s, k) + a - 1, a) multisets.  Class 0, the empty subset, takes
    at most N - `min_signers` validators and the last class every validator
    left, so only reachable (validators, votes) states are kept.
    """
    cap = min(max_votes, n_validators * s)
    ways = {(0, 0): 1}   # (validators drawn, votes) -> multisets
    for k in range(s + 1):
        size = comb(s, k)
        grown: dict[tuple[int, int], int] = {}
        for (n, w), count in ways.items():
            most = n_validators - min_signers if k == 0 else min(
                n_validators - n, (cap - w) // k
            )
            for a in range(n_validators - n if k == s else 0, most + 1):
                key = (n + a, w + k * a)
                grown[key] = grown.get(key, 0) + count * comb(size + a - 1, a)
        ways = grown
    return sum(ways.values())


def check_level(u: int, n_validators: int, max_votes: int, min_signers: int) -> None:
    """Refuse a scanned distinct-vote count u whose tables cannot be built, before they are.

    Its rows are estimated at the C(2**u + N - 1, N) multisets of N subsets
    of u votes (`MAX_STATE_ROWS`): the row build never holds more prefixes,
    since those of n validators number at most C(2**u + n - 1, n).  The
    estimate, not the exact count, also caps what the rows lead to before
    they exist: the kernel's family table grows with the number of distinct
    quorum families, known only once the rows are built, and the family
    keys, 8 bytes per row up to u = 6 and few rows above, stay under 160 MB.
    Its vote masks (`project_tables`) take u bits (`MAX_VOTE_BITS`).  Its
    meets table (`_meets`), 4**u bytes, and its row table (`state_table`),
    N int64 entries per row, sized on the exact row count, are each held to
    `MAX_ROW_TABLE_BYTES`: the estimate caps rows, not their width, which
    grows with N, nor the meets table, which a level of one row at N = 1
    still needs whole.
    """
    estimate = comb(2**u + n_validators - 1, n_validators)
    if estimate > MAX_STATE_ROWS:
        raise InputError(
            f"state table for u={u}, N={n_validators} would have ~{estimate} rows; "
            "lower max_ffg_votes or n_validators"
        )
    if u > MAX_VOTE_BITS:
        raise InputError(
            f"{u} distinct votes exceed the kernel limit {MAX_VOTE_BITS}; "
            "lower max_ffg_votes"
        )
    # the larger of its meets table and its row table
    n_bytes = max(4**u, state_count(u, n_validators, max_votes, min_signers) * n_validators * 8)
    if n_bytes > MAX_ROW_TABLE_BYTES:
        raise InputError(
            f"state table for u={u}, N={n_validators} would take "
            f"{n_bytes >> 20} MiB; lower max_ffg_votes or n_validators"
        )


def min_signers_for_quorum(n_validators: int, mutation: Mutation = Mutation.NONE) -> int:
    """Fewest distinct senders a quorum needs under `mutation`: the least k
    with quorum_met; unmutated, it is the signer floor."""
    return next(k for k in range(n_validators + 1) if quorum_met(k, n_validators, mutation))
