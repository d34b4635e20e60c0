"""Array tables backing the enumeration kernels.

`build_graph_tables` evaluates the reference predicates once per unit and
mutation: vote validity (`model.is_valid_ffg_vote`), chain conflict
(`model.are_conflicting`), the sandwich clause (`finality.supports`), the
finalizing link (`finality.finalizes`) and slashable pairs
(`slashing.slash_kind`); the quorum rule enters through `mutation.quorum_met`
in `state_table`.  Nothing downstream reads a mutation flag, so the fast
path has no copy of the rules to drift from the reference.  Its first step,
`unit_universe` (checkpoints, valid votes, chain conflict), is all the scan
plan reads of a unit that is vacuous for safety.

A level (one distinct-vote count u) has its rows counted by arithmetic
(`state_count`), which is all the plan, the vacuous units and the budget
count need.  Its row table and quorum families (`state_table`), the
kernel's inputs, are built only where a kernel call scans the level, and
`check_level` refuses a scanned level over a size limit before that.

Bit conventions: checkpoints of one graph are indexed 0..K-1 in (c, p, block)
order with the genesis checkpoint at index 0, and a checkpoint set is an int64
bitmask (K <= 63).  The valid-vote universe of the graph is indexed 0..M-1;
each distinct-vote combination U picks u <= 16 of those votes, and a
validator's vote subset is an int over those u positions.  `ProjectedTables`
packs, per combination, u-bit vote masks per checkpoint (`sandwich`) and per
vote, read at the vote's source checkpoint (`src_sandwich`: the votes that
sandwich it; `src_fin`: its finalizing links; `clashes`: the votes whose
source conflicts with it), plus `from_genesis` (the genesis-sourced votes)
and `partners` (the votes each vote forms a slashable pair with).  The
kernel decides every scan mode on the per-vote masks; only the justified
test reads `sandwich`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
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

MAX_CHECKPOINT_BITS = 63
MAX_VOTE_BITS = 16
MAX_STATE_ROWS = 20_000_000
MAX_FAMILY_KEY_BYTES = 1 << 28
_FAMILY_CHUNK = 1 << 15   # row x subset entries per family batch


@dataclass(frozen=True)
class GraphTables:
    """Checkpoint/vote structure of one (forest, slot assignment) pair under one mutation."""

    forest: BlockForest
    checkpoints: tuple[Checkpoint, ...]          # K entries, genesis first
    votes: tuple[FfgVote, ...]                   # M valid votes, (src, tgt) index order
    vote_src: np.ndarray                         # (M,) checkpoint index of each source
    cp_conflict: np.ndarray                      # (K,) int64 conflict bitmasks
    sandwich: np.ndarray                         # (K, M) bool, `finality.supports`
    finalizing: np.ndarray                       # (M,) bool, `finality.finalizes` at the source
    slash_pair: np.ndarray                       # (M, M) bool, symmetric `slashing.slash_kind`


Universe = tuple[tuple[Checkpoint, ...], tuple[FfgVote, ...], np.ndarray]


def unit_universe(forest: BlockForest, slot_rule: str, max_chkp_slot: int) -> Universe:
    """The checkpoints of one unit (genesis first), its valid votes and each
    checkpoint's (K,) int64 conflict bitmask.

    Conflict is read on checkpoints, not blocks: a block with no checkpoint
    under `max_chkp_slot` conflicts with nothing, so a unit with no nonzero
    mask is vacuous for safety even when its forest forks.
    """
    probe = ProtocolState(forest, 1, frozenset(), slot_rule)
    cps = checkpoints_of(probe, max_chkp_slot)
    if len(cps) > MAX_CHECKPOINT_BITS:
        raise InputError(
            f"checkpoint universe of size {len(cps)} exceeds the kernel limit "
            f"{MAX_CHECKPOINT_BITS}; lower max_chkp_slot or n_blocks"
        )
    pairs = (FfgVote(s, t) for s in cps for t in cps)
    votes = tuple(v for v in pairs if is_valid_ffg_vote(probe, v))
    conflicting = {
        (a, b): are_conflicting(forest, a, b) for a in forest.blocks for b in forest.blocks
    }
    cp_conflict = np.array(
        [sum(1 << j for j, b in enumerate(cps) if conflicting[a.block, b.block]) for a in cps],
        dtype=np.int64,
    )
    return tuple(cps), votes, cp_conflict


def build_graph_tables(
    forest: BlockForest,
    slot_rule: str,
    max_chkp_slot: int,
    mutation: Mutation = Mutation.NONE,
    universe: Optional[Universe] = None,
) -> GraphTables:
    """Evaluate the reference predicates on every checkpoint and vote of one
    unit; `universe` is the unit's `unit_universe`, if the caller has it."""
    if universe is None:
        universe = unit_universe(forest, slot_rule, max_chkp_slot)
    cps, votes, cp_conflict = universe
    m = len(votes)
    vote_src = np.array([cps.index(v.source) for v in votes], dtype=np.int64)
    sandwich = np.array(
        [[supports(forest, v, cp, mutation) for v in votes] for cp in cps], dtype=bool
    )
    finalizing = np.array([finalizes(v, v.source) for v in votes], dtype=bool)
    slash_pair = np.zeros((m, m), dtype=bool)
    for a, b in itertools.combinations(range(m), 2):
        slash_pair[a, b] = slash_pair[b, a] = slash_kind(votes[a], votes[b], mutation) is not None
    return GraphTables(
        forest=forest,
        checkpoints=cps,
        votes=votes,
        vote_src=vote_src,
        cp_conflict=cp_conflict,
        sandwich=sandwich,
        finalizing=finalizing,
        slash_pair=slash_pair,
    )


@dataclass(frozen=True)
class ProjectedTables:
    """GraphTables restricted to C combinations of u distinct votes, bit-packed.

    Row c of `sandwich` holds, per checkpoint, the u-bit mask of the votes
    of combination c that sandwich it.  Every other table is vote-indexed:
    entry [c, j] is a u-bit mask read at vote j's source checkpoint.
    `src_sandwich` holds the votes that sandwich that source and `src_fin`
    its finalizing links; `from_genesis[c]` is the mask of the
    genesis-sourced votes.  Bit i of `clashes[c, j]` says whether the
    sources of votes i and j conflict (`GraphTables.cp_conflict`), and bit i
    of `partners[c, j]` whether votes i and j form a slashable pair
    (`GraphTables.slash_pair`).  The kernel decides every mode on these vote
    masks; only the justified test reads `sandwich`.
    """

    sandwich: np.ndarray       # (C, K) int64 vote masks
    src_sandwich: np.ndarray   # (C, u) int64 vote masks
    from_genesis: np.ndarray   # (C,) int64 vote mask
    src_fin: np.ndarray        # (C, u) int64 vote masks: the finalizing links of each source
    clashes: np.ndarray        # (C, u) int64 vote masks: the votes with a conflicting source
    partners: np.ndarray       # (C, u) int64 vote masks: the votes each vote is slashable with


def project_tables(tables: GraphTables, combos: np.ndarray) -> ProjectedTables:
    """Project the tables onto each row of `combos`, a (C, u) array of vote indices."""
    _check_vote_bits(combos.shape[1])
    sandwich = _pack_votes(tables.sandwich[:, combos]).T                # (C, K)
    src = tables.vote_src[combos]                                        # (C, u)
    clash = (tables.cp_conflict[src][:, :, None] >> src[:, None, :]) & 1
    return ProjectedTables(
        sandwich=sandwich,
        src_sandwich=np.take_along_axis(sandwich, src, axis=1),
        from_genesis=_pack_votes(src == 0),
        src_fin=_pack_votes(tables.finalizing[combos][:, None, :] & (src[:, :, None] == src[:, None, :])),
        clashes=_pack_votes(clash.astype(bool)),
        partners=_pack_votes(tables.slash_pair[combos[:, :, None], combos[:, None, :]]),
    )


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
    nonempty masks; S is `state_count`.

    The quorum family of a row (m_1, ..., m_N) is the test
    q(X) = quorum_met(|{v : m_v & X != 0}|, N, mutation) for every vote
    subset X in [0, 2**u).  `families` is the (D, 2**u) bool table of the
    distinct families and `index` the (S,) family index of each row.  Rows
    are keyed by their bit-packed family, so deduplication compares machine
    words rather than bool rows.  A level over a size limit (`check_level`)
    is refused rather than built.
    """
    check_level(u, n_validators, max_votes, min_signers)
    n_subsets = 2**u
    rows = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(n_subsets), n_validators)
        ),
        dtype=np.int64,
    ).reshape(-1, n_validators)
    union = np.bitwise_or.reduce(rows, axis=1)
    pop = np.zeros(rows.shape[0], dtype=np.int64)
    for bit in range(u):
        pop += ((rows >> bit) & 1).sum(axis=1)
    rows = rows[(union == n_subsets - 1) & (pop <= max_votes)]
    rows = rows[(rows != 0).sum(axis=1) >= min_signers]
    subsets = np.arange(n_subsets, dtype=np.int64)
    n_words = -(-n_subsets // 64)
    keys = np.zeros((rows.shape[0], 8 * n_words), dtype=np.uint8)
    step = max(1, _FAMILY_CHUNK // n_subsets)
    for lo in range(0, rows.shape[0], step):
        block = rows[lo : lo + step]
        counts = np.zeros((block.shape[0], n_subsets), dtype=np.int64)
        for v in range(n_validators):
            counts += (block[:, v, None] & subsets) != 0
        met = quorum_met(counts, n_validators, mutation)
        packed = np.packbits(met, axis=1, bitorder="little")
        keys[lo : lo + step, : packed.shape[1]] = packed
    words = keys.view(np.uint64)
    if n_words == 1:
        _, first, index = np.unique(words[:, 0], return_index=True, return_inverse=True)
    else:
        _, first, index = np.unique(words, axis=0, return_index=True, return_inverse=True)
    families = np.unpackbits(
        keys[first], axis=1, count=n_subsets, bitorder="little"
    ).astype(bool)
    index = index.reshape(-1).astype(np.intp)
    for table in (rows, families, index):
        table.flags.writeable = False
    return rows, families, index


@lru_cache(maxsize=None)
def state_count(u: int, n_validators: int, max_votes: int, min_signers: int) -> int:
    """The row count of `state_table`, by arithmetic.

    Inclusion-exclusion over the union: the rows number
    sum_s (-1)^(u - s) C(u, s) g(s), where g(s) counts the multisets of N
    subsets of an s-set with at most `max_votes` signed votes in total and
    at least `min_signers` nonempty subsets.  g(s) is a DP over popcount
    classes: class k holds C(s, k) subsets of k votes, a validators drawing
    from it make C(C(s, k) + a - 1, a) multisets, and class 0, the empty
    subset, takes at most N - `min_signers` validators.
    """
    total = 0
    for s in range(u + 1):
        cap = min(max_votes, n_validators * s)
        ways = [[0] * (cap + 1) for _ in range(n_validators + 1)]   # [subsets][votes]
        ways[0][0] = 1
        for k in range(s + 1):
            size = comb(s, k)
            grown = [[0] * (cap + 1) for _ in range(n_validators + 1)]
            for n, row in enumerate(ways):
                for w, count in enumerate(row):
                    if not count:
                        continue
                    most = n_validators - min_signers if k == 0 else min(
                        n_validators - n, (cap - w) // k
                    )
                    for a in range(most + 1):
                        grown[n + a][w + k * a] += count * comb(size + a - 1, a)
            ways = grown
        total += (-1) ** (u - s) * comb(u, s) * sum(ways[n_validators])
    return total


def check_level(u: int, n_validators: int, max_votes: int, min_signers: int) -> None:
    """Refuse a scanned distinct-vote count u whose tables cannot be built, before they are.

    Its row table (`state_table`) enumerates every multiset of N subsets of
    u votes (`MAX_STATE_ROWS`) before filtering, its vote masks
    (`project_tables`) take u bits, and its quorum-family keys one per row
    (`MAX_FAMILY_KEY_BYTES`), on the exact row count.
    """
    estimate = comb(2**u + n_validators - 1, n_validators)
    if estimate > MAX_STATE_ROWS:
        raise InputError(
            f"state table for u={u}, N={n_validators} would have ~{estimate} rows; "
            "lower max_ffg_votes or n_validators"
        )
    _check_vote_bits(u)
    n_rows = state_count(u, n_validators, max_votes, min_signers)
    n_bytes = n_rows * 8 * -(-2**u // 64)
    if n_bytes > MAX_FAMILY_KEY_BYTES:
        raise InputError(
            f"quorum families for u={u}, N={n_validators} would take "
            f"{n_bytes >> 20} MiB; lower max_ffg_votes or n_validators"
        )


def _check_vote_bits(u: int) -> None:
    if u > MAX_VOTE_BITS:
        raise InputError(
            f"{u} distinct votes exceed the kernel limit {MAX_VOTE_BITS}; "
            "lower max_ffg_votes"
        )


def min_signers_for_quorum(n_validators: int) -> int:
    """Fewest distinct senders any unmutated quorum needs: the least k with quorum_met."""
    return next(k for k in range(n_validators + 1) if quorum_met(k, n_validators))
