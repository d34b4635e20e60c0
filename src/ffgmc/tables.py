"""Array tables backing the enumeration kernels.

`build_graph_tables` evaluates the reference predicates once per unit and
mutation: vote validity (`model.is_valid_ffg_vote`), chain conflict
(`model.are_conflicting`), the sandwich clause (`finality.supports`), the
finalizing link (`finality.finalizes`) and slashable pairs
(`slashing.slash_kind`); the quorum rule enters through `mutation.quorum_met`
in `quorum_families`.  Nothing downstream reads a mutation flag, so the fast
path has no copy of the rules to drift from the reference.  Its first step,
`unit_universe` (checkpoints, valid votes, chain conflict), is all the scan
plan reads of a unit that is vacuous for safety.

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
    GENESIS_CHECKPOINT,
    BlockForest,
    Checkpoint,
    FfgVote,
    InputError,
    ProtocolState,
    _cp_sort_key,
    are_conflicting,
    is_valid_checkpoint,
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
    fin: np.ndarray                              # (K, M) bool, `finality.finalizes`
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
    cps: list[Checkpoint] = []
    for block in forest:
        for c in range(max_chkp_slot + 1):
            cp = Checkpoint(block.id, c, block.slot)
            if is_valid_checkpoint(probe, cp):
                cps.append(cp)
    cps.sort(key=_cp_sort_key)
    k = len(cps)
    if k > MAX_CHECKPOINT_BITS:
        raise InputError(
            f"checkpoint universe of size {k} exceeds the kernel limit "
            f"{MAX_CHECKPOINT_BITS}; lower max_chkp_slot or n_blocks"
        )
    assert cps[0] == GENESIS_CHECKPOINT

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
    fin = np.array([[finalizes(v, cp) for v in votes] for cp in cps], dtype=bool)
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
        fin=fin,
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
        src_fin=_pack_votes(tables.fin[src[:, :, None], combos[:, None, :]]),
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
    u: int, n_validators: int, max_votes: int, min_signers: int
) -> tuple[np.ndarray, int, int]:
    """Canonical vote-assignment rows for `u` distinct votes.

    Rows are non-decreasing tuples of per-validator subset masks (one row per
    validator-permutation class), with union exactly the full u-bit set and at
    most `max_votes` signed votes in total.  Returns (rows meeting the
    min_signers floor, count of rows pruned by that floor, total row count).
    """
    n_subsets = 2**u
    _check_state_rows(u, n_validators)
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
    keep = (union == n_subsets - 1) & (pop <= max_votes)
    rows = rows[keep]
    signers = (rows != 0).sum(axis=1)
    active = rows[signers >= min_signers]
    total = int(rows.shape[0])
    return active, total - int(active.shape[0]), total


def state_count(u: int, n_validators: int, max_votes: int) -> int:
    """The total row count of `state_table` (signer floor not applied), by arithmetic.

    Inclusion-exclusion over the union: the rows number
    sum_s (-1)^(u - s) C(u, s) g(s), where g(s) counts the multisets of N
    subsets of an s-set with at most `max_votes` signed votes in total.  g(s)
    is a DP over popcount classes: class k holds C(s, k) subsets of k votes,
    and a validators drawing from it make C(C(s, k) + a - 1, a) multisets.
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
                    most = n_validators - n if k == 0 else min(n_validators - n, (cap - w) // k)
                    for a in range(most + 1):
                        grown[n + a][w + k * a] += count * comb(size + a - 1, a)
            ways = grown
        total += (-1) ** (u - s) * comb(u, s) * sum(ways[n_validators])
    return total


@lru_cache(maxsize=None)
def quorum_families(
    u: int, n_validators: int, max_votes: int, min_signers: int, mutation: Mutation
) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of `state_table` by the quorum family they induce.

    The quorum family of a row (m_1, ..., m_N) is the test
    q(X) = quorum_met(|{v : m_v & X != 0}|, N, mutation) for every vote
    subset X in [0, 2**u).  Returns (families, index): the (D, 2**u) bool
    table of distinct families and the (S,) family index of each row.  Rows
    are keyed by their bit-packed family, so deduplication compares machine
    words rather than bool rows; a key table above MAX_FAMILY_KEY_BYTES is
    refused rather than built.
    """
    rows = state_table(u, n_validators, max_votes, min_signers)[0]
    n_subsets = 2**u
    subsets = np.arange(n_subsets, dtype=np.int64)
    n_words = _check_family_keys(u, n_validators, rows.shape[0])
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
    families.flags.writeable = False
    index.flags.writeable = False
    return families, index


def check_level(
    u: int, n_validators: int, max_votes: int, min_signers: int, scanned: bool
) -> None:
    """Refuse a distinct-vote count u whose tables cannot be built, before they are.

    Every level needs its row table (`state_table`); a level whose rows are
    scanned also needs u-bit vote masks (`project_tables`) and quorum-family
    keys (`quorum_families`).  The key size is checked on the row-count
    estimate, and only when that is too large on the exact count, so no
    level that fits is refused.
    """
    estimate = _check_state_rows(u, n_validators)
    if not scanned:
        return
    _check_vote_bits(u)
    if estimate * 8 * -(-2**u // 64) > MAX_FAMILY_KEY_BYTES:
        rows = state_table(u, n_validators, max_votes, min_signers)[0]
        _check_family_keys(u, n_validators, rows.shape[0])


def _check_state_rows(u: int, n_validators: int) -> int:
    """The row count before filtering: multisets of N subsets of u votes."""
    estimate = 1
    for i in range(n_validators):
        estimate = estimate * (2**u + i) // (i + 1)
    if estimate > MAX_STATE_ROWS:
        raise InputError(
            f"state table for u={u}, N={n_validators} would have ~{estimate} rows; "
            "lower max_ffg_votes or n_validators"
        )
    return estimate


def _check_vote_bits(u: int) -> None:
    if u > MAX_VOTE_BITS:
        raise InputError(
            f"{u} distinct votes exceed the kernel limit {MAX_VOTE_BITS}; "
            "lower max_ffg_votes"
        )


def _check_family_keys(u: int, n_validators: int, n_rows: int) -> int:
    """The 64-bit words of one family key, if a key per row fits the limit."""
    n_words = -(-2**u // 64)
    if n_rows * 8 * n_words > MAX_FAMILY_KEY_BYTES:
        raise InputError(
            f"quorum families for u={u}, N={n_validators} would take "
            f"{n_rows * 8 * n_words >> 20} MiB; lower max_ffg_votes or n_validators"
        )
    return n_words


def min_signers_for_quorum(n_validators: int) -> int:
    """Fewest distinct senders any unmutated quorum needs: the least k with quorum_met."""
    return next(k for k in range(n_validators + 1) if quorum_met(k, n_validators))
