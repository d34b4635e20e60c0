"""Justified and finalized checkpoints of a protocol state.

Justification is the least fixpoint of one monotone operator; a downward
(greatest-fixpoint) computation of the same operator is kept solely for
cross-validation.  Vote validity forces source.c < target.c, which makes the
justification dependency well-founded, so the two fixpoints coincide
(`kernels._eligible`); tests compare them by brute force.

This reference iterates to the fixpoint.  The kernel reaches it in one pass
over a combination's votes, and the monotone bound (`kernels.kept_levels`)
one vote at a time as it grows reachable cores, both in the slot order that
`tables.GraphTables.sandwich` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
    GENESIS_CHECKPOINT,
    BlockForest,
    Checkpoint,
    FfgVote,
    ProtocolState,
    _cp_sort_key,
    is_ancestor,
    is_valid_checkpoint,
    is_valid_ffg_vote,
)
from .mutation import Mutation, quorum_met


@dataclass(frozen=True)
class FinalityView:
    justified: frozenset[Checkpoint]
    finalized: frozenset[Checkpoint]
    finalized_blocks: frozenset[str]


def supports(
    forest: BlockForest, vote: FfgVote, c: Checkpoint, mutation: Mutation = Mutation.NONE
) -> bool:
    """Whether `vote`, once its source is justified, counts toward justifying `c`.

    Its target sits exactly at c's checkpoint slot, and its blocks sandwich
    c's block (source ->* c ->* target); drop-ancestry drops the sandwich.
    """
    if vote.target.c != c.c:
        return False
    return Mutation.DROP_ANCESTRY in mutation or (
        is_ancestor(forest, vote.source.block, c.block)
        and is_ancestor(forest, c.block, vote.target.block)
    )


def finalizes(vote: FfgVote, c: Checkpoint) -> bool:
    """Whether `vote` is a finalizing link of `c`: from c to the next checkpoint slot."""
    return vote.source == c and vote.target.c == c.c + 1


def justifying_validators(
    state: ProtocolState,
    justified_so_far: frozenset[Checkpoint] | set[Checkpoint],
    c: Checkpoint,
    mutation: Mutation = Mutation.NONE,
) -> frozenset[int]:
    """Validators with a valid vote, from a justified source, that supports `c`.

    Whether `c` belongs to the candidate set the fixpoint ranges over is the
    caller's concern.
    """
    out: set[int] = set()
    for sv in state.votes:
        if (
            sv.validator not in out
            and sv.vote.source in justified_so_far
            and supports(state.forest, sv.vote, c, mutation)
            and is_valid_ffg_vote(state, sv.vote)
        ):
            out.add(sv.validator)
    return frozenset(out)


def _fixpoint(
    state: ProtocolState,
    universe: Iterable[Checkpoint],
    start: set[Checkpoint],
    mutation: Mutation,
) -> frozenset[Checkpoint]:
    ordered = sorted(set(universe), key=_cp_sort_key)
    current = set(start)
    while True:
        nxt = {GENESIS_CHECKPOINT}
        for c in ordered:
            count = len(justifying_validators(state, current, c, mutation))
            if quorum_met(count, state.n_validators, mutation):
                nxt.add(c)
        if nxt == current:
            return frozenset(current)
        current = nxt


def justified_checkpoints(
    state: ProtocolState,
    universe: Iterable[Checkpoint],
    mutation: Mutation = Mutation.NONE,
) -> frozenset[Checkpoint]:
    """Least fixpoint: genesis plus checkpoints with a quorum of justifying votes."""
    return _fixpoint(state, universe, {GENESIS_CHECKPOINT}, mutation)


def justified_checkpoints_gfp(
    state: ProtocolState,
    universe: Iterable[Checkpoint],
    mutation: Mutation = Mutation.NONE,
) -> frozenset[Checkpoint]:
    """Greatest fixpoint of the same operator, iterated down from the universe."""
    return _fixpoint(state, universe, set(universe) | {GENESIS_CHECKPOINT}, mutation)


def is_finalized(
    state: ProtocolState,
    justified: frozenset[Checkpoint] | set[Checkpoint],
    c: Checkpoint,
    mutation: Mutation = Mutation.NONE,
) -> bool:
    """Genesis, or a justified checkpoint that sources a supermajority link to slot c+1."""
    if c == GENESIS_CHECKPOINT:
        return True
    if c not in justified:
        return False
    senders = {
        sv.validator
        for sv in state.votes
        if finalizes(sv.vote, c) and is_valid_ffg_vote(state, sv.vote)
    }
    return quorum_met(len(senders), state.n_validators, mutation)


def default_universe(state: ProtocolState) -> list[Checkpoint]:
    """Genesis, every vote's endpoints, and each block's valid checkpoint at
    each vote's target slot, in (c, p, block) order.

    A vote supports only checkpoints at its target slot (`supports`) and no
    quorum is empty, so no other valid checkpoint is ever justified, nor,
    short of genesis, finalized: the valid checkpoints of every slot up to
    the highest target, with the endpoints (`model.checkpoints_of`), give
    the same view.
    """
    targets = {sv.vote.target.c for sv in state.votes}
    ends = {cp for sv in state.votes for cp in (sv.vote.source, sv.vote.target)}
    at_targets = (Checkpoint(b.id, c, b.slot) for b in state.forest for c in targets)
    found = {GENESIS_CHECKPOINT, *ends, *(cp for cp in at_targets if is_valid_checkpoint(state, cp))}
    return sorted(found, key=_cp_sort_key)


def finality_view(
    state: ProtocolState,
    universe: Optional[Iterable[Checkpoint]] = None,
    mutation: Mutation = Mutation.NONE,
) -> FinalityView:
    ordered = sorted(set(universe), key=_cp_sort_key) if universe is not None else default_universe(state)
    justified = justified_checkpoints(state, ordered, mutation)
    finalized = frozenset(
        c for c in set(ordered) | {GENESIS_CHECKPOINT}
        if is_finalized(state, justified, c, mutation)
    )
    return FinalityView(
        justified=justified,
        finalized=finalized,
        finalized_blocks=frozenset(c.block for c in finalized),
    )
