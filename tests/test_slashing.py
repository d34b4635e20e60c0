"""Slashing conditions and the accountable-safety verdict."""

import itertools
import random

from ffgmc.model import (
    GENESIS,
    GENESIS_CHECKPOINT,
    Block,
    BlockForest,
    Checkpoint,
    FfgVote,
    ProtocolState,
    SignedVote,
    checkpoints_of,
)
from ffgmc.mutation import Mutation
from ffgmc.slashing import (
    E1_DOUBLE,
    E2_SURROUND,
    accountable_safety,
    disagreement,
    is_slashable_pair,
    slash_kind,
    slashable_validators,
)
from ffgmc.finality import finality_view

GC = GENESIS_CHECKPOINT
FORK = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])
CHAIN = BlockForest([Block("b1", 1, GENESIS), Block("b2", 2, "b1")])


def test_is_slashable_pair_examples():
    a = FfgVote(GC, Checkpoint("b1", 1, 1))
    assert is_slashable_pair(a, a) is None
    b = FfgVote(GC, Checkpoint("b2", 1, 1))
    assert is_slashable_pair(a, b) == E1_DOUBLE  # equal target slots, distinct votes
    surrounded = FfgVote(Checkpoint("b1", 1, 1), Checkpoint("b1", 2, 1))
    wide = FfgVote(GC, Checkpoint("b1", 3, 1))
    assert is_slashable_pair(surrounded, wide) == E2_SURROUND  # GC < (b1,1,1) and 2 < 3
    # agreeing source and target orders are fine
    later = FfgVote(Checkpoint("b1", 1, 1), Checkpoint("b1", 2, 1))
    earlier = FfgVote(GC, Checkpoint("b1", 1, 1))
    assert is_slashable_pair(earlier, later) is None


def test_is_slashable_pair_symmetry():
    universe = [GC, Checkpoint("b1", 1, 1), Checkpoint("b1", 2, 1), Checkpoint("b2", 1, 1), Checkpoint("b2", 3, 1)]
    votes = [FfgVote(s, t) for s in universe for t in universe if s.c < t.c]
    for a, b in itertools.product(votes, votes):
        assert is_slashable_pair(a, b) == is_slashable_pair(b, a)


def test_slashable_validators():
    a = FfgVote(GC, Checkpoint("b1", 1, 1))
    b = FfgVote(GC, Checkpoint("b2", 1, 1))
    none = ProtocolState(FORK, 4, frozenset([SignedVote(a, 0), SignedVote(b, 1)]), "nonstrict")
    slashable, evidence = slashable_validators(none)
    assert slashable == frozenset() and evidence == ()  # slashing is per-validator

    both = ProtocolState(FORK, 4, frozenset([SignedVote(a, 0), SignedVote(b, 0)]), "nonstrict")
    slashable, evidence = slashable_validators(both)
    assert slashable == frozenset({0})
    assert len(evidence) == 1 and evidence[0].kind == E1_DOUBLE
    # evidence replays
    for e in evidence:
        assert is_slashable_pair(e.vote_a, e.vote_b) == e.kind
        assert {SignedVote(e.vote_a, e.validator), SignedVote(e.vote_b, e.validator)} <= both.votes


def test_disable_mutations():
    a = FfgVote(GC, Checkpoint("b1", 1, 1))
    b = FfgVote(GC, Checkpoint("b2", 1, 1))
    state = ProtocolState(FORK, 4, frozenset([SignedVote(a, 0), SignedVote(b, 0)]), "nonstrict")
    assert slashable_validators(state, Mutation.DISABLE_E1)[0] == frozenset()
    assert slashable_validators(state, Mutation.DISABLE_E2)[0] == frozenset({0})
    assert slashable_validators(state, Mutation.DISABLE_E1 | Mutation.DISABLE_E2)[0] == frozenset()


def test_slash_kind_under_mutations():
    double = (FfgVote(GC, Checkpoint("b1", 1, 1)), FfgVote(GC, Checkpoint("b2", 1, 1)))
    surround = (
        FfgVote(Checkpoint("b1", 1, 1), Checkpoint("b1", 2, 1)),
        FfgVote(GC, Checkpoint("b1", 3, 1)),
    )
    assert slash_kind(*double) == E1_DOUBLE
    assert slash_kind(*surround) == E2_SURROUND
    assert slash_kind(double[0], double[0]) is None
    assert slash_kind(*double, Mutation.DISABLE_E1) is None
    assert slash_kind(*surround, Mutation.DISABLE_E1) == E2_SURROUND
    assert slash_kind(*double, Mutation.DISABLE_E2) == E1_DOUBLE
    assert slash_kind(*surround, Mutation.DISABLE_E2) is None
    # the justification mutations leave slashing alone
    assert slash_kind(*double, Mutation.QUORUM_HALF | Mutation.DROP_ANCESTRY) == E1_DOUBLE


def _conflicting_finalized_state():
    # justify and finalize checkpoints on both branches; overlapping validators
    # double-vote, so the state stays accountably safe
    a1, a2 = Checkpoint("b1", 1, 1), Checkpoint("b1", 2, 1)
    b1, b2 = Checkpoint("b2", 1, 1), Checkpoint("b2", 2, 1)
    votes = (
        [SignedVote(FfgVote(GC, a1), i) for i in (0, 1, 2)]
        + [SignedVote(FfgVote(a1, a2), i) for i in (0, 1, 2)]
        + [SignedVote(FfgVote(GC, b1), i) for i in (1, 2, 3)]
        + [SignedVote(FfgVote(b1, b2), i) for i in (1, 2, 3)]
    )
    return ProtocolState(FORK, 4, frozenset(votes), "nonstrict")


def test_disagreement():
    empty = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    assert not disagreement(empty, finality_view(empty))

    state = _conflicting_finalized_state()
    view = finality_view(state)
    assert Checkpoint("b1", 1, 1) in view.finalized
    assert Checkpoint("b2", 1, 1) in view.finalized
    assert {"b1", "b2"} <= view.finalized_blocks
    assert disagreement(state, view)


def test_single_chain_never_disagrees():
    rng = random.Random(2)
    state0 = ProtocolState(CHAIN, 4, frozenset(), "nonstrict")
    universe = checkpoints_of(state0, 3)
    pool = [FfgVote(s, t) for s in universe for t in universe if s.c < t.c]
    for _ in range(50):
        votes = frozenset(
            SignedVote(rng.choice(pool), rng.randrange(4)) for _ in range(rng.randrange(10))
        )
        state = ProtocolState(CHAIN, 4, votes, "nonstrict")
        verdict = accountable_safety(state)
        assert not verdict.disagreement
        assert verdict.holds


def test_accountable_safety_verdicts():
    empty = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    assert accountable_safety(empty).holds  # vacuous

    state = _conflicting_finalized_state()
    verdict = accountable_safety(state)
    assert verdict.disagreement
    assert verdict.slashable == frozenset({1, 2})
    assert verdict.holds  # 3*2 >= 4
    assert verdict.holds == ((not verdict.disagreement) or 3 * len(verdict.slashable) >= 4)

    # with slashing evidence ignored the same state violates safety
    broken = accountable_safety(state, Mutation.DISABLE_E1 | Mutation.DISABLE_E2)
    assert broken.disagreement and not broken.holds and broken.slashable == frozenset()


def test_validator_permutation_invariance():
    rng = random.Random(13)
    state0 = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    universe = checkpoints_of(state0, 2)
    pool = [FfgVote(s, t) for s in universe for t in universe if s.c < t.c]
    for _ in range(40):
        votes = frozenset(
            SignedVote(rng.choice(pool), rng.randrange(4)) for _ in range(rng.randrange(8))
        )
        state = ProtocolState(FORK, 4, votes, "nonstrict")
        perm = list(range(4))
        rng.shuffle(perm)
        permuted = ProtocolState(
            FORK, 4, frozenset(SignedVote(sv.vote, perm[sv.validator]) for sv in votes), "nonstrict"
        )
        v0 = accountable_safety(state)
        v1 = accountable_safety(permuted)
        assert v1.slashable == frozenset(perm[i] for i in v0.slashable)
        assert v0.holds == v1.holds and v0.disagreement == v1.disagreement
