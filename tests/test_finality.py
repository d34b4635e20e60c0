"""Justification fixpoints and finalization.

`support_oracle` re-derives the justifying-validator set clause by clause,
straight from the vote tuples, independent of the library's filtering order.
"""

import random

from hypothesis import given, settings, strategies as st

from ffgmc.enumerator import Bounds, iter_units
from ffgmc.finality import (
    default_universe,
    finality_view,
    finalizes,
    is_finalized,
    justified_checkpoints,
    justified_checkpoints_gfp,
    justifying_validators,
    supports,
)
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
    is_ancestor,
    is_valid_checkpoint,
)
from ffgmc.mutation import Mutation, quorum_met
from ffgmc.tables import min_signers_for_quorum

GC = GENESIS_CHECKPOINT
CHAIN1 = BlockForest([Block("b1", 1, GENESIS)])
FORK = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])
C1 = Checkpoint("b1", 1, 1)


def support_oracle(state, justified, c):
    """Clause-by-clause re-derivation of the justifying validator set."""
    out = set()
    for sv in state.votes:
        v = sv.vote
        valid = (
            is_valid_checkpoint(state, v.source)
            and is_valid_checkpoint(state, v.target)
            and v.source.c < v.target.c
            and is_ancestor(state.forest, v.source.block, v.target.block)
        )
        sandwich = is_ancestor(state.forest, v.source.block, c.block) and is_ancestor(
            state.forest, c.block, v.target.block
        )
        if valid and v.source in justified and sandwich and v.target.c == c.c:
            out.add(sv.validator)
    return out


def _votes(vote, validators):
    return [SignedVote(vote, i) for i in validators]


def three_vote_state():
    return ProtocolState(
        FORK, 4, frozenset(_votes(FfgVote(GC, C1), [0, 1, 2])), "nonstrict"
    )


def test_supports_and_finalizes_examples():
    # a vote genesis -> (b1, 2) supports the slot-2 checkpoints on the blocks
    # it spans, and under drop-ancestry every slot-2 checkpoint
    vote = FfgVote(GC, Checkpoint("b1", 2, 1))
    assert supports(FORK, vote, Checkpoint("b1", 2, 1))
    assert supports(FORK, vote, Checkpoint(GENESIS, 2, 0))
    assert not supports(FORK, vote, Checkpoint("b2", 2, 1))  # conflicting block
    assert supports(FORK, vote, Checkpoint("b2", 2, 1), Mutation.DROP_ANCESTRY)
    assert not supports(FORK, vote, C1)  # another slot
    assert not supports(FORK, vote, C1, Mutation.DROP_ANCESTRY)
    # a finalizing link goes from c to the very next checkpoint slot
    assert finalizes(FfgVote(GC, C1), GC)
    assert finalizes(FfgVote(C1, Checkpoint("b1", 2, 1)), C1)
    assert not finalizes(vote, GC)  # skips slot 1
    assert not finalizes(FfgVote(GC, C1), C1)  # another source
    assert not finalizes(FfgVote(Checkpoint("b2", 1, 1), Checkpoint("b2", 2, 1)), C1)


def test_justifying_validators_examples():
    state = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    universe = checkpoints_of(state, 2)
    for c in universe:
        if c != GC:
            assert justifying_validators(state, {GC}, c) == frozenset()

    state = three_vote_state()
    assert justifying_validators(state, {GC}, C1) == frozenset({0, 1, 2})
    # conflicting block: the sandwich clause fails
    c_conflict = Checkpoint("b2", 1, 1)
    assert justifying_validators(state, {GC}, c_conflict) == frozenset()


def test_justifying_validators_matches_oracle_on_random_states():
    rng = random.Random(7)
    state0 = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    universe = checkpoints_of(state0, 3)
    vote_pool = [FfgVote(s, t) for s in universe for t in universe if s.c < t.c]
    for _ in range(60):
        votes = frozenset(
            SignedVote(rng.choice(vote_pool), rng.randrange(4)) for _ in range(rng.randrange(6))
        )
        state = ProtocolState(FORK, 4, votes, "nonstrict")
        justified = set(rng.sample(universe, rng.randrange(len(universe))))
        justified.add(GC)
        for c in universe:
            assert justifying_validators(state, justified, c) == support_oracle(
                state, justified, c
            )


def test_justified_checkpoints_examples():
    empty = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    assert justified_checkpoints(empty, checkpoints_of(empty, 2)) == {GC}

    state = three_vote_state()
    # over the vote-mentioned checkpoints alone: genesis plus C1 (9 >= 8)
    assert justified_checkpoints(state, checkpoints_of(state, 0)) == {GC, C1}
    # over the full candidate universe the sandwiched intermediate (g,1,0)
    # is justified by the same votes: g ->* g ->* b1 with target slot 1
    universe = checkpoints_of(state, 2)
    assert justified_checkpoints(state, universe) == {GC, C1, Checkpoint(GENESIS, 1, 0)}

    two = ProtocolState(FORK, 4, frozenset(_votes(FfgVote(GC, C1), [0, 1])), "nonstrict")
    assert justified_checkpoints(two, checkpoints_of(two, 2)) == {GC}  # 6 < 8


def test_gfp_examples_and_ordering():
    empty = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    assert justified_checkpoints_gfp(empty, checkpoints_of(empty, 2)) == {GC}
    state = three_vote_state()
    universe = checkpoints_of(state, 2)
    lfp = justified_checkpoints(state, universe)
    gfp = justified_checkpoints_gfp(state, universe)
    assert gfp == {GC, C1, Checkpoint(GENESIS, 1, 0)}
    assert lfp <= gfp  # Knaster-Tarski ordering


def test_lfp_equals_gfp_on_random_states():
    rng = random.Random(3)
    state0 = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    universe = checkpoints_of(state0, 3)
    vote_pool = [FfgVote(s, t) for s in universe for t in universe if s.c < t.c]
    for _ in range(80):
        votes = frozenset(
            SignedVote(rng.choice(vote_pool), rng.randrange(4)) for _ in range(rng.randrange(9))
        )
        state = ProtocolState(FORK, 4, votes, "nonstrict")
        assert justified_checkpoints(state, universe) == justified_checkpoints_gfp(
            state, universe
        )


def test_monotonicity_under_added_votes():
    rng = random.Random(11)
    state0 = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    universe = checkpoints_of(state0, 3)
    vote_pool = [FfgVote(s, t) for s in universe for t in universe if s.c < t.c]
    for _ in range(60):
        votes = set(
            SignedVote(rng.choice(vote_pool), rng.randrange(4)) for _ in range(rng.randrange(7))
        )
        state = ProtocolState(FORK, 4, frozenset(votes), "nonstrict")
        before = justified_checkpoints(state, universe)
        extra = SignedVote(rng.choice(vote_pool), rng.randrange(4))
        grown = ProtocolState(FORK, 4, frozenset(votes | {extra}), "nonstrict")
        assert before <= justified_checkpoints(grown, universe)


def test_quorum_soundness():
    state = three_vote_state()
    universe = checkpoints_of(state, 2)
    justified = justified_checkpoints(state, universe)
    n = state.n_validators
    need = -(-2 * n // 3)  # ceil(2N/3)
    for c in justified - {GC}:
        support = justifying_validators(state, justified, c)
        assert 3 * len(support) >= 2 * n
        assert len(support) >= need


def test_quorum_met_boundaries():
    # 3k >= 2N, or 2k >= N under quorum-half, at the counts either side of it
    assert [k for k in range(4) if quorum_met(k, 3)] == [2, 3]
    assert [k for k in range(5) if quorum_met(k, 4)] == [3, 4]
    assert [k for k in range(4) if quorum_met(k, 3, Mutation.QUORUM_HALF)] == [2, 3]
    assert [k for k in range(5) if quorum_met(k, 4, Mutation.QUORUM_HALF)] == [2, 3, 4]
    assert [min_signers_for_quorum(n) for n in range(1, 8)] == [1, 2, 2, 3, 4, 4, 5]
    # two of three validators justify C1
    two = ProtocolState(FORK, 3, frozenset(_votes(FfgVote(GC, C1), [0, 1])), "nonstrict")
    assert C1 in justified_checkpoints(two, checkpoints_of(two, 2))


def test_is_finalized_examples():
    state = three_vote_state()
    universe = checkpoints_of(state, 2)
    justified = justified_checkpoints(state, universe)
    assert is_finalized(state, justified, GC)  # by definition
    # GC -> C1 votes: source GC, target slot 1 = 0+1, quorum 9 >= 8
    assert is_finalized(state, justified, GC)
    assert not is_finalized(state, justified, C1)  # no votes from C1


def test_finality_view():
    empty = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    view = finality_view(empty)
    assert view.justified == {GC} and view.finalized == {GC}
    assert view.finalized_blocks == {GENESIS}

    state = three_vote_state()
    view = finality_view(state)
    assert view.justified == {GC, C1, Checkpoint(GENESIS, 1, 0)}
    assert view.finalized == {GC}
    assert justifying_validators(state, view.justified, C1) == {0, 1, 2}
    assert view.finalized <= view.justified | {GC}
    assert view.finalized_blocks == {c.block for c in view.finalized}


def test_finalized_nongenesis_state():
    c_g1 = Checkpoint(GENESIS, 1, 0)
    c_g2 = Checkpoint(GENESIS, 2, 0)
    votes = _votes(FfgVote(GC, c_g1), [0, 1, 2]) + _votes(FfgVote(c_g1, c_g2), [0, 1, 2])
    state = ProtocolState(CHAIN1, 4, frozenset(votes), "strict")
    view = finality_view(state)
    assert c_g1 in view.finalized


def test_universe_bound_insensitivity():
    # enlarging the candidate bound beyond the vote targets changes nothing,
    # and the default universe, genesis plus the vote's endpoints plus the
    # valid checkpoints at its target slot, gives the same view
    state = three_vote_state()
    small = finality_view(state, checkpoints_of(state, 2))
    big = finality_view(state, checkpoints_of(state, 5))
    assert small.justified == big.justified
    assert small.finalized == big.finalized
    assert default_universe(state) == [GC, Checkpoint(GENESIS, 1, 0), C1, Checkpoint("b2", 1, 1)]
    assert finality_view(state) == small


# forests of 1-3 blocks, with block slots up to 2
SMALL_FORESTS = [
    forest for n in (1, 2, 3) for forest in iter_units(
        Bounds(n_blocks=n, n_validators=1, max_votes=0, slot_mode="free", max_slot=2)
    )
]


@st.composite
def small_states(draw):
    """A state over a small forest with a few votes, each signed by a set of
    validators, often all of them.  A vote's source is often genesis or an
    earlier vote's target, and its target often one or two slots above, so
    chains of justification form; endpoints may be invalid (c <= p, or p
    off the block's slot), and votes may run backwards or across a fork."""
    forest = draw(st.sampled_from(SMALL_FORESTS))
    n_validators = draw(st.integers(1, 4))

    def checkpoint(low, high):
        block = draw(st.sampled_from(forest.ids()))
        off = draw(st.sampled_from([0, 0, 0, 1]))
        return Checkpoint(block, draw(st.integers(low, high)), forest.slot_of(block) + off)

    votes, sources = set(), [GC]
    everyone = st.just(frozenset(range(n_validators)))
    for _ in range(draw(st.integers(0, 5))):
        source = draw(st.sampled_from(sources)) if draw(st.booleans()) else checkpoint(0, 4)
        low = source.c + 1 if draw(st.booleans()) else 0
        vote = FfgVote(source, checkpoint(low, low + 2))
        sources.append(vote.target)
        signers = draw(everyone | st.sets(st.integers(0, n_validators - 1), min_size=1))
        votes.update(SignedVote(vote, v) for v in signers)
    slot_rule = draw(st.sampled_from(["strict", "nonstrict"]))
    return ProtocolState(forest, n_validators, frozenset(votes), slot_rule)


@settings(max_examples=500)
@given(small_states(), st.sampled_from([Mutation(flags) for flags in range(16)]))
def test_the_default_universe_gives_the_view_of_every_slot_up_to_the_targets(state, mutation):
    # every valid checkpoint up to one slot past the highest target, the
    # universe the default once was, justifies and finalizes the same
    max_target = max((sv.vote.target.c for sv in state.votes), default=0)
    every = checkpoints_of(state, max_target + 1)
    assert finality_view(state, None, mutation) == finality_view(state, every, mutation)


def test_finalization_target_ancestry_reading_equivalent():
    # requiring finalization targets to descend from the source never changes
    # the verdict: validity of a source-exact vote already implies it
    rng = random.Random(5)
    state0 = ProtocolState(FORK, 4, frozenset(), "nonstrict")
    universe = checkpoints_of(state0, 3)
    vote_pool = [FfgVote(s, t) for s in universe for t in universe if s.c < t.c]
    for _ in range(80):
        votes = frozenset(
            SignedVote(rng.choice(vote_pool), rng.randrange(4)) for _ in range(rng.randrange(9))
        )
        state = ProtocolState(FORK, 4, votes, "nonstrict")
        justified = justified_checkpoints(state, universe)
        for c in universe:
            plain = is_finalized(state, justified, c)
            senders = {
                sv.validator
                for sv in state.votes
                if sv.vote.source == c
                and sv.vote.target.c == c.c + 1
                and is_ancestor(state.forest, c.block, sv.vote.target.block)
                and support_vote_valid(state, sv.vote)
            }
            stricter = c == GC or (c in justified and 3 * len(senders) >= 8)
            assert plain == stricter


def support_vote_valid(state, v):
    return (
        is_valid_checkpoint(state, v.source)
        and is_valid_checkpoint(state, v.target)
        and v.source.c < v.target.c
        and is_ancestor(state.forest, v.source.block, v.target.block)
    )


def test_quorum_half_mutation():
    # two votes justify under the halved quorum (2*2 >= 4) but not normally
    two = ProtocolState(FORK, 4, frozenset(_votes(FfgVote(GC, C1), [0, 1])), "nonstrict")
    universe = checkpoints_of(two, 2)
    assert justified_checkpoints(two, universe) == {GC}
    halved = justified_checkpoints(two, universe, Mutation.QUORUM_HALF)
    assert halved == {GC, C1, Checkpoint(GENESIS, 1, 0)}


def test_drop_ancestry_mutation():
    # votes to a slot-1 checkpoint on b1 justify the conflicting (b2,1,1) too
    state = three_vote_state()
    universe = checkpoints_of(state, 2)
    dropped = justified_checkpoints(state, universe, Mutation.DROP_ANCESTRY)
    assert Checkpoint("b2", 1, 1) in dropped
    assert Checkpoint("b2", 1, 1) not in justified_checkpoints(state, universe)
