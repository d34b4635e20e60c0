"""Block forest, checkpoint and vote-validity semantics.

The ancestry oracle below computes the reflexive-transitive closure of the
parent relation by plain set saturation, independent of the walk used by
`is_ancestor`, and is cross-checked over every forest on up to 3 blocks.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from ffgmc.model import (
    GENESIS,
    GENESIS_CHECKPOINT,
    Block,
    BlockForest,
    Checkpoint,
    FfgVote,
    InputError,
    ProtocolState,
    SignedVote,
    are_conflicting,
    checkpoint_le,
    checkpoint_lt,
    checkpoints_of,
    is_ancestor,
    is_valid_checkpoint,
    is_valid_ffg_vote,
)


def closure_oracle(forest):
    """Reflexive-transitive closure of child->parent edges by saturation."""
    ids = list(forest.blocks)
    reach = {(i, i) for i in ids}
    reach |= {(b.parent, b.id) for b in forest if b.parent is not None}
    changed = True
    while changed:
        changed = False
        for (a, m), (m2, d) in itertools.product(list(reach), list(reach)):
            if m == m2 and (a, d) not in reach:
                reach.add((a, d))
                changed = True
    return reach


def all_small_forests(n):
    """Every labelled forest on blocks b1..bn with parents in {genesis, other blocks}."""
    names = [f"b{i}" for i in range(1, n + 1)]
    options = [GENESIS] + names
    for parents in itertools.product(options, repeat=n):
        if any(parents[i] == names[i] for i in range(n)):
            continue
        try:
            yield BlockForest(
                [Block(names[i], _depth(parents, names, i), parents[i]) for i in range(n)]
            )
        except InputError:
            continue  # cyclic assignment


def _depth(parents, names, i):
    d = 0
    cur = names[i]
    while cur != GENESIS:
        d += 1
        cur = parents[names.index(cur)]
        if d > len(names) + 1:
            return d  # cycle; the forest constructor rejects it anyway
    return d


CHAIN2 = BlockForest([Block("b1", 1, GENESIS), Block("b2", 2, "b1")])
FORK = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])


def test_is_ancestor_matches_closure_oracle_on_small_forests():
    for n in range(4):
        for forest in all_small_forests(n):
            reach = closure_oracle(forest)
            for a in forest.blocks:
                for d in forest.blocks:
                    assert is_ancestor(forest, a, d) == ((a, d) in reach)


def test_is_ancestor_examples():
    assert is_ancestor(FORK, "b1", "b1")  # reflexive
    assert is_ancestor(FORK, GENESIS, "b1")  # one parent step
    assert not is_ancestor(FORK, "b1", "b2")


def test_is_ancestor_unknown_id():
    with pytest.raises(InputError):
        is_ancestor(FORK, "nope", "b1")
    with pytest.raises(InputError):
        is_ancestor(FORK, "b1", "nope")


def test_conflicts():
    assert are_conflicting(FORK, "b1", "b2")
    assert are_conflicting(FORK, "b2", "b1")
    assert not are_conflicting(FORK, "b1", "b1")
    assert not are_conflicting(CHAIN2, "b1", "b2")  # prefix


def test_conflict_symmetry_and_irreflexivity():
    for forest in all_small_forests(3):
        for a in forest.blocks:
            assert not are_conflicting(forest, a, a)
            for b in forest.blocks:
                assert are_conflicting(forest, a, b) == are_conflicting(forest, b, a)


def test_forest_reports_parents_and_cycles():
    with pytest.raises(InputError, match="block 'b2' has 2 parents"):
        BlockForest([Block("b1", 1, GENESIS), Block("b2", 2, "b1"), Block("b2", 2, GENESIS)])
    with pytest.raises(InputError, match="duplicate block id 'r1'"):
        BlockForest([Block("r1", 1), Block("r1", 2)])
    # a cycle is reported before the slot clash and the duplicate row it needs
    with pytest.raises(InputError, match="cycle detected through block"):
        BlockForest([Block("b1", 1, GENESIS), Block("b2", 2, "b1"), Block("b1", 1, "b2")])
    with pytest.raises(InputError, match="cycle detected through block 'b1'"):
        BlockForest([Block("b1", 1, "b1")])


def test_forest_invariants():
    with pytest.raises(InputError):
        BlockForest([Block("b1", 0, GENESIS)])  # slot not above parent
    with pytest.raises(InputError):
        BlockForest([Block("b1", 1, "missing")])
    with pytest.raises(InputError):
        BlockForest([Block("b1", 1, GENESIS), Block("b1", 2, GENESIS)])
    with pytest.raises(InputError):
        BlockForest([Block(GENESIS, 1)])
    # detached roots are legal forests
    f = BlockForest([Block("r1", 1), Block("r2", 2, "r1")])
    assert are_conflicting(f, "r1", GENESIS)


def test_parent_walk_terminates_within_len():
    for forest in all_small_forests(3):
        for b in forest:
            steps = 0
            cur = b
            while cur.parent is not None:
                cur = forest.block(cur.parent)
                steps += 1
                assert steps <= len(forest)


def _state(forest, rule="strict", votes=(), n=4):
    return ProtocolState(forest, n, frozenset(votes), rule)


def test_checkpoint_validity():
    st_strict = _state(CHAIN2, "strict")
    st_loose = _state(CHAIN2, "nonstrict")
    assert is_valid_checkpoint(st_strict, GENESIS_CHECKPOINT)
    assert is_valid_checkpoint(st_strict, Checkpoint("b1", 2, 1))
    assert not is_valid_checkpoint(st_strict, Checkpoint("b1", 1, 2))  # p mismatch
    assert not is_valid_checkpoint(st_strict, Checkpoint("b1", 1, 1))  # needs c > p
    assert is_valid_checkpoint(st_loose, Checkpoint("b1", 1, 1))
    assert not is_valid_checkpoint(st_loose, Checkpoint("b1", 0, 1))
    assert not is_valid_checkpoint(st_strict, Checkpoint(GENESIS, 0, 1))
    with pytest.raises(InputError):
        is_valid_checkpoint(st_strict, Checkpoint("zz", 1, 1))


def test_checkpoint_order_examples():
    assert checkpoint_lt(Checkpoint(GENESIS, 0, 0), Checkpoint("b1", 1, 1))
    assert checkpoint_le(Checkpoint("b1", 2, 1), Checkpoint("b2", 2, 2))
    assert not checkpoint_le(Checkpoint("b2", 2, 2), Checkpoint("b1", 2, 1))
    x = Checkpoint("b1", 3, 1)
    assert checkpoint_le(x, x) and not checkpoint_lt(x, x)
    # distinct checkpoints with equal (c, p) are mutually lt: a pre-order, not a partial order
    y = Checkpoint("b2", 3, 1)
    assert checkpoint_lt(x, y) and checkpoint_lt(y, x)


cp_strategy = st.builds(
    Checkpoint,
    block=st.sampled_from(["genesis", "b1", "b2", "b3"]),
    c=st.integers(0, 4),
    p=st.integers(0, 4),
)


@given(cp_strategy, cp_strategy, cp_strategy)
def test_checkpoint_preorder_properties(x, y, z):
    assert checkpoint_le(x, y) or checkpoint_le(y, x)  # total
    if checkpoint_le(x, y) and checkpoint_le(y, z):
        assert checkpoint_le(x, z)  # transitive
    assert checkpoint_le(x, x)
    assert checkpoint_lt(x, y) == (checkpoint_le(x, y) and x != y)


def test_ffg_vote_validity():
    chain1 = BlockForest([Block("b1", 1, GENESIS)])
    st_loose = _state(chain1, "nonstrict")
    vote = FfgVote(GENESIS_CHECKPOINT, Checkpoint("b1", 1, 1))
    assert is_valid_ffg_vote(st_loose, vote)
    assert not is_valid_ffg_vote(st_loose, FfgVote(GENESIS_CHECKPOINT, GENESIS_CHECKPOINT))
    st_fork = _state(FORK, "nonstrict")
    across = FfgVote(Checkpoint("b1", 1, 1), Checkpoint("b2", 2, 1))
    assert not is_valid_ffg_vote(st_fork, across)  # ancestry fails across the fork


def test_valid_votes_imply_ancestry():
    # by construction of validity; checked over every enumerated vote
    st_fork = _state(FORK, "nonstrict")
    universe = checkpoints_of(st_fork, 2)
    for src in universe:
        for tgt in universe:
            vote = FfgVote(src, tgt)
            if is_valid_ffg_vote(st_fork, vote):
                assert is_ancestor(FORK, src.block, tgt.block)


def test_checkpoints_of():
    chain1 = BlockForest([Block("b1", 1, GENESIS)])
    empty = _state(chain1)
    assert checkpoints_of(empty, 0) == [GENESIS_CHECKPOINT]
    # derived with is_valid_checkpoint as the filter oracle; the two slot
    # rules disagree exactly on (b1,1,1)
    assert checkpoints_of(_state(chain1, "strict"), 1) == [
        GENESIS_CHECKPOINT,
        Checkpoint(GENESIS, 1, 0),
    ]
    assert checkpoints_of(_state(chain1, "nonstrict"), 1) == [
        GENESIS_CHECKPOINT,
        Checkpoint(GENESIS, 1, 0),
        Checkpoint("b1", 1, 1),
    ]
    with pytest.raises(InputError):
        checkpoints_of(empty, -1)


def test_checkpoints_of_includes_vote_checkpoints():
    chain1 = BlockForest([Block("b1", 1, GENESIS)])
    odd = Checkpoint("b1", 9, 1)
    state = _state(chain1, votes=[SignedVote(FfgVote(GENESIS_CHECKPOINT, odd), 0)])
    assert odd in checkpoints_of(state, 0)


def test_protocol_state_validation():
    chain1 = BlockForest([Block("b1", 1, GENESIS)])
    vote = FfgVote(GENESIS_CHECKPOINT, Checkpoint("b1", 2, 1))
    with pytest.raises(InputError):
        ProtocolState(chain1, 0, frozenset())
    with pytest.raises(InputError):
        ProtocolState(chain1, 4, frozenset([SignedVote(vote, 4)]))
    with pytest.raises(InputError):
        ProtocolState(chain1, 4, frozenset([SignedVote(FfgVote(GENESIS_CHECKPOINT, Checkpoint("zz", 2, 1)), 0)]))
    with pytest.raises(InputError):
        ProtocolState(chain1, 4, frozenset(), "sloppy")
