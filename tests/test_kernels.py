"""The scan kernel against the pure reference semantics.

The strongest checks here walk (combination, row) pairs of small bounded
spaces in kernel scan order, evaluate the pure reference path on each
materialized state, and require the kernel's first hit and scanned count to
equal the reference's, for every scan mode.
"""

import itertools
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ffgmc.enumerator import Bounds, iter_units, materialize_state
from ffgmc.finality import (
    default_universe,
    finality_view,
    justified_checkpoints,
    justified_checkpoints_gfp,
)
from ffgmc import kernels
from ffgmc.kernels import (
    MODE_CONFLICTING_FINALIZED,
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    MODE_LFP_NE_GFP,
    bound_combinations,
    scan_states,
)
from ffgmc.catalog import catalog_forest
from ffgmc.model import (
    GENESIS, GENESIS_CHECKPOINT, Block, BlockForest, InputError, are_conflicting,
)
from ffgmc.finality import finalizes, supports
from ffgmc.mutation import Mutation, parse_mutation, quorum_met
from ffgmc.slashing import accountable_safety, disagreement, slash_kind
from ffgmc.tables import (
    ProjectedTables,
    build_graph_tables,
    min_signers_for_quorum,
    project_tables,
    quorum_families,
    state_table,
)

ALL_MODES = (
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    MODE_CONFLICTING_FINALIZED,
    MODE_LFP_NE_GFP,
)

MUTATIONS = [
    Mutation.NONE, Mutation.QUORUM_HALF, Mutation.DROP_ANCESTRY,
    Mutation.DISABLE_E1 | Mutation.DISABLE_E2,
]
# every mutation label the searches are tested under
ALL_MUTATIONS = [
    parse_mutation(name) for name in (
        "none", "quorum-half", "disable-e1", "disable-e2", "disable-e1,disable-e2",
        "drop-ancestry", "quorum-half,drop-ancestry",
    )
]


def reference_flags(state, mutation=Mutation.NONE):
    view = finality_view(state, mutation=mutation)
    safety = accountable_safety(state, mutation)
    universe = default_universe(state)
    lfp = justified_checkpoints(state, universe, mutation)
    gfp = justified_checkpoints_gfp(state, universe, mutation)
    return {
        MODE_COUNTEREXAMPLE: not safety.holds,
        MODE_FINALIZED_NONGENESIS: bool(view.finalized - {GENESIS_CHECKPOINT}),
        MODE_JUSTIFIED_NONGENESIS: bool(view.justified - {GENESIS_CHECKPOINT}),
        MODE_CONFLICTING_FINALIZED: disagreement(state, view),
        MODE_LFP_NE_GFP: lfp != gfp,
    }


def all_combinations(m, u):
    return np.array(list(itertools.combinations(range(m), u)), dtype=np.int64).reshape(
        comb(m, u), u
    )


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.label())
def test_kernel_first_hits_match_reference(mutation):
    bounds = Bounds(
        n_blocks=2, n_validators=3, max_votes=4, max_ffg_votes=2, max_chkp_slot=2,
        slot_rule="nonstrict",
    )
    forest = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])
    tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot, mutation)
    checked_states = 0
    for u in range(0, 3):
        rows, _, _ = state_table(u, bounds.n_validators, bounds.max_votes, 0)
        families = quorum_families(u, bounds.n_validators, bounds.max_votes, 0, mutation)
        combos = all_combinations(len(tables.votes), u)
        n_rows = rows.shape[0]
        first = {mode: -1 for mode in ALL_MODES}   # flat index over all combinations
        for c, combo in enumerate(combos):
            projected = project_tables(tables, combos[c : c + 1])
            expected = {mode: -1 for mode in ALL_MODES}
            for row_idx in range(n_rows):
                state = materialize_state(
                    bounds, tables, tuple(int(x) for x in combo),
                    tuple(int(x) for x in rows[row_idx]),
                )
                flags = reference_flags(state, mutation)
                for mode in ALL_MODES:
                    if flags[mode] and expected[mode] == -1:
                        expected[mode] = row_idx
                checked_states += 1
            for mode in ALL_MODES:
                if first[mode] == -1 and expected[mode] != -1:
                    first[mode] = c * n_rows + expected[mode]
                hit, scanned = scan_states(rows, families, projected, bounds.n_validators, mode)
                assert hit == expected[mode], (mode, combo)
                want = n_rows if expected[mode] == -1 else expected[mode] + 1
                assert scanned == want
        projected = project_tables(tables, combos)
        for mode in ALL_MODES:
            hit, scanned = scan_states(rows, families, projected, bounds.n_validators, mode)
            assert hit == first[mode], (mode, u)
            assert scanned == (len(combos) * n_rows if first[mode] == -1 else first[mode] + 1)
    assert checked_states > 400


@pytest.mark.parametrize(
    "mutation", MUTATIONS + [Mutation.DISABLE_E1, Mutation.DISABLE_E2], ids=lambda m: m.label()
)
def test_counterexample_hits_match_reference(mutation):
    # four distinct votes finalize both branches of the fork; at N=3 some of
    # those rows leave exactly one validator slashable, which is no
    # counterexample (3 * 1 < 3 fails), so the slashing threshold is exercised
    bounds = Bounds(n_blocks=2, n_validators=3, max_votes=8, max_chkp_slot=2,
                    slot_rule="nonstrict")
    forest = BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)])
    tables = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot, mutation)
    every = all_combinations(len(tables.votes), 4)
    # the combinations are picked by the unmutated bound, whatever the mutation
    plain = build_graph_tables(forest, bounds.slot_rule, bounds.max_chkp_slot)
    keep = bound_combinations(plain, every, MODE_COUNTEREXAMPLE)
    combos = every[np.flatnonzero(keep | (np.arange(len(every)) < 2))]
    rows, _, _ = state_table(4, 3, bounds.max_votes, 0)
    families = quorum_families(4, 3, bounds.max_votes, 0, mutation)
    expected = {MODE_COUNTEREXAMPLE: -1, MODE_CONFLICTING_FINALIZED: -1}
    for flat in range(len(combos) * rows.shape[0]):
        combo, row = combos[flat // rows.shape[0]], rows[flat % rows.shape[0]]
        state = materialize_state(
            bounds, tables, tuple(int(x) for x in combo), tuple(int(x) for x in row)
        )
        safety = accountable_safety(state, mutation)
        for mode, flag in ((MODE_COUNTEREXAMPLE, not safety.holds),
                           (MODE_CONFLICTING_FINALIZED, safety.disagreement)):
            if flag and expected[mode] == -1:
                expected[mode] = flat
        if -1 not in expected.values():
            break
    assert expected[MODE_CONFLICTING_FINALIZED] >= 0
    projected = project_tables(tables, combos)
    for mode, first in expected.items():
        want = (first, first + 1) if first >= 0 else (-1, len(combos) * rows.shape[0])
        assert scan_states(rows, families, projected, 3, mode) == want, mode


@pytest.mark.parametrize("mutation", ALL_MUTATIONS, ids=lambda m: m.label())
def test_projection_matches_graph_tables(mutation):
    # every packed mask, bit by bit, against the reference predicates: bit i
    # of src_sandwich[c, j] says vote i supports vote j's source checkpoint,
    # of src_fin[c, j] that vote i finalizes it, of clashes[c, j] that the
    # sources of votes i and j conflict, and of partners[c, j] that votes i
    # and j form a slashable pair
    forests = [
        BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)]),
        BlockForest([Block("b1", 1, GENESIS), Block("b2", 2, "b1")]),
        catalog_forest("forest"),
    ]
    for forest in forests:
        tables = build_graph_tables(forest, "nonstrict", 2, mutation)
        cps, votes = tables.checkpoints, tables.votes
        for u in range(4):
            combos = all_combinations(len(votes), u)
            projected = project_tables(tables, combos)
            for c, combo in enumerate(combos):
                for j, vote in enumerate(combo):
                    src = tables.vote_src[vote]
                    assert votes[vote].source == cps[src]
                    assert (projected.from_genesis[c] >> j & 1) == (src == 0)
                    for i, other in enumerate(combo):
                        supported = supports(forest, votes[other], cps[src], mutation)
                        assert (projected.src_sandwich[c, j] >> i & 1) == supported
                        finalizing = finalizes(votes[other], cps[src])
                        assert (projected.src_fin[c, j] >> i & 1) == finalizing
                        clash = are_conflicting(forest, cps[src].block, votes[other].source.block)
                        assert (projected.clashes[c, j] >> i & 1) == clash, (combo, i, j)
                        for k, cp in enumerate(cps):
                            supported = supports(forest, votes[other], cp, mutation)
                            assert (projected.sandwich[c, k] >> i & 1) == supported
                    for i, other in enumerate(combo):
                        paired = i != j and slash_kind(votes[vote], votes[other], mutation)
                        assert (projected.partners[c, j] >> i & 1) == bool(paired), (combo, i, j)
                # a vote subset is slashable iff it holds a slashable pair
                subsets = np.arange(2**u, dtype=np.int64)[:, None]
                counts = kernels._holds_pair(subsets, projected.partners[c]).sum(axis=1)
                for t in range(2**u):
                    held = [votes[v] for i, v in enumerate(combo) if t >> i & 1]
                    slashable = any(
                        slash_kind(a, b, mutation) for a, b in itertools.combinations(held, 2)
                    )
                    assert counts[t] == slashable, (combo, t)


def test_fixpoint_comparison_sees_a_support_cycle():
    # valid votes never form one (source slot < target slot), so a hand-made
    # table is the only way to make the two fixpoints differ: vote 0 has
    # source checkpoint 1 and sandwiches 2, vote 1 the reverse.  The least
    # fixpoint justifies genesis alone, the greatest keeps 1 and 2.
    projected = ProjectedTables(
        sandwich=np.array([[0, 0b10, 0b01]]),
        src_sandwich=np.array([[0b10, 0b01]]),
        from_genesis=np.array([0]),
        src_fin=np.zeros((1, 2), dtype=np.int64),
        clashes=np.zeros((1, 2), dtype=np.int64),
        partners=np.zeros((1, 2), dtype=np.int64),
    )
    rows, _, _ = state_table(2, 1, 2, 0)
    families = quorum_families(2, 1, 2, 0, Mutation.NONE)
    assert scan_states(rows, families, projected, 1, MODE_LFP_NE_GFP) == (0, 1)
    assert scan_states(rows, families, projected, 1, MODE_JUSTIFIED_NONGENESIS) == (-1, 1)


# Hand-made combinations: a valid vote's source slot is below its target
# slot, so real graphs never hold a support cycle and the two fixpoints of
# every real row agree.  These tables draw each vote's source checkpoint and
# sandwich column freely.  A combination is (sources, sandwich columns, fin
# masks, partner masks): vote j has source checkpoint sources[j], sandwiches
# the checkpoints of the K-bit mask columns[j], and forms a slashable pair
# with the votes of partners[j] (a symmetric relation, see `symmetric`);
# fin[cp] holds the votes that finalize checkpoint cp.  Two properties of
# real tables hold here too: a vote finalizes only its own source (see
# `sourced`), and checkpoint conflict is symmetric and irreflexive.


def symmetric(raw):
    """Masks of the symmetric, irreflexive closure of the relation that n
    drawn n-bit masks give."""
    n = len(raw)
    return [sum(1 << j for j in range(n) if j != i and (raw[i] >> j & 1 or raw[j] >> i & 1))
            for i in range(n)]


def sourced(sources, raw):
    """fin masks kept to the votes sourced at each checkpoint, from K drawn masks."""
    return [mask & sum(1 << j for j, s in enumerate(sources) if s == cp)
            for cp, mask in enumerate(raw)]


def vote_masks(rows):
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1)


def hand_made_tables(k, combos, cp_conflict):
    """ProjectedTables of hand-made combinations over K checkpoints."""
    sandwich = np.array(
        [[sum(((col >> cp) & 1) << j for j, col in enumerate(cols)) for cp in range(k)]
         for _, cols, _, _ in combos],
        dtype=np.int64,
    )
    return ProjectedTables(
        sandwich=sandwich,
        src_sandwich=vote_masks(
            [[sandwich[c, s] for s in src] for c, (src, _, _, _) in enumerate(combos)]
        ),
        from_genesis=np.array(
            [sum(1 << j for j, s in enumerate(src) if s == 0) for src, _, _, _ in combos],
            dtype=np.int64,
        ),
        src_fin=vote_masks([[fin[s] for s in src] for src, _, fin, _ in combos]),
        clashes=vote_masks(
            [[sum((cp_conflict[s] >> t & 1) << i for i, t in enumerate(src)) for s in src]
             for src, _, _, _ in combos]
        ),
        partners=vote_masks([partners for _, _, _, partners in combos]),
    )


def hand_made_flags(k, combo, cp_conflict, row, n_validators, mutation):
    """Every mode's verdict on one row, iterating checkpoint sets directly."""
    src, cols, fin, partners = combo
    sandwich = [sum(((col >> cp) & 1) << j for j, col in enumerate(cols)) for cp in range(k)]

    def quorum(votes):
        return quorum_met(sum(1 for m in row if int(m) & votes), n_validators, mutation)

    def fixpoint(justified):
        while True:
            eligible = sum(1 << j for j, s in enumerate(src) if justified >> s & 1)
            grown = 1 | sum(1 << cp for cp in range(k) if quorum(sandwich[cp] & eligible))
            if grown == justified:
                return justified
            justified = grown

    lfp = fixpoint(1)
    finalized = 1 | sum(1 << cp for cp in range(k) if lfp >> cp & 1 and quorum(fin[cp]))
    disagreement = any(
        finalized >> a & 1 and finalized >> b & 1 and cp_conflict[a] >> b & 1
        for a in range(k) for b in range(k)
    )
    slashable = sum(
        1 for m in row
        if any(int(m) >> i & 1 and int(m) >> j & 1 and partners[i] >> j & 1
               for i, j in itertools.combinations(range(len(src)), 2))
    )
    return {
        MODE_COUNTEREXAMPLE: disagreement and 3 * slashable < n_validators,
        MODE_FINALIZED_NONGENESIS: finalized > 1,
        MODE_JUSTIFIED_NONGENESIS: lfp > 1,
        MODE_CONFLICTING_FINALIZED: disagreement,
        MODE_LFP_NE_GFP: lfp != fixpoint((1 << k) - 1),
    }


def check_hand_made_scans(k, combos, cp_conflict, n_validators, max_votes, mutation,
                          modes, pair_batch=None):
    """Compare scan_states in each mode on hand-made tables with one
    row-by-row reference loop; return each mode's first hit."""
    u = len(combos[0][0])
    rows, _, _ = state_table(u, n_validators, max_votes, 0)
    families = quorum_families(u, n_validators, max_votes, 0, mutation)
    total = len(combos) * rows.shape[0]
    first = {}
    for flat in range(total):
        combo, row = combos[flat // rows.shape[0]], rows[flat % rows.shape[0]]
        flags = hand_made_flags(k, combo, cp_conflict, row, n_validators, mutation)
        for mode in modes:
            if flags[mode]:
                first.setdefault(mode, flat)
        if len(first) == len(modes):
            break
    projected = hand_made_tables(k, combos, cp_conflict)
    for mode in modes:
        expected = first.setdefault(mode, -1)
        with mock.patch.object(kernels, "_PAIR_BATCH", pair_batch or kernels._PAIR_BATCH):
            got = scan_states(rows, families, projected, n_validators, mode)
        assert got == (expected, expected + 1 if expected >= 0 else total), (mode, pair_batch)
    return first


def check_hand_made_scan(k, combos, cp_conflict, n_validators, max_votes, mutation,
                         mode, pair_batch=None):
    """Compare scan_states on hand-made tables with a row-by-row reference loop."""
    return check_hand_made_scans(k, combos, cp_conflict, n_validators, max_votes, mutation,
                                 (mode,), pair_batch)[mode]


def hand_made_combination(k, u):
    """A strategy for one hand-made combination of u votes over K checkpoints.
    Each vote draws at most one slashable partner, and some combinations
    plant a finalizing link from genesis (`finalizing`), so that
    counterexamples are common."""
    return st.tuples(
        st.lists(st.integers(0, k - 1), min_size=u, max_size=u),
        st.lists(st.integers(0, 2**k - 1), min_size=u, max_size=u),
        st.lists(st.integers(0, 2**u - 1), min_size=k, max_size=k),
        st.lists(st.sampled_from([0] + [1 << j for j in range(u)]), min_size=u, max_size=u)
        .map(symmetric),
        st.booleans(),
    ).map(lambda c: finalizing(*c[:4]) if c[4] else c[:4]).map(
        lambda c: (c[0], c[1], sourced(c[0], c[2]), c[3])
    )


def finalizing(sources, cols, fin, partners):
    """Vote 0 leaves genesis and sandwiches vote 1's source, and vote 1
    finalizes that source (with two votes or more)."""
    if len(sources) < 2:
        return sources, cols, fin, partners
    target = sources[1] or 1
    fin = list(fin)
    fin[target] |= 0b10
    return [0, target, *sources[2:]], [cols[0] | 1 << target, *cols[1:]], fin, partners


def variant(k, combo, flip_sandwich, flip_fin, partners):
    """`combo` with some columns changed: its sandwich columns away from the
    votes' sources or which vote finalizes its source (each flipped or
    kept), or its slashable pairs (kept, none or all).  The fixpoint pattern
    stays the same, and so does every other mode's pattern that does not
    read the changed columns."""
    sources, cols, fin, kept = combo
    u = len(sources)
    if flip_sandwich:
        elsewhere = (2**k - 1) & ~sum(1 << s for s in sources)
        cols = [col ^ elsewhere for col in cols]
    if flip_fin:
        fin = sourced(sources, [mask ^ (2**u - 1) for mask in fin])
    if partners == "none":
        kept = [0] * u
    elif partners == "all":
        kept = [(2**u - 1) ^ (1 << i) for i in range(u)]
    return sources, cols, fin, kept


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scan_matches_checkpoint_set_reference_on_hand_made_tables(data):
    # besides independent combinations, the draw holds variants of them:
    # each shares its combination's pattern in the modes that do not read
    # the columns it changes, and the scan meets them in any order
    k = data.draw(st.integers(2, 6), label="K")
    u = data.draw(st.integers(0, 4), label="u")
    n_validators = data.draw(st.integers(1, 3), label="N")
    max_votes = data.draw(st.integers(u, min(u * n_validators, 6)), label="max_votes")
    combos = data.draw(st.lists(hand_made_combination(k, u), min_size=1, max_size=2),
                       label="combinations")
    variants = data.draw(st.lists(st.tuples(
        st.integers(0, len(combos) - 1), st.booleans(), st.booleans(),
        st.sampled_from(["kept", "none", "all"]),
    ), min_size=1, max_size=4), label="variants")
    combos = data.draw(st.permutations(
        combos + [variant(k, combos[i], *changes) for i, *changes in variants]
    ), label="order")
    cp_conflict = data.draw(
        st.lists(st.integers(0, 2**k - 1), min_size=k, max_size=k).map(symmetric),
        label="cp_conflict",
    )
    mutation = data.draw(st.sampled_from([Mutation.NONE, Mutation.QUORUM_HALF]),
                         label="mutation")
    pair_batch = data.draw(st.sampled_from([1, 5, 1024, None]), label="pair batch")
    check_hand_made_scans(k, combos, cp_conflict, n_validators, max_votes, mutation,
                          ALL_MODES, pair_batch)


NO_PAIRS = [0] * 4


@pytest.mark.parametrize(
    "k,combos,n_validators",
    [
        # two votes each sandwiching the other's source
        (3, [([1, 2], [0b100, 0b010], [0, 0, 0], NO_PAIRS[:2])], 1),
        # one vote sandwiching its own source, behind a combination without a cycle
        (3, [([0], [0b010], [0, 0, 0], NO_PAIRS[:1]), ([1], [0b010], [0, 0, 0], NO_PAIRS[:1])],
         1),
        # a justified genesis chain beside a cycle, each with a finalizing link
        (4, [([0, 2, 3], [0b0010, 0b1000, 0b0100], [0b001, 0, 0b010, 0b100], NO_PAIRS[:3])],
         2),
        # a three-vote cycle that a quorum of two of three validators must close
        (4, [([1, 2, 3], [0b0100, 0b1000, 0b0010], [0, 0, 0, 0], NO_PAIRS[:3])], 3),
    ],
    ids=["two-cycle", "self-support", "cycle-beside-chain", "three-cycle-N3"],
)
def test_support_cycles_separate_the_fixpoints(k, combos, n_validators):
    cp_conflict = [0] * k
    cp_conflict[1], cp_conflict[2] = 0b100, 0b010
    u = len(combos[0][0])
    for mode in ALL_MODES:
        for mutation in (Mutation.NONE, Mutation.QUORUM_HALF):
            first = check_hand_made_scan(
                k, combos, cp_conflict, n_validators, u * n_validators, mutation, mode
            )
            if mode == MODE_LFP_NE_GFP:
                assert first >= 0
            for pair_batch in (1, 5):
                check_hand_made_scan(k, combos, cp_conflict, n_validators, u * n_validators,
                                     mutation, mode, pair_batch=pair_batch)


# Each (pattern, family) pair is decided once.  These batches repeat a few
# patterns: combinations of one pattern share their votes' sources, the
# sandwich columns at those sources and `fin`, and differ in the sandwich
# columns at every other checkpoint (which only the justified test reads)
# and in `partners` (which only the per-row slashable count reads).


def repeated_pattern_combos(rng, k, u, n_patterns, n_combos):
    """Hand-made combinations, each drawing one of `n_patterns` patterns."""
    patterns = []
    for _ in range(n_patterns):
        sources = [int(s) for s in rng.integers(0, k, u)]
        at_sources = sum(1 << s for s in set(sources))
        cols = [int(c) & at_sources for c in rng.integers(0, 2**k, u)]
        fin = sourced(sources, [int(f) for f in rng.integers(0, 2**u, k)])
        patterns.append((sources, at_sources, cols, fin))
    combos = []
    for p in rng.integers(0, n_patterns, n_combos):
        sources, at_sources, cols, fin = patterns[p]
        elsewhere = rng.integers(0, 2**k, u) & ~at_sources
        combos.append((
            sources,
            [col | int(e) for col, e in zip(cols, elsewhere)],
            fin,
            symmetric([int(r) for r in rng.integers(0, 2**u, u)]),
        ))
    return combos


def pattern_keys(projected, *names):
    """The distinct rows of the named ProjectedTables columns."""
    columns = [getattr(projected, name).reshape(len(projected.sandwich), -1) for name in names]
    return {tuple(row) for row in np.hstack(columns).tolist()}


COUNTEREXAMPLE_KEY = ("src_sandwich", "from_genesis", "src_fin", "clashes")


def scan_per_combination(k, combos, cp_conflict, rows, families, n_validators, mode):
    """What one scan over `combos` must report, from one scan call per combination."""
    n_rows = rows.shape[0]
    for c, combo in enumerate(combos):
        projected = hand_made_tables(k, [combo], cp_conflict)
        hit, _ = scan_states(rows, families, projected, n_validators, mode)
        if hit >= 0:
            return c * n_rows + hit, c * n_rows + hit + 1
    return -1, len(combos) * n_rows


@pytest.mark.parametrize("seed", range(8))
def test_one_scan_equals_one_scan_per_combination(seed):
    rng = np.random.default_rng(seed)
    k, u, n_validators = 5, int(rng.integers(1, 4)), int(rng.integers(1, 4))
    combos = repeated_pattern_combos(rng, k, u, n_patterns=3, n_combos=10)
    cp_conflict = symmetric([int(c) for c in rng.integers(0, 2**k, k)])
    projected = hand_made_tables(k, combos, cp_conflict)
    assert len(pattern_keys(projected, *COUNTEREXAMPLE_KEY)) <= 3
    mutation = Mutation.QUORUM_HALF if seed % 2 else Mutation.NONE
    rows, _, _ = state_table(u, n_validators, u * n_validators, 0)
    families = quorum_families(u, n_validators, u * n_validators, 0, mutation)
    for mode in ALL_MODES:
        want = scan_per_combination(k, combos, cp_conflict, rows, families, n_validators, mode)
        for pair_batch in (1, 5, kernels._PAIR_BATCH):
            with mock.patch.object(kernels, "_PAIR_BATCH", pair_batch):
                got = scan_states(rows, families, projected, n_validators, mode)
            assert got == want, (mode, pair_batch)


def test_hit_in_a_later_group_than_its_pattern():
    # votes 0 and 1 justify the conflicting checkpoints 1 and 2 from genesis,
    # and votes 2 and 3 finalize them, so every combination's one row
    # disagrees.  The three combinations share their counterexample pattern
    # and differ only in `partners`: votes 2 and 3 make the lone validator
    # slashable in combinations 0 and 1, so only combination 2 is a
    # counterexample.  With one pair per batch each combination is its own
    # group, and combination 2 reuses the decision of combination 0
    k, cp_conflict = 3, [0, 0b100, 0b010]
    votes = ([0, 0, 1, 2], [0b010, 0b100, 0, 0], [0, 0b0100, 0b1000])
    combos = [(*votes, [0, 0, 0b1000, 0b0100])] * 2 + [(*votes, [0] * 4)]
    projected = hand_made_tables(k, combos, cp_conflict)
    assert len(pattern_keys(projected, *COUNTEREXAMPLE_KEY)) == 1
    for pair_batch in (1, 5, None):
        for mode in ALL_MODES:
            for mutation in (Mutation.NONE, Mutation.QUORUM_HALF):
                first = check_hand_made_scan(k, combos, cp_conflict, 1, 4, mutation, mode,
                                             pair_batch=pair_batch)
                if mode == MODE_COUNTEREXAMPLE:
                    assert first == 2, mutation


def test_patterns_tell_genesis_sourced_votes_apart():
    # both votes sandwich checkpoint 2 and no source, so their src_sandwich
    # rows are equal; only the second one's source is genesis, so only the
    # second combination justifies anything
    k, cp_conflict = 3, [0, 0, 0]
    combos = [([1], [0b100], [0, 0, 0], [0]), ([0], [0b100], [0, 0, 0], [0])]
    projected = hand_made_tables(k, combos, cp_conflict)
    assert projected.src_sandwich.tolist() == [[0], [0]]
    for pair_batch in (1, None):
        for mode in (MODE_JUSTIFIED_NONGENESIS, MODE_LFP_NE_GFP):
            first = check_hand_made_scan(k, combos, cp_conflict, 1, 1, Mutation.NONE, mode,
                                         pair_batch=pair_batch)
            assert first == (1 if mode == MODE_JUSTIFIED_NONGENESIS else -1)


def test_justified_patterns_tell_sandwich_rows_apart():
    # one genesis-sourced vote that no vote supports: all three combinations
    # share their fixpoint pattern, but only the third one's vote sandwiches
    # a checkpoint, so only it justifies one
    k, cp_conflict = 3, [0, 0, 0]
    idle, justifying = ([0], [0b000], [0, 0, 0], [0]), ([0], [0b100], [0, 0, 0], [0])
    combos = [idle, idle, justifying]
    projected = hand_made_tables(k, combos, cp_conflict)
    assert len(pattern_keys(projected, "src_sandwich", "from_genesis")) == 1
    n_rows = state_table(1, 2, 2, 0)[0].shape[0]
    for pair_batch in (1, None):
        first = check_hand_made_scan(k, combos, cp_conflict, 2, 2, Mutation.NONE,
                                     MODE_JUSTIFIED_NONGENESIS, pair_batch=pair_batch)
        assert first // n_rows == 2


def test_fixpoints_run_once_per_pattern(monkeypatch):
    # a scan without a hit decides each (pattern, family) pair once, and so
    # runs its fixpoints once: this seed draws no support cycle, and no
    # checkpoint conflicts, so no row is a counterexample
    rng = np.random.default_rng(65)
    k, u, n_validators = 5, 3, 3
    combos = repeated_pattern_combos(rng, k, u, n_patterns=2, n_combos=12)
    projected = hand_made_tables(k, combos, [0] * k)
    rows, _, _ = state_table(u, n_validators, u * n_validators, 0)
    families = quorum_families(u, n_validators, u * n_validators, 0, Mutation.NONE)
    decided = []
    decide = kernels._decide

    def counting(combo, family, *args):
        decided.extend(zip(combo.tolist(), family.tolist()))
        return decide(combo, family, *args)

    monkeypatch.setattr(kernels, "_decide", counting)
    for mode, key in ((MODE_LFP_NE_GFP, ("src_sandwich", "from_genesis")),
                      (MODE_COUNTEREXAMPLE, COUNTEREXAMPLE_KEY)):
        patterns = pattern_keys(projected, *key)
        for pair_batch in (1, 5, kernels._PAIR_BATCH):
            decided.clear()
            monkeypatch.setattr(kernels, "_PAIR_BATCH", pair_batch)
            assert scan_states(rows, families, projected, n_validators, mode) == (
                -1, len(combos) * rows.shape[0])
            assert len(decided) == len(set(decided)) == len(patterns) * families[0].shape[0]


def test_keys_that_differ_only_in_finalizing_links_or_clashes():
    # votes 0 and 1 justify checkpoint 1 and checkpoint 2 or 3 from genesis,
    # and votes 2 and 3 may finalize them.  Moving the second pair from
    # checkpoint 2 to 3, which conflicts with 1, changes only `clashes`;
    # dropping a finalizing link changes only `src_fin`
    k, cp_conflict = 4, [0, 0b1000, 0, 0b0010]

    def combo(second, links):
        fin = [0] * k
        fin[1], fin[second] = links & 0b0100, links & 0b1000
        return [0, 0, 1, second], [0b0010, 1 << second, 0, 0], fin, [0] * 4

    variants = [combo(second, links) for second in (2, 3) for links in (0, 0b0100, 0b1000, 0b1100)]
    projected = hand_made_tables(k, variants, cp_conflict)
    assert len(pattern_keys(projected, "src_sandwich", "from_genesis")) == 1
    assert len(pattern_keys(projected, "src_sandwich", "from_genesis", "src_fin")) == 4
    assert len(pattern_keys(projected, "src_sandwich", "from_genesis", "clashes")) == 2
    rng = np.random.default_rng(5)
    for n_validators, mutation in ((1, Mutation.NONE), (2, Mutation.NONE), (2, Mutation.QUORUM_HALF)):
        rows, _, _ = state_table(4, n_validators, 4 * n_validators, 0)
        families = quorum_families(4, n_validators, 4 * n_validators, 0, mutation)
        for order in [range(len(variants))] + [rng.permutation(len(variants)) for _ in range(4)]:
            combos = [variants[i] for i in order]
            projected = hand_made_tables(k, combos, cp_conflict)
            for mode in ALL_MODES:
                first = check_hand_made_scan(k, combos, cp_conflict, n_validators,
                                             4 * n_validators, mutation, mode)
                want = scan_per_combination(k, combos, cp_conflict, rows, families,
                                            n_validators, mode)
                for pair_batch in (1, 5, kernels._PAIR_BATCH):
                    with mock.patch.object(kernels, "_PAIR_BATCH", pair_batch):
                        got = scan_states(rows, families, projected, n_validators, mode)
                    assert got == want, (mode, pair_batch)
                if mode == MODE_CONFLICTING_FINALIZED:
                    # only the variant with both links on conflicting checkpoints
                    assert first // rows.shape[0] == list(order).index(7)


def test_empty_scan():
    forest = BlockForest([Block("b1", 1, GENESIS)])
    tables = build_graph_tables(forest, "strict", 2)
    projected = project_tables(tables, np.zeros((1, 0), dtype=np.int64))
    rows = np.zeros((0, 3), dtype=np.int64)
    no_families = (np.zeros((0, 1), dtype=bool), np.zeros(0, dtype=np.intp))
    assert scan_states(rows, no_families, projected, 3, MODE_COUNTEREXAMPLE) == (-1, 0)
    rows, _, _ = state_table(0, 3, 4, 0)
    families = quorum_families(0, 3, 4, 0, Mutation.NONE)
    none = project_tables(tables, np.zeros((0, 0), dtype=np.int64))
    assert scan_states(rows, families, none, 3, MODE_LFP_NE_GFP) == (-1, 0)


HALF, DROP = Mutation.QUORUM_HALF, Mutation.DROP_ANCESTRY
E1_E2 = Mutation.DISABLE_E1 | Mutation.DISABLE_E2


@pytest.mark.parametrize(
    "u,n_validators,max_votes,min_signers,mutation",
    [(0, 2, 4, 0, Mutation.NONE), (2, 1, 4, 0, E1_E2), (3, 3, 9, 0, DROP),
     (3, 4, 12, 3, HALF), (4, 3, 12, 2, Mutation.NONE), (4, 4, 12, 0, HALF | DROP),
     (7, 2, 14, 0, Mutation.NONE)],
    # the id's last field says whether the quorum is halved
    ids=lambda v: str(HALF in v) if isinstance(v, Mutation) else None,
)
def test_quorum_families_match_direct_count(
    u, n_validators, max_votes, min_signers, mutation
):
    rows, _, _ = state_table(u, n_validators, max_votes, min_signers)
    table, index = quorum_families(u, n_validators, max_votes, min_signers, mutation)
    assert index.shape == (rows.shape[0],)
    assert table.shape[1] == 2**u
    for r, row in enumerate(rows):
        for x in range(2**u):
            count = sum(1 for mask in row if int(mask) & x)
            assert table[index[r], x] == quorum_met(count, n_validators, mutation), (r, x)
    # one entry per distinct family, and every family is some row's
    assert len({tuple(f) for f in table}) == table.shape[0]
    assert set(index.tolist()) == set(range(table.shape[0]))


def test_quorum_families_refuse_an_oversized_table(monkeypatch):
    # 71 rows at u=3, N=3 need one 8-byte key each
    monkeypatch.setattr("ffgmc.tables.MAX_FAMILY_KEY_BYTES", 70 * 8)
    quorum_families.cache_clear()
    with pytest.raises(InputError, match="quorum families"):
        quorum_families(3, 3, 9, 0, Mutation.NONE)
    monkeypatch.setattr("ffgmc.tables.MAX_FAMILY_KEY_BYTES", 71 * 8)
    assert quorum_families(3, 3, 9, 0, Mutation.NONE)[1].shape == (71,)


# Graph units for the differential test: depth and free slot modes on up to
# two blocks, and the catalog forest with its detached roots.
DIFFERENTIAL_UNITS = [
    *iter_units(Bounds(n_blocks=1, n_validators=1, max_votes=0)),
    *iter_units(Bounds(n_blocks=2, n_validators=1, max_votes=0)),
    *iter_units(Bounds(n_blocks=2, n_validators=1, max_votes=0, slot_mode="free", max_slot=3)),
    catalog_forest("forest"),
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_scan_matches_row_by_row_reference(data):
    forest = data.draw(st.sampled_from(DIFFERENTIAL_UNITS), label="unit")
    n_validators = data.draw(st.integers(1, 5), label="N")
    slot_rule = data.draw(st.sampled_from(["strict", "nonstrict"]), label="slot_rule")
    max_chkp_slot = data.draw(st.integers(1, 3), label="max_chkp_slot")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    mode = data.draw(st.sampled_from(ALL_MODES), label="mode")
    tables = build_graph_tables(forest, slot_rule, max_chkp_slot, mutation)
    u = data.draw(st.integers(0, min(3, len(tables.votes))), label="u")
    max_votes = data.draw(st.integers(u, min(u * n_validators, 6)), label="max_votes")
    min_signers = data.draw(
        st.sampled_from([0, min_signers_for_quorum(n_validators)]), label="min_signers"
    )
    rows, _, _ = state_table(u, n_validators, max_votes, min_signers)
    families = quorum_families(u, n_validators, max_votes, min_signers, mutation)
    every = all_combinations(len(tables.votes), u)
    picked = sorted(data.draw(
        st.sets(st.integers(0, len(every) - 1), min_size=1, max_size=4), label="combinations"
    ))
    combos = every[picked]
    pair_batch = data.draw(st.sampled_from([1, 5, kernels._PAIR_BATCH]), label="pair batch")

    bounds = Bounds(n_blocks=0, n_validators=n_validators, max_votes=max_votes,
                    slot_rule=slot_rule, graph_filter="forest")
    expected, scanned = -1, len(combos) * rows.shape[0]
    for flat in range(scanned):
        combo, row = combos[flat // rows.shape[0]], rows[flat % rows.shape[0]]
        state = materialize_state(
            bounds, tables, tuple(int(x) for x in combo), tuple(int(x) for x in row)
        )
        if reference_flags(state, mutation)[mode]:
            expected, scanned = flat, flat + 1
            break
    projected = project_tables(tables, combos)
    with mock.patch.object(kernels, "_PAIR_BATCH", pair_batch):
        got = scan_states(rows, families, projected, n_validators, mode)
    assert got == (expected, scanned)


BOUNDED_MODES = (
    MODE_COUNTEREXAMPLE,
    MODE_FINALIZED_NONGENESIS,
    MODE_JUSTIFIED_NONGENESIS,
    MODE_CONFLICTING_FINALIZED,
)


@pytest.mark.parametrize(
    "mutation",
    [Mutation.NONE, Mutation.QUORUM_HALF, Mutation.DROP_ANCESTRY],
    ids=lambda m: m.label(),
)
@pytest.mark.parametrize(
    "graph,slot_rule,max_chkp_slot,n_validators,max_u",
    [
        ("fork", "nonstrict", 2, 2, 4),
        ("chain", "strict", 3, 3, 3),
        ("catalog-forest", "nonstrict", 2, 1, 2),
    ],
)
def test_bound_matches_unanimity_state(
    mutation, graph, slot_rule, max_chkp_slot, n_validators, max_u
):
    # for every combination, the batched bound equals the reference semantics
    # and a one-row scan on the state where every validator casts every vote
    forests = {
        "fork": BlockForest([Block("b1", 1, GENESIS), Block("b2", 1, GENESIS)]),
        "chain": BlockForest([Block("b1", 1, GENESIS), Block("b2", 2, "b1")]),
        "catalog-forest": catalog_forest("forest"),
    }
    bounds = Bounds(
        n_blocks=2, n_validators=n_validators, max_votes=16, max_chkp_slot=max_chkp_slot,
        slot_rule=slot_rule,
    )
    tables = build_graph_tables(
        forests[graph], bounds.slot_rule, bounds.max_chkp_slot, mutation
    )
    kept = {mode: 0 for mode in BOUNDED_MODES}
    for u in range(max_u + 1):
        m = len(tables.votes)
        combos = all_combinations(m, u)
        keep = {mode: bound_combinations(tables, combos, mode) for mode in BOUNDED_MODES}
        rows, _, _ = state_table(u, n_validators, bounds.max_votes, 0)
        table, index = quorum_families(u, n_validators, bounds.max_votes, 0, mutation)
        unanimity = int(np.flatnonzero((rows == (1 << u) - 1).all(axis=1))[0])
        row = rows[unanimity : unanimity + 1]
        families = (table, index[unanimity : unanimity + 1])
        for i, combo in enumerate(combos):
            combo = tuple(int(x) for x in combo)
            state = materialize_state(bounds, tables, combo, tuple(int(x) for x in row[0]))
            view = finality_view(state, mutation=mutation)
            conflicting = disagreement(state, view)
            reference = {
                MODE_COUNTEREXAMPLE: conflicting,
                MODE_FINALIZED_NONGENESIS: bool(view.finalized - {GENESIS_CHECKPOINT}),
                MODE_JUSTIFIED_NONGENESIS: bool(view.justified - {GENESIS_CHECKPOINT}),
                MODE_CONFLICTING_FINALIZED: conflicting,
            }
            projected = project_tables(tables, combos[i : i + 1])
            for mode in BOUNDED_MODES:
                assert keep[mode][i] == reference[mode], (mode, combo)
                scan_mode = MODE_CONFLICTING_FINALIZED if mode == MODE_COUNTEREXAMPLE else mode
                hit, _ = scan_states(row, families, projected, n_validators, scan_mode)
                assert keep[mode][i] == (hit == 0), (mode, combo)
                kept[mode] += bool(keep[mode][i])
    assert kept[MODE_FINALIZED_NONGENESIS] > 0
    if graph == "fork":
        assert kept[MODE_CONFLICTING_FINALIZED] > 0


@pytest.mark.parametrize("mutation", ALL_MUTATIONS, ids=lambda m: m.label())
def test_mask_bound_matches_finality_on_every_unit(mutation):
    # every unit of three blocks and of two blocks in free slot mode, up to
    # four votes: on combinations the bound keeps and drops for a
    # conflicting finalized pair, and random ones, the bound equals the
    # reference finality of the unanimity state (one validator casting
    # every vote)
    rng = np.random.default_rng(7)
    kept = 0
    for bounds in (
        Bounds(n_blocks=3, n_validators=1, max_votes=4, max_chkp_slot=3, slot_rule="nonstrict"),
        Bounds(n_blocks=2, n_validators=1, max_votes=4, max_chkp_slot=3, slot_mode="free",
               max_slot=2),
    ):
        for forest in iter_units(bounds):
            tables = build_graph_tables(
                forest, bounds.slot_rule, bounds.max_chkp_slot, mutation
            )
            m = len(tables.votes)
            for u in range(1, 5):
                every = all_combinations(m, u)
                conflict = bound_combinations(tables, every, MODE_CONFLICTING_FINALIZED)
                picks = [rng.permutation(np.flatnonzero(side))[:10]
                         for side in (conflict, ~conflict)]
                combos = every[np.sort(np.concatenate(picks + [rng.choice(len(every), 10)]))]
                keep = {mode: bound_combinations(tables, combos, mode)
                        for mode in BOUNDED_MODES}
                for i, combo in enumerate(combos):
                    combo = tuple(int(x) for x in combo)
                    state = materialize_state(bounds, tables, combo, ((1 << u) - 1,))
                    view = finality_view(state, mutation=mutation)
                    conflicting = disagreement(state, view)
                    assert keep[MODE_COUNTEREXAMPLE][i] == conflicting, combo
                    assert keep[MODE_CONFLICTING_FINALIZED][i] == conflicting, combo
                    assert keep[MODE_FINALIZED_NONGENESIS][i] == bool(
                        view.finalized - {GENESIS_CHECKPOINT}), combo
                    assert keep[MODE_JUSTIFIED_NONGENESIS][i] == bool(
                        view.justified - {GENESIS_CHECKPOINT}), combo
                    kept += conflicting
    assert kept > 0


def test_bound_refuses_the_fixpoint_comparison():
    forest = BlockForest([Block("b1", 1, GENESIS)])
    tables = build_graph_tables(forest, "strict", 2)
    with pytest.raises(ValueError):
        bound_combinations(tables, np.zeros((1, 0), dtype=np.int64), MODE_LFP_NE_GFP)
