"""Catalog graphs."""

import itertools

import pytest

from ffgmc.catalog import catalog_forest, catalog_ids
from ffgmc.enumerator import Bounds, VERDICT_HOLDS, search
from ffgmc.model import GENESIS, InputError, are_conflicting, is_ancestor


def test_catalog_ids_complete():
    assert set(catalog_ids()) == {
        "m3", "m4a", "m4b", "m5a", "m5b", "m7", "single-chain", "forest", "i1", "i2",
    }


def test_m3_is_genesis_with_two_conflicting_children():
    m3 = catalog_forest("m3")
    assert len(m3) == 3
    kids = [b for b in m3 if b.id != GENESIS]
    assert all(b.parent == GENESIS and b.slot == 1 for b in kids)
    assert are_conflicting(m3, kids[0].id, kids[1].id)


def test_shapes_and_depth_slots():
    expected_sizes = {
        "m3": 3, "m4a": 4, "m4b": 4, "m5a": 5, "m5b": 4, "m7": 7,
        "single-chain": 5, "forest": 11,
    }
    for entry_id, size in expected_sizes.items():
        forest = catalog_forest(entry_id)
        assert len(forest) == size, entry_id
        for block in forest:
            if block.parent is not None and block.parent != GENESIS:
                assert forest.slot_of(block.parent) + 1 == block.slot


def test_single_chain_is_a_path():
    chain = catalog_forest("single-chain")
    ids = [b.id for b in chain if b.id != GENESIS]
    for a, b in itertools.combinations(ids, 2):
        assert not are_conflicting(chain, a, b)


def test_forest_entry_has_detached_components():
    forest = catalog_forest("forest")
    assert forest.block("c1").parent is None
    assert forest.block("c2").parent == "c1"
    assert forest.block("d1").parent is None
    assert are_conflicting(forest, "c2", "a1")
    assert not is_ancestor(forest, GENESIS, "c1")


def test_i1_rejected_multi_parent():
    with pytest.raises(InputError, match="parents"):
        catalog_forest("i1")


def test_i2_rejected_cycle():
    with pytest.raises(InputError, match="cycle"):
        catalog_forest("i2")


def test_unknown_catalog_id():
    with pytest.raises(InputError, match="unknown catalog graph"):
        catalog_forest("m99")


def test_decomposition_matches_unrestricted_two_chain_search():
    # union of the per-catalog verdicts over {m3, m4a, m4b, m5a, m5b} vs the
    # unrestricted search over every forest of up to 4 blocks (a superset of
    # the two-chain shapes) at the same vote bounds: both sides hold
    vote_bounds = dict(n_validators=4, max_votes=6, max_ffg_votes=2)
    catalog_verdicts = set()
    for entry_id in ("m3", "m4a", "m4b", "m5a", "m5b"):
        bounds = Bounds(n_blocks=0, graph_filter=entry_id, max_chkp_slot=4, **vote_bounds)
        catalog_verdicts.add(search(bounds).verdict)
    assert catalog_verdicts == {VERDICT_HOLDS}

    for n in (2, 3, 4):
        unrestricted = search(Bounds(n_blocks=n, max_chkp_slot=4, **vote_bounds))
        assert unrestricted.verdict == VERDICT_HOLDS
