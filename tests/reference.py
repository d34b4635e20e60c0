"""Reference enumeration of the bounded state space, for the tests.

`reference_forests` lists the labelled forests by filtering every parent
vector, in the order `enumerate_forests` must emit them.
`enumerate_states` materializes every canonical state of a forest's units,
one ProtocolState per (combination, row), in the order the search scans
them; the search itself never builds states this way, and the canonical
rows are built here, not read from the kernel's row table.
`kept_combinations` reads one level of a unit's kept combinations, with
their orbit filter and core flags, as a scan task reaches it.
"""

import itertools
import operator
from functools import reduce
from typing import Iterator

import numpy as np

from ffgmc.enumerator import (
    Bounds,
    _distinct_vote_range,
    _slot_variants,
    materialize_state,
)
from ffgmc.kernels import kept_levels
from ffgmc.model import GENESIS, Block, BlockForest, ProtocolState
from ffgmc.symmetry import orbit_minimal
from ffgmc.tables import build_graph_tables


def reference_forests(n: int) -> Iterator[BlockForest]:
    """Every labelled forest on blocks b1..bn, slots set to depth: each
    parent vector of `itertools.product` (0 is genesis, j is block b_j), in
    its lexicographic order, kept iff every block's chain reaches genesis
    within n steps, that is iff the vector is acyclic."""
    names = [f"b{i}" for i in range(1, n + 1)]
    for parents in itertools.product(range(n + 1), repeat=n):
        depths = []
        for i in range(1, n + 1):
            depth, j = 0, i
            while j and depth <= n:
                depth, j = depth + 1, parents[j - 1]
            depths.append(depth)
        if all(depth <= n for depth in depths):
            yield BlockForest(
                Block(names[i], depths[i], GENESIS if parents[i] == 0 else names[parents[i] - 1])
                for i in range(n)
            )


def canonical_rows(u: int, n_validators: int, max_votes: int) -> list[tuple[int, ...]]:
    """Non-decreasing tuples of N vote subsets of u votes (masks) whose union
    is every vote, with at most `max_votes` signed votes, in lexicographic order."""
    full = (1 << u) - 1
    return [
        row for row in itertools.combinations_with_replacement(range(full + 1), n_validators)
        if reduce(operator.or_, row, 0) == full
        and sum(bin(mask).count("1") for mask in row) <= max_votes
    ]


def enumerate_states(bounds: Bounds, forest: BlockForest) -> Iterator[ProtocolState]:
    """All states over `forest` within bounds, in canonical scan order."""
    for slotted in _slot_variants(forest, bounds):
        tables = build_graph_tables(slotted, bounds.slot_rule, bounds.max_chkp_slot)
        for u in _distinct_vote_range(bounds, len(tables.votes)):
            rows = canonical_rows(u, bounds.n_validators, bounds.max_votes)
            for combo in itertools.combinations(range(len(tables.votes)), u):
                for row in rows:
                    yield materialize_state(bounds, tables, combo, row)


def kept_combinations(plan, graph_tables, u: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(combinations, minimal, core): the size-u vote combinations of a unit
    that the monotone bound keeps under the plan's scan mode, in canonical
    order (the last level of `kernels.kept_levels` up to u), which of them
    are lexicographically minimal in their orbit under the unit's
    automorphisms, and which are unpadded cores; `enumerator._scan_level`
    scans only those both minimal and cores."""
    *_, (combos, core) = kept_levels(graph_tables, plan.mode, u)
    minimal = orbit_minimal(combos, graph_tables.perms) if len(combos) else np.zeros(0, dtype=bool)
    return combos, minimal, core
