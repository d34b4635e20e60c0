"""Reference enumeration of the bounded state space, for the tests.

`enumerate_states` materializes every canonical state of a forest's units,
one ProtocolState per (combination, row), in the order the search scans
them; the search itself never builds states this way.
"""

import itertools
from typing import Iterator

from ffgmc.enumerator import (
    Bounds,
    _chkp_bound,
    _distinct_vote_range,
    _slot_variants,
    materialize_state,
)
from ffgmc.model import BlockForest, ProtocolState
from ffgmc.tables import build_graph_tables, state_table


def enumerate_states(bounds: Bounds, forest: BlockForest) -> Iterator[ProtocolState]:
    """All states over `forest` within bounds, in canonical scan order."""
    for slotted in _slot_variants(forest, bounds):
        tables = build_graph_tables(slotted, bounds.slot_rule, _chkp_bound(bounds, slotted))
        for u in _distinct_vote_range(bounds, len(tables.votes)):
            states, _, _ = state_table(u, bounds.n_validators, bounds.max_votes, 0)
            for combo in itertools.combinations(range(len(tables.votes)), u):
                for row in states:
                    yield materialize_state(
                        bounds, tables, combo, tuple(int(x) for x in row)
                    )
