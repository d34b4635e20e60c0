"""Built-in block graphs.

The fixed graphs are the small fork/chain/forest instances used as per-graph
search units, with slots equal to the drawn level.  Two of the entries (i1,
i2) are intentionally broken inputs that `BlockForest` rejects: i1 gives one
block two parents, i2 closes a parent cycle (and also lists n1 twice; the
cycle is reported).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import GENESIS, Block, BlockForest, InputError


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    description: str
    # (block id, level, parent id) rows; level doubles as the slot
    rows: tuple[tuple[str, int, Optional[str]], ...]


def _chain(prefix: str, length: int, base: str = GENESIS, base_level: int = 0):
    rows = []
    parent = base
    for i in range(1, length + 1):
        name = f"{prefix}{base_level + i}"
        rows.append((name, base_level + i, parent))
        parent = name
    return rows


CATALOG: dict[str, CatalogEntry] = {}


def _register(entry_id: str, description: str, rows) -> None:
    CATALOG[entry_id] = CatalogEntry(entry_id, description, tuple(rows))


_register("m3", "short fork: two conflicting children of genesis", _chain("a", 1) + _chain("b", 1))
_register("m4a", "fork with the upper branch extended to length two", _chain("a", 2) + _chain("b", 1))
_register("m4b", "fork with the lower branch extended to length two", _chain("a", 1) + _chain("b", 2))
_register("m5a", "two branches of length two from genesis", _chain("a", 2) + _chain("b", 2))
_register(
    "m5b",
    "one shared block, then a fork into two leaves",
    [("s1", 1, GENESIS), ("a2", 2, "s1"), ("b2", 2, "s1")],
)
_register("m7", "two branches of length three from genesis", _chain("a", 3) + _chain("b", 3))
_register("single-chain", "a single chain of four blocks after genesis", _chain("a", 4))
_register(
    "forest",
    "two branches plus a detached block and a detached two-chain",
    _chain("a", 4)
    + _chain("b", 3)
    + [("d1", 1, None), ("c1", 1, None), ("c2", 2, "c1")],
)
_register(
    "i1",
    "not a forest: one block with two parents",
    [("n1", 1, GENESIS), ("n2", 2, "n1"), ("n3", 3, "n2"), ("n3", 3, "n1")],
)
_register(
    "i2",
    "not a forest: a parent cycle",
    [("n1", 1, GENESIS), ("n2", 2, "n1"), ("n3", 3, "n2"), ("n1", 1, "n3")],
)


def catalog_ids() -> list[str]:
    return list(CATALOG)


def catalog_forest(entry_id: str) -> BlockForest:
    """Build a catalog graph, rejecting the intentionally broken entries."""
    try:
        entry = CATALOG[entry_id]
    except KeyError:
        raise InputError(
            f"unknown catalog graph {entry_id!r}; choose from {', '.join(CATALOG)}"
        ) from None
    return BlockForest(Block(child, slot, parent) for child, slot, parent in entry.rows)
