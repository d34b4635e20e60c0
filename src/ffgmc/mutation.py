"""Deliberate protocol bugs for falsification runs (mutation testing).

Each flag weakens one predicate; flags combine freely.  An unmutated run uses
``Mutation.NONE``.
"""

from __future__ import annotations

from enum import Flag, auto

from .model import InputError


class Mutation(Flag):
    NONE = 0
    QUORUM_HALF = auto()      # 2/3 supermajority -> 1/2, in justification and finalization
    DISABLE_E1 = auto()       # ignore double-voting evidence
    DISABLE_E2 = auto()       # ignore surround-voting evidence
    DROP_ANCESTRY = auto()    # drop the source->checkpoint->target chain clause in justification

    def label(self) -> str:
        if self is Mutation.NONE:
            return "none"
        return ",".join(name for name, m in _BY_NAME.items() if m is not Mutation.NONE and m in self)


_BY_NAME = {
    "none": Mutation.NONE,
    "quorum-half": Mutation.QUORUM_HALF,
    "disable-e1": Mutation.DISABLE_E1,
    "disable-e2": Mutation.DISABLE_E2,
    "drop-ancestry": Mutation.DROP_ANCESTRY,
}


def parse_mutation(text: str) -> Mutation:
    """Parse a comma-separated list of mutation names ("none" allowed alone)."""
    out = Mutation.NONE
    for part in text.split(","):
        name = part.strip().lower()
        if not name:
            continue
        try:
            out |= _BY_NAME[name]
        except KeyError:
            raise InputError(
                f"unknown mutation {name!r}; choose from {', '.join(_BY_NAME)}"
            ) from None
    return out


def quorum_met(count, n_validators: int, mutation: Mutation = Mutation.NONE):
    """Supermajority test in exact integer arithmetic: 3k >= 2N (or 2k >= N mutated).

    `count` is an int, or an integer array tested elementwise.
    """
    if Mutation.QUORUM_HALF in mutation:
        return 2 * count >= n_validators
    return 3 * count >= 2 * n_validators
