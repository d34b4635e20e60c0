"""Slashing conditions, disagreement detection and the accountable-safety verdict.

A validator is slashable for casting two distinct FFG votes that either target
the same checkpoint slot (double voting) or where one vote's span surrounds
the other's (surround voting).  Accountable safety holds for a state when two
conflicting chains being finalized implies at least a third of the validators
are slashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .finality import FinalityView, finality_view
from .model import FfgVote, ProtocolState, are_conflicting, checkpoint_lt
from .mutation import Mutation

E1_DOUBLE = "e1-double"
E2_SURROUND = "e2-surround"


@dataclass(frozen=True)
class SlashingEvidence:
    validator: int
    kind: str
    vote_a: FfgVote
    vote_b: FfgVote


@dataclass(frozen=True)
class SafetyVerdict:
    disagreement: bool
    slashable: frozenset[int]
    evidence: tuple[SlashingEvidence, ...]
    holds: bool


def is_slashable_pair(a: FfgVote, b: FfgVote) -> Optional[str]:
    """Kind of offence two distinct votes by one validator would constitute, if any.

    Checked in both orientations: the pair is unordered in a vote set.
    """
    if a == b:
        return None
    if a.target.c == b.target.c:
        return E1_DOUBLE
    if checkpoint_lt(b.source, a.source) and a.target.c < b.target.c:
        return E2_SURROUND
    if checkpoint_lt(a.source, b.source) and b.target.c < a.target.c:
        return E2_SURROUND
    return None


def slash_kind(a: FfgVote, b: FfgVote, mutation: Mutation = Mutation.NONE) -> Optional[str]:
    """Kind of offence two votes by one validator constitute under `mutation`, if any."""
    kind = is_slashable_pair(a, b)
    disabled = Mutation.DISABLE_E1 if kind == E1_DOUBLE else Mutation.DISABLE_E2
    return None if disabled in mutation else kind


def slashable_validators(
    state: ProtocolState, mutation: Mutation = Mutation.NONE
) -> tuple[frozenset[int], tuple[SlashingEvidence, ...]]:
    """Validators with a slashable pair among their own votes, plus witnesses.

    Evidence carries one witness pair per (validator, kind), in deterministic
    (validator, kind, votes) order.
    """
    by_validator: dict[int, list[FfgVote]] = {}
    for sv in state.votes:
        by_validator.setdefault(sv.validator, []).append(sv.vote)
    slashable: set[int] = set()
    evidence: list[SlashingEvidence] = []
    for validator in sorted(by_validator):
        votes = sorted(set(by_validator[validator]))
        witnessed: set[str] = set()
        for i, a in enumerate(votes):
            for b in votes[i + 1 :]:
                kind = slash_kind(a, b, mutation)
                if kind is None:
                    continue
                slashable.add(validator)
                if kind not in witnessed:
                    witnessed.add(kind)
                    evidence.append(SlashingEvidence(validator, kind, a, b))
    evidence.sort(key=lambda e: (e.validator, e.kind))
    return frozenset(slashable), tuple(evidence)


def disagreement(state: ProtocolState, view: FinalityView) -> bool:
    """True iff two conflicting blocks both carry finalized checkpoints."""
    blocks = sorted(view.finalized_blocks)
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 :]:
            if are_conflicting(state.forest, a, b):
                return True
    return False


def one_third_slashable(count, n_validators: int):
    """Accountability threshold in exact integer arithmetic: 3k >= N.

    `count` is an int, or an integer array tested elementwise.
    """
    return 3 * count >= n_validators


def accountable_safety(
    state: ProtocolState, mutation: Mutation = Mutation.NONE
) -> SafetyVerdict:
    """Verdict for a single state: no disagreement, or >= n/3 slashable validators
    (`one_third_slashable`)."""
    view = finality_view(state, mutation=mutation)
    conflict = disagreement(state, view)
    slashable, evidence = slashable_validators(state, mutation)
    holds = (not conflict) or one_third_slashable(len(slashable), state.n_validators)
    return SafetyVerdict(
        disagreement=conflict,
        slashable=slashable,
        evidence=evidence,
        holds=holds,
    )
