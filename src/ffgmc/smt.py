"""SMT-LIB 2 emission and external-solver driving.

The emitted instance models one arbitrary protocol state over finite
enumerated sorts (Hash, Checkpoint, Node, Vote), with the justified set
constrained as a fixpoint of the quorum condition and the safety query
asserted negatively, so `unsat` means the property holds at these bounds.
It relies on the finite-set-with-cardinality theory plus set comprehensions;
with cvc5 that means a recent build run with `--sets-exp` (the exact flag set
is solver-version dependent and documented in the README, not hard-coded).

Emission is pure and byte-deterministic for fixed bounds.  Solver runs are
isolated subprocesses; the first sat/unsat/unknown token on stdout wins and
the exit status is ignored.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Optional

from .enumerator import Bounds
from .model import InputError
from .mutation import Mutation

QUERY_NO_ACCOUNTABLE_SAFETY = "no-accountable-safety"
QUERY_FINALIZED_NONGENESIS = "finalized-nongenesis"
QUERIES = (QUERY_NO_ACCOUNTABLE_SAFETY, QUERY_FINALIZED_NONGENESIS)

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"
SOLVER_ABSENT = "solver-absent"

MAX_ATOMS = 40

_NODE_NAMES_4 = ("Alice", "Bob", "Charlie", "David")


@dataclass(frozen=True)
class SmtInstance:
    text: str
    bounds: Bounds
    query: str


@dataclass(frozen=True)
class SolverResult:
    status: str               # sat | unsat | unknown | solver-absent
    model: str = ""
    detail: str = ""


def default_checkpoint_atoms(bounds: Bounds) -> int:
    return bounds.n_blocks + 3  # hashes + 2


def _node_names(n: int) -> list[str]:
    if n == 4:
        return list(_NODE_NAMES_4)
    return [f"Node{i}" for i in range(1, n + 1)]


def _parent_chain(var: str, depth: int) -> str:
    out = var
    for _ in range(depth):
        out = f"(parent_of {out})"
    return out


def emit_smt(
    bounds: Bounds,
    query: str = QUERY_NO_ACCOUNTABLE_SAFETY,
    mutation: Mutation = Mutation.NONE,
    n_checkpoints: Optional[int] = None,
) -> SmtInstance:
    """Emit a self-contained instance for the given bounds and query, with
    `n_checkpoints` checkpoint atoms (default `default_checkpoint_atoms`)."""
    if query not in QUERIES:
        raise InputError(f"unknown query {query!r}; choose from {QUERIES}")
    if n_checkpoints is not None and n_checkpoints < 1:
        raise InputError("n_checkpoints must be positive")
    hashes = bounds.n_blocks + 1
    checkpoints = default_checkpoint_atoms(bounds) if n_checkpoints is None else n_checkpoints
    nodes = bounds.n_validators
    for name, count in (("hashes", hashes), ("checkpoints", checkpoints), ("nodes", nodes)):
        if count < 1:
            raise InputError(f"cannot emit an instance with zero {name}")
        if count > MAX_ATOMS:
            raise InputError(
                f"{count} {name} exceed the emission guard of {MAX_ATOMS} atoms"
            )

    hash_atoms = [f"Hash{i}" for i in range(1, hashes + 1)]
    cp_atoms = [f"C{i}" for i in range(1, checkpoints + 1)]
    node_atoms = _node_names(nodes)

    slot_cmp = ">" if bounds.slot_rule == "strict" else ">="
    if Mutation.QUORUM_HALF in mutation:
        def quorum(card: str) -> str:
            return f"(>= (* 2 {card}) N)"
    else:
        def quorum(card: str) -> str:
            return f"(>= (* 3 {card}) (* 2 N))"

    ancestor_cases = " ".join(
        f"(= a {_parent_chain('d', k)})" for k in range(hashes)
    )

    sandwich_clause = """
          ; the vote's blocks sandwich the checkpoint's block
          (and
            (set.member
              (tuple (checkpoint_block (source vote)) (checkpoint_block c))
              ancestor_descendant_relationship)
            (set.member
              (tuple (checkpoint_block c) (checkpoint_block (target vote)))
              ancestor_descendant_relationship))"""
    if Mutation.DROP_ANCESTRY in mutation:
        sandwich_clause = ""

    slash_disjuncts = []
    if Mutation.DISABLE_E1 not in mutation:
        slash_disjuncts.append("(double_vote v1 v2)")
    if Mutation.DISABLE_E2 not in mutation:
        slash_disjuncts.append("(surround_vote v1 v2)")
        slash_disjuncts.append("(surround_vote v2 v1)")
    slash_body = f"(or {' '.join(slash_disjuncts)})" if slash_disjuncts else "false"

    header = (
        f"; bounded finality-gadget instance\n"
        f"; hashes={hashes} checkpoints={checkpoints} nodes={nodes}"
        f" max_slot={bounds.max_slot} max_chkp_slot={bounds.max_chkp_slot}"
        f" slot_rule={bounds.slot_rule} query={query} mutation={mutation.label()}\n"
    )

    justified_card = (
        "(set.card (set.comprehension ((node Node))\n"
        "        (exists ((vote Vote)) (and\n"
        "          (set.member vote votes)\n"
        "          (= (sender vote) node)\n"
        "          (valid_vote vote)\n"
        "          (set.member (source vote) justified_checkpoints)"
        + sandwich_clause
        + "\n"
        "          (= (checkpoint_slot (target vote)) (checkpoint_slot c))))\n"
        "        node))"
    )
    finalized_card = (
        "(set.card (set.comprehension ((node Node))\n"
        "          (exists ((vote Vote)) (and\n"
        "            (set.member vote votes)\n"
        "            (= (sender vote) node)\n"
        "            (valid_vote vote)\n"
        "            (cp_eq (source vote) c)\n"
        "            (= (checkpoint_slot (target vote)) (+ (checkpoint_slot c) 1))))\n"
        "          node))"
    )
    justified_quorum = quorum(justified_card)
    finalized_quorum = quorum(finalized_card)
    if Mutation.DROP_ANCESTRY in mutation:
        justified_comment = (
            "; justified: genesis, or a quorum of distinct senders voting from an\n"
            "; already justified source, targeting its slot (ancestry clause dropped)"
        )
    else:
        justified_comment = (
            "; justified: genesis, or a quorum of distinct senders voting from an\n"
            "; already justified source, sandwiching the checkpoint, targeting its slot"
        )

    max_slot_axiom = ""
    if bounds.max_slot is not None:
        max_slot_axiom = (
            f"(assert (forall ((h Hash)) (<= (slot h) {bounds.max_slot})))\n"
        )
    max_chkp_axiom = ""
    if bounds.max_chkp_slot is not None:
        max_chkp_axiom = (
            "(assert (forall ((c Checkpoint))"
            f" (<= (checkpoint_slot c) {bounds.max_chkp_slot})))\n"
        )

    text = f"""{header}(set-logic ALL)
(set-option :produce-models true)

(declare-datatype Hash ({' '.join(f'({h})' for h in hash_atoms)}))
(declare-datatype Checkpoint ({' '.join(f'({c})' for c in cp_atoms)}))
(declare-datatype Node ({' '.join(f'({n})' for n in node_atoms)}))
(declare-datatype Vote ((Vote (source Checkpoint) (target Checkpoint) (sender Node))))

(define-fun N () Int {nodes})
(define-fun genesis () Hash Hash1)
(declare-fun parent_of (Hash) Hash)
(declare-fun slot (Hash) Int)

; block graph: genesis sits at slot 0 and slots increase from parent to child;
; parent_of saturates at genesis so the unrolled closure below is exact
(assert (= (slot genesis) 0))
(assert (= (parent_of genesis) genesis))
(assert (forall ((h Hash)) (>= (slot h) 0)))
(assert (forall ((h Hash)) (=> (not (= h genesis)) (> (slot h) (slot (parent_of h))))))
{max_slot_axiom}
; reflexive-transitive closure of the parent relation, unrolled to the hash count
(define-fun is_ancestor ((a Hash) (d Hash)) Bool
  (or {ancestor_cases}))
(declare-const ancestor_descendant_relationship (Set (Tuple Hash Hash)))
(assert (forall ((a Hash) (d Hash))
  (= (set.member (tuple a d) ancestor_descendant_relationship) (is_ancestor a d))))

(declare-const conflicting_blocks (Set (Tuple Hash Hash)))
(assert (forall ((a Hash) (b Hash))
  (= (set.member (tuple a b) conflicting_blocks)
     (and (not (is_ancestor a b)) (not (is_ancestor b a))))))

; checkpoints are (block, slot) pairs; the block's own slot is the derived p
(declare-fun checkpoint_block (Checkpoint) Hash)
(declare-fun checkpoint_slot (Checkpoint) Int)
(define-fun genesis_checkpoint () Checkpoint C1)
(assert (= (checkpoint_block genesis_checkpoint) genesis))
(assert (= (checkpoint_slot genesis_checkpoint) 0))
(assert (forall ((c Checkpoint)) (>= (checkpoint_slot c) 0)))
(assert (forall ((c Checkpoint)) (=> (not (= c genesis_checkpoint))
  ({slot_cmp} (checkpoint_slot c) (slot (checkpoint_block c))))))
{max_chkp_axiom}
(define-fun cp_block_slot ((c Checkpoint)) Int (slot (checkpoint_block c)))
(define-fun cp_eq ((x Checkpoint) (y Checkpoint)) Bool
  (and (= (checkpoint_block x) (checkpoint_block y))
       (= (checkpoint_slot x) (checkpoint_slot y))))
(define-fun cp_le ((x Checkpoint) (y Checkpoint)) Bool
  (or (< (checkpoint_slot x) (checkpoint_slot y))
      (and (= (checkpoint_slot x) (checkpoint_slot y))
           (<= (cp_block_slot x) (cp_block_slot y)))))
(define-fun cp_lt ((x Checkpoint) (y Checkpoint)) Bool
  (and (cp_le x y) (not (cp_eq x y))))

(define-fun valid_vote ((v Vote)) Bool
  (and (< (checkpoint_slot (source v)) (checkpoint_slot (target v)))
       (set.member (tuple (checkpoint_block (source v)) (checkpoint_block (target v)))
                   ancestor_descendant_relationship)))

; the cast votes; only validly-formed votes occur
(declare-const votes (Set Vote))
(assert (forall ((v Vote)) (=> (set.member v votes) (valid_vote v))))

{justified_comment}
(declare-const justified_checkpoints (Set Checkpoint))
(assert (= justified_checkpoints (set.comprehension ((c Checkpoint))
  (or
    (= c genesis_checkpoint)
    {justified_quorum})
  c)))

; finalized: genesis, or justified with a quorum of senders voting from it to
; the next checkpoint slot
(declare-const finalized_checkpoints (Set Checkpoint))
(assert (= finalized_checkpoints (set.comprehension ((c Checkpoint))
  (or
    (= c genesis_checkpoint)
    (and
      (set.member c justified_checkpoints)
      {finalized_quorum}))
  c)))

(declare-const finalized_blocks (Set Hash))
(assert (= finalized_blocks (set.comprehension ((h Hash))
  (exists ((c Checkpoint))
    (and (set.member c finalized_checkpoints) (= (checkpoint_block c) h)))
  h)))

; slashing: two distinct votes by one sender that double-vote one target slot
; or surround one another; distinctness is at (block, slot)-triple level
(define-fun vote_eq ((v1 Vote) (v2 Vote)) Bool
  (and (cp_eq (source v1) (source v2)) (cp_eq (target v1) (target v2))))
(define-fun double_vote ((v1 Vote) (v2 Vote)) Bool
  (and (not (vote_eq v1 v2))
       (= (checkpoint_slot (target v1)) (checkpoint_slot (target v2)))))
(define-fun surround_vote ((v1 Vote) (v2 Vote)) Bool
  (and (cp_lt (source v2) (source v1))
       (< (checkpoint_slot (target v1)) (checkpoint_slot (target v2)))))
(declare-const slashable_nodes (Set Node))
(assert (= slashable_nodes (set.comprehension ((node Node))
  (exists ((v1 Vote) (v2 Vote)) (and
    (set.member v1 votes)
    (set.member v2 votes)
    (= (sender v1) node)
    (= (sender v2) node)
    {slash_body}))
  node)))

{_query_text(query)}(check-sat)
(get-model)
"""
    return SmtInstance(text=text, bounds=bounds, query=query)


def _query_text(query: str) -> str:
    if query == QUERY_FINALIZED_NONGENESIS:
        return (
            "; find a finalized checkpoint besides genesis\n"
            "(assert (not (= finalized_checkpoints"
            " (set.singleton genesis_checkpoint))))\n"
        )
    return (
        "; a counterexample to accountable safety: two conflicting finalized\n"
        "; blocks with fewer than a third of the nodes slashable\n"
        "(assert (and\n"
        "  (exists ((block1 Hash) (block2 Hash))\n"
        "    (and\n"
        "      (set.member (tuple block1 block2) conflicting_blocks)\n"
        "      (set.member block1 finalized_blocks)\n"
        "      (set.member block2 finalized_blocks)))\n"
        "  (< (* 3 (set.card slashable_nodes)) N)))\n"
    )


def run_solver(
    instance: SmtInstance,
    solver_command: Optional[str] = None,
    timeout: Optional[float] = None,
) -> SolverResult:
    """Run an external solver over the instance and parse its stdout verdict.

    `solver_command` is a command template; a `{file}` placeholder is replaced
    with the instance path, otherwise the path is appended.  Falls back to the
    FFGMC_SOLVER environment variable.  A missing binary yields solver-absent,
    a timeout yields unknown; the exit status is ignored in favor of the first
    sat/unsat/unknown token.
    """
    command = solver_command or os.environ.get("FFGMC_SOLVER", "")
    if not command.strip():
        return SolverResult(status=SOLVER_ABSENT, detail="no solver command configured")
    with tempfile.NamedTemporaryFile(
        "w", suffix=".smt2", prefix="ffgmc-", delete=False
    ) as handle:
        handle.write(instance.text)
        path = handle.name
    try:
        if "{file}" in command:
            argv = shlex.split(command.replace("{file}", path))
        else:
            argv = shlex.split(command) + [path]
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=timeout
            )
        except FileNotFoundError as exc:
            return SolverResult(status=SOLVER_ABSENT, detail=str(exc))
        except subprocess.TimeoutExpired:
            return SolverResult(status=UNKNOWN, detail=f"timeout after {timeout}s")
        lines = proc.stdout.splitlines()
        for i, line in enumerate(lines):
            token = line.strip()
            if token in (SAT, UNSAT, UNKNOWN):
                model = "\n".join(lines[i + 1 :]).strip() if token == SAT else ""
                return SolverResult(status=token, model=model)
        return SolverResult(
            status=UNKNOWN,
            detail=f"no status token in solver output: {proc.stdout[:200]!r}",
        )
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass
