"""Command-line front end.

Exit codes: `check` 0 holds / 1 violated / 2 input error; `search` 0 holds /
1 counterexample / 2 flag error / 3 inconclusive; `example` 0 found / 1 not
found / 3 budget exhausted; `solve` 0 unsat / 1 sat / 3 unknown or solver
absent.  Every command exits 4 on an internal failure (a crash, or a kernel
counterexample that does not replay through the reference semantics), so a
failure never reads as a verdict.  An `--out` path that cannot be written
exits 2 before any work starts.  A report written to a closed stdout pipe
(`ffgmc search ... | head -1`) is dropped, and the command's exit code
stands.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import traceback
from typing import Optional

from .catalog import catalog_ids
from .enumerator import (
    VERDICT_COUNTEREXAMPLE,
    VERDICT_HOLDS,
    Bounds,
    PROPERTY_MODES,
    SearchBudgetExceeded,
    SearchReport,
    enumerate_forests,
    find_example,
    forest_count,
    search,
)
from .model import GENESIS, InputError
from .mutation import Mutation, parse_mutation
from .scenario import parse_scenario, scenario_to_json, verdict_to_json
from .slashing import accountable_safety
from .smt import (
    QUERIES,
    QUERY_NO_ACCOUNTABLE_SAFETY,
    SAT,
    UNSAT,
    SmtInstance,
    emit_smt,
    run_solver,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _add_bounds_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--blocks", type=int, default=None, help="non-genesis block count")
    parser.add_argument("--validators", type=int, default=4, help="validator count N")
    parser.add_argument("--max-votes", type=int, default=6, help="signed vote cap")
    parser.add_argument("--max-ffg", type=int, default=None, help="distinct FFG vote cap")
    parser.add_argument("--max-slot", type=int, default=None, help="block slot cap (free slot mode)")
    parser.add_argument("--max-chkp-slot", type=int, default=None, help="checkpoint slot cap")
    parser.add_argument("--slot-rule", choices=("strict", "nonstrict"), default="strict")
    parser.add_argument("--slot-mode", choices=("depth", "free"), default="depth")
    parser.add_argument("--graph", choices=catalog_ids(), default=None,
                        help="restrict the search to one catalog graph")


def _bounds_from_args(args) -> Bounds:
    n_blocks = args.blocks
    if n_blocks is None:
        if args.graph is None:
            raise InputError("--blocks is required unless --graph is given")
        n_blocks = 0
    return Bounds(
        n_blocks=n_blocks,
        n_validators=args.validators,
        max_votes=args.max_votes,
        max_ffg_votes=args.max_ffg,
        max_slot=args.max_slot,
        max_chkp_slot=args.max_chkp_slot,
        slot_rule=args.slot_rule,
        slot_mode=args.slot_mode,
        graph_filter=args.graph,
    )


def _add_smt_flags(parser: argparse.ArgumentParser) -> None:
    _add_bounds_flags(parser)
    parser.add_argument("--smt-checkpoints", type=int, default=None,
                        help="checkpoint atom count for emitted SMT instances")
    parser.add_argument("--query", choices=QUERIES, default=QUERY_NO_ACCOUNTABLE_SAFETY)
    parser.add_argument("--mutation", default="none")


def _smt_instance(args) -> SmtInstance:
    """The SMT instance of the bounds, which encodes every forest of
    --blocks blocks and has no catalog-graph form."""
    if args.graph is not None:
        raise InputError(f"{args.command} encodes every forest of --blocks blocks; "
                         "it takes no --graph")
    return emit_smt(
        _bounds_from_args(args), args.query, parse_mutation(args.mutation), args.smt_checkpoints
    )


def _check_out(out: Optional[str]) -> None:
    """Refuse an --out path that cannot be written, before any work starts."""
    if not out:
        return
    if os.path.isdir(out):
        raise InputError(f"--out {out!r} is a directory")
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(directory):
        raise InputError(f"--out {out!r}: directory {directory!r} does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise InputError(f"--out {out!r}: directory {directory!r} is not writable")


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        _write_stdout(text + "\n")


def _write_stdout(text: str) -> None:
    """Write to stdout; a reader that closed the pipe gets nothing more, and
    stdout points at os.devnull so that the exit flush cannot fail again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report_to_json(report: SearchReport, bounds: Bounds, mutation: Mutation) -> dict:
    doc = {
        "verdict": report.verdict,
        "bounds": dataclasses.asdict(bounds),
        "mutation": mutation.label(),
        "counters": {
            "states_checked": report.states_checked,
            "graphs_checked": report.graphs_checked,
            "states_pruned": report.states_pruned,
            "states_bounded": report.states_bounded,
            "states_symmetric": report.states_symmetric,
        },
        "budget": report.budget,
        "wall_time_s": round(report.wall_time, 6),
        "counterexample": None,
    }
    if report.counterexample is not None:
        cex = report.counterexample
        doc["counterexample"] = {
            "scenario": scenario_to_json(cex.state),
            "graph_index": cex.graph_index,
            **verdict_to_json(cex.state, cex.safety, mutation),
        }
    return doc


def cmd_check(args) -> int:
    try:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: {args.scenario}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_INPUT
    mutation = parse_mutation(args.mutation)
    state = parse_scenario(doc)
    safety = accountable_safety(state, mutation)
    report = {
        "n_validators": state.n_validators,
        "slot_rule": state.slot_rule,
        "mutation": mutation.label(),
        **verdict_to_json(state, safety, mutation),
    }
    _emit(report, args.out)
    return EXIT_OK if safety.holds else EXIT_VIOLATION


def cmd_search(args) -> int:
    bounds = _bounds_from_args(args)
    mutation = parse_mutation(args.mutation)
    report = search(bounds, mutation, budget=args.budget, jobs=args.jobs)
    _emit(_report_to_json(report, bounds, mutation), args.out)
    if report.verdict == VERDICT_HOLDS:
        return EXIT_OK
    if report.verdict == VERDICT_COUNTEREXAMPLE:
        return EXIT_VIOLATION
    return EXIT_INCONCLUSIVE


def cmd_example(args) -> int:
    bounds = _bounds_from_args(args)
    try:
        state = find_example(bounds, args.property, budget=args.budget)
    except SearchBudgetExceeded as exc:
        _emit({"found": False, "inconclusive": True, "states_checked": exc.states_checked}, args.out)
        return EXIT_INCONCLUSIVE
    if state is None:
        _emit({"found": False, "property": args.property}, args.out)
        return EXIT_VIOLATION
    safety = accountable_safety(state)
    _emit(
        {
            "found": True,
            "property": args.property,
            "scenario": scenario_to_json(state),
            **verdict_to_json(state, safety),
        },
        args.out,
    )
    return EXIT_OK


def cmd_emit_smt(args) -> int:
    instance = _smt_instance(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(instance.text)
    else:
        _write_stdout(instance.text)
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.timeout is not None and not (math.isfinite(args.timeout) and args.timeout > 0):
        raise InputError(f"--timeout must be a positive number of seconds, not {args.timeout}")
    instance = _smt_instance(args)
    result = run_solver(instance, args.solver_cmd, args.timeout)
    doc = {"status": result.status, "query": instance.query}
    if result.detail:
        doc["detail"] = result.detail
    if args.model and result.model:
        doc["model"] = result.model
    _emit(doc, args.out)
    if result.status == UNSAT:
        return EXIT_OK
    if result.status == SAT:
        return EXIT_VIOLATION
    return EXIT_INCONCLUSIVE


def cmd_forests(args) -> int:
    count = forest_count(args.n)
    if args.list:
        listing = []
        for forest in enumerate_forests(args.n):
            listing.append(
                {b.id: b.parent for b in sorted(forest, key=lambda b: b.id) if b.id != GENESIS}
            )
        if len(listing) != count:
            raise RuntimeError(f"listed {len(listing)} forests on {args.n} blocks, not {count}")
        _emit({"n": args.n, "count": count, "forests": listing}, args.out)
    else:
        _emit({"n": args.n, "count": count}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffgmc",
        description="Bounded exhaustive checker for an FFG-style finality gadget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check one scenario file for accountable safety")
    p.add_argument("scenario", help="path to a JSON scenario file")
    p.add_argument("--mutation", default="none")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="exhaustive bounded search for safety violations")
    _add_bounds_flags(p)
    p.add_argument("--mutation", default="none")
    p.add_argument("--budget", type=int, default=None, help="max states to check")
    p.add_argument("--jobs", type=int, default=1,
                   help="helper processes scanning whole classes, each a fixed share of "
                        "the tasks, striped in plan order (capped at the usable CPUs and "
                        "the tasks; below 2, the calling process scans alone)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("example", help="find a state satisfying a property")
    _add_bounds_flags(p)
    p.add_argument("--property", choices=sorted(PROPERTY_MODES), required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("emit-smt", help="emit an SMT-LIB 2 instance for the bounds")
    _add_smt_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_emit_smt)

    p = sub.add_parser("solve", help="emit an instance and run an external solver on it")
    _add_smt_flags(p)
    p.add_argument("--solver-cmd", default=None,
                   help="solver command template; {file} expands to the instance path "
                        "(default: the FFGMC_SOLVER environment variable)")
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--model", action="store_true", help="include the sat model text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("forests", help="count (and list) block forests of a given size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_forests)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        print("error: internal failure; no verdict was reached", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
