"""Report parity between this checkout and another one.

    python tests/parity.py OTHER_ROOT

Runs one fixed sweep against `src/` of this checkout and of OTHER_ROOT, each
in a fresh interpreter, and compares the two case by case: `search` over
every mutation label, fourteen bounds (2 and 3 blocks, the criterion-3
bounds and one and two more FFG votes, 7 FFG votes at N=2, 3 blocks with
5 FFG votes at N=4, one block, nonstrict slots, free slot mode, catalog `m3`
and `forest`) and budgets
that cut at several depths, each at `jobs=1` and `jobs=2`; `find_example`
for every property at a few budgets; `check_lfp_gfp` for every bound. Each
side prints how many of its `jobs=2` cases planned more than one scan task,
and so started a helper. Exits 0 when every case is identical, 1 at the
first case whose verdict, counters, counterexample, `graph_index` or example
differs, and 2 when a side cannot run. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

MUTATIONS = (
    "none", "quorum-half", "disable-e1", "disable-e2", "disable-e1,disable-e2",
    "drop-ancestry", "quorum-half,drop-ancestry",
)
BOUNDS = (
    dict(n_blocks=2, n_validators=2, max_votes=8, max_ffg_votes=4, max_chkp_slot=3),
    dict(n_blocks=2, n_validators=3, max_votes=6, max_ffg_votes=3, max_chkp_slot=3),
    dict(n_blocks=2, n_validators=4, max_votes=8, max_ffg_votes=4, max_chkp_slot=3),
    dict(n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3),
    # 1,812 quorum families at 5 distinct votes: scan calls span many
    # combinations per family
    dict(n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=5, max_chkp_slot=3),
    # 25,398 quorum families at 6 distinct votes, more than one pair batch:
    # a pattern's families span several `_decide` calls
    dict(n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=6, max_chkp_slot=3),
    # 7 distinct votes: quorum-family keys two words wide
    dict(n_blocks=2, n_validators=2, max_votes=14, max_ffg_votes=7, max_chkp_slot=3),
    dict(n_blocks=3, n_validators=1, max_votes=4, max_ffg_votes=4, max_chkp_slot=3),
    # over a million combinations a class, almost none kept: a budget cut
    # counts many dropped combinations by the rank of the one it cuts in
    dict(n_blocks=3, n_validators=4, max_votes=12, max_ffg_votes=5, max_chkp_slot=4),
    dict(n_blocks=3, n_validators=2, max_votes=6, max_ffg_votes=3, max_chkp_slot=3,
         slot_rule="nonstrict"),
    dict(n_blocks=1, n_validators=3, max_votes=6, max_ffg_votes=4, max_chkp_slot=3),
    dict(n_blocks=2, n_validators=2, max_votes=6, max_ffg_votes=3, max_chkp_slot=3,
         slot_mode="free", max_slot=2),
    dict(n_blocks=0, n_validators=3, max_votes=6, max_ffg_votes=4, max_chkp_slot=3,
         graph_filter="m3"),
    dict(n_blocks=0, n_validators=2, max_votes=4, max_ffg_votes=3, max_chkp_slot=2,
         slot_rule="nonstrict", graph_filter="forest"),
)


def _budgets(checked: int) -> list[int]:
    """Budgets that cut an unbudgeted run of `checked` rows at several depths."""
    cuts = {0, 1, checked // 10, checked // 7, checked // 5, checked // 3, checked // 2,
            2 * checked // 3, checked - 1, checked}
    return sorted(cuts - {-1})


def _cases():
    """Yield (case, record, tasks) triples of the sweep, in a fixed order;
    `tasks` is the plan's task count of a jobs=2 search, else None."""
    from ffgmc import enumerator
    from ffgmc.enumerator import (
        MODE_COUNTEREXAMPLE,
        PROPERTY_MODES,
        Bounds,
        SearchBudgetExceeded,
        check_lfp_gfp,
        find_example,
        search,
    )
    from ffgmc.mutation import Mutation, parse_mutation
    from ffgmc.scenario import scenario_to_json, verdict_to_json
    from ffgmc.tables import min_signers_for_quorum

    def searched(bounds, mutation, budget, jobs):
        report = search(bounds, mutation, budget=budget, jobs=jobs)
        cex = report.counterexample
        return {
            "verdict": report.verdict,
            "counters": [report.states_checked, report.graphs_checked, report.states_pruned,
                         report.states_bounded, report.states_symmetric],
            "counterexample": cex and {
                "scenario": scenario_to_json(cex.state),
                "graph_index": cex.graph_index,
                **verdict_to_json(cex.state, cex.safety, mutation),
            },
        }

    def example(bounds, name, budget):
        try:
            state = find_example(bounds, name, budget=budget)
        except SearchBudgetExceeded as exc:
            return {"budget_exceeded": exc.states_checked}
        return {"example": state and scenario_to_json(state)}

    def jobs2_tasks(bounds, mutation):
        floor = min_signers_for_quorum(bounds.n_validators) if mutation == Mutation.NONE else 0
        return len(enumerator._plan(bounds, mutation, MODE_COUNTEREXAMPLE, floor).tasks)

    for spec in BOUNDS:
        bounds = Bounds(**spec)
        for name in MUTATIONS:
            mutation = parse_mutation(name)
            full = searched(bounds, mutation, None, 1)
            tasks = jobs2_tasks(bounds, mutation)
            for budget in [None, *_budgets(full["counters"][0])]:
                for jobs in (1, 2):
                    case = {"call": "search", "bounds": spec, "mutation": name,
                            "budget": budget, "jobs": jobs}
                    yield case, full if budget is None and jobs == 1 else searched(
                        bounds, mutation, budget, jobs
                    ), tasks if jobs == 2 else None
        for name in sorted(PROPERTY_MODES):
            for budget in (None, 0, 50, 500):
                case = {"call": "find_example", "bounds": spec, "property": name,
                        "budget": budget}
                yield case, example(bounds, name, budget), None
        report = check_lfp_gfp(bounds)
        mismatch = report.mismatch and scenario_to_json(report.mismatch)
        yield {"call": "check_lfp_gfp", "bounds": spec}, {
            "counters": [report.states_checked], "mismatch": mismatch,
        }, None


def _child(root: str) -> int:
    import ffgmc

    if not Path(ffgmc.__file__).resolve().is_relative_to(Path(root, "src").resolve()):
        print(f"ffgmc imported from {ffgmc.__file__}, not {root}/src", file=sys.stderr)
        return 2
    for case, record, tasks in _cases():
        print(json.dumps([case, record, tasks], sort_keys=True), flush=True)
    return 0


def _start(root: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, __file__, "--child", str(root)],
        stdout=subprocess.PIPE, text=True, env=env,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_root", help="the other checkout (holding src/ffgmc)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return _child(args.other_root)
    roots = (Path(__file__).resolve().parents[1], Path(args.other_root).resolve())
    if not (roots[1] / "src" / "ffgmc").is_dir():
        print(f"{roots[1]} holds no src/ffgmc")
        return 2
    sides = [_start(root) for root in roots]
    counts: dict[str, int] = {}
    split = [0, 0]   # jobs=2 cases whose plan has more than one task, per side
    try:
        for ours, theirs in zip(sides[0].stdout, sides[1].stdout):
            (case, mine, tasks), (other_case, other, other_tasks) = (
                json.loads(ours), json.loads(theirs)
            )
            split[0] += (tasks or 0) > 1
            split[1] += (other_tasks or 0) > 1
            if case != other_case or mine != other:
                print(f"DIFFERS: {json.dumps(case)}\n  {roots[0]}: {json.dumps(mine)}\n"
                      f"  {roots[1]}: {json.dumps(other)}")
                return 1
            kind = case["call"]
            if kind == "search":
                kind += " (counterexample)" if mine["counterexample"] else ""
                kind += " (budget cut)" if mine["verdict"] == "inconclusive" else ""
            counts[kind] = counts.get(kind, 0) + 1
        # a side that stopped early leaves the other one's cases unread
        unread = [len(side.stdout.readlines()) for side in sides]
        codes = [side.wait() for side in sides]
    finally:
        for side in sides:
            side.kill()
            side.wait()
            side.stdout.close()
    if codes != [0, 0] or any(unread) or not counts:
        print(f"a side failed to run (exit codes {codes}, unread cases {unread})")
        return 2
    for kind, n in sorted(counts.items()):
        print(f"{n:6d} {kind}")
    for root, n in zip(roots, split):
        print(f"{n:6d} jobs=2 cases of more than one task in {root}")
    print(f"{sum(counts.values())} cases identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
