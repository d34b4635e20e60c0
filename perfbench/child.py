"""One benchmark job in a fresh interpreter.

    python3 perfbench/child.py JOB_JSON

perfbench/run.py starts one of these per job, so that every timed verdict,
like every `ffgmc` invocation, starts with an empty `state_table` cache and
its own peak-RSS reading.  JOB_JSON holds:

- kind: "setup" (import only), "verdict" (untraced) or "traced";
- spawned: the parent's time.monotonic() just before the spawn;
- root: the checkout, whose src/ holds the ffgmc under test;
- out_dir: where replay files go;
- run_id, jobs and workload (one entry of perfbench/workloads.json).

Prints one JSON object on stdout.  Exits 2 when ffgmc does not come from
root/src and 3 when a traced layer is missing.
"""

import json
import os
import resource
import sys
import time
from contextlib import nullcontext

from spans import MissingLayer, Tracer


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import numpy

    import ffgmc
    from ffgmc import enumerator, kernels

    ready = time.monotonic()
    if os.path.dirname(os.path.abspath(ffgmc.__file__)) != os.path.join(src, "ffgmc"):
        print(f"ffgmc imported from {ffgmc.__file__}, not {src}", file=sys.stderr)
        return 2
    out = {"setup_s": ready - job["spawned"]}
    if job["kind"] == "setup":
        out["env"] = {
            "backend": kernels.backend_name(),
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
        }
        print(json.dumps(out))
        return 0

    tracer = None
    if job["kind"] == "traced":
        tracer = Tracer(job["run_id"])
        try:
            tracer.install(enumerator)
        except MissingLayer as exc:
            print(exc, file=sys.stderr)
            return 3
    out.update(run_verdict(job, enumerator, tracer))
    print(json.dumps(out))
    return 0


def run_verdict(job, enumerator, tracer) -> dict:
    from ffgmc.mutation import parse_mutation

    spec = job["workload"]
    bounds = enumerator.Bounds(**spec["bounds"])
    mutation = parse_mutation(spec["mutation"])
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    if spec["call"] == "search":
        report = enumerator.search(bounds, mutation, jobs=job["jobs"])
    else:
        report = enumerator.check_lfp_gfp(bounds, mutation)
    verdict_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, joined by now
    if spec["call"] == "search":
        summary = {
            "verdict": report.verdict,
            "checked": report.states_checked,
            "pruned": report.states_pruned,
            "units": report.graphs_checked,
        }
        cex = report.counterexample
    else:
        summary = {
            "verdict": "no-mismatch" if report.mismatch is None else "mismatch",
            "checked": report.states_checked,
            "pruned": 0,
        }
        cex = None
    summary["covered"] = summary["checked"] + summary["pruned"]
    out = {
        "summary": summary,
        "verdict_s": verdict_s,
        "cpu_s": sum(
            after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            for before, after in ((self0, self1), (kids0, kids1))
        ),
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "failures": check(job, summary, cex, tracer),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(verdict_s, summary)
        out["spans"] = tracer.spans
    return out


def check(job, summary, cex, tracer) -> list[str]:
    """Every way this verdict differs from the one recorded for the workload."""
    expect = job["workload"]["expect"]
    failures = []
    if summary["verdict"] != expect["verdict"]:
        failures.append(f"verdict {summary['verdict']!r}, expected {expect['verdict']!r}")
    if "covered" in expect and summary["covered"] != expect["covered"]:
        failures.append(f"{summary['covered']} states covered, expected {expect['covered']}")
    if cex is None:
        return failures
    from ffgmc.scenario import scenario_to_json

    scenario = scenario_to_json(cex.state)
    if "counterexample" in expect:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), expect["counterexample"])
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
        if scenario != recorded["scenario"] or cex.graph_index != recorded["graph_index"]:
            failures.append(f"counterexample differs from {expect['counterexample']}")
    code = replay(job, scenario, tracer)
    if code != 1:
        failures.append(f"`ffgmc check` of the counterexample exited {code}, expected 1")
    return failures


def replay(job, scenario, tracer) -> int:
    """Round-trip the printed counterexample through `ffgmc check`."""
    from ffgmc.cli import main as cli_main

    os.makedirs(job["out_dir"], exist_ok=True)
    stem = os.path.join(job["out_dir"], f"replay-{os.getpid()}")
    with open(stem + ".scenario.json", "w", encoding="utf-8") as handle:
        json.dump(scenario, handle)
    argv = ["check", stem + ".scenario.json", "--mutation", job["workload"]["mutation"],
            "--out", stem + ".report.json"]
    with tracer.span("scenario.replay") if tracer else nullcontext():
        code = cli_main(argv)
    os.remove(stem + ".scenario.json")
    os.remove(stem + ".report.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
