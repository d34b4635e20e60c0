#!/usr/bin/env python3
"""ffgmc benchmark: time to verdict on four bounded spaces, split by module.

    python3 perfbench/run.py --workload fixpoint-n3 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the ffgmc under test is the one in its src/.
The workloads, their bounds, checks and per-layer predictions are in
perfbench/workloads.json; metric names and units are in BENCHMARK.json,
which lists the two workloads of the regular benchmark runs.

--trace 0 gives the end-to-end metrics.  Every repetition runs in a fresh
interpreter (perfbench/child.py), as every `ffgmc` invocation does, so each
starts with an empty `state_table` cache and its own peak-RSS reading, and
pays table generation inside verdict_s.  Import-only set-up probes are
interleaved with the repetitions in an order drawn from --seed; the
workloads themselves are fixed and exhaustive, so the seed changes no input.
Repetitions go on while the next one is expected to end within --seconds;
each metric is the median over the repetitions that passed their checks.

--trace 1 gives the per-layer metrics from pairs of an untraced and a traced
repetition, both at --jobs 1: the wrappers live in the calling process and
cannot see into pool workers.  trace.overhead_s is the traced minus the
untraced median verdict time.

A repetition that crashes or fails a check counts in `failed` and gives no
timing; failed_frac = failed / attempted is printed with the metrics.  The
last stdout line is the JSON result.  The full record, stamped with the
kernel backend, nproc and the numpy and Python versions, and the spans of a
traced run go to .perfbench_out/; perfbench/compare.py compares two sets of
records.

--smoke runs every workload once at tiny bounds, untraced and traced, and
checks that every metric in BENCHMARK.json is emitted.
"""

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot measure at all; no result is printed."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def run_child(job: dict, deadline: float) -> tuple[dict | None, str]:
    """Run one job; return (its output, or None and the error)."""
    job = {**job, "root": str(ROOT), "out_dir": str(OUT_DIR), "spawned": time.monotonic()}
    argv = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
            proc.communicate()
            return None, "timed out"
    if proc.returncode in (2, 3):
        raise BenchError(stderr.strip(), proc.returncode)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {stderr.strip()[-2000:]}"
    return json.loads(stdout.splitlines()[-1]), ""


def measure(name: str, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions of one workload for about `seconds`; return its record."""
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    probes_left = SETUP_PROBES
    setups, env = [], None
    reps = {"verdict": [], "traced": []}
    errors = []
    longest = 0.0

    def probe():
        nonlocal env
        out, error = run_child({"kind": "setup"}, deadline)
        if out is None:
            raise BenchError(f"set-up probe failed: {error}")
        setups.append(out["setup_s"])
        env = out["env"]

    while not reps["verdict"] or time.monotonic() - start + longest <= seconds:
        kinds = ["verdict", "traced"] if trace else ["verdict"]
        rng.shuffle(kinds)
        began = time.monotonic()
        for kind in kinds:
            if probes_left and rng.random() < 0.5:
                probe()
                probes_left -= 1
            jobs = 1 if trace else spec["jobs"]
            job = {"kind": kind, "jobs": jobs, "run_id": len(reps[kind]), "workload": spec}
            out, error = run_child(job, deadline)
            if out is None:
                errors.append(error)
            elif out["failures"]:
                errors.extend(out["failures"])
            reps[kind].append(out)
        longest = max(longest, time.monotonic() - began)
    for _ in range(probes_left):
        probe()

    attempted = sum(len(r) for r in reps.values())
    passed = {k: [o for o in r if o and not o["failures"]] for k, r in reps.items()}
    failed = attempted - sum(len(r) for r in passed.values())
    for out in passed["verdict"]:
        setups.append(out["setup_s"])
    values = {"setup_s": statistics.median(setups)}
    ok = passed["verdict"]
    if ok:
        verdict_s = statistics.median(o["verdict_s"] for o in ok)
        values.update(
            verdict_s=verdict_s,
            covered_states_per_s=ok[0]["summary"]["covered"] / verdict_s,
            cpu_s=statistics.median(o["cpu_s"] for o in ok),
            peak_rss_mb=statistics.median(o["peak_rss_mb"] for o in ok),
        )
    traced = passed["traced"]
    if traced:
        for key in traced[0]["layers"]:
            values[key] = statistics.median(o["layers"][key] for o in traced)
        if ok:
            values["trace.overhead_s"] = values["trace.verdict_s"] - values["verdict_s"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "values": values,
        "samples": {k: [o and {x: o[x] for x in ("setup_s", "verdict_s", "cpu_s", "peak_rss_mb")}
                        for o in r] for k, r in reps.items()},
        "spans": [span for o in traced for span in o["spans"]],
    }


def result_line(record: dict, metric_defs: list[dict]) -> dict:
    metrics = {
        m["name"]: {"value": record["values"].get(m["name"]), "unit": m["unit"]}
        for m in metric_defs
    }
    correct = record["failed"] == 0 and all(m["value"] is not None for m in metrics.values())
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def write_record(record: dict, stem: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    spans = record.pop("spans")
    if spans:
        with open(OUT_DIR / f"{stem}.spans.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": spans}, handle)
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def smoke(bench: dict, workloads: dict) -> int:
    """Run each workload at tiny bounds; check every metric is emitted and correct."""
    bad = 0
    for name, spec in workloads.items():
        tiny = {**spec, **spec["smoke"]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            record = measure(name, tiny, seed=0, seconds=0, trace=trace)
            result = result_line(record, bench[key])
            write_record(record, f"smoke-{name}-trace{int(trace)}")
            missing = [k for k, m in result["metrics"].items() if m["value"] is None]
            status = "ok" if result["correct"] else f"FAILED {record['errors']} missing {missing}"
            print(f"smoke {name} trace={int(trace)}: {status}")
            bad += not result["correct"]
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "ffgmc" / "__init__.py").is_file():
        print(f"perfbench: no ffgmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(BENCH_DIR / "workloads.json", encoding="utf-8") as handle:
        workloads = json.load(handle)["workloads"]
    try:
        if args.smoke:
            return smoke(bench, workloads)
        if args.workload not in workloads:
            parser.error(f"--workload must be one of {', '.join(workloads)}")
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        record = measure(args.workload, workloads[args.workload], args.seed,
                         seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code
    result = result_line(record, bench["per_layer" if args.trace else "end_to_end"])
    write_record(record, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    for error in record["errors"]:
        print(f"check failed: {error}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"failed_frac = {record['failed'] / record['attempted']} "
          f"({record['failed']} of {record['attempted']} runs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
