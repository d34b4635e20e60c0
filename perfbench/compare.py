#!/usr/bin/env python3
"""Compare two sets of benchmark records, such as a parent commit and a change.

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the records perfbench/run.py wrote to .perfbench_out/
for one commit (smoke records are skipped).  For every workload, trace mode
and metric this prints each side's median, quartiles and run count, and the
change of the medians.  Exits 2 without comparing when the records were not
all made with one kernel backend.
"""

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> dict:
    """{(workload, trace): [record, ...]} of one directory."""
    groups: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.startswith("smoke-") or path.name.endswith(".spans.json"):
            continue
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(sys.argv[1]), load(sys.argv[2])
    envs = {json.dumps(r["env"], sort_keys=True)
            for side in (old, new) for records in side.values() for r in records}
    backends = {json.loads(env)["backend"] for env in envs}
    if len(backends) != 1:
        print(f"refusing to compare records of backends {sorted(backends)}", file=sys.stderr)
        return 2
    if len(envs) > 1:
        print(f"note: records come from {len(envs)} environments: {sorted(envs)}")
    for key in sorted(old.keys() & new.keys()):
        failed = [sum(r["failed"] for r in side[key]) for side in (old, new)]
        attempted = [sum(r["attempted"] for r in side[key]) for side in (old, new)]
        print(f"== {key[0]} trace={key[1]}  failed {failed[0]}/{attempted[0]} "
              f"against {failed[1]}/{attempted[1]}")
        names = sorted({n for side in (old, new) for r in side[key] for n in r["values"]})
        for name in names:
            sides = []
            for side in (old, new):
                values = [r["values"][name] for r in side[key] if r["values"].get(name) is not None]
                sides.append(quartiles(values) + (len(values),) if values else None)
            if None in sides:
                continue
            (_, old_med, _, _), (_, new_med, _, _) = sides
            change = f"{new_med / old_med - 1:+.1%}" if old_med else "n/a"
            cells = "  ".join(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={n}" for q1, q2, q3, n in sides)
            print(f"  {name:34s} {cells}  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
