"""Measure the current checkout and append one point to trajectory.json.

    python3 perfbench/trajectory.py --label seed --commit 6a656d7

For every workload it makes ten end-to-end runs of ``run.py`` of
``run_seconds`` each (from BENCHMARK.json), one seed each (1..10), and one
traced run (seed 1).  Each end-to-end metric is recorded as the median of
the per-run values with its quartiles and its spread, (q3 - q1) / median,
using ``statistics.quantiles(values, n=4)``; each per-layer metric as its
value in the traced run.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

from run import BENCH_DIR, WORKLOADS, environment

TRAJECTORY = os.path.join(BENCH_DIR, "trajectory.json")
RUNS = 10


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n"
                         f"{proc.stdout}")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--commit", required=True)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"label": args.label, "commit": args.commit,
             "date": datetime.date.today().isoformat(),
             "environment": environment(), "run_seconds": seconds,
             "runs": RUNS, "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        for seed in range(1, RUNS + 1):
            result = one_run(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4)
                                   for k, v in values.items()},
                  file=sys.stderr)
        end_to_end = {}
        for name, v in values.items():
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            end_to_end[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bounds[name],
                "values": v}
            print(f"  {workload} {name}: median {median:.6g}, spread "
                  f"{(q3 - q1) / median:.4f} (bound {bounds[name]})",
                  file=sys.stderr)
        traced = one_run(workload, 1, seconds, 1)
        point["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
    points = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
    points.append(point)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump({"points": points}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
