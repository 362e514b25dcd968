"""flatperm benchmark runner.

    python3 perfbench/run.py --workload deep_tables --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a flatperm checkout (the directory holding ``src/``).
Each pass of a workload runs in a fresh interpreter (``child.py``), one at
a time, because every layer of the package memoizes per process; a second
pass in the same process would time dictionary lookups.  Within
``--seconds`` the runner repeats cold passes while another one still fits,
measures set-up (interpreter start plus ``import flatperm.cli``) three
more times before each pass, and reports medians.

Times are CPU time of the pass's own process, scaled to a reference host
speed.  The program is one thread doing arithmetic with no I/O, so on an
idle machine its CPU time is its wall time.  On a shared host the wall
clock also counts the time the process waits for a CPU, and the CPU time
of the same work moves with the host's load: on a shared 2-vCPU Xeon VM a
fixed loop took 70 to 165 ms of wall time and 70 to 97 ms of CPU time
within a minute, and its CPU time changed by up to 2x from one second to
the next.  So each pass times a fixed loop (``child.probe``) every 0.25 s
of CPU time, also inside long operations, and scales the operations' CPU
time in between by the loop's reference time over its measured time
(``child.SpeedMeter``).  Unscaled CPU time and wall time per pass are kept
in the results file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs
pairs of an untraced and a traced pass and prints the per-layer metrics
(see ``spans.py``); ``trace.overhead_s`` is traced minus untraced wall time.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (samples and quartiles of
every metric, seed and environment) goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

WORKLOADS = ("deep_tables", "oracle_sweep", "verify_breadth")

END_TO_END = {
    "cpu_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

_GROUPS = ("recurrences.distribution_table", "recurrences.refined_g1k",
           "qpoly.mul_large", "qpoly.mul_small", "qpoly.addsub",
           "qpoly.exact_div", "qpoly.q_binomial", "perm_core.brute",
           "cli.main")
PER_LAYER = {}
for _name in LAYERS:
    PER_LAYER.update({_name + ".calls": "count", _name + ".s": "s",
                      _name + ".self_s": "s"})
for _name in _GROUPS:
    PER_LAYER.update({_name + ".calls": "count", _name + ".s": "s"})
PER_LAYER.update({
    "qpoly.mul.coeff_products": "count",
    "perm_core.brute.hosts_nominal": "count",
    "verification.run_suite.s": "s",
    "verification.checks": "count",
    "verification.checks_failed": "count",
    "run.cpu_s": "s",
    "trace.overhead_s": "s",
})

SETUP_SAMPLES_PER_PASS = 3
# a run must end within 180 s; stop starting children well before that
HARD_LIMIT_S = 165.0


class BenchError(RuntimeError):
    pass


def spawn_child(root, args, timeout):
    """Run child.py in a fresh interpreter and return its JSON result.

    Adds ``elapsed_s``, spawn to exit on the wall clock.
    """
    cmd = [sys.executable, "-I", os.path.join(BENCH_DIR, "child.py"), root]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + list(args), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise BenchError(f"pass {' '.join(args)} exited {proc.returncode}:\n"
                         f"{err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(values):
    """Sample count, median and quartiles."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


class Run:
    """Child passes of one workload within a time budget."""

    def __init__(self, root, workload, seed, seconds, started):
        self.root, self.workload, self.seed = root, workload, seed
        self.deadline = time.monotonic() + seconds
        self.hard_deadline = started + HARD_LIMIT_S
        self.passes = []

    def spawn(self, extra=()):
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run finished")
        args = ["--workload", self.workload, "--seed", str(self.seed)]
        result = spawn_child(self.root, args + list(extra), timeout)
        if any(result["cold"].values()):
            raise BenchError(f"pass did not start cold: {result['cold']}")
        self.passes.append(result)
        return result

    def fits(self, needed):
        return time.monotonic() + needed <= self.deadline

    def correctness(self):
        attempted = sum(p["attempted"] for p in self.passes)
        failed = sum(p["failed"] for p in self.passes)
        failures = {}
        for p in self.passes:
            failures.update(p["failures"])
        return attempted, failed, failures


def end_to_end(run):
    setups = []
    while True:
        # set-up samples are spread over the run, not bunched at its start
        for _ in range(SETUP_SAMPLES_PER_PASS):
            setups.append(spawn_child(
                run.root, [], run.hard_deadline - time.monotonic())["setup_s"])
        result = run.spawn()
        setups.append(result["setup_s"])
        per_pass = statistics.median(p["elapsed_s"] for p in run.passes)
        if not run.fits(per_pass):
            break
    attempted, failed, failures = run.correctness()
    samples = {
        "cpu_ref_s": [p["cpu_ref_s"] for p in run.passes],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in run.passes],
        "ok_frac": [1 - failed / attempted],
    }
    return samples, attempted, failed, failures


def traced(run):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans_path = os.path.join(
        RESULTS_DIR, f"spans-{run.workload}-seed{run.seed}.csv.gz")
    pairs = []
    while True:
        t0 = time.monotonic()
        plain = run.spawn()
        tr = run.spawn(["--trace", "1", "--spans-out", spans_path])
        pairs.append((plain, tr))
        if not run.fits(time.monotonic() - t0):
            break
    samples = {name: [tr["layers"][name] for _, tr in pairs]
               for name in PER_LAYER if name in pairs[0][1]["layers"]}
    samples["run.cpu_s"] = [tr["cpu_s"] for _, tr in pairs]
    samples["trace.overhead_s"] = [tr["wall_s"] - plain["wall_s"]
                                   for plain, tr in pairs]
    attempted, failed, failures = run.correctness()
    return samples, attempted, failed, failures


def run_workload(root, workload, seed, seconds, trace, started):
    run = Run(root, workload, seed, seconds, started)
    samples, attempted, failed, failures = \
        (traced if trace else end_to_end)(run)
    units = PER_LAYER if trace else END_TO_END
    missing = set(units) - set(samples)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": statistics.median(samples[name]),
                      "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": environment(),
        "passes": len(run.passes),
        "pass_wall_s": [p["wall_s"] for p in run.passes],
        "pass_cpu_s": [p["cpu_s"] for p in run.passes],
        "pass_probe_median_s": [p["probe_median_s"] for p in run.passes],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "failures": failures,
        "metrics": {name: dict(metrics[name], samples=samples[name],
                               **summarize(samples[name]))
                    for name in units},
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR,
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return metrics, attempted, failed, failures, len(run.passes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flatperm", "__init__.py")):
        print("error: run from the root of a flatperm checkout "
              "(src/flatperm not found)", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        # compiles the package's bytecode once, so that no set-up sample
        # pays for it
        spawn_child(root, [], HARD_LIMIT_S)
        for workload in workloads:
            if args.workload == "all":
                started = time.monotonic()
            m, a, f, failures, passes = run_workload(
                root, workload, args.seed, args.seconds, args.trace, started)
            correct = correct and f == 0
            attempted += a
            failed += f
            print(f"{workload}: {passes} passes, {a} operations, {f} failed")
            for reason in list(failures.items())[:5]:
                print(f"  FAIL {reason[0]}: {reason[1]}")
            for name, metric in m.items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                metrics[key] = metric
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
