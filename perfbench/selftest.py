"""Self-test of the benchmark itself; the program under test is unchanged.

    python3 perfbench/selftest.py        # from the root of a checkout

Checks that
* a tampered output is caught: one pass with a single CLI stdout altered
  after the timed region reports failed > 0, so fail_frac > 0;
* every pass starts cold: the known memo tables are empty before the first
  operation and filled after the last, and two passes run in two processes;
* the speed probe runs during a pass without changing any output;
* the traced run is faithful: wrapped calls return the same values and
  raise the same exceptions, a generator is timed across its iteration,
  and a recursive call is not counted twice in inclusive time;
* BENCHMARK.json names exactly the workloads and metrics that run.py prints.
Exits 1 on the first failed check.
"""

import json
import os
import sys
import time

from run import BENCH_DIR, END_TO_END, PER_LAYER, WORKLOADS, spawn_child


def expect(condition, message):
    if not condition:
        print(f"FAIL  {message}")
        sys.exit(1)
    print(f"ok    {message}")


def check_tamper_and_cold(root):
    args = ["--workload", "verify_breadth", "--seed", "3"]
    clean = spawn_child(root, args, 300)
    tampered = spawn_child(root, args + ["--tamper"], 300)
    expect(clean["failed"] == 0, "untampered pass has no failed operation")
    expect(tampered["failed"] > 0,
           f"tampered output is caught (fail_frac = "
           f"{tampered['failed']}/{tampered['attempted']})")
    for result in (clean, tampered):
        expect(not any(result["cold"].values()),
               f"pass {result['pid']} starts with empty memo tables "
               f"{sorted(result['cold'])}")
        expect(any(result["warm"].values()),
               f"pass {result['pid']} has filled memo tables by the end, so "
               "the cold check can see warm state")
    expect(clean["pid"] != tampered["pid"], "each pass is its own process")
    expect(clean["probes"] > 3,
           f"the speed probe ran inside the pass ({clean['probes']} probes) "
           "and the outputs stayed correct")


def check_tracer(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import flatperm
    from flatperm import closed_forms, perm_core, qpoly, recurrences
    from spans import Tracer

    def outcome(fn):
        try:
            return ("value", fn())
        except Exception as exc:
            return ("raised", type(exc), str(exc))

    pat = perm_core.VincularPattern3.from_string("32-1")
    calls = {
        "q_binomial": lambda: flatperm.q_binomial(9, 4),
        "mul": lambda: flatperm.q_factorial(6) * flatperm.q_int(80),
        "exact_div": lambda: flatperm.q_factorial(6).exact_div(
            flatperm.q_int(6)),
        "exact_div raises": lambda: flatperm.q_int(5).exact_div(
            flatperm.q_int(3)),
        "cap raises": lambda: perm_core.brute_distribution(11, pat),
        "bad k raises": lambda: recurrences.refined_g1k(
            recurrences.PatternId.P32_1, 5, 9),
        "refined": lambda: recurrences.refined_g1k(
            recurrences.PatternId.P23_1, 8, 4),
        "enumerate": lambda: [p.word for p in
                              perm_core.enumerate_permutations(5)],
        "enumerate raises": lambda: list(
            perm_core.enumerate_permutations(12)),
    }
    plain = {name: outcome(fn) for name, fn in calls.items()}

    tracer = Tracer()
    tracer.install()
    try:
        traced = {name: outcome(fn) for name, fn in calls.items()}
        # a consumer that works between items: only the generator's own
        # resumes may count toward its time
        t0 = time.perf_counter()
        for p in perm_core.enumerate_permutations(8):
            sum(range(200))
        loop_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        closed_forms.total_occurrences("21-3", 40)  # calls itself once
        recursion_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    expect(plain == traced, "wrapped calls return and raise exactly as "
                            "unwrapped ones")
    expect(qpoly.QPoly.__mul__ is vars(qpoly.QPoly)["__rmul__"]
           and not hasattr(perm_core.brute_distribution, "__wrapped__"),
           "uninstall restores the original functions and dunders")

    metrics = tracer.aggregate()
    enum_nid = tracer.name_ids["perm_core.enumerate_permutations"]
    enum_calls = enum_s = 0
    for nid, counts, start, end in zip(tracer.span_name, tracer.span_counts,
                                       tracer.span_start, tracer.span_end):
        if nid == enum_nid:
            enum_calls += counts
            enum_s += end - start
    expect(enum_calls == 3, "a generator counts one call however many "
                            "items it yields")
    expect(0 < enum_s < loop_s,
           f"generator is timed across its iteration ({enum_s:.4f} s of "
           f"{loop_s:.4f} s consumer loop)")
    expect(metrics["closed_forms.calls"] == 2
           and metrics["closed_forms.s"] <= recursion_s,
           f"recursive call counted once in inclusive time "
           f"({metrics['closed_forms.s']:.5f} s <= {recursion_s:.5f} s)")


def check_benchmark_json(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists run.py's workloads")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        expect({m["name"]: m["unit"] for m in spec[key]} == table,
               f"BENCHMARK.json {key} metrics and units match run.py")
    expect(spec["paths"] == [os.path.basename(BENCH_DIR)],
           "BENCHMARK.json paths is the benchmark directory")


def main():
    root = os.getcwd()
    check_benchmark_json(root)
    check_tracer(root)
    check_tamper_and_cold(root)
    print("selftest passed")


if __name__ == "__main__":
    main()
