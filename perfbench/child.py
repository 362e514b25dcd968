"""One cold pass of one workload, in the interpreter that runs this file.

Started by ``run.py`` as ``python3 -I perfbench/child.py ROOT ...`` so that
every pass begins with empty memo state (the recurrence builders, the
flat-word cache, the Gaussian-binomial rows and the special-number cache
all live for the life of a process).  The package is driven only through
public functions; a CLI operation is ``flatperm.cli.main(argv)`` with
stdout captured.

The pass prints one JSON object on its own stdout: the CPU time this
process had used when ``import flatperm.cli`` finished (its set-up time),
the CPU and wall time of its operations, both CPU times also scaled to a
reference host speed (see ``probe``), peak RSS after the last operation,
and the number of operations attempted and failed.  Each result is reduced to digests right after its operation,
outside the timed region; every correctness check runs after the last
operation.
"""

import os
import sys
import time

ROOT = sys.argv[1]
if "flatperm" in sys.modules:
    raise SystemExit("flatperm was imported before the pass started")
sys.path.insert(0, os.path.join(ROOT, "src"))
import flatperm  # noqa: E402
import flatperm.cli  # noqa: E402  (set-up ends here: the CLI is the entry)
IMPORT_CPU_S = time.process_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

from flatperm import cli, closed_forms, perm_core, recurrences  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import Tracer  # noqa: E402

PATTERNS = tuple(p.value for p in recurrences.ALL_PATTERNS)

DEEP_N = 50           # one-shot distribution build
DEEP_REFINED_N = 40   # refined triangle, read entry by entry
ORACLE_N = 9          # cached S_n sweep, every pattern
ORACLE_CAP_N = 10     # the uncached 10! sweep, one pattern
TABLE_N_MAX = 200
SERIES_ORDER = 64


def _poly_digest(coeffs) -> str:
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


def _row_digest(values) -> str:
    text = "\n".join(",".join(map(str, v.coeffs)) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv):
    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(list(argv))
        return status, buf.getvalue()
    return op


class Op:
    """One timed operation: a kind, a key naming its inputs, a thunk.

    After the timer stops, ``result`` is reduced to ``summary``, the little
    that the checks need (digests and flags), and dropped, so that peak RSS
    counts what the program keeps, not what the benchmark holds.
    """

    __slots__ = ("kind", "key", "run", "summary", "error")

    def __init__(self, kind, key, run):
        self.kind, self.key, self.run = kind, key, run
        self.summary = self.error = None


def _cli_op(kind, *argv):
    return Op(kind, " ".join(argv), _cli(argv))


# -- workloads: the seed changes only the order of operations ---------------

def ops_deep_tables(rng):
    ops = []
    for p in rng.sample(PATTERNS, len(PATTERNS)):
        ops.append(_cli_op("distribution", "distribution", "--pattern", p,
                           "--n", str(DEEP_N), "--format", "json"))
    for p in rng.sample(PATTERNS, len(PATTERNS)):
        pid = recurrences.PatternId.from_string(p)
        for n in range(2, DEEP_REFINED_N + 1):
            for k in rng.sample(range(2, n + 1), n - 1):
                ops.append(Op("refined", (p, n, k),
                              lambda pid=pid, n=n, k=k:
                              recurrences.refined_g1k(pid, n, k)))
    return ops


def ops_oracle_sweep(rng):
    ops = []
    for p in rng.sample(PATTERNS, len(PATTERNS)):
        ops.append(_cli_op("distribution", "distribution", "--pattern", p,
                           "--n", str(ORACLE_N), "--method", "both"))
    for p in rng.sample(PATTERNS, len(PATTERNS)):
        pid = recurrences.PatternId.from_string(p)
        for k in rng.sample(range(2, ORACLE_N + 1), ORACLE_N - 1):
            ops.append(Op("refined_vs_brute", (p, ORACLE_N, k),
                          lambda pid=pid, k=k: (
                              perm_core.brute_refined_distribution(
                                  ORACLE_N, pid.vincular(), k),
                              recurrences.refined_g1k(pid, ORACLE_N, k))))
    ops.append(_cli_op("distribution", "distribution", "--pattern", "32-1",
                       "--n", str(ORACLE_CAP_N), "--method", "both"))
    return ops


def ops_verify_breadth(rng):
    ops = [_cli_op("verify", "verify", "--suite", "all"),
           _cli_op("table", "table", "--n-max", str(TABLE_N_MAX))]
    for which in rng.sample(cli.SERIES_CHOICES, len(cli.SERIES_CHOICES)):
        ops.append(_cli_op("series", "series", "--which", which,
                           "--order", str(SERIES_ORDER)))
    return ops


WORKLOADS = {
    "deep_tables": ops_deep_tables,
    "oracle_sweep": ops_oracle_sweep,
    "verify_breadth": ops_verify_breadth,
}


# -- reduction, between timed operations ------------------------------------

def _verify_passed(stdout) -> bool:
    lines = stdout.rstrip("\n").split("\n")
    checks, summary = lines[:-1], lines[-1]
    return bool(checks) and all(line.startswith("PASS") for line in checks) \
        and summary == f"{len(checks)}/{len(checks)} checks passed"


class Reducer:
    """Turns each result into its summary, outside the timed region.

    A refined row g_n(1k), 2 <= k <= n, is read in consecutive operations;
    its entries are held only until the row is complete, then reduced to
    the row's digest and the digest of Σ_k g_n(1k), summed here on plain
    integers so that the traced run sees no benchmark arithmetic.
    ``tamper`` alters the first CLI stdout before it is digested.
    """

    def __init__(self, tamper=False):
        self.tamper = tamper
        self.pending: dict = {}   # (p, n) -> {k: QPoly}, incomplete rows
        self.rows: dict = {}      # (p, n) -> (row digest, row-sum digest)

    def __call__(self, op, result):
        if op.kind == "refined":
            p, n, k = op.key
            row = self.pending.setdefault((p, n), {})
            row[k] = result
            if len(row) == n - 1:
                del self.pending[p, n]
                values = [row[j] for j in range(2, n + 1)]
                total = [0] * max(len(v.coeffs) for v in values)
                for v in values:
                    for i, c in enumerate(v.coeffs):
                        total[i] += c
                while total and total[-1] == 0:
                    total.pop()
                self.rows[p, n] = (_row_digest(values), _poly_digest(total))
            return None
        if op.kind == "refined_vs_brute":
            brute, recurrence = result
            return {"equal": brute == recurrence}
        status, out = result
        if self.tamper:
            self.tamper = False
            out += " "
        summary = {"status": status,
                   "sha256": hashlib.sha256(out.encode()).hexdigest()}
        if op.kind == "distribution" and op.key.endswith("--format json"):
            printed = json.loads(out)["coefficients"]
            summary["g_digest"] = _poly_digest(
                int(printed[str(i)]) for i in range(len(printed)))
        elif op.kind == "distribution":
            summary["match"] = out.rstrip("\n").endswith("match: true")
        elif op.kind == "verify":
            summary["all_pass"] = _verify_passed(out)
        return summary


# -- correctness, checked after the timed region ----------------------------

def _check_stdout(op, reference, failures):
    want = reference["stdout_sha256"].get(op.key)
    got = op.summary["sha256"]
    if op.summary["status"] != 0:
        failures[op.key] = f"exit status {op.summary['status']}"
    elif want != got:
        failures[op.key] = f"stdout sha256 {got[:12]} != reference " \
                           f"{str(want)[:12]}"


def _check_table_identities(p, g_digest, failures, key):
    """g_50 in the output equals the table, and every g_n <= 50 meets the
    closed forms: [q^0] g_n = avoiders, g_n'(1) = total occurrences,
    g_n(1) = n!."""
    table = recurrences.distribution_table(
        recurrences.PatternId.from_string(p), DEEP_N)
    if g_digest != _poly_digest(table.g(DEEP_N).coeffs):
        failures[key] = "printed g_n differs from distribution_table"
        return table
    for n in range(1, DEEP_N + 1):
        g = table.g(n)
        total = closed_forms.total_occurrences(p, n) if n >= 3 else 0
        if (g.constant_term() != closed_forms.avoiders(p, n)
                or g.evaluate(1) != math.factorial(n)
                or g.derivative().evaluate(1) != total):
            failures[key] = f"closed-form identity fails at n={n}"
            break
    return table


def check(workload, ops, rows, reference):
    """Map op key -> reason, for every op that raised or is wrong."""
    failures: dict = {}
    for op in ops:
        if op.error is not None:
            failures[op.key] = op.error
    ok = [op for op in ops if op.key not in failures]
    for op in ok:
        if op.kind in ("distribution", "verify", "table", "series"):
            _check_stdout(op, reference, failures)

    if workload == "deep_tables":
        tables = {}
        for op in ok:
            if op.kind == "distribution" and op.key not in failures:
                p = op.key.split()[2]
                tables[p] = _check_table_identities(
                    p, op.summary["g_digest"], failures, op.key)
        row_fault = {}
        for op in ok:
            if op.kind != "refined" or op.key[:2] in row_fault:
                continue
            p, n, _ = op.key
            if (p, n) not in rows:
                row_fault[p, n] = "row has a failed entry"
                continue
            row_digest, sum_digest = rows[p, n]
            table = tables.get(p) or recurrences.distribution_table(
                recurrences.PatternId.from_string(p), DEEP_N)
            if sum_digest != _poly_digest(table.g(n).coeffs):
                row_fault[p, n] = f"sum over k of g_{n}(1k) != g_{n}"
            elif row_digest != \
                    reference["refined_row_sha256"].get(f"{p} n={n}"):
                row_fault[p, n] = "refined row differs from reference"
        for op in ok:
            if op.kind == "refined" and op.key[:2] in row_fault:
                failures[op.key] = row_fault[op.key[:2]]

    elif workload == "oracle_sweep":
        for op in ok:
            if op.kind == "distribution" and op.key not in failures:
                if not op.summary["match"]:
                    failures[op.key] = "recurrence and brute force differ"
            elif op.kind == "refined_vs_brute":
                if not op.summary["equal"]:
                    failures[op.key] = "refined recurrence != brute force"

    elif workload == "verify_breadth":
        for op in ok:
            if op.kind == "verify" and op.key not in failures:
                if not op.summary["all_pass"]:
                    failures[op.key] = "a verify check did not PASS"
    return failures


def record(ops, rows):
    """Reference digests of this commit's outputs (see record_reference.py)."""
    stdout = {op.key: op.summary["sha256"]
              for op in ops if isinstance(op.key, str)}
    refined = {f"{p} n={n}": digests[0] for (p, n), digests in rows.items()}
    return {"stdout_sha256": stdout, "refined_row_sha256": refined}


# -- the pass ---------------------------------------------------------------

# On a shared host the speed of the same work moves by up to 2x, in phases
# of seconds and in drifts over an hour, and CPU time moves with it.  A
# fixed loop timed beside the operations measures that speed: CPU time
# spent in operations is scaled by PROBE_REF_S / (the loop's CPU time),
# which gives the CPU time the operations take where the loop takes
# PROBE_REF_S.  The program runs in this one thread.  Its CPU time is read
# on the thread's clock: while a process-wide CPU timer is armed, Linux
# reads the process clock only to the scheduler tick.
PROBE_REF_S = 0.010
PROBE_EVERY_S = 0.25   # process CPU time between two probes
_PROBE_TABLE: dict = {}


def probe() -> float:
    """CPU time of a fixed loop of interpreter steps and big-integer
    products, about 10 ms.  It allocates no container, so no garbage
    collection starts inside it, and it leaves no state the program sees."""
    c0 = time.thread_time()
    acc, table = 0, _PROBE_TABLE
    for i in range(25000):
        table[i % 977] = acc
        acc = (acc + i * i) % 1000003
    x = 3 ** 4000
    for _ in range(120):
        acc += (x * (x + acc)) % 7
    return time.thread_time() - c0


class SpeedMeter:
    """CPU time of the operations, unscaled and scaled to reference speed.

    A profiling timer runs the probe every PROBE_EVERY_S of process CPU
    time, also inside a long operation (a signal handler runs between two
    bytecodes of the main thread).  The operations' CPU time between two
    probes is scaled by the mean of those two probes; the probes' own time
    is left out of both the CPU and the wall time of the operations.  A
    traced pass runs no timer, so that no probe falls inside a span.
    """

    def __init__(self):
        self.last = statistics.median(probe() for _ in range(3))
        self.probes = [self.last]
        self.in_op = self.busy = False
        self.segment_s = self.cpu_s = self.cpu_ref_s = self.wall_s = 0.0
        self.c0 = self.t0 = 0.0

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def finish(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._close(probe())

    # op_start and op_stop hold ``busy`` while they change the state, so a
    # probe that falls inside them is skipped, not taken half-way.
    def op_start(self):
        self.busy = True
        self._resume()
        self.busy = False

    def op_stop(self):
        self.busy = True
        self._pause()
        self.busy = False

    def _resume(self):
        self.t0 = time.perf_counter()
        self.c0 = time.thread_time()
        self.in_op = True

    def _pause(self):
        self.segment_s += time.thread_time() - self.c0
        self.wall_s += time.perf_counter() - self.t0
        self.in_op = False

    def _tick(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        in_op = self.in_op
        if in_op:
            self._pause()
        self._close(probe())
        if in_op:
            self._resume()
        self.busy = False

    def _close(self, measured):
        self.cpu_s += self.segment_s
        self.cpu_ref_s += self.segment_s * PROBE_REF_S * 2 / (self.last +
                                                              measured)
        self.segment_s = 0.0
        self.last = measured
        self.probes.append(measured)


def cold_state() -> dict:
    """Sizes of the known per-process memo tables; all zero when cold.

    Probed by name, so a memo table that a later version removes is simply
    absent here.
    """
    probes = {
        "recurrences._BUILDERS": lambda: len(recurrences._BUILDERS),
        "recurrences._REFINED": lambda: len(recurrences._REFINED),
        "perm_core._flat_counter_cached":
            lambda: perm_core._flat_counter_cached.cache_info().currsize,
        # one row (n = 0) is there from import
        "qpoly._QBINOM_ROWS": lambda: len(flatperm.qpoly._QBINOM_ROWS) - 1,
        "closed_forms.numbers": lambda: sum(
            len(v) - 1 for v in vars(closed_forms.numbers).values()
            if isinstance(v, list)),
    }
    state = {}
    for name, size in probes.items():
        try:
            state[name] = size()
        except AttributeError:
            pass
    return state


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("root")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out")
    ap.add_argument("--tamper", action="store_true",
                    help="alter one output before checking (self-test)")
    ap.add_argument("--record", action="store_true",
                    help="print reference digests instead of checking")
    args = ap.parse_args()

    meter = SpeedMeter()
    out = {"pid": os.getpid(), "setup_cpu_s": IMPORT_CPU_S,
           "setup_s": IMPORT_CPU_S * PROBE_REF_S / meter.last,
           "cold": cold_state()}
    if args.workload is None:  # set-up only
        print(json.dumps(out))
        return

    ops = WORKLOADS[args.workload](random.Random(args.seed))
    reduce = Reducer(tamper=args.tamper)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        meter.start()
    else:
        tracer.install()
    for op in ops:
        meter.op_start()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
        meter.op_stop()
        if op.error is None:
            try:
                op.summary = reduce(op, result)
            except Exception as exc:  # output the checks cannot read
                op.error = f"unreadable output: {type(exc).__name__}: {exc}"
        result = None
    meter.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    out["warm"] = cold_state()

    if args.record:
        out["reference"] = record(ops, reduce.rows)
    else:
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        failures = check(args.workload, ops, reduce.rows, reference)
        out["failures"] = {str(k): v for k, v in list(failures.items())[:20]}
        out["failed"] = len(failures)
    out.update({
        "attempted": len(ops),
        "wall_s": meter.wall_s,
        "cpu_s": meter.cpu_s,
        "cpu_ref_s": meter.cpu_ref_s,
        "probes": len(meter.probes),
        "probe_median_s": statistics.median(meter.probes),
        "peak_rss_mb": peak_rss_mb,
    })
    if tracer is not None:
        out["layers"] = tracer.aggregate()
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
