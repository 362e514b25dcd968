"""Acceptance suite: one test per criterion, each printing a PASS line.

Each criterion asserts on the named checks of ``verification.run_suite``,
the same checks ``flatperm verify`` prints, run once per suite at the
bounds in ``SUITE_N_MAX``.  Only what ``verify`` lacks is checked here:
criterion 8's own monotonicity loop and the two time limits.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import time
from fractions import Fraction

from flatperm import closed_forms, verification
from flatperm.recurrences import ALL_PATTERNS

#: Bound per suite.  Series runs to 14, past verify's default of 12, so the
#: EGF and G_r coefficients are checked through n = 14.
SUITE_N_MAX = {"oracle": 8, "refined": 7, "closed-forms": 8, "series": 14,
               "bijections": 7, "identities": 8}


@functools.cache
def suite_run(suite: str):
    started = time.perf_counter()
    report = verification.run_suite(suite, SUITE_N_MAX[suite])
    return report.results, time.perf_counter() - started


def passed(suite: str, name: str) -> verification.CheckResult:
    found = [r for r in suite_run(suite)[0] if r.name == name]
    assert len(found) == 1, f"[{suite}] {name}: {len(found)} checks by that name"
    assert found[0].passed, found[0].line()
    return found[0]


def report(criterion: int, *checks: verification.CheckResult, elapsed=None):
    text = "; ".join(dict.fromkeys(r.detail for r in checks))
    timing = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {criterion}: PASS - {text}{timing}")


def test_criterion_1_oracle_equivalence():
    checks = [passed("oracle", f"{p} distribution == brute force")
              for p in ALL_PATTERNS]
    elapsed = suite_run("oracle")[1]
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    report(1, *checks, elapsed=elapsed)


def test_criterion_2_refined_equivalence():
    report(2, *(passed("refined", f"{p} g_n(1k) == brute force")
                for p in ALL_PATTERNS))


def test_criterion_3_table_reproduction():
    report(3, passed("closed-forms", "avoider closed forms == [q^0] g_n == brute"),
           passed("closed-forms", "average closed forms == g_n'(1) / n!"))


def test_criterion_4_cross_pattern_equalities():
    report(4, passed("identities", "cross-pattern equalities"))


def test_criterion_5_series_checks():
    report(5, passed("series", "31-2 generating functions vs the table"),
           passed("series", "avoider EGFs vs closed forms"))


def test_criterion_6_bijection_suite():
    report(6, passed("bijections", "marked partitions <-> 23-1 avoiders"),
           passed("bijections", "23-1 avoiders <-> 32-1 avoiders"),
           passed("bijections", "31-2 avoidance equals 3-1-2 avoidance"))


def test_criterion_7_total_identity_suite():
    report(7, passed("identities", "occurrence totals vs brute force"),
           passed("identities", "occurrence-total pairing identities"))


def test_criterion_8_limit_property():
    check = passed("closed-forms", "limit of avr(n)/n^2")
    started = time.perf_counter()
    twelfth = Fraction(1, 12)
    for pattern, sequence in closed_forms.limit_check(20, 200).items():
        deviations = [abs(v - twelfth) for v in sequence]
        assert all(b < a for a, b in zip(deviations, deviations[1:])), pattern
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"limit checks took {elapsed:.2f}s"
    report(8, check, elapsed=elapsed)


def test_criterion_9_symmetric_function_closed_forms():
    report(9, passed("identities", "symmetric-function closed forms"))


def test_criterion_10_documented_discrepancies_reported():
    finding1 = passed("identities",
                      "12-3 recurrence j-range (documented discrepancy)")
    finding2 = passed("series",
                      "r=0 length-2 coefficient (documented discrepancy)")
    assert "j=1" in finding1.detail
    assert "[x^2] = 0" in finding2.detail
    report(10, finding1, finding2)
