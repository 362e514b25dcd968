"""Named verification suites: every identity, closed form, series expansion
and bijection in the package checked against the brute-force oracle or an
independent evaluation, with a PASS/FAIL line per check.

Suites: oracle, refined, closed-forms, series, bijections, identities, and
all.  Each check reports counterexample data on failure.  Two checks are
"documented discrepancy" reports: the closed-form 12-3 recurrence needs its j=1
term restored before it reproduces the table, and the r=0 generating
function for 31-2 has x^2 coefficient 0 where the length-2 count is 2.
Those checks pass exactly when the documented finding is reproduced, and
their detail text spells the finding out.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from fractions import Fraction

from . import bijections, closed_forms, perm_core, recurrences, series
from ._value import Value
from .qpoly import QPoly, _derivative_at_one, complete_h, \
    e_on_qints_closed_form, elementary_e, h_on_qint_window_closed_form, q_int
from .recurrences import ALL_PATTERNS, PatternId

SUITES = ("oracle", "refined", "closed-forms", "series", "bijections",
          "identities")

#: Default exhaustive bound per suite (brute force over S_n).
DEFAULT_N_MAX = {
    "oracle": 8,
    "refined": 7,
    "closed-forms": 8,
    "series": 12,
    "bijections": 7,
    "identities": 8,
}

#: The largest n_max each suite can run: past perm_core.DEFAULT_MAX_N the
#: oracle refuses S_n (and the bijection sweep would walk 4.4 million
#: marked partitions at n = 11), and series expands to order n_max + 1, at
#: most series.MAX_ORDER.  "all" takes the smallest.
MAX_N_MAX = dict.fromkeys(SUITES, perm_core.DEFAULT_MAX_N) \
    | {"series": series.MAX_ORDER - 1}

# The recurrence-only cross-pattern equalities are cheap and always checked
# to this bound, independent of the brute-force bound.
CROSS_PATTERN_N_MAX = 40


class CheckResult(Value):
    __slots__ = ("suite", "name", "passed", "detail")

    def __init__(self, suite: str, name: str, passed: bool, detail: str = ""):
        self.suite = suite
        self.name = name
        self.passed = passed
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return f"{status}  [{self.suite}] {self.name}{tail}"


class Report(Value):
    __slots__ = ("results",)

    def __init__(self, results: list[CheckResult] | None = None):
        self.results = [] if results is None else results

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        failed = sum(not r.passed for r in self.results)
        out.append(f"{len(self.results) - failed}/{len(self.results)} checks passed")
        return out


def _run(report: Report, suite: str, name: str, fn):
    try:
        detail = fn()
        report.results.append(CheckResult(suite, name, True, detail or ""))
    except Exception as exc:  # a failed check must never abort the report
        report.results.append(CheckResult(suite, name, False, str(exc)))


def _require(condition: bool, message: str | Callable[[], str]):
    """Raise with the message when the condition fails.  A message that
    formats values is passed as a callable, so that passing checks never
    build their failure text.  The bijection suite's per-record loops
    raise AssertionError directly instead, so that no record builds a
    closure."""
    if not condition:
        raise AssertionError(message() if callable(message) else message)


def _no_n_compared(first: int, n_max: int) -> str:
    """The detail of a check over n = first..n_max when that range is empty:
    the check passes, having compared nothing, and says so."""
    return f"no n compared: n={first}..{n_max} is empty"


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _suite_oracle(report: Report, n_max: int):
    for pattern in ALL_PATTERNS:
        def check(pattern=pattern):
            table = recurrences.distribution_table(pattern, n_max)
            vinc = pattern.vincular()
            for n in range(1, n_max + 1):
                brute = perm_core.brute_distribution(n, vinc)
                _require(table.g(n) == brute, lambda:
                         f"n={n}: recurrence {table.g(n)} != brute {brute}")
                _require(table.g(n).evaluate(1) == math.factorial(n),
                         lambda: f"n={n}: g_n(1) != n!")
            return f"n=1..{n_max} exact polynomial match"
        _run(report, "oracle", f"{pattern} distribution == brute force", check)


# ---------------------------------------------------------------------------
# refined
# ---------------------------------------------------------------------------

def _suite_refined(report: Report, n_max: int):
    for pattern in ALL_PATTERNS:
        def check(pattern=pattern):
            vinc = pattern.vincular()
            table = recurrences.distribution_table(pattern, n_max)
            for n in range(2, n_max + 1):
                total = QPoly()
                for k in range(2, n + 1):
                    got = recurrences.refined_g1k(pattern, n, k)
                    brute = perm_core.brute_refined_distribution(n, vinc, k)
                    _require(got == brute,
                             lambda: f"n={n}, k={k}: {got} != brute {brute}")
                    total = total + got
                _require(total == table.g(n),
                         lambda: f"n={n}: sum over k != g_n")
            if n_max < 2:
                return _no_n_compared(2, n_max)
            return f"n=2..{n_max}, all k; sums match the tables"
        _run(report, "refined", f"{pattern} g_n(1k) == brute force", check)

    def check_prefix12():
        for pattern in ALL_PATTERNS:
            table = recurrences.distribution_table(pattern, n_max)
            for n in range(2, n_max + 1):
                got = recurrences.refined_g1k(pattern, n, 2)
                want = 2 * table.g(n - 1)
                if pattern is PatternId.P12_3:
                    # the leading 1,2 pair already realizes n-2 occurrences
                    want = want.shifted(n - 2)
                _require(got == want, lambda: f"{pattern}, n={n}")
        if n_max < 2:
            return _no_n_compared(2, n_max)
        return ("g_n(12) = 2 g_(n-1) for four patterns; "
                "12-3 carries the extra factor q^(n-2)")
    _run(report, "refined", "prefix-12 relations", check_prefix12)


# ---------------------------------------------------------------------------
# closed-forms
# ---------------------------------------------------------------------------

def _brute_partition_counts(n: int) -> dict[int, int]:
    """Partitions of an n-set by block count, via restricted-growth strings."""
    counts: dict[int, int] = {}

    def grow(i: int, maxblock: int):
        if i == n:
            counts[maxblock] = counts.get(maxblock, 0) + 1
            return
        for value in range(maxblock + 1):
            grow(i + 1, max(maxblock, value + 1))

    if n == 0:
        return {0: 1}
    grow(0, 0)
    return counts


def _suite_closed_forms(report: Report, n_max: int):
    def check_special_numbers():
        for n in range(0, min(n_max, 8) + 1):
            counts = _brute_partition_counts(n)
            for k in range(0, n + 1):
                _require(closed_forms.numbers.stirling2(n, k)
                         == counts.get(k, 0), lambda: f"stirling2({n},{k})")
            _require(closed_forms.numbers.bell(n) == sum(counts.values()),
                     lambda: f"bell({n})")
            _require(closed_forms.numbers.complementary_bell(n)
                     == sum((-1) ** k * c for k, c in counts.items()),
                     lambda: f"complementary_bell({n})")
        _require(closed_forms.numbers.complementary_bell(-1) == -1,
                 "complementary_bell(-1)")
        for n in range(1, 30):
            _require(closed_forms.numbers.harmonic(n)
                     - closed_forms.numbers.harmonic(n - 1) == Fraction(1, n),
                     lambda: f"harmonic({n})")
        return "Stirling triangle, Bell rows and harmonic steps re-derived"
    _run(report, "closed-forms", "special numbers vs brute partitions",
         check_special_numbers)

    def check_avoiders():
        for pattern in ALL_PATTERNS:
            table = recurrences.distribution_table(pattern, n_max)
            vinc = pattern.vincular()
            for n in range(1, n_max + 1):
                formula = closed_forms.avoiders(pattern, n)
                _require(formula == table.g(n).constant_term(), lambda:
                         f"{pattern}, n={n}: formula {formula} != [q^0] g_n")
                _require(formula == perm_core.brute_avoider_count(n, vinc),
                         lambda: f"{pattern}, n={n}: formula != brute count")
        vinc = perm_core.VincularPattern3.from_string("13-2")
        for n in range(1, n_max + 1):
            formula = closed_forms.avoiders("13-2", n)
            _require(formula == 2 ** (n - 1), lambda: f"13-2, n={n}")
            _require(formula == perm_core.brute_avoider_count(n, vinc),
                     lambda: f"13-2, n={n}: 2^(n-1) != brute count")
        return f"six patterns, n=1..{n_max}"
    _run(report, "closed-forms", "avoider closed forms == [q^0] g_n == brute",
         check_avoiders)

    def check_averages():
        for pattern in ALL_PATTERNS:
            table = recurrences.distribution_table(pattern, n_max)
            for n in range(1, n_max + 1):
                avg = closed_forms.average_occurrences(pattern, n)
                _require(avg * math.factorial(n)
                         == _derivative_at_one(table.g(n)),
                         lambda: f"{pattern}, n={n}")
        vinc = perm_core.VincularPattern3.from_string("13-2")
        for n in range(1, n_max + 1):
            avg = closed_forms.average_occurrences("13-2", n)
            _require(avg * math.factorial(n)
                     == perm_core.brute_total_occurrences(n, vinc),
                     lambda: f"13-2, n={n}")
        return f"average * n! == total, n=1..{n_max}"
    _run(report, "closed-forms", "average closed forms == g_n'(1) / n!",
         check_averages)

    def check_avoidance_recurrences():
        bound = max(n_max, 20)
        g23 = recurrences.distribution_table(PatternId.P23_1, bound)
        g21 = recurrences.distribution_table(PatternId.P21_3, bound)
        g32 = recurrences.distribution_table(PatternId.P32_1, bound)
        a23 = [None] + [g23.g(n).constant_term() for n in range(1, bound + 1)]
        a21 = [None] + [g21.g(n).constant_term() for n in range(1, bound + 1)]
        a32 = [None] + [g32.g(n).constant_term() for n in range(1, bound + 1)]
        for n in range(2, bound + 1):
            _require(a23[n] == 2 * sum(math.comb(n - 2, j - 1) * a23[n - j]
                                       for j in range(1, n)),
                     lambda: f"23-1 avoidance recurrence, n={n}")
        for n in range(3, bound + 1):
            rhs = n * a21[n - 1] - n * (n - 3) // 2 * a21[n - 2] + sum(
                (-1) ** (j - 1)
                * (math.comb(n - 2, j) + math.comb(n - 3, j - 1)) * a21[n - j]
                for j in range(3, n))
            _require(a21[n] == rhs,
                     lambda: f"21-3 avoidance recurrence, n={n}")
        for n in range(2, bound + 1):
            rhs = n * a32[n - 1] + sum(
                (-1) ** (j - 1) * math.comb(n - 2, j) * a32[n - j]
                for j in range(2, n - 1))
            _require(a32[n] == rhs,
                     lambda: f"32-1 avoidance recurrence, n={n}")
        return f"q=0 specializations hold to n={bound}"
    _run(report, "closed-forms", "avoidance recurrences at q=0",
         check_avoidance_recurrences)

    def check_limit():
        _require(closed_forms.limit_deviation_strictly_decreasing(20, 200),
                 "deviation from 1/12 not strictly decreasing on [20, 200]")
        for pattern in ALL_PATTERNS:
            dev = abs(closed_forms.average_occurrences(pattern, 1000)
                      / 1000 ** 2 - Fraction(1, 12))
            _require(dev < Fraction(1, 100),
                     lambda: f"{pattern}: deviation {dev}")
        return "avr(n)/n^2 -> 1/12, monotone tail on [20, 200], within 0.01 at n=1000"
    _run(report, "closed-forms", "limit of avr(n)/n^2", check_limit)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _suite_series(report: Report, n_max: int):
    order = n_max + 1
    # the 31-2 closed forms need order 4 to assemble, as in ``cmd_series``
    g31_2_order = max(order, 4)

    def check_g31_2():
        table = recurrences.distribution_table(PatternId.P31_2, n_max)
        for r in range(4):
            expansion = series.expand_G_r_31_2(r, g31_2_order)
            for n in range(3, n_max + 1):
                got = expansion.coefficient(n)
                want = table.g(n).coefficient(r)
                _require(got == want, lambda: f"r={r}, n={n}: {got} != {want}")
        if n_max < 3:
            return _no_n_compared(3, n_max)
        return f"[x^n] of the r=0..3 expansions == [q^r] g_n, n=3..{n_max}"
    _run(report, "series", "31-2 generating functions vs the table", check_g31_2)

    def check_egfs():
        egf21 = series.expand_egf_21_3_avoid(order)
        egf12 = series.expand_egf_12_3_avoid(order)
        for m in range(0, n_max - 1):
            _require(egf21.coefficient(m) * math.factorial(m)
                     == closed_forms.avoiders("21-3", m + 2),
                     lambda: f"21-3 EGF at x^{m}")
            _require(egf12.coefficient(m) * math.factorial(m)
                     == closed_forms.avoiders("12-3", m + 2),
                     lambda: f"12-3 EGF at x^{m}")
        if n_max < 2:
            return _no_n_compared(2, n_max)
        return f"n! scaled coefficients reproduce avoider counts to n={n_max + 1}"
    _run(report, "series", "avoider EGFs vs closed forms", check_egfs)

    def check_bell_egfs():
        x = series.PowerSeries.x(order)
        ex = series.exp_series(x)
        bell_egf = series.exp_series(ex - 1)
        cbell_egf = series.exp_series(1 - ex)
        for m in range(order):
            _require(bell_egf.coefficient(m) * math.factorial(m)
                     == closed_forms.numbers.bell(m), lambda: f"Bell at x^{m}")
            _require(cbell_egf.coefficient(m) * math.factorial(m)
                     == closed_forms.numbers.complementary_bell(m),
                     lambda: f"complementary Bell at x^{m}")
        return "exp(e^x - 1) and exp(1 - e^x) coefficients match the caches"
    _run(report, "series", "Bell-type EGFs vs special numbers", check_bell_egfs)

    def check_g0_quirk():
        g0 = series.expand_G_r_31_2(0, g31_2_order)
        _require(g0.coefficient(1) == 0, "[x^1] should cancel to 0")
        _require(g0.coefficient(2) == 0,
                 "[x^2] of the closed form changed; it is documented as 0")
        _require(recurrences.distribution_table(
            PatternId.P31_2, 2).g(2).coefficient(0) == 2,
            "g_2 should count 2 avoiders")
        return ("documented discrepancy: the r=0 closed form has "
                "[x^2] = 0 while g_2 counts 2 avoiders of length 2; "
                "coefficients agree from x^3 on")
    _run(report, "series", "r=0 length-2 coefficient (documented discrepancy)",
         check_g0_quirk)


# ---------------------------------------------------------------------------
# bijections
# ---------------------------------------------------------------------------

def _suite_bijections(report: Report, n_max: int):
    pat231 = perm_core.VincularPattern3.from_string("23-1")
    records: dict[int, list] = {}

    def sources(n: int) -> list:
        """(marked partition, its 23-1 avoider, the avoider's flattened
        word, whether that word contains 23-1) for every marked partition
        of {2,...,n}, built once per suite call and shared by both checks.
        Each check asks for its own n, so a check that fails part way
        leaves the other one to build what is missing."""
        if n not in records:
            rows = []
            for mp in bijections.enumerate_marked_partitions(n):
                cf = bijections.partition_to_23_1_avoider(mp)
                word = perm_core.flatten_cycle_form(cf).word
                rows.append((mp, cf, word, bijections._contains_23_1(word)))
            records[n] = rows
        return records[n]

    def check_partition_bijection():
        for n in range(1, n_max + 1):
            images = set()
            rows = sources(n)
            for mp, cf, word, contains in rows:
                if contains:
                    raise AssertionError(f"n={n}: image contains 23-1: {mp}")
                if sum(map(operator.lt, word, word[1:])) != len(mp.blocks):
                    raise AssertionError(
                        f"n={n}: ascent count != block count for {mp}")
                # the image avoids 23-1, so the inverse's domain check
                # holds; compare its fields with mp's instead of building
                if (bijections._runs_partition(cf, word)
                        != (mp.blocks, mp.marks)):
                    raise AssertionError(
                        f"n={n}: round trip failed for {mp}")
                # standard cycle form is canonical: distinct cycles are
                # distinct permutations
                images.add(cf.cycles)
            _require(len(rows) == len(images)
                     == closed_forms.avoiders("23-1", n), lambda:
                     f"n={n}: image size {len(images)} != avoider count")
        return f"round trip, ascent counts and cardinalities for n=1..{n_max}"
    _run(report, "bijections", "marked partitions <-> 23-1 avoiders",
         check_partition_bijection)

    def check_reversal_bijection():
        for n in range(1, n_max + 1):
            targets: dict = {}   # image cycles -> first source mapped there
            for _, cf, word, contains in sources(n):
                if contains:   # map_23_1_to_32_1's own domain check
                    raise bijections._domain_error(pat231)
                # the image is the reversed word cut at cf's cycle lengths
                # (map_23_1_to_32_1), built through the checking constructor
                out_word = tuple(bijections._chain_reversal(word))
                out = perm_core.CycleForm(bijections._cut(out_word, cf))
                if bijections._contains_32_1(out_word):
                    raise AssertionError(f"n={n}: image contains 32-1: {cf}")
                for before, after in zip(cf.cycles, out.cycles):
                    if sorted(before) != sorted(after):
                        raise AssertionError(
                            f"n={n}: letters changed cycle in {cf}")
                # out avoids 32-1, the inverse's domain; its cycles cut
                # the reversed out_word at the lengths of cf's cycles, so
                # they equal cf's exactly when that word equals cf's
                if tuple(bijections._chain_reversal(out_word)) != word:
                    raise AssertionError(f"n={n}: round trip failed for {cf}")
                earlier = targets.setdefault(out.cycles, cf)
                if earlier is not cf:
                    raise AssertionError(
                        f"n={n}: not a bijection onto the 32-1 avoiders: "
                        f"{cf} maps to {out}, as the earlier source "
                        f"{earlier} does")
            _require(len(targets) == closed_forms.avoiders("32-1", n),
                     lambda: f"n={n}: not a bijection onto the 32-1 avoiders")
        return f"round trip and cycle preservation for n=1..{n_max}"
    _run(report, "bijections", "23-1 avoiders <-> 32-1 avoiders",
         check_reversal_bijection)

    def check_equivalence():
        bound = min(n_max + 1, 8)
        for n in range(1, bound + 1):
            _require(bijections.check_31_2_equivalence(n), lambda: f"n={n}")
        return f"flattened 31-2 avoidance == classical 3-1-2 avoidance, n=1..{bound}"
    _run(report, "bijections", "31-2 avoidance equals 3-1-2 avoidance",
         check_equivalence)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _suite_identities(report: Report, n_max: int):
    totals: dict[tuple[int, str], int] = {}

    def total(text: str, n: int) -> int:
        """The oracle's total of the pattern text over S_n, computed once
        per suite call and shared by both checks.  Each check asks for its
        own totals, so a check that fails part way leaves the other one to
        compute what is missing."""
        key = (n, text)
        if key not in totals:
            totals[key] = perm_core.brute_total_occurrences(
                n, perm_core.VincularPattern3.from_string(text))
        return totals[key]

    def check_totals():
        for n in range(3, n_max + 1):
            for text in (*map(str, ALL_PATTERNS),
                         closed_forms.AUX_3_21, closed_forms.AUX_3_12):
                formula = closed_forms.total_occurrences(text, n)
                brute = total(text, n)
                _require(formula == brute, lambda:
                         f"{text}, n={n}: {formula} != brute {brute}")
        if n_max < 3:
            return _no_n_compared(3, n_max)
        return f"formula totals == brute totals, n=3..{n_max}"
    _run(report, "identities", "occurrence totals vs brute force", check_totals)

    def check_total_identities():
        # on the oracle's totals: closed_forms defines the 21-3 and 12-3
        # totals by these identities, and 32-1 and 23-1 by one formula
        for n in range(3, n_max + 1):
            _require(total("32-1", n) == total("23-1", n),
                     lambda: f"tot(32-1) != tot(23-1) at n={n}")
            fact = math.factorial(n - 1)
            lhs = total("21-3", n) + total(closed_forms.AUX_3_21, n)
            _require(lhs == fact * sum((n - i) * (i - 2) for i in range(3, n)),
                     lambda: f"21-3 pair identity at n={n}")
            lhs = total("12-3", n) + total(closed_forms.AUX_3_12, n)
            _require(lhs == fact * sum((n - i) * i for i in range(2, n)),
                     lambda: f"12-3 pair identity at n={n}")
        if n_max < 3:
            return _no_n_compared(3, n_max)
        return f"pairing identities hold, n=3..{n_max}"
    _run(report, "identities", "occurrence-total pairing identities",
         check_total_identities)

    def check_symmetric_function_closed_forms():
        for k in range(3, 11):
            qints = [q_int(i) for i in range(1, k - 2)]
            for j in range(1, k - 2):
                _require(e_on_qints_closed_form(j, k)
                         == elementary_e(j, qints),
                         lambda: f"e closed form at j={j}, k={k}")
        for k in range(1, 11):
            for j in range(0, k):
                for n in range(0, 6):
                    window = [q_int(n + i) for i in range(0, k - j)]
                    _require(h_on_qint_window_closed_form(j, k, n)
                             == complete_h(j - 1, window),
                             lambda: f"h closed form at j={j}, k={k}, n={n}")
        return "alternating closed forms == direct evaluation on the sweeps"
    _run(report, "identities", "symmetric-function closed forms",
         check_symmetric_function_closed_forms)

    def check_b2_closed_forms():
        for n in range(3, max(n_max, 20) + 1):
            _require(recurrences.b2_rational_identity_23_1(n),
                     lambda: f"23-1 at n={n}")
            _require(recurrences.b2_rational_identity_21_3(n),
                     lambda: f"21-3 at n={n}")
        return "rational closed forms match after clearing denominators"
    _run(report, "identities", "j=2 coefficient closed forms (multiplied through)",
         check_b2_closed_forms)

    def check_31_2_coefficient_routes():
        k_max = max(n_max, 16)
        table = recurrences.a_coeff_table_31_2(k_max)
        for n in range(4, k_max + 1):
            for j in range(2, n // 2 + 1):
                explicit = recurrences.b_coeff_31_2(n, j)
                summed = QPoly()
                for k in range(3, n + 1):
                    summed = summed + table.get((k, j), QPoly())
                _require(summed == explicit, lambda: f"n={n}, j={j}")
        return f"per-prefix coefficient sums match the explicit formula to n={k_max}"
    _run(report, "identities", "31-2 coefficient routes agree",
         check_31_2_coefficient_routes)

    def check_32_1_routes():
        # the coefficient-table builder raises on disagreement; building
        # it is the check (distribution_table runs the refined route)
        recurrences.coefficient_table(PatternId.P32_1, max(n_max, 20))
        return "triple-sum and symmetric-function coefficients agree"
    _run(report, "identities", "32-1 coefficient routes agree", check_32_1_routes)

    def check_cross_pattern():
        bound = CROSS_PATTERN_N_MAX
        g23 = recurrences.distribution_table(PatternId.P23_1, bound)
        g32 = recurrences.distribution_table(PatternId.P32_1, bound)
        g21 = recurrences.distribution_table(PatternId.P21_3, bound)
        g31 = recurrences.distribution_table(PatternId.P31_2, bound)
        for n in range(1, bound + 1):
            _require(g23.g(n).constant_term() == g32.g(n).constant_term(),
                     lambda: f"avoider counts differ at n={n}")
            _require(_derivative_at_one(g21.g(n))
                     == _derivative_at_one(g31.g(n)),
                     lambda: f"totals differ at n={n}")
        return f"23-1/32-1 avoiders and 21-3/31-2 totals agree to n={bound}"
    _run(report, "identities", "cross-pattern equalities", check_cross_pattern)

    def check_12_3_coefficient_form():
        comparisons = recurrences.qbinom_form_consistency_12_3(max(n_max, 10))
        j2_only = [c.j2_only_matches for c in comparisons]
        extended = [c.with_j1_term_matches for c in comparisons]
        _require(not any(j2_only),
                 "the j>=2-only form unexpectedly reproduces the table")
        _require(all(extended),
                 "restoring the j=1 term should reproduce the table")
        return ("documented discrepancy: the closed-form recurrence as "
                "written (sum from j=2, no g_(n-1) term) does NOT reproduce "
                "the distribution for any n>=3, while the same closed form "
                "evaluated at j=1 supplies exactly the missing "
                "(2q^(n-2) + [n-2]) g_(n-1) term and then matches everywhere")
    _run(report, "identities",
         "12-3 recurrence j-range (documented discrepancy)", check_12_3_coefficient_form)


_SUITE_RUNNERS = {
    "oracle": _suite_oracle,
    "refined": _suite_refined,
    "closed-forms": _suite_closed_forms,
    "series": _suite_series,
    "bijections": _suite_bijections,
    "identities": _suite_identities,
}


def run_suite(suite: str, n_max: int | None = None) -> Report:
    """Run one named suite, or every suite with "all", at ``n_max`` or, when
    it is None, at each suite's default bound.  An ``n_max`` past the
    suite's ``MAX_N_MAX`` (the smallest, for "all") raises ValueError
    before any check runs."""
    if suite != "all" and suite not in _SUITE_RUNNERS:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    names = SUITES if suite == "all" else (suite,)
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    if n_max is not None and n_max > (top := min(map(MAX_N_MAX.get, names))):
        raise ValueError(
            f"n_max={n_max} exceeds the limit {top} of suite {suite!r}")
    report = Report()
    for name in names:
        _SUITE_RUNNERS[name](
            report, DEFAULT_N_MAX[name] if n_max is None else n_max)
    return report
