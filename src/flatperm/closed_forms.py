"""Closed-form counts for flattened-permutation pattern statistics.

Covers the number of avoiders, the average number of occurrences, and the
total number of occurrences for the adjacent-pair patterns (the 13-2 column
is included for the avoider/average table), plus the supporting special
numbers: Stirling set-partition numbers, Bell and complementary Bell
numbers, and exact harmonic numbers.

Averages and harmonic numbers are exact rationals throughout; a decimal is
only ever produced for display.  All averages share the limiting behaviour
avr(n)/n^2 -> 1/12.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .recurrences import ALL_PATTERNS, PatternId

#: Sixth column of the avoiders/averages table (no distribution recurrence).
PATTERN_13_2 = "13-2"

#: Auxiliary single-then-pair patterns appearing in the occurrence-total
#: identities; counted in the flattened sense like everything else.
AUX_3_21 = "3-21"
AUX_3_12 = "3-12"

TABLE_PATTERNS = tuple(p.value for p in ALL_PATTERNS) + (PATTERN_13_2,)


class SpecialNumberCache:
    """Grow-on-demand Stirling triangle, Bell sequences, and harmonic numbers.

    The complementary Bell sequence is additionally defined at index -1 with
    value -1, which the 12-3 avoider formula depends on.
    """

    def __init__(self):
        self._stirling: list[list[int]] = [[1]]
        # (Bell, complementary Bell) number pairs by row, from index 0, so
        # that one append commits both
        self._bells: list[tuple[int, int]] = [(1, 1)]
        self._harmonic: list[Fraction] = [Fraction(0)]

    def _grow(self, n: int):
        while len(self._stirling) <= n:
            m = len(self._stirling)
            prev = self._stirling[m - 1]
            row = [0] * (m + 1)
            for k in range(1, m + 1):
                row[k] = prev[k - 1] + (k * prev[k] if k < m else 0)
            self._stirling.append(row)

    def stirling2(self, n: int, k: int) -> int:
        """Partitions of an n-set into exactly k blocks."""
        if n < 0 or k < 0 or k > n:
            return 0
        return self._stirling_row(n)[k]

    def _stirling_row(self, n: int) -> list[int]:
        """Row n of the triangle, S(n, 0..n); the caller must not mutate it."""
        self._grow(n)
        return self._stirling[n]

    def _grow_bell(self, n: int):
        self._grow(n)
        while len(self._bells) <= n:
            row = self._stirling[len(self._bells)]
            self._bells.append((sum(row), sum(row[0::2]) - sum(row[1::2])))

    def bell(self, n: int) -> int:
        if n < 0:
            raise ValueError("Bell numbers start at index 0")
        self._grow_bell(n)
        return self._bells[n][0]

    def complementary_bell(self, n: int) -> int:
        """Alternating-sign row sums of the Stirling triangle; index -1 is -1."""
        if n == -1:
            return -1
        if n < -1:
            raise ValueError("complementary Bell numbers start at index -1")
        self._grow_bell(n)
        return self._bells[n][1]

    def harmonic(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("harmonic numbers start at index 0")
        while len(self._harmonic) <= n:
            m = len(self._harmonic)
            self._harmonic.append(self._harmonic[m - 1] + Fraction(1, m))
        return self._harmonic[n]


numbers = SpecialNumberCache()


def _table_key(pattern) -> str:
    key = pattern.value if isinstance(pattern, PatternId) else str(pattern)
    if key not in TABLE_PATTERNS:
        raise ValueError(f"unknown table pattern {pattern!r}")
    return key


def avoiders(pattern, n: int) -> int:
    """Number of length-n permutations whose flattened form avoids pattern.

    Accepts the five recurrence patterns and "13-2".  Every flattened form
    of length at most 2 avoids everything, so n = 1 and n = 2 are 1 and 2
    for all six columns; the closed forms take over afterwards.

    The 32-1 / 23-1 count also equals the infinite series
    (1/e^2) sum_k 2^k k^(n-1) / k!; being transcendental in form, it is not
    evaluated here, the finite doubled-blocks Stirling sum is.
    """
    key = _table_key(pattern)
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    if key == "31-2":
        return math.comb(2 * n - 2, n - 1)
    if key == "13-2":
        return 2 ** (n - 1)
    if key in ("32-1", "23-1"):
        row = numbers._stirling_row(n - 1)
        return sum(2 ** k * row[k] for k in range(1, n))
    if key == "21-3":
        row = numbers._stirling_row(n - 1)
        return 2 * sum(k * row[k] for k in range(1, n))
    # 12-3: alternating Bell convolution, valid from n = 3
    if n == 2:
        return 2
    numbers._grow_bell(n - 1)
    bell, cbell = zip(*numbers._bells[:n])
    # the last term, i = n - 2, reads index -1 of the complementary Bell
    # sequence, which the list does not hold
    return -2 * (
        sum(math.comb(n - 2, i) * (bell[i] + bell[i + 1]) * cbell[n - i - 3]
            for i in range(n - 2))
        + (bell[n - 2] + bell[n - 1]) * numbers.complementary_bell(-1))


def average_occurrences(pattern, n: int) -> Fraction:
    """Average occurrences of pattern in a flattened length-n permutation."""
    key = _table_key(pattern)
    if n < 1:
        raise ValueError("n must be positive")
    h = numbers.harmonic(n)
    if key in ("31-2", "21-3"):
        return Fraction(n**3 - 3 * n**2 + 26 * n - 12, 12 * n) - h
    if key in ("32-1", "23-1"):
        return Fraction(n**2 - 9 * n - 4, 12) + h
    if key == "12-3":
        return Fraction(n**3 + 3 * n**2 - 40 * n + 24, 12 * n) + h
    return Fraction(n**2 + 3 * n + 8, 12) - h  # 13-2


def _i_occurrence_sum(n: int, weight) -> int:
    """(n-1)! * sum over i of weight(i)/i style totals, kept exact."""
    total = Fraction(0)
    for i in range(3, n):
        total += weight(i)
    if total.denominator != 1:
        raise ArithmeticError("occurrence total did not come out integral")
    return int(total)


def total_occurrences(pattern_or_aux, n: int) -> int:
    """Total occurrences of the pattern over all of S_n, in flattened sense.

    Beyond the five recurrence patterns this also evaluates the auxiliary
    patterns "3-21" and "3-12" (one letter, then an adjacent pair), which
    pair up with 21-3 and 12-3 in the occurrence-total identities.
    """
    key = pattern_or_aux.value if isinstance(pattern_or_aux, PatternId) \
        else str(pattern_or_aux)
    if n < 3:
        raise ValueError("occurrence totals need n >= 3")
    fact = math.factorial(n - 1)
    if key in ("32-1", "23-1"):
        return _i_occurrence_sum(
            n, lambda i: Fraction((n - i) * math.comb(i - 1, 2) * fact, i))
    if key == "31-2":
        return _i_occurrence_sum(
            n, lambda i: Fraction((n - i) * (math.comb(i, 2) - 1) * fact, i))
    if key == AUX_3_21:
        return _i_occurrence_sum(
            n, lambda i: Fraction((n - i) * math.comb(i - 1, 2) * fact, i))
    if key == "21-3":
        both = fact * sum((n - i) * (i - 2) for i in range(3, n))
        return both - total_occurrences(AUX_3_21, n)
    if key == AUX_3_12:
        total = sum(Fraction((n - i) * (math.comb(i, 2) - 1) * fact, i)
                    for i in range(2, n))
        if total.denominator != 1:
            raise ArithmeticError("occurrence total did not come out integral")
        return int(total)
    if key == "12-3":
        both = fact * sum((n - i) * i for i in range(2, n))
        return both - total_occurrences(AUX_3_12, n)
    raise ValueError(f"unknown pattern {pattern_or_aux!r}")


def limit_check(n_lo: int, n_hi: int) -> dict[PatternId, list[Fraction]]:
    """avr(n)/n^2 for each recurrence pattern and every n in [n_lo, n_hi]."""
    if not 3 <= n_lo < n_hi:
        raise ValueError("requires 3 <= n_lo < n_hi")
    return {
        pattern: [average_occurrences(pattern, n) / n**2
                  for n in range(n_lo, n_hi + 1)]
        for pattern in ALL_PATTERNS
    }


def limit_deviation_strictly_decreasing(n_lo: int, n_hi: int) -> bool:
    """Whether |avr(n)/n^2 - 1/12| strictly decreases on [max(n_lo, 20), n_hi]
    for every recurrence pattern."""
    lo = max(n_lo, 20)
    twelfth = Fraction(1, 12)
    for values in limit_check(lo, n_hi).values():
        devs = [abs(v - twelfth) for v in values]
        if any(b >= a for a, b in zip(devs, devs[1:])):
            return False
    return True
