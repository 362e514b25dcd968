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
from collections import namedtuple
from fractions import Fraction

from .recurrences import ALL_PATTERNS, PatternId

#: Sixth column of the avoiders/averages table (no distribution recurrence).
PATTERN_13_2 = "13-2"

#: Auxiliary single-then-pair patterns appearing in the occurrence-total
#: identities; counted in the flattened sense like everything else.
AUX_3_21 = "3-21"
AUX_3_12 = "3-12"

TABLE_PATTERNS = tuple(p.value for p in ALL_PATTERNS) + (PATTERN_13_2,)


class _RowSums(namedtuple("_RowSums",
                          "bell complementary_bell doubled weighted")):
    """The sums of one Stirling row S(m, 0..m) that the closed forms read:
    the Bell number sum_k S(m, k), the complementary Bell number
    sum_k (-1)^k S(m, k), the doubled-blocks sum sum_k 2^k S(m, k) of 32-1
    and 23-1, and the weighted sum sum_k k S(m, k), half that of 21-3."""

    __slots__ = ()

    @classmethod
    def of(cls, row: list[int]) -> _RowSums:
        return cls(sum(row), sum(row[0::2]) - sum(row[1::2]),
                   sum(s << k for k, s in enumerate(row)),
                   sum(k * s for k, s in enumerate(row)))


def _next_stirling_row(prev: list[int]) -> list[int]:
    """S(m+1, 0..m+1) from prev = S(m, 0..m), as a new list."""
    m = len(prev) - 1
    return [0] + [prev[k - 1] + k * prev[k] for k in range(1, m + 1)] \
        + [prev[m]]


class SpecialNumberCache:
    """Grow-on-demand Stirling row sums, Bell sequences and harmonic numbers.

    Only the top Stirling row is kept.  For every m up to it the cache holds
    the row's ``_RowSums``, computed once when row m is formed, so that a
    Bell number or an avoider count is one read; a Stirling number below
    the top row is formed again on demand.  Every list starts with one
    entry, that of index 0.

    The complementary Bell sequence is additionally defined at index -1 with
    value -1, which the 12-3 avoider formula depends on.
    """

    def __init__(self):
        # the top Stirling row S(m, 0..m)
        self._row: list[int] = [1]
        # _RowSums of rows 0..m: row m + 1 replaces the top row before its
        # entry is appended, and the entry is read from the committed row,
        # so a growth stopped between the two finishes it on the next call
        self._sums: list[_RowSums] = [_RowSums.of([1])]
        self._harmonic: list[Fraction] = [Fraction(0)]

    def _grow(self, n: int):
        while len(self._sums) <= n:
            row = self._row
            if len(row) == len(self._sums):
                row = self._row = _next_stirling_row(row)
            self._sums.append(_RowSums.of(row))

    def _row_sums(self, n: int) -> _RowSums:
        self._grow(n)
        return self._sums[n]

    def stirling2(self, n: int, k: int) -> int:
        """Partitions of an n-set into exactly k blocks."""
        if n < 0 or k < 0 or k > n:
            return 0
        self._grow(n)
        row = self._row
        if len(row) > n + 1:  # below the top row: form row n again
            row = [1]
            for _ in range(n):
                row = _next_stirling_row(row)
        return row[k]

    def bell(self, n: int) -> int:
        if n < 0:
            raise ValueError("Bell numbers start at index 0")
        return self._row_sums(n).bell

    def complementary_bell(self, n: int) -> int:
        """Alternating-sign row sums of the Stirling triangle; index -1 is -1."""
        if n == -1:
            return -1
        if n < -1:
            raise ValueError("complementary Bell numbers start at index -1")
        return self._row_sums(n).complementary_bell

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
    # S(n - 1, 0) = 0 from n = 2 on, so the k = 0 terms of the row sums
    # add nothing
    if key in ("32-1", "23-1"):
        return numbers._row_sums(n - 1).doubled
    if key == "21-3":
        return 2 * numbers._row_sums(n - 1).weighted
    # 12-3: alternating Bell convolution, valid from n = 3
    if n == 2:
        return 2
    numbers._grow(n - 1)
    bell, cbell, _, _ = zip(*numbers._sums[:n])
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
