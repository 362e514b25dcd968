"""Closed-form counts for flattened-permutation pattern statistics.

Covers the number of avoiders, the average number of occurrences, and the
total number of occurrences for the adjacent-pair patterns (the 13-2 column
is included for the avoider/average table), plus the supporting special
numbers: Stirling set-partition numbers, Bell and complementary Bell
numbers, and exact harmonic numbers.

Averages and harmonic numbers are exact rationals throughout; a decimal is
only ever produced for display.  All averages share the limiting behaviour
avr(n)/n^2 -> 1/12.

The avoider counts of 32-1, 23-1, 21-3 and 12-3 are read from four integer
sequences, each a binomial transform of its own earlier terms,

    x_{m+1} = c sum_{i=0}^{m} C(m, i) x_i  (+ d when m = 0),

that is, the EGF X(x) = sum_m x_m x^m / m! solves X' = c e^x X (+ d).
The Bell triangle (Aitken's array) forms these sums by additions alone.
Row m starts with x_m and goes on by row_m[j] = row_m[j-1] + row_{m-1}[j-1],
so row_m[j] = sum_i C(j, i) x_{m-j+i} by Pascal's rule, and its last entry
row_m[m] is the sum above.  Growing a sequence to index n takes n(n-1)/2
additions and keeps one row.

* Bell numbers B_m = sum_k S(m, k): x_0 = 1, c = 1, since the EGF
  exp(e^x - 1) has derivative e^x times itself.
* Complementary Bell numbers B~_m = sum_k (-1)^k S(m, k): x_0 = 1, c = -1,
  from exp(1 - e^x).
* Doubled blocks T_m(2) = sum_k 2^k S(m, k), the Touchard polynomial at 2:
  x_0 = 1, c = 2, from exp(2(e^x - 1)).  The paper's 32-1 and 23-1 count
  is sum_{k>=1} 2^k S(n-1, k), which is T_{n-1}(2), because S(n-1, 0) = 0
  for n >= 2.
* 21-3: the paper's count is 2 sum_k k S(n-1, k).  Summing S(m+1, k) =
  S(m, k-1) + k S(m, k) over k gives B_{m+1} = B_m + sum_k k S(m, k), so
  the count is 2(B_n - B_{n-1}).
* 12-3: the paper's alternating Bell convolution, with m = n - 2 >= 1, is
      -2 sum_{i=0}^{m} C(m, i) (B_i + B_{i+1}) B~_{m-1-i},   B~_{-1} = -1.
  Let C be the EGF with C' = B~(x) = exp(1 - e^x) and C(0) = B~_{-1} = -1,
  so that m! [x^m] C = B~_{m-1}, and let G = B C with B(x) = exp(e^x - 1).
  The sum over B_i is m! [x^m] G.  B' = e^x B, so the sum over B_{i+1} is
  m! [x^m] e^x G, the EGF coefficient of (1 + e^x) G in all.  As B B~ = 1,
  G' = B' C + B C' = e^x G + 1, so the coefficients g_m of G form the
  sequence x_0 = B_0 C(0) = -1, c = 1, d = 1, and the count is
  -2(g_{n-2} + g_{n-1}).  At n = 2 this also gives 2.

The paper's sums stay in the tests as the reference for every n <= 200,
and ``verify`` compares these counts with the tables and the oracle.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import add

from .recurrences import ALL_PATTERNS, PatternId

#: Sixth column of the avoiders/averages table (no distribution recurrence).
PATTERN_13_2 = "13-2"

#: Auxiliary single-then-pair patterns appearing in the occurrence-total
#: identities; counted in the flattened sense like everything else.
AUX_3_21 = "3-21"
AUX_3_12 = "3-12"

TABLE_PATTERNS = tuple(p.value for p in ALL_PATTERNS) + (PATTERN_13_2,)


def _next_stirling_row(prev: list[int]) -> list[int]:
    """S(m+1, 0..m+1) from prev = S(m, 0..m), as a new list."""
    m = len(prev) - 1
    return [0] + [prev[k - 1] + k * prev[k] for k in range(1, m + 1)] \
        + [prev[m]]


#: The sequences ``SpecialNumberCache`` grows, by the name of the list that
#: holds x_0..x_M: (x_0, c, d) of the step x_{m+1} = c row_m[-1] (+ d when
#: m = 0), so that x_{m+1} = c sum_i C(m, i) x_i (+ d); see the module
#: docstring
_SEQUENCES = {
    "_bell": (1, 1, 0),                  # B_m
    "_complementary_bell": (1, -1, 0),   # sum_k (-1)^k S(m, k)
    "_doubled": (1, 2, 0),               # T_m(2) = sum_k 2^k S(m, k)
    "_g12_3": (-1, 1, 1),                # g_m of the 12-3 count
}


#: Largest n that ``SpecialNumberCache.harmonic`` always reaches by growing
#: its memo, above the CLI's recurrence cap of 200.
_HARMONIC_STEP_MAX = 256


class SpecialNumberCache:
    """Grow-on-demand Bell-type sequences and harmonic numbers.

    Each sequence of ``_SEQUENCES`` is a list x_0..x_M, read by index, and
    the last row of its triangle, a tuple kept by the sequence's name: row
    M - 1, which x_M was formed from, or row -1, empty, at the start.
    A growth commits row M there before it appends x_{M+1}, so a growth
    stopped between the two finds the row one step ahead and appends from
    it.  Every list starts with one entry, that of index 0.  A Stirling
    number is formed on demand, row by row, and not kept.

    The complementary Bell sequence is additionally defined at index -1
    with value -1.  The paper's 12-3 convolution reads it there; here it
    is g_0, the 12-3 sequence's first entry.
    """

    def __init__(self):
        for name, (x_0, _, _) in _SEQUENCES.items():
            setattr(self, name, [x_0])
        self._rows: dict[str, tuple[int, ...]] = dict.fromkeys(_SEQUENCES, ())
        self._harmonic: list[Fraction] = [Fraction(0)]
        # (n, H_n) for the first request far past the memo's top, or None
        self._far_harmonic: tuple[int, Fraction] | None = None

    def _grown(self, name: str, n: int) -> list[int]:
        """The list of sequence ``name``, grown to hold x_n."""
        xs = getattr(self, name)
        if n < len(xs):
            return xs
        _, c, d = _SEQUENCES[name]
        rows = self._rows
        row = rows[name]
        while len(xs) <= n:
            if len(row) < len(xs):
                row = rows[name] = tuple(accumulate(row, add,
                                                    initial=xs[-1]))
            xs.append(c * row[-1] + (d if len(xs) == 1 else 0))
        return xs

    def stirling2(self, n: int, k: int) -> int:
        """Partitions of an n-set into exactly k blocks."""
        if n < 0 or k < 0 or k > n:
            return 0
        row = [1]
        for _ in range(n):
            row = _next_stirling_row(row)
        return row[k]

    def bell(self, n: int) -> int:
        if n < 0:
            raise ValueError("Bell numbers start at index 0")
        return self._grown("_bell", n)[n]

    def complementary_bell(self, n: int) -> int:
        """Alternating-sign row sums of the Stirling triangle; index -1 is -1."""
        if n == -1:
            return -1
        if n < -1:
            raise ValueError("complementary Bell numbers start at index -1")
        return self._grown("_complementary_bell", n)[n]

    def harmonic(self, n: int) -> Fraction:
        """H_n = 1 + 1/2 + ... + 1/n, exact.

        A request past the memo's top grows the memo to n, one reduced
        addition per index, with one exception: the first request above
        both ``_HARMONIC_STEP_MAX`` and twice the memo's length is formed
        in one reduction, sum_i (L / i) / L with L = lcm(1..n), and kept
        as the one far value, which later requests for that n read.  For
        H_1000 with the memo at 200 the reduction takes 0.85-1.2 ms of CPU
        where the 800 additions took 2.5-4.0 ms (shared 2-vCPU Intel Xeon
        VM, CPython 3.11.7).  Reading n = 1, 2, 3, ... in turn, or any n
        the CLI accepts, only grows the memo, and a caller that reads on
        from a far value pays for the growth once, not for a reduction per
        read.
        """
        if n < 0:
            raise ValueError("harmonic numbers start at index 0")
        memo = self._harmonic
        if n < len(memo):
            return memo[n]
        if n > max(_HARMONIC_STEP_MAX, 2 * len(memo)):
            far = self._far_harmonic
            if far is None:
                lcm = math.lcm(*range(1, n + 1))
                far = self._far_harmonic = (n, Fraction(
                    sum(map(lcm.__floordiv__, range(1, n + 1))), lcm))
            if far[0] == n:
                return far[1]
        while len(memo) <= n:
            m = len(memo)
            memo.append(memo[m - 1] + Fraction(1, m))
        return memo[n]


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
    for all six columns: n = 1 is returned as such, and every closed form
    gives 2 at n = 2.  The four Bell-type counts are one or two reads of a
    sequence that the memo grows (see the module docstring).

    The 32-1 / 23-1 count also equals the infinite series
    (1/e^2) sum_k 2^k k^(n-1) / k!; being transcendental in form, it is not
    evaluated here, the doubled-blocks number T_{n-1}(2) is.
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
        return numbers._grown("_doubled", n - 1)[n - 1]
    if key == "21-3":
        bell = numbers._grown("_bell", n)
        return 2 * (bell[n] - bell[n - 1])
    g = numbers._grown("_g12_3", n - 1)
    return -2 * (g[n - 2] + g[n - 1])


def _average_parts(key: str, n: int) -> tuple[int, int, int]:
    """(a, d, s) with avr(n) = a/d + s H_n and s = 1 or -1."""
    if key in ("31-2", "21-3"):
        return n**3 - 3 * n**2 + 26 * n - 12, 12 * n, -1
    if key in ("32-1", "23-1"):
        return n**2 - 9 * n - 4, 12, 1
    if key == "12-3":
        return n**3 + 3 * n**2 - 40 * n + 24, 12 * n, 1
    return n**2 + 3 * n + 8, 12, -1  # 13-2


def average_occurrences(pattern, n: int) -> Fraction:
    """Average occurrences of pattern in a flattened length-n permutation."""
    key = _table_key(pattern)
    if n < 1:
        raise ValueError("n must be positive")
    a, d, s = _average_parts(key, n)
    h = numbers.harmonic(n)
    return Fraction(a, d) + h if s > 0 else Fraction(a, d) - h


def _occurrence_sum(n: int, count) -> int:
    """sum_{i=3}^{n-1} (n-i) count(i) (n-1)! / i, an occurrence total.
    Every term is an integer, because each i in 3..n-1 divides (n-1)!, so
    the sum is formed over the integers, term by term with (n-1)! // i."""
    fact = math.factorial(n - 1)
    return sum((n - i) * count(i) * (fact // i) for i in range(3, n))


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
    if key in ("32-1", "23-1", AUX_3_21):
        return _occurrence_sum(n, lambda i: math.comb(i - 1, 2))
    # 3-12's sum also has an i = 2 term, (n - 2)(C(2, 2) - 1) = 0
    if key in ("31-2", AUX_3_12):
        return _occurrence_sum(n, lambda i: math.comb(i, 2) - 1)
    if key == "21-3":
        both = fact * sum((n - i) * (i - 2) for i in range(3, n))
        return both - total_occurrences(AUX_3_21, n)
    if key == "12-3":
        both = fact * sum((n - i) * i for i in range(2, n))
        return both - total_occurrences(AUX_3_12, n)
    raise ValueError(f"unknown pattern {pattern_or_aux!r}")


def limit_check(n_lo: int, n_hi: int) -> dict[PatternId, list[Fraction]]:
    """avr(n)/n^2 for each recurrence pattern and every n in [n_lo, n_hi].

    Public API (exported by the package); the package itself checks the
    approach to 1/12 with ``limit_deviation_strictly_decreasing``, which
    forms no ``Fraction`` per n."""
    if not 3 <= n_lo < n_hi:
        raise ValueError("requires 3 <= n_lo < n_hi")
    return {
        pattern: [average_occurrences(pattern, n) / n**2
                  for n in range(n_lo, n_hi + 1)]
        for pattern in ALL_PATTERNS
    }


def limit_deviation_strictly_decreasing(n_lo: int, n_hi: int) -> bool:
    """Whether |avr(n)/n^2 - 1/12| strictly decreases on [max(n_lo, 20), n_hi]
    for every recurrence pattern.

    Over the integers: with H_n = u/v, avr(n) = a/d + s u/v = A/B for
    A = a v + s d u and B = d v, not reduced.  The deviation is
    |12A - n^2 B| / (12 n^2 B), and consecutive deviations are compared by
    cross-multiplying, the common factor 12 dropped.  No ``Fraction`` is
    formed past the harmonic numbers.
    """
    lo = max(n_lo, 20)
    if lo >= n_hi:
        raise ValueError("requires 3 <= n_lo < n_hi")
    harmonic = [numbers.harmonic(n) for n in range(lo, n_hi + 1)]
    for pattern in ALL_PATTERNS:
        key = pattern.value
        last_num, last_den = 1, 0   # 1/0, above every deviation
        for n, h in enumerate(harmonic, lo):
            a, d, s = _average_parts(key, n)
            u, v = h.numerator, h.denominator
            den = n * n * d * v
            num = abs(12 * (a * v + s * d * u) - den)
            if num * last_den >= last_num * den:
                return False
            last_num, last_den = num, den
    return True
