"""Distribution polynomials g_n and their prefix refinement g_n(1k) for the
five adjacent-pair patterns, computed by exact recurrences.

Production route.  ``distribution_table`` and ``refined_g1k`` run the same
recurrence: the rows g_n(1k), 2 <= k <= n, of the prefix refinement (the
distribution restricted to permutations whose flattened form starts 1,k),
grown level by level, with g_n = sum_k g_n(1k).  A row is built from the
row before it alone, by shifts, adds and subtracts: it is one layer of the
right-to-left map of ``perm_core``'s order-type lemma (stated and argued in
that module's docstring), which its rank pass ``perm_core._rank_layers``
steps pair by pair.  Strip the leading 1 from the flattened forms that
start 1,k: what is left is letter k in front of the words on the other
n - 2 letters of 2..n, and entry j of the row before holds the weighted
distribution of the words whose front has rank j - 1 among those letters.
Entry j is added in, shifted only when k and that front are in the order
of x, y, by q^e with e the number of the other letters that can play z:

    z lies        x < y: each j >= k       x > y: each j < k
    below both    e = k - 2       23-1     e = j - 2       32-1
    above both    e = n - 1 - j   12-3     e = n - k       21-3
    between       e = j - k       13-2     e = k - j - 1   31-2

At k = 2 every cell sums to g_{n-1} and the sum doubles, since 2 is a new
right-to-left minimum: entry 2 is 2 g_{n-1} for every pattern, so no
entry needs g_{n-2}.  When x = 1, putting 1 back in front adds the
occurrences 1, k, z: 12-3 carries its rows before that shift, q-lowered
as low_n(k) = g_n(1k) / q^(n-k), which keeps every shift nonnegative, and
g_n = sum_k q^(n-k) low_n(k).  Each generator (``_entries_p31_2`` and so
on) writes its cell in its cheapest running form: an exponent set by k
alone as one prefix sum (23-1, 21-3), one set by j alone as a telescoped
update, entry k being entry k - 1 plus (q^e - 1) or (1 - q^e) times entry
k - 1 of the row before (32-1, 12-3), and one set by k - j as a Horner
accumulation (31-2).  The 13-2 cell is not served: no recurrence here
computes its g_n, and ``table``'s 13-2 column comes from ``closed_forms``
alone.  The paper's own refined recurrences (31-2's second-order one,
12-3's prefix and suffix sums) are other forms of the same cells, which
the tests check on the rows.  Every difference recurrence that divides
(12-3 by q, 23-1 by [k-3], 21-3 by [n-k+1]) is asserted on every row in
cleared-denominator form, and a failure raises IdentityViolation; where
one reads 2 g_{n-2}, it reads entry 2 of the row before.

Production and the oracle's rank pass share the lemma, so the checks on
production that do not rest on it are the word walk (``perm_core._bucket``
over the flattened words; the tests compare it with every row to n = 8),
``coefficient_table`` (below) and the closed forms that ``distribution``
checks on every call.

Packing.  Every polynomial of that recurrence is carried as one Python int,
its value at q = 2^s.  Evaluation at an integer is a ring homomorphism
Z[q] -> Z, so each row step and each assertion is integer ``+``, ``-`` and
``<<`` (q^t p is p << s*t), and a polynomial is cut out of its s-bit slots
only on the way out: per read in ``refined_g1k`` and
``distribution_polynomial``, once per g_n for the table.  A builder of
capacity N serves n <= N with s the least multiple of 8 such that
8 N! < 2^(s-2).  That bound is enough:

* every packed value (g_n, g_n(1k), low_n(k) for n <= N) counts permutations
  of S_n by occurrences, so its coefficients lie in [0, N!], below 2^s, and
  its slots are its coefficients;
* each side of an asserted identity is a sum of terms c q^e X with X one of
  those values and sum |c| <= 8.  The [m] denominators are cleared by
  multiplying both sides by q - 1 ((q - 1) [m] = q^m - 1; in the third term
  the (1 - q) or (q - 1) factor absorbs the second [m]), and 12-3's checks
  are divided by the power of q its lowered rows drop.  23-1 and 21-3 are
  then regrouped, as Q (X + (q - 1)(A - B)) = X with Q a power of q,
  X = g_n(1k) - g_n(1,k-1) +- (q^m - 1) g_{n-1}(1,k-1) and A, B two of
  g_{n-1}, g_n(1k), g_n(1,k-1) (see ``_check_p23_1`` and ``_check_p21_3``);
  expanded, the left side has 8 unit terms and the right side 4, and the
  regrouping leaves both sides' polynomials unchanged.  So every coefficient
  of either side lies below 8 N! < 2^(s-2) in absolute value, and those of
  their difference D below 2^(s-1).  If D(2^s) = 0 and d is D's lowest
  nonzero coefficient, at q^j, then D(2^s) / 2^(s j) = d + 2^s (...) = 0
  makes 2^s divide d, which is impossible.  So equality at q = 2^s is
  equality of polynomials.

Retention.  The memo is two dicts.  ``_TABLES`` holds each pattern's
table, g_1 .. g_M unpacked, M the highest n that ``distribution_table`` was
asked for; only that function grows it.  ``_BUILDERS`` holds at most one
builder (``_Level``), that of the pattern stepped last: its capacity and
slot width, its level n with the last packed row, and packed g_n.  Before
a build steps one pattern, every other builder is dropped.
``refined_g1k(P, n, k)`` and ``distribution_polynomial(P, n)`` (g_n alone,
which the CLI prints) step without unpacking and read the table only when
it already holds n.  ``distribution_table(P, n)`` reads the table when
n <= M; otherwise it grows the builder and unpacks every level past M.
Two rules, on the builder and the read alone, decide where a build starts:

* A table read steps from M, since a builder above M has left no g to
  unpack for the levels between; a row or g_n read steps from n.  A
  pattern with no builder, or with one above that level, starts over from
  level 1 at capacity max(n, 40): the width a fresh process builds at, so
  the rows of n <= 40 keep the narrow slots of capacity 40, and every size
  that ``verify`` asks for at its default bounds fits a first builder.
* A builder at level L asked past its capacity starts over at capacity
  max(n, 2L) instead of repacking.  Reads that ascend step by step reach
  the capacity first, so it doubles, which amortizes the levels built
  again; a jump from a low level builds at n's own width.

No capacity depends on the table, and no start-over touches one.

That is the trade for keeping one row: at n = 50 the five builders' packed
rows and g values would hold 6.8 MB, against 3.8 MB for the five tables
they serve, but a refined read below the level costs one build to that n
(reading the 23-1 rows with k = 2 from n = 40 down to 2 took 0.21-0.24 s of
CPU, against 0.03 s when every row was kept), and so does the first refined
read of a pattern after a step of another: reads that alternate between
patterns at the same n build levels 2 .. n again on every switch.  Every
caller in this package reads one pattern at a time, n ascending, so each of
them builds a level at most once per start-over, and re-built levels pass
every row step and assertion again.  A refined or g_n read leaves no
table either: ``distribution_table(P, n)`` right after
``distribution_polynomial(P, n)`` builds every level again (see there).

A step (``_step``) is the memo work around one row pass (``_row_pass``).
It pops its pattern's builder, so it owns the last row, and the pass
releases that row entry by entry, once past each entry's last use; a step
holds about one row, not two.  The pass alone knows the row rules, the
same for every pattern: entry 2 is 2 g_{n-1} (g_n(12), lowered for 12-3),
the pattern's generator streams entries k = 3..n in ascending order, and
the difference recurrence at k is asserted on the entry just made, the
first that fails raising, so the error names the least failing k.  The
pass reads its values only through ``+``, ``-``, ``<<``, int scaling and
``==``, so it runs unchanged over other rings: the tests run it at q = 0
and on p mod (q - 1)^3 for every row to n = 200, against the closed
forms.  The step appends g_n to the table (for ``distribution_table``)
only after every assertion has passed, and then commits the new builder
by one assignment.  So a build that stops with any exception, an
interrupt included, leaves every table whole, and the pattern's builder
at the last committed level or gone: a stop mid-step restarts the
pattern from level 1 on the next call.  The returned tables and
polynomials are immutable values, but the memo is module-level, one per
process, with no lock: the library is single-threaded, so call it from one
thread at a time.  Separate processes share nothing and may run freely in
parallel.

Independent check.  The paper's coefficient-table recurrences

    g_n = sum_{j>=1} c_{n,j} * g_{n-j},

with each c_{n,j} an exact polynomial obtained by literal summation
(products of q-integer runs carried with their (1-q)- or (q-1)-power
prefactors already multiplied in), are kept as one coefficient stream per
pattern (``_coefficients_p31_2`` and so on): a generator whose state is a
few local ``QPoly`` values, and which yields, for n = 3, 4, ... in turn,
the list [c_{n,1}, c_{n,2}, ...] by ring operations alone.  The streams
never see g.  ``coefficient_table`` alone reads them: from g_1 = 1 and
g_2 = 2 it forms each g_n, its whole sum of products, by one
``qpoly._dot``, packed at a width that sum's own bound picks, and reads
only the n_max - 2 rows it needs, so a table to n never computes the
coefficients of n + 1.  It builds from scratch on every call, and the
tests compare it with ``distribution_table`` for n <= 40.  The 32-1
stream also evaluates its two coefficient routes (the alternating
q-binomial triple sum and the elementary-symmetric-function form) on
every entry and raises IdentityViolation where they disagree, and every
31-2 coefficient (``b_coeff_31_2``) is checked to be an integer;
``verify`` runs the 32-1 build to n = max(n_max, 20).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from itertools import count, islice

from . import perm_core
from ._value import FrozenValue, _check_int
from .qpoly import IdentityViolation, QPoly, _alternating_sum, \
    _derivative_at_one, _div_one_minus_q, _dot, _unpack, elementary_e, \
    q_binomial, q_int

_ONE = QPoly.one()
_ZERO = QPoly.zero()
_Q_MINUS_ONE = QPoly((-1, 1))


class PatternId(Enum):
    """The five adjacent-pair patterns with recurrence-computed tables."""

    P12_3 = "12-3"
    P21_3 = "21-3"
    P23_1 = "23-1"
    P32_1 = "32-1"
    P31_2 = "31-2"

    def __str__(self):
        return self.value

    @classmethod
    def from_string(cls, text: str) -> "PatternId":
        for member in cls:
            if member.value == text.strip():
                return member
        raise ValueError(f"unknown pattern {text!r}; expected one of "
                         + ", ".join(m.value for m in cls))

    def vincular(self) -> perm_core.VincularPattern3:
        return perm_core.VincularPattern3.from_string(self.value)


ALL_PATTERNS = tuple(PatternId)


def _check_pattern(pattern) -> None:
    """Refuse anything but a ``PatternId``, before any memo changes."""
    if not isinstance(pattern, PatternId):
        raise ValueError(f"unknown pattern {pattern!r}; expected a PatternId, "
                         "one of " + ", ".join(map(str, ALL_PATTERNS)))


class DistributionTable(FrozenValue):
    """Distribution polynomials g_1 .. g_n for one pattern.

    ``polys[i]`` holds g_{i+1}; ``g(n)`` is the 1-based accessor.  Each
    g_n sums to n! at q=1 (it distributes all of S_n by occurrence count).
    """

    __slots__ = ("pattern", "polys")

    def __init__(self, pattern: PatternId, polys: tuple[QPoly, ...]):
        polys = tuple(polys)
        if not polys or polys[0] != _ONE:
            raise ValueError("table must start with g_1 = 1")
        if len(polys) >= 2 and polys[1] != QPoly((2,)):
            raise ValueError("g_2 must equal 2")
        fact = 1
        for n, poly in enumerate(polys, start=1):
            fact *= n
            if sum(poly.coeffs) != fact:
                raise ValueError(f"g_{n}(1) != {n}! for pattern {pattern}")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "polys", polys)

    @property
    def max_n(self) -> int:
        return len(self.polys)

    def g(self, n: int) -> QPoly:
        if not 1 <= n <= len(self.polys):
            raise IndexError(f"n={n} outside table range 1..{len(self.polys)}")
        return self.polys[n - 1]

    def avoider_count(self, n: int) -> int:
        """Permutations of [n] whose flattened form avoids the pattern, the
        constant term of g_n.  Public API; the package itself reads the
        constant term directly."""
        return self.g(n).constant_term()

    def total_occurrences(self, n: int) -> int:
        """Sum of occurrence counts over all of S_n (the derivative at q=1)."""
        return _derivative_at_one(self.g(n))


# ---------------------------------------------------------------------------
# The independent check: the paper's coefficient-table recurrences
# ---------------------------------------------------------------------------

_TWO = QPoly((2,))


def _qint_times(p: QPoly, m: int) -> QPoly:
    """[m] * p in O(deg) as (p - q^m p) / (1 - q), divided by one
    running-sum pass of ``_div_one_minus_q``."""
    if m == 0 or p.is_zero():
        return _ZERO
    return _div_one_minus_q(p - p.shifted(m), 1)


def _binom(m: int, r: int) -> int:
    """Binomial coefficient extended to negative upper index; 0 for r < 0."""
    if r < 0:
        return 0
    if m >= 0:
        return math.comb(m, r) if r <= m else 0
    out = 1
    for i in range(r):
        out = out * (m - i) // (i + 1)
    return out


def b_coeff_31_2(n: int, j: int) -> QPoly:
    """b_{n,j} of the 31-2 recurrence, by its explicit single sum over
    q-powers; a coefficient that is not an integer raises
    IdentityViolation."""
    coeffs = []
    for k in range(n - j):
        t = (n - k) * _binom(n - j - 1 - k, j - 1) * _binom(j - 2 + k, j - 2)
        if t % j:
            raise IdentityViolation(
                f"31-2 coefficient not an integer at n={n}, j={j}, k={k}")
        coeffs.append(t // j)
    return QPoly(coeffs)


def a_coeff_table_31_2(k_max: int) -> dict[tuple[int, int], QPoly]:
    """The per-prefix coefficients a_{k,j} of the 31-2 refinement, from their
    second-order recurrence; summing a_{k,j} over k reproduces b_{n,j}."""
    table: dict[tuple[int, int], QPoly] = {}
    for j in range(0, k_max + 1):
        table[(3, j)] = _ONE if j == 1 else _ZERO
        table[(4, j)] = _ONE if j == 1 else (_TWO if j == 2 else _ZERO)
    q = QPoly.q()
    for k in range(5, k_max + 1):
        for j in range(0, k_max + 1):
            table[(k, j)] = ((q + 1) * table[(k - 1, j)] - q * table[(k - 2, j)]
                             + table.get((k - 2, j - 1), _ZERO))
    return table


# Each _coefficients_* generator yields, for n = 3, 4, ... in turn, the
# coefficients [c_{n,1}, c_{n,2}, ...] of its pattern's recurrence
# g_n = sum_j c_{n,j} g_{n-j}, from ring operations on QPoly alone;
# coefficient_table forms every sum.

def _coefficients_p31_2() -> Iterator[list[QPoly]]:
    """c_{n,1} = n and c_{n,j} = (q-1)^{j-1} b_{n,j} for 2 <= j <= n/2."""
    for n in count(3):
        yield [QPoly((n,))] + [_Q_MINUS_ONE ** (j - 1) * b_coeff_31_2(n, j)
                               for j in range(2, n // 2 + 1)]


def _coefficients_p32_1() -> Iterator[list[QPoly]]:
    """c_{n,1} = n, and c_{n,j} for 2 <= j <= n-2 accumulated two ways, as
    (q-1)^{j-1} sum_k e_{j-1}([1],...,[k-3]) and as the alternating
    q-binomial triple sum, with exact agreement enforced.  Each n adds to
    the triple sum's c_{n,j} the terms C(n-2-a, j-a) (-1)^(j-a)
    q^(a(a-1)/2) [n-3 choose a-1]_q by one ``qpoly._alternating_sum``,
    whose i-th term, i = j - a, carries the sign (-1)^i."""
    ebar = [_ONE]   # ebar[m] = e_m([1..t]) (q-1)^m at t = n-3
    sym: dict[int, QPoly] = {}      # c_{n,j} by symmetric functions
    triple: dict[int, QPoly] = {}   # c_{n,j} by the triple sum
    for n in count(3):
        t = n - 3
        ebar = [_ONE] + [e + p.shifted(t) - p
                         for e, p in zip(ebar[1:] + [_ZERO], ebar)]
        qb = [q_binomial(n - 3, a - 1) for a in range(1, n - 1)]
        cs = [QPoly((n,))]
        for j in range(2, n - 1):
            sym[j] = sym.get(j, _ZERO) + ebar[j - 1]
            triple[j] = triple.get(j, _ZERO) + _alternating_sum(
                (math.comb(n - 2 - a, j - a), a * (a - 1) // 2, qb[a - 1])
                for a in range(j, 0, -1))
            if triple[j] != sym[j]:
                raise IdentityViolation(
                    f"32-1 coefficient routes disagree at n={n}, j={j}")
            cs.append(sym[j])
        yield cs


def _coefficients_p12_3() -> Iterator[list[QPoly]]:
    """c_{n,1} = 2q^{n-2} + [n-2], and c_{n,j} for 2 <= j <= n-1 from
    weighted complete-homogeneous sums over windows of consecutive
    q-integers (with (1-q)^{j-1} premultiplied).

    Writing U_m(h) for sum_{lo=0..h} q^lo h_m([lo],...,[h]) * (1-q)^m, the
    coefficient is c_{n,j} = 2 U_{j-1}(n-j-1) - U_{j-1}(n-j-2); empty windows
    contribute 0.  U satisfies U_m(h) = U_m(h-1) + (1-q^h) U_{m-1}(h), so one
    anti-diagonal {m + h = n-2} carries all state from step to step.
    """
    diag = [_ONE]   # diag[m] = U_m(n-2-m), from the n = 2 seed
    for n in count(3):
        prev = diag + [_ZERO]
        diag = [q_int(n - 1)] + [prev[m] + prev[m - 1]
                                 - prev[m - 1].shifted(n - 2 - m)
                                 for m in range(1, n - 1)]
        # at j = 1, 2 [n-1] - [n-2] is the leading term 2q^{n-2} + [n-2]
        yield [2 * diag[j - 1] - prev[j - 1] for j in range(1, n)]


def qbinom_coefficient_12_3(n: int, j: int) -> QPoly:
    """The q-binomial double-sum form of the 12-3 coefficient c_{n,j},
    evaluated literally (valid for any j >= 1 with generalized binomials)."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"j={j} outside 1..{n - 1}")
    total = _ZERO
    for i in range(j):
        for k in range(n - j):
            c1 = 2 * _binom(k + j - 1, j - i - 1)
            c2 = _binom(k + j - 2, j - i - 1)
            inner = q_binomial(k + i, i) * c1 - q_binomial(k + i - 1, i) * c2
            term = inner.shifted((i + 1) * (n - j - k - 1))
            total = total + term if i % 2 == 0 else total - term
    return total


class CoefficientFormComparison12_3(FrozenValue):
    """Outcome of replaying the 12-3 recurrence from its q-binomial
    coefficient form: once with the sum starting at j=2 (no g_{n-1} term)
    and once extended with the j=1 coefficient."""

    __slots__ = ("n", "j2_only_matches", "with_j1_term_matches")

    def __init__(self, n: int, j2_only_matches: bool,
                 with_j1_term_matches: bool):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "j2_only_matches", j2_only_matches)
        object.__setattr__(self, "with_j1_term_matches", with_j1_term_matches)


def qbinom_form_consistency_12_3(n_max: int) -> list[CoefficientFormComparison12_3]:
    table = distribution_table(PatternId.P12_3, n_max)
    out = []
    for n in range(3, n_max + 1):
        pairs = [(qbinom_coefficient_12_3(n, j), table.g(n - j))
                 for j in range(1, n)]
        out.append(CoefficientFormComparison12_3(
            n, _dot(pairs[1:]) == table.g(n), _dot(pairs) == table.g(n)))
    return out


def _coefficients_p23_1() -> Iterator[list[QPoly]]:
    """c_{n,1} = 1 + [n-1], and c_{n,j} for 2 <= j <= n-1 accumulated from
    sums of products of distinct q-integers (the smallest factor weighted
    by 1 + [i_1]), scaled by (1-q)^{j-1} as they are built."""
    # w[m] = sum over i_1 < ... < i_m in [1..t] of
    # (1 + [i_1]) [i_1] ... [i_m] (1-q)^m at t = n-3; w[0] unused
    w = [_ZERO]
    c = []   # c_{n,j} for j = 2, 3, ...
    for n in count(3):
        t = n - 3
        prev = w + [_ZERO]
        x = 1 + q_int(t)
        w = [_ZERO, prev[1] + x - x.shifted(t)] + [
            prev[m] + prev[m - 1] - prev[m - 1].shifted(t)
            for m in range(2, len(prev))]
        c = [a + y - y.shifted(n - 2)
             for a, y in zip(c + [_ZERO], [1 + q_int(n - 2)] + w[1:])]
        yield [1 + q_int(n - 1)] + c


def _coefficients_p21_3() -> Iterator[list[QPoly]]:
    """c_{n,1} = n, and c_{n,j} for 2 <= j <= n-1 built from weakly
    increasing runs of q-integers weighted by the distance of the top
    element from the window end, premultiplied by (q-1)^{j-2}.

    With T_m(u) = sum_{lo<=u} [lo] h_m([lo..u]) (q-1)^m and S_m its partial
    sum over u, the window-sum reorganization gives
    c_{n,j} = (S_{j-2}(n-j-1) + T_{j-2}(n-j-1)) * (q-1); both tables satisfy
    anti-diagonal recurrences over m + u = n-3.
    """
    tdiag, sdiag = [], []   # T_m(n-3-m), S_m(n-3-m)
    for n in count(3):
        u = n - 3
        prev = tdiag + [_ZERO]
        tdiag = [prev[0] + q_int(u)] + [prev[m] + prev[m - 1].shifted(u - m)
                                        - prev[m - 1]
                                        for m in range(1, n - 2)]
        sdiag = [s + t for s, t in zip(sdiag + [_ZERO], tdiag)]
        bases = [s + t for s, t in zip(sdiag, tdiag)]
        yield [QPoly((n,))] + [b.shifted(1) - b for b in bases]


def b2_poly_23_1(n: int) -> QPoly:
    """The j=2 coefficient of the 23-1 recurrence as its literal polynomial
    sum, sum_{k=1}^{n-2} [k](1 + [k]), before the (1-q) prefactor."""
    total = _ZERO
    for k in range(1, n - 1):
        total = total + _qint_times(QPoly((2,) + (1,) * (k - 1)), k)
    return total


def b2_poly_21_3(n: int) -> QPoly:
    """The j=2 coefficient of the 21-3 recurrence as its literal polynomial
    sum, sum_{k=3}^{n} (k-1)[n-k], before the (q-1) prefactor."""
    total = _ZERO
    for k in range(3, n + 1):
        total = total + (k - 1) * q_int(n - k)
    return total


def b2_rational_identity_23_1(n: int) -> bool:
    """Multiplied-through check of the rational closed form for the 23-1
    j=2 coefficient against the literal polynomial sum."""
    q = QPoly.q()
    lhs = b2_poly_23_1(n) * (_Q_MINUS_ONE ** 3) * (q + 1)
    rhs = ((2 - q) * n * (q * q - 1)
           + QPoly((4, 1, -3, 1))
           + ((q - 3) * (q + 1)).shifted(n - 1)
           + QPoly.monomial(2 * n - 2))
    return lhs == rhs


def b2_rational_identity_21_3(n: int) -> bool:
    """Multiplied-through check of the rational closed form for the 21-3
    j=2 coefficient against the literal polynomial sum."""
    q = QPoly.q()
    lhs = 2 * (_Q_MINUS_ONE ** 3) * b2_poly_21_3(n)
    rhs = (-(n * n) * (_Q_MINUS_ONE ** 2)
           + n * (q - 3) * _Q_MINUS_ONE
           + 2 * (QPoly.monomial(n - 1, 2) - QPoly.monomial(n - 2)
                  + q * q - 2 * q))
    return lhs == rhs


_COEFFICIENT_ROUTES = {
    PatternId.P31_2: _coefficients_p31_2,
    PatternId.P32_1: _coefficients_p32_1,
    PatternId.P12_3: _coefficients_p12_3,
    PatternId.P23_1: _coefficients_p23_1,
    PatternId.P21_3: _coefficients_p21_3,
}


def coefficient_table(pattern: PatternId, n_max: int) -> DistributionTable:
    """g_1 .. g_{n_max} by the pattern's coefficient-table recurrence.

    Not memoized: every call builds from scratch.  This is the independent
    check on ``distribution_table``, not a production route; for 32-1 the
    pattern's coefficient stream compares its two coefficient routes on
    every entry.
    """
    _check_pattern(pattern)
    _check_int("n_max", n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    g = [_ONE, _TWO]
    for cs in islice(_COEFFICIENT_ROUTES[pattern](), max(n_max - 2, 0)):
        g.append(_dot(zip(cs, reversed(g))))
    return DistributionTable(pattern, tuple(g[:n_max]))


# ---------------------------------------------------------------------------
# The production route: prefix-refined rows on packed integers
# ---------------------------------------------------------------------------

#: Bound on sum |c| over the terms c q^e X of either side of an asserted
#: difference recurrence (see the module docstring).
_SIDE_WEIGHT = 8

#: Least capacity of a builder that starts over: the largest n that verify
#: asks for at its default bounds (CROSS_PATTERN_N_MAX).  A test holds
#: those bounds to it, since a larger one would build at wider slots.
_MIN_CAPACITY = 40


def _slot_bytes(capacity: int) -> int:
    """Bytes per slot for capacity N: the least s = 8 * bytes with
    _SIDE_WEIGHT * N! < 2^(s-2)."""
    bits = (_SIDE_WEIGHT * math.factorial(capacity)).bit_length() + 2
    return (bits + 7) // 8


class _Level(namedtuple("_Level", "capacity width n row g")):
    """A builder's record at level n, replaced whole by each step.

    ``width`` is the bytes per slot, from the ``capacity``.  ``row`` is
    level n's row, a tuple indexed by k (entries 0 and 1 unused), each
    entry a polynomial's value at q = 2^(8 width); 12-3 rows hold the
    q-lowered low_n(k) = g_n(1k) / q^(n-k).  No older row is kept.  ``g``
    is packed g_n.
    """

    __slots__ = ()

    def __repr__(self):
        # the packed values pass the limit on int-to-str digits from a 32-1
        # record at n = 16 on, so only their sizes are shown
        bits = [x.bit_length() for x in self.row]
        return (f"_Level(capacity={self.capacity}, width={self.width}, "
                f"n={self.n}, row of {len(self.row)} entries: {sum(bits)} "
                f"bits, at most {max(bits)} each, g of "
                f"{self.g.bit_length()} bits)")


def _start(capacity: int) -> _Level:
    """A builder of the given capacity at level 1."""
    return _Level(capacity, _slot_bytes(capacity), 1, (0, 0), 1)


# -- the layer map's cells, one per pattern: q^t p is p << s*t ---------------
# Each generator yields the pairs (k, entry k of level n's row), k = 3..n in
# ascending order, from the previous row ``prev`` and g_{n-1}, and changes
# neither; its comment names its cell of the module docstring's table, with
# p_j for entry j of ``prev``.  It reads p_{k-1} last for entry k and keeps
# no reference to it, so that ``_row_pass``, which sets entry 2 itself to
# 2 g_{n-1} (g_n(12), or 12-3's low_n(2)), can release it once entry k has
# been checked.

def _entries_p31_2(s, n, prev, g1):
    # x > y, z between: sum_{j<k} q^(k-1-j) p_j + sum_{j>=k} p_j, the
    # first sum a Horner accumulation h, the second g_{n-1} less a prefix
    prefix = h = 0
    for k in range(3, n + 1):
        prefix += prev[k - 1]
        h = (h << s) + prev[k - 1]
        yield k, g1 - prefix + h


def _entries_p32_1(s, n, prev, g1):
    # x > y, z below both: sum_{j<k} q^(j-2) p_j + sum_{j>=k} p_j,
    # telescoped from g_{n-1}: entry k adds (q^(k-3) - 1) p_{k-1}
    r = g1
    for k in range(3, n + 1):
        r += (prev[k - 1] << s * (k - 3)) - prev[k - 1]
        yield k, r


def _entries_p23_1(s, n, prev, g1):
    # x < y, z below both: sum_{j<k} p_j + q^(k-2) sum_{j>=k} p_j
    prefix = 0
    for k in range(3, n + 1):
        prefix += prev[k - 1]
        yield k, ((g1 - prefix) << s * (k - 2)) + prefix


def _entries_p21_3(s, n, prev, g1):
    # x > y, z above both: q^(n-k) sum_{j<k} p_j + sum_{j>=k} p_j
    prefix = 0
    for k in range(3, n + 1):
        prefix += prev[k - 1]
        yield k, g1 - prefix + (prefix << s * (n - k))


def _entries_p12_3(s, n, prev, g1):
    # x < y, z above both, on the lowered rows:
    # low_n(k) = sum_{j<k} p_j + sum_{j>=k} q^(n-1-j) p_j, telescoped from
    # g_{n-1}, the whole second sum: entry k adds (1 - q^(n-k)) p_{k-1}
    r = g1
    for k in range(3, n + 1):
        r += prev[k - 1] - (prev[k - 1] << s * (n - k))
        yield k, r


_ENTRIES = {
    PatternId.P31_2: _entries_p31_2,
    PatternId.P32_1: _entries_p32_1,
    PatternId.P23_1: _entries_p23_1,
    PatternId.P21_3: _entries_p21_3,
    PatternId.P12_3: _entries_p12_3,
}


# -- difference-recurrence assertions: q^t p is p << s*t, as above ----------
# Each is called as soon as entry k >= 3 of level n's row is in ``row``,
# before ``_row_pass`` releases prev[k - 1], and returns whether the
# identity at k holds.  At k = 3 each reads 2 g_{n-2} as prev[2], entry 2
# of the row before.

def _check_p12_3(s, n, k, row, prev, g1):
    # q g_n(1k) = g_n(1,k-1) + q (1 - q^(n-k)) g_{n-1}(1,k-1) and
    # g_n(13) = q^(n-3) (g_{n-1} - 2 (q^(n-3) - 1) g_{n-2}), both
    # divided through by the power of q that the lowered rows carry.
    if k == 3:
        return row[3] == g1 + prev[2] - (prev[2] << s * (n - 3))
    p = prev[k - 1]
    return row[k] == row[k - 1] + p - (p << s * (n - k))


def _check_p23_1(s, n, k, row, prev, g1):
    # [k-3] g_n(1k) = -q^(k-3) g_{n-1} + [k-2] g_n(1,k-1)
    #                 + (1-q) [k-2] [k-3] g_{n-1}(1,k-1),
    # times (q - 1) and regrouped as Q (X + (q-1)(g_{n-1} - g_n(1,k-1)))
    # = X with Q = q^(k-3), X = g_n(1k) - g_n(1,k-1)
    # + (q^(k-2) - 1) g_{n-1}(1,k-1); and g_n(13) = q g_{n-1}
    # + 2 (1 - q) g_{n-2}.
    if k == 3:
        return row[3] == (g1 << s) + prev[2] - (prev[2] << s)
    r1, p = row[k - 1], prev[k - 1]
    x = row[k] - r1 + (p << s * (k - 2)) - p
    d = g1 - r1
    return (x + (d << s) - d) << s * (k - 3) == x


def _check_p21_3(s, n, k, row, prev, g1):
    # [n-k+1] g_n(1k) = q^(n-k) g_{n-1} + [n-k] g_n(1,k-1)
    #                   + (q-1) [n-k] [n-k+1] g_{n-1}(1,k-1),
    # times (q - 1) and regrouped as Q (Y + (q-1)(g_n(1k) - g_{n-1}))
    # = Y with Q = q^(n-k), Y = g_n(1k) - g_n(1,k-1)
    # - (q^(n-k+1) - 1) g_{n-1}(1,k-1); and g_n(13) = g_{n-1}
    # + 2 (q^(n-3) - 1) g_{n-2}.
    if k == 3:
        return row[3] == g1 + (prev[2] << s * (n - 3)) - prev[2]
    r, p = row[k], prev[k - 1]
    y = r - row[k - 1] - (p << s * (n - k + 1)) + p
    e = r - g1
    return (y + (e << s) - e) << s * (n - k) == y


_CHECKS = {
    PatternId.P12_3: _check_p12_3,
    PatternId.P23_1: _check_p23_1,
    PatternId.P21_3: _check_p21_3,
}


#: The unpacked table g_1 .. g_M of each pattern, M the highest n that
#: ``distribution_table`` asked for; only that function grows it.
_TABLES: dict[PatternId, tuple[QPoly, ...]] = {}

#: The builder: at most one record, that of the pattern stepped last.
_BUILDERS: dict[PatternId, _Level] = {}


def _table(pattern: PatternId) -> tuple:
    """The unpacked table g_1 .. g_M that the memo holds for ``pattern``."""
    return _TABLES.get(pattern, (_ONE,))


def _row_pass(pattern: PatternId, s: int, n: int, prev: list, g1):
    """Level n's row and g_n, from level n - 1's row ``prev`` and g_{n-1},
    in one pass; the only code that knows the row rules.

    Entry 2 is 2 g_{n-1}, and the pattern's generator streams entries
    k = 3..n in ascending order after it.  Each is asserted as it comes:
    the first identity that fails raises IdentityViolation naming its k,
    the least failing one.  Once entry k has been checked, the pass sets
    prev[k - 1] to None, past its last read, so a caller that owns
    ``prev`` holds about one row.  The values are read only through
    ``+``, ``-``, ``<<`` (q^t p is p << s*t), int scaling and ``==``, so
    the pass runs over any commutative ring: ``_step`` runs it on packed
    ints at q = 2^s, the tests at s = 1 on the constant term and on
    p mod (q - 1)^3.
    """
    row = [0] * (n + 1)
    row[2] = g = 2 * g1
    check = _CHECKS.get(pattern)
    # 12-3's rows are lowered: g_n = sum_k q^(n-k) low_n(k)
    lowered = pattern is PatternId.P12_3
    if lowered:
        g <<= s * (n - 2)
    for k, entry in _ENTRIES[pattern](s, n, prev, g1):
        row[k] = entry
        g += entry << s * (n - k) if lowered else entry
        if check and not check(s, n, k, row, prev, g1):
            raise IdentityViolation(
                f"{pattern} refined difference recurrence failed "
                f"at n={n}, k={k}")
        prev[k - 1] = None
    return row, g


def _step(pattern: PatternId, tabled: bool) -> None:
    """Step ``pattern``'s builder one level up by one ``_row_pass``.

    The record is popped first, so the pass owns the last row and drops
    each of its entries once past its last use.  g_n is appended to the
    table, when ``tabled`` and the level is past the table, only after
    the pass has returned, every assertion passed; then one assignment
    commits the new record.
    """
    capacity, width, n, prev, g1 = _BUILDERS.pop(pattern)
    prev, n = list(prev), n + 1
    row, g = _row_pass(pattern, 8 * width, n, prev, g1)
    if tabled and n > len(polys := _table(pattern)):
        _TABLES[pattern] = polys + (_unpack(g, width),)
    _BUILDERS[pattern] = _Level(capacity, width, n, tuple(row), g)


def _prepared(pattern: PatternId, n: int, tabled: bool) -> int:
    """Make ``pattern``'s record the one builder, where a build to level n
    starts, and return its level.

    A build steps from the top of the table when ``tabled``, otherwise
    from n.  A pattern with no builder, or with one above that level,
    starts over at capacity max(n, _MIN_CAPACITY); a builder at level L
    asked past its capacity starts over at capacity max(n, 2L).
    """
    builder = _BUILDERS.get(pattern)
    if builder is None or builder.n > (len(_table(pattern)) if tabled else n):
        builder = _start(max(n, _MIN_CAPACITY))
    elif n > builder.capacity:
        builder = _start(max(n, 2 * builder.n))
    _BUILDERS.clear()
    _BUILDERS[pattern] = builder
    return builder.n


def _grown(pattern: PatternId, n: int, tabled: bool = False) -> _Level:
    """The builder of ``pattern`` at level n; when ``tabled``, the table
    also holds g_1 .. g_n.

    Read one pattern at a time, n ascending: every other pattern's
    builder is dropped first.  No caller may hold the record while it
    steps, or its row stays alive.
    """
    for _ in range(_prepared(pattern, n, tabled), n):
        _step(pattern, tabled)
    return _BUILDERS[pattern]


def distribution_table(pattern: PatternId, n_max: int) -> DistributionTable:
    """The recurrence-computed table g_1 .. g_{n_max} for one pattern.

    The table is memoized per pattern and grown incrementally: an n_max
    within it runs no step, and a larger n_max later grows the pattern's
    builder.  Read one pattern at a time, n ascending (see the module
    docstring).
    """
    _check_pattern(pattern)
    _check_int("n_max", n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max > len(_table(pattern)):
        _grown(pattern, n_max, tabled=True)
    return DistributionTable(pattern, _table(pattern)[:n_max])


def distribution_polynomial(pattern: PatternId, n: int) -> QPoly:
    """g_n alone, equal to ``distribution_table(pattern, n).g(n)``.

    Read from the memoized table when it holds n; otherwise the pattern's
    builder is grown to level n (or built again from n = 2 when it is
    above n), and only g_n is unpacked, not g_1 .. g_{n-1}.

    No table is left behind, so ``distribution_table(pattern, n)`` right
    after this call (or after ``refined_g1k(pattern, n, k)``) builds every
    level again from n = 2: 0.19-0.23 s of CPU for 23-1 at n = 60, where a
    read within the table takes 1.3 ms.  A caller that needs both should
    build the table first; g_n is then read from it.
    """
    _check_pattern(pattern)
    _check_int("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    polys = _table(pattern)
    if n <= len(polys):
        return polys[n - 1]
    builder = _grown(pattern, n)
    g = _unpack(builder.g, builder.width)
    if sum(g.coeffs) != math.factorial(n):
        raise ValueError(f"g_{n}(1) != {n}! for pattern {pattern}")
    return g


def g_31_2(n_max: int) -> DistributionTable:
    return distribution_table(PatternId.P31_2, n_max)


def g_32_1(n_max: int) -> DistributionTable:
    return distribution_table(PatternId.P32_1, n_max)


def g_12_3(n_max: int) -> DistributionTable:
    return distribution_table(PatternId.P12_3, n_max)


def g_23_1(n_max: int) -> DistributionTable:
    return distribution_table(PatternId.P23_1, n_max)


def g_21_3(n_max: int) -> DistributionTable:
    return distribution_table(PatternId.P21_3, n_max)


def refined_g1k(pattern: PatternId, n: int, k: int) -> QPoly:
    """g_n(1k): the distribution restricted to flattened forms starting 1,k.

    Served from the last row of the pattern's builder: reads at its level or
    above are cheap, while a read below it, or the first read after a step
    of another pattern, builds the rows again from n = 2.  Read one pattern
    at a time, n ascending (see the module docstring).
    """
    _check_pattern(pattern)
    _check_int("n", n)
    _check_int("k", k)
    if n < 2:
        raise ValueError("refined distributions need n >= 2")
    if not 2 <= k <= n:
        raise ValueError(f"prefix letter k={k} out of range 2..{n}")
    builder = _grown(pattern, n)
    value = _unpack(builder.row[k], builder.width)
    return value.shifted(n - k) if pattern is PatternId.P12_3 else value


def g1k_via_elementary_32_1(n: int, k: int) -> QPoly:
    """The 32-1 refined value through its symmetric-function form:
    g_n(1k) = sum_j e_{j-1}([1],...,[k-3]) (q-1)^{j-1} g_{n-j}.

    An independent check, not a production route: ``refined_g1k`` serves
    g_n(1k), and tests/test_recurrences.py compares the two for n <= 16."""
    if not 3 <= k <= n:
        raise ValueError("requires 3 <= k <= n")
    table = distribution_table(PatternId.P32_1, n - 1)
    qints = [q_int(i) for i in range(1, k - 2)]
    return _dot((elementary_e(j - 1, qints) * _Q_MINUS_ONE ** (j - 1),
                 table.g(n - j)) for j in range(1, k - 1))
