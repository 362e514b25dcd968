"""Exact integer polynomial arithmetic in the variable q.

QPoly stores a dense coefficient tuple (index = exponent of q) and is the
carrier for every occurrence-count distribution in this package.  On top of
the ring operations it provides the q-analog constructions (q-integers,
q-factorials, Gaussian binomials) and evaluation of elementary / complete
symmetric functions over lists of polynomials, together with the two
alternating-sum closed forms for those symmetric functions on runs of
consecutive q-integers.

Everything here is exact.  Division is exact division: a nonzero remainder
never means "round it", it means an identity we rely on is false, so it
raises IdentityViolation.  ``QPoly.exact_div`` divides by any polynomial.
Division by a power (1 - q)^m, the denominator of the two closed forms and
of [m] p = (p - q^m p) / (1 - q), is ``_div_one_minus_q``: m running-sum
passes over the coefficients, each checking that its remainder, the total
sum, is 0, so (1 - q)^m is never formed.  The closed forms sum their
numerators on one list of ints (``_alternating_sum``) before that division.

Multiplication has one route: ``QPoly.__mul__`` scales by a constant
directly and multiplies every other pair schoolbook, one pass over the
longer operand per coefficient of the shorter: 0.28 ms at 50 x 50
coefficients of 8 bits, 0.38 ms of 64 bits (CPython 3.11, 2-vCPU Xeon).
No route in the package makes a product that long that way: the long
products are those of the coefficient-table recurrences, whose whole sum
sum_j c_{n,j} g_{n-j} ``_dot`` forms as one sum of packed integers, every
factor evaluated at q = 2^s.

Rationals are stdlib ``fractions.Fraction`` (re-exported as ``Rational``);
its normalization already guarantees positive denominators in lowest terms.
All values are immutable and every operation is reentrant.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, chain, count, islice, repeat
from operator import mul

from ._value import _all_exact, _all_ints

Rational = Fraction


class IdentityViolation(ArithmeticError):
    """An exact identity the computation depends on failed to hold."""


def _normalize(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class QPoly:
    """A polynomial in q with arbitrary-precision integer coefficients.

    Canonical form: the highest-index coefficient is nonzero unless the
    polynomial is zero (empty coefficient tuple).  The constructor takes
    int coefficients only, bool excluded (``_value._all_ints``), and raises
    ValueError on any other, as ``monomial`` does for its exponent and
    coefficient; ``QPoly._raw`` skips that check, for tuples the package
    has already normalized.  Arithmetic, ``==`` and ``exact_div`` take a
    ``QPoly`` or an int operand, not a bool, so a bool neither makes a
    constant nor equals one; ``QPoly._coerce`` alone decides (see ``_value``).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = list(coeffs)
        if not _all_ints(coeffs):
            raise ValueError("QPoly coefficients must be ints, bool excluded")
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    def __reduce__(self):
        # pickle and copy would otherwise restore the slot through the
        # raising __setattr__
        return QPoly, (self.coeffs,)

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, normalized: tuple) -> "QPoly":
        p = cls.__new__(cls)
        object.__setattr__(p, "coeffs", normalized)
        return p

    @classmethod
    def zero(cls) -> "QPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "QPoly":
        return _ONE

    @classmethod
    def q(cls) -> "QPoly":
        return _Q

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "QPoly":
        if not _all_ints((exponent, coefficient)):
            raise ValueError("monomial exponent and coefficient must be "
                             "ints, bool excluded")
        if exponent < 0:
            raise ValueError("monomial exponent must be nonnegative")
        if coefficient == 0:
            return _ZERO
        return cls._raw((0,) * exponent + (coefficient,))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "QPoly":
        if isinstance(other, QPoly):
            return other
        if type(other) is int:
            return QPoly._raw((other,)) if other else _ZERO
        return NotImplemented

    def __add__(self, other) -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return QPoly._raw(_normalize(out))

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [x - y for x, y in zip(a, b)]
        if len(a) > len(b):
            out.extend(a[len(b):])
        else:
            out.extend(-y for y in b[len(a):])
        return QPoly._raw(_normalize(out))

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other) -> "QPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        if len(a) == 1:
            c = a[0]
            return QPoly._raw(_normalize([c * x for x in b]))
        if len(b) == 1:
            c = b[0]
            return QPoly._raw(_normalize([c * x for x in a]))
        return QPoly._raw(_normalize(_mul_schoolbook(a, b)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QPoly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def shifted(self, exponent: int) -> "QPoly":
        """Multiply by q**exponent (exponent >= 0)."""
        if exponent < 0:
            raise ValueError("shift exponent must be nonnegative")
        if not self.coeffs:
            return _ZERO
        return QPoly._raw((0,) * exponent + self.coeffs)

    def exact_div(self, divisor: "QPoly | int") -> "QPoly":
        """Exact quotient self / divisor over the integers.

        Raises IdentityViolation when the division leaves a remainder or
        exits the integer coefficient ring: in this package that always
        signals a violated identity, never a rounding concern.  A divisor
        that is not a QPoly or an int, bool excluded, raises TypeError.
        """
        other = self._coerce(divisor)
        if other is NotImplemented:
            raise TypeError("exact_div divisor must be a QPoly or an int, "
                            f"bool excluded, got {type(divisor).__name__}")
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return _ZERO
        rem = list(self.coeffs)
        d = other.coeffs
        dd = len(d) - 1
        lead = d[-1]
        if len(rem) - 1 < dd:
            raise IdentityViolation(
                f"exact division failed: degree {len(rem) - 1} < {dd}")
        qcoeffs = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            qc, r = divmod(c, lead)
            if r:
                raise IdentityViolation(
                    "exact division failed: non-integer quotient coefficient")
            qcoeffs[i - dd] = qc
            for j in range(dd + 1):
                rem[i - dd + j] -= qc * d[j]
        if any(rem):
            raise IdentityViolation("exact division failed: nonzero remainder")
        return QPoly._raw(_normalize(qcoeffs))

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> "QPoly":
        return QPoly._raw(_normalize(
            [i * c for i, c in enumerate(self.coeffs)][1:]))

    def evaluate(self, x: int | Fraction):
        """Horner evaluation at an int, bool excluded, or a Fraction;
        any other point raises TypeError."""
        if not _all_exact((x,)):
            raise TypeError("evaluate point must be an int, bool excluded, "
                            f"or a Fraction, got {type(x).__name__}")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- protocol plumbing ----------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int, so it hashes as that int (0 for zero)
        c = self.coeffs
        return hash(c) if len(c) > 1 else hash(c[0]) if c else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ""
                term = f"{sign}{mag}q" if i == 1 else f"{sign}{mag}q^{i}"
                parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out


def _mul_schoolbook(a: tuple, b: tuple) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


#: Fields per compiled slot splitter; one ``Struct`` per slot width.
_SPLIT_FIELDS = 64
_SPLITTERS: dict[int, struct.Struct] = {}


def _slots(value: int, width: int, count: int) -> islice:
    """``value`` >= 0, below 2^(8 width count), cut into ``count`` slots of
    ``width`` bytes, lowest first, as ints: ``struct`` splits of its bytes,
    64 fields at a time, and one ``int.from_bytes`` per field, with no
    per-slot bytecode.

    The splitters are cached here, one 64-field ``Struct`` per width, so
    the cache stays a few small objects.  The module-level ``struct.unpack``
    would instead cache one format per length, and at the lengths read here
    (hundreds to thousands of fields) its cache of up to 100 compiled
    formats holds megabytes for the life of the process.
    """
    split = _SPLITTERS.get(width)
    if split is None:
        split = _SPLITTERS[width] = struct.Struct(f"{width}s" * _SPLIT_FIELDS)
    blocks = -(-count // _SPLIT_FIELDS)
    fields = chain.from_iterable(split.iter_unpack(
        value.to_bytes(split.size * blocks, "little")))
    return islice(map(int.from_bytes, fields, repeat("little")), count)


def _unpack(value: int, width: int) -> QPoly:
    """The polynomial with coefficients in [0, 2^(8 width)) whose value at
    q = 2^(8 width) is ``value``.

    The reader of the packed polynomials that ``recurrences`` and the
    ``perm_core`` oracle compute with; each module picks its own slot width
    and proves there that every coefficient fits a slot.  The slots are read
    by ``_slots`` with its own cached splitters, not the module-level
    ``struct.unpack``, whose format cache would keep megabytes alive.  The
    top slot read holds the top bit of ``value``, so the coefficients are
    already in canonical form.
    """
    if value < 0:
        raise IdentityViolation(
            "packed polynomial is negative: a coefficient left its slot")
    count = -(-value.bit_length() // (8 * width))
    return QPoly._raw(tuple(_slots(value, width, count)))


def _dot(pairs: Iterable[tuple[QPoly, QPoly]]) -> QPoly:
    """sum a * b over the pairs (a, b), formed as one sum of packed ints.

    Evaluation at q = 2^s is a ring homomorphism Z[q] -> Z, so the sum's
    value at 2^s is the sum of the products of its factors' values.  Every
    coefficient of the sum is at most B = sum ||a||_1 ||b||_inf in absolute
    value, and so is every coefficient of every factor, since a nonzero
    integer polynomial has both norms at least 1.  With s = 8 w the least
    multiple of 8 such that B < 2^(s-1), each factor is packed in signed
    s-bit slots: the coefficients c + 2^(s-1) as bytes, then the comb
    2^(s-1) sum_i 2^(s i) taken off.  The packed products are summed, and
    adding the comb back leaves every slot of the sum in [1, 2^s - 1], so no
    slot borrows from or carries into the next and one read of the slots
    (``_slots``) gives the sum exactly.
    """
    pairs = [(a.coeffs, b.coeffs) for a, b in pairs if a.coeffs and b.coeffs]
    if not pairs:
        return _ZERO
    bound = sum(sum(map(abs, a)) * max(map(abs, b)) for a, b in pairs)
    width = bound.bit_length() // 8 + 1
    top = 8 * width - 1
    offset = 1 << top
    # 1 in the lowest byte of each slot; repeating it builds the comb
    # sum_i 2^(s i) without any big division
    unit = b"\x01" + b"\x00" * (width - 1)

    def comb(length: int) -> int:
        return int.from_bytes(unit * length, "little") << top

    def pack(coeffs: tuple) -> int:
        buf = b"".join((c + offset).to_bytes(width, "little") for c in coeffs)
        return int.from_bytes(buf, "little") - comb(len(coeffs))

    length = max(len(a) + len(b) for a, b in pairs) - 1
    total = sum(pack(a) * pack(b) for a, b in pairs) + comb(length)
    return QPoly._raw(_normalize(
        [c - offset for c in _slots(total, width, length)]))


def _div_one_minus_q(p: QPoly, m: int) -> QPoly:
    """Exact quotient p / (1 - q)^m, m >= 0, by m running-sum passes.

    c = p / (1 - q) has c_i = p_0 + ... + p_i, and the last running sum,
    p(1), is the remainder; a nonzero one raises IdentityViolation, as
    ``exact_div`` would.  When the remainder is 0 the top sum kept is
    -p_top, so each quotient is already in canonical form.
    """
    coeffs = p.coeffs
    for _ in range(m):
        if not coeffs:
            break
        sums = list(accumulate(coeffs))
        if sums.pop():
            raise IdentityViolation(
                "exact division by (1 - q) failed: nonzero remainder")
        coeffs = sums
    return QPoly._raw(tuple(coeffs))


def _derivative_at_one(p: QPoly) -> int:
    """p'(1) = sum_i i c_i, one weighted sum: for a distribution g_n, the
    total number of occurrences over S_n."""
    return sum(map(mul, count(), p.coeffs))


_ZERO = QPoly._raw(())
_ONE = QPoly._raw((1,))
_Q = QPoly._raw((0, 1))


# ---------------------------------------------------------------------------
# q-analogs
# ---------------------------------------------------------------------------

def q_int(n: int) -> QPoly:
    """[n] = 1 + q + ... + q^(n-1), with [0] = 0."""
    if n < 0:
        raise ValueError("q-integer of a negative integer")
    return QPoly._raw((1,) * n)


def q_factorial(m: int) -> QPoly:
    """[m]! = [1][2]...[m].  Public API (exported by the package); the
    package itself builds Gaussian binomials by Pascal's rule instead."""
    if m < 0:
        raise ValueError("q-factorial of a negative integer")
    out = _ONE
    for i in range(2, m + 1):
        out = out * q_int(i)
    return out


_QBINOM_ROWS: list[list[QPoly]] = [[_ONE]]


def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient; zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return _ZERO
    while len(_QBINOM_ROWS) <= n:
        m = len(_QBINOM_ROWS)
        prev = _QBINOM_ROWS[m - 1]
        row = [_ONE]
        for j in range(1, m):
            # Pascal step: C(m, j) = C(m-1, j-1) + q^j * C(m-1, j)
            row.append(prev[j - 1] + prev[j].shifted(j))
        row.append(_ONE)
        _QBINOM_ROWS.append(row)
    return _QBINOM_ROWS[n][k]


# ---------------------------------------------------------------------------
# Symmetric functions over an ordered list of polynomials
# ---------------------------------------------------------------------------
#
# Edge conventions, applied in this order: s_j = 0 for j < 0; s_0 = 1 for
# every list including the empty one; on the empty list s_j = 1 exactly when
# j = 1 (an unusual but deliberate convention kept for definition fidelity).
# Callers that need the ordinary "empty list gives 0" behaviour must not
# pass empty lists.  The entries reach the arithmetic only through QPoly's
# ``*``, each one multiplying s_0 = 1 when j >= 1, so an entry that is not
# a QPoly or an int, bool excluded, raises TypeError there (``_value``).

PolyLike = QPoly | int


def _edge_case(j: int, xs: Sequence[PolyLike]):
    if j < 0:
        return _ZERO
    if j == 0:
        return _ONE
    if not xs:
        return _ONE if j == 1 else _ZERO
    return None


def elementary_e(j: int, xs: Sequence[PolyLike]) -> QPoly:
    """Sum of products of j distinct elements of xs."""
    edge = _edge_case(j, xs)
    if edge is not None:
        return edge
    table = [_ONE] + [_ZERO] * j
    for x in xs:
        for m in range(j, 0, -1):
            if not table[m - 1].is_zero():
                table[m] = table[m] + x * table[m - 1]
    return table[j]


def complete_h(j: int, xs: Sequence[PolyLike]) -> QPoly:
    """Sum of products of j elements of xs, repetition allowed."""
    edge = _edge_case(j, xs)
    if edge is not None:
        return edge
    table = [_ONE] + [_ZERO] * j
    for x in xs:
        for m in range(1, j + 1):
            table[m] = table[m] + x * table[m - 1]
    return table[j]


def nonadjacent_e_prime(j: int, xs: Sequence[PolyLike]) -> QPoly:
    """Sum of products of j pairwise non-adjacent elements of xs.

    Non-adjacent means the chosen indices pairwise differ by at least 2.
    Public API (exported by the package), the paper's e' function; the
    package itself does not call it.
    """
    edge = _edge_case(j, xs)
    if edge is not None:
        return edge
    before_prev = [_ONE] + [_ZERO] * j
    prev = [_ONE] + [_ZERO] * j
    for x in xs:
        cur = [_ONE]
        for m in range(1, j + 1):
            cur.append(prev[m] + x * before_prev[m - 1])
        before_prev, prev = prev, cur
    return prev[j]


def _alternating_sum(terms: Iterable[tuple[int, int, QPoly]]) -> QPoly:
    """sum_i (-1)^i c_i q^(s_i) p_i over the terms (c_i, s_i, p_i), i = 0,
    1, ..., added on one list of ints and normalized once."""
    out: list[int] = []
    for i, (c, shift, p) in enumerate(terms):
        if i % 2:
            c = -c
        end = shift + len(p.coeffs)
        if len(out) < end:
            out.extend(repeat(0, end - len(out)))
        for e, x in enumerate(p.coeffs, shift):
            out[e] += c * x
    return QPoly._raw(_normalize(out))


def e_on_qints_closed_form(j: int, k: int) -> QPoly:
    """Closed form for elementary_e(j, [[1], [2], ..., [k-3]]).

    Evaluates the alternating q-binomial sum whose numerator must be exactly
    divisible by (1-q)^j; a remainder raises IdentityViolation.
    """
    if k < 3 or j < 1:
        raise ValueError("requires k >= 3 and j >= 1")
    if j > k - 3:   # every C(k-3-a, k-3-j) is 0
        return _ZERO
    # C(k-3-a, k-3-j) = 0 for a > j
    num = _alternating_sum(
        (math.comb(k - 3 - a, k - 3 - j), a * (a + 1) // 2,
         q_binomial(k - 3, a))
        for a in range(j + 1))
    return _div_one_minus_q(num, j)


def h_on_qint_window_closed_form(j: int, k: int, n: int) -> QPoly:
    """Closed form for complete_h(j-1, X) with X = {[n], [n+1], ..., [n+k-j-1]}.

    The numerator must be exactly divisible by (1-q)^(j-1); a remainder
    raises IdentityViolation.
    """
    if n < 0 or j < 0 or j > k - 1:
        raise ValueError("requires n >= 0 and 0 <= j <= k-1")
    if j == 0:
        return _ZERO
    num = _alternating_sum(
        (math.comb(k - 2, j - 1 - i), i * n, q_binomial(k - j - 1 + i, i))
        for i in range(j))
    return _div_one_minus_q(num, j - 1)
