"""Truncated formal power series with exact rational coefficients.

Used to expand the algebraic generating functions for the 31-2 occurrence
counts (square roots of 1-4x) and the exponential generating functions for
the 21-3 and 12-3 avoider counts (nested exponentials of Bell type), and to
compare their coefficients with the recurrence tables and avoider formulas.

A series carries exactly ``order`` coefficients (exponents 0..order-1);
arithmetic truncates to the shorter operand, and ``agrees_with`` is the
explicit way to compare across truncation orders.  Default truncation order
for the prebuilt expansions is 24; callers may not exceed order 64.  Pure
immutable values throughout.

Coefficients are exact rationals held as ``int`` when integral and as
``fractions.Fraction`` otherwise; construction normalises, so a coefficient
equal to an integer is always an ``int``.  Sums and products of integers are
integers, and every division (``exact_div``, ``integrate``, the square root)
divides exactly: it returns an ``int`` when the quotient is integral and a
``Fraction`` only when it is not.  The 31-2 expansions stay in Z[[x]]
throughout, because sqrt(1-4x) has integer coefficients and every divisor
has constant term 1.  Exponential generating functions are carried as their
n!-scaled coefficients, which are integers for every series built here: exp
is E_m = sum_i C(m-1, i-1) S_i E_(m-i) (from E' = S'E), a product is the
binomial convolution (the labelled product), and the antiderivative is an
index shift.  m! is divided out only when the returned series is built.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from ._value import FrozenValue
from .qpoly import IdentityViolation

DEFAULT_ORDER = 24
MAX_ORDER = 64

Coeff = int | Fraction


def _normal(c) -> Coeff:
    """An exact coefficient as an int when integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a: Coeff, b: Coeff) -> Coeff:
    """Exact quotient; a Fraction only when it is not an integer."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return Fraction(a, b)


class PowerSeries(FrozenValue):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Coeff, ...]):
        coeffs = tuple(map(_normal, coeffs))
        if not coeffs:
            raise ValueError("a series needs a positive truncation order")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Coeff], order: int | None = None
                    ) -> "PowerSeries":
        cs = list(coeffs)
        if order is not None:
            cs = (cs + [0] * order)[:order]
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls.from_coeffs([], order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.from_coeffs([1], order)

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        return cls.from_coeffs([0, 1], order)

    def coefficient(self, exponent: int) -> Coeff:
        if not 0 <= exponent < self.order:
            raise IndexError(
                f"exponent {exponent} beyond truncation order {self.order}")
        return self.coeffs[exponent]

    def truncate(self, order: int) -> "PowerSeries":
        return PowerSeries.from_coeffs(self.coeffs, order)

    def agrees_with(self, other: "PowerSeries") -> bool:
        """Coefficientwise equality up to the shorter truncation order."""
        m = min(self.order, other.order)
        return self.coeffs[:m] == other.coeffs[:m]

    # -- arithmetic (results carry the min of the operand orders) -------

    @staticmethod
    def _coerce(value, order: int) -> "PowerSeries":
        if isinstance(value, PowerSeries):
            return value
        if isinstance(value, (int, Fraction)):
            return PowerSeries.from_coeffs([value], order)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        m = min(self.order, other.order)
        return PowerSeries(tuple(a + b for a, b in
                                 zip(self.coeffs[:m], other.coeffs[:m])))

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSeries(tuple(other * a for a in self.coeffs))
        if not isinstance(other, PowerSeries):
            return NotImplemented
        m = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return PowerSeries(tuple(sum(map(mul, a[:k + 1], b[k::-1]))
                                 for k in range(m)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PowerSeries":
        if exponent < 0:
            raise ValueError("negative series power")
        result = PowerSeries.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def exact_div(self, divisor: "PowerSeries") -> "PowerSeries":
        """Series quotient; the divisor must have a nonzero constant term."""
        if divisor.coeffs[0] == 0:
            raise ValueError("series division needs a nonzero constant term")
        m = min(self.order, divisor.order)
        a, b = self.coeffs, divisor.coeffs
        lead = b[0]
        out: list[Coeff] = []
        for i in range(m):
            # out is read in reverse before out[i] is appended
            out.append(_div(a[i] - sum(map(mul, b[1:i + 1], reversed(out))),
                            lead))
        return PowerSeries(tuple(out))

    def derive(self) -> "PowerSeries":
        """Termwise derivative; order falls by one.  Public API, the inverse
        of ``integrate``; the package itself does not call it."""
        if self.order == 1:
            raise ValueError("cannot differentiate an order-1 series")
        return PowerSeries(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def integrate(self) -> "PowerSeries":
        """Antiderivative with zero constant term; order grows by one."""
        return PowerSeries((0,) + tuple(
            _div(c, i + 1) for i, c in enumerate(self.coeffs)))

    def __str__(self):
        shown = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return (" + ".join(shown) or "0") + f" + O(x^{self.order})"


# -- exponential generating functions as n!-scaled coefficient lists -------

def _egf_exp(s: Sequence[Coeff]) -> list[Coeff]:
    """n!-scaled coefficients of exp(S) from those of S (S_0 = 0), by
    E_m = sum_i C(m-1, i-1) S_i E_(m-i)."""
    out = [1]
    for m in range(1, len(s)):
        out.append(sum(math.comb(m - 1, i - 1) * s[i] * out[m - i]
                       for i in range(1, m + 1) if s[i]))
    return out


def _egf_mul(a: Sequence[Coeff], b: Sequence[Coeff]) -> list[Coeff]:
    """n!-scaled coefficients of a product: the binomial convolution."""
    return [sum(math.comb(m, k) * a[k] * b[m - k] for k in range(m + 1))
            for m in range(min(len(a), len(b)))]


def _from_egf(scaled: Sequence[Coeff]) -> PowerSeries:
    """The series whose n!-scaled coefficients are given."""
    return PowerSeries(tuple(_div(c, math.factorial(m))
                             for m, c in enumerate(scaled)))


def exp_series(s: PowerSeries) -> PowerSeries:
    """exp of a series with zero constant term, coefficient by coefficient
    from E' = s'E on n!-scaled coefficients."""
    if s.coeffs[0] != 0:
        raise ValueError("exp needs a zero constant term")
    scaled = [_normal(c * math.factorial(m)) for m, c in enumerate(s.coeffs)]
    return _from_egf(_egf_exp(scaled))


def sqrt_series(s: PowerSeries) -> PowerSeries:
    """Square root of a series with constant term 1, coefficient by
    coefficient from y^2 = s: 2 y_n = s_n - sum_(0<i<n) y_i y_(n-i)."""
    if s.coeffs[0] != 1:
        raise ValueError("sqrt needs constant term 1")
    y: list[Coeff] = [1]
    for n in range(1, s.order):
        y.append(_div(s.coeffs[n] - sum(map(mul, y[1:n], y[n - 1:0:-1])), 2))
    return PowerSeries(tuple(y))


# ---------------------------------------------------------------------------
# The prebuilt expansions
# ---------------------------------------------------------------------------

# Numerator data for the algebraic generating functions of permutations by
# number of 31-2 occurrences r: each is (x_power, A, B) encoding
# (A(x) + B(x) sqrt(1-4x)) / (x^x_power * sqrt((1-4x)^(2r+1))).
_G31_2_DATA = {
    0: (0, (0, 1), (0, -1, -2)),
    1: (1, (-1, 8, -17, 6), (1, -6, 7)),
    2: (1, (1, -12, 50, -76, 22), (-1, 10, -32, 28)),
    3: (2, (2, -37, 270, -972, 1748, -1346, 220),
        (-2, 33, -208, 614, -824, 368)),
}


def _check_order(order: int, minimum: int):
    if order < minimum:
        raise ValueError(f"order must be at least {minimum}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the cap {MAX_ORDER}")


def expand_G_r_31_2(r: int, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Ordinary generating function of permutations whose flattened form has
    exactly r occurrences of 31-2, for r in 0..3.

    Known quirk, by design: the r = 0 closed form has x^2 coefficient 0
    even though two permutations of length 2 avoid everything; coefficients
    are reliable from x^3 on.
    """
    if r not in _G31_2_DATA:
        raise ValueError("closed forms are available for r in 0..3 only")
    _check_order(order, 4)
    x_power, a_coeffs, b_coeffs = _G31_2_DATA[r]
    work = order + x_power
    root = sqrt_series(PowerSeries.from_coeffs([1, -4], work))
    numerator = (PowerSeries.from_coeffs(a_coeffs, work)
                 + PowerSeries.from_coeffs(b_coeffs, work) * root)
    quotient = numerator.exact_div(root ** (2 * r + 1))
    if any(quotient.coeffs[:x_power]):
        raise IdentityViolation(
            f"expected the assembled numerator to be divisible by x^{x_power}")
    return PowerSeries(quotient.coeffs[x_power:])


def expand_egf_21_3_avoid(order: int = DEFAULT_ORDER) -> PowerSeries:
    """EGF of 21-3 avoider counts: n! * coefficient of x^n counts the
    avoiders of length n+2.

    The series is 2 exp(e^x + 2x - 1); the exponent's n!-scaled
    coefficients are 0, 3, 1, 1, ...
    """
    _check_order(order, 2)
    exponent = [0, 3] + [1] * (order - 2)
    return _from_egf([2 * c for c in _egf_exp(exponent)])


def expand_egf_12_3_avoid(order: int = DEFAULT_ORDER) -> PowerSeries:
    """EGF of 12-3 avoider counts: (n-2)! * coefficient of x^(n-2) counts
    the avoiders of length n.

    Built from the Bell-number EGF together with the integral of the
    complementary-Bell EGF (the exponential of 1 - e^x):
    2 (e^x + 1) exp(e^x - 1) (1 - integral exp(1 - e^x)) - 2.
    """
    _check_order(order, 2)
    ex_minus_one = [0] + [1] * (order - 1)
    bell = _egf_exp(ex_minus_one)
    cbell = _egf_exp([-c for c in ex_minus_one])
    one_minus_integral = [1] + [-c for c in cbell[:-1]]
    g = _egf_mul(_egf_mul([2] + ex_minus_one[1:], bell), one_minus_integral)
    g[0] -= 1
    return _from_egf([2 * c for c in g])
