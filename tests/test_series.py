import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flatperm.closed_forms import avoiders, numbers
from flatperm.recurrences import PatternId, distribution_table
from flatperm.series import (DEFAULT_ORDER, MAX_ORDER, PowerSeries,
                             exp_series, expand_egf_12_3_avoid,
                             expand_egf_21_3_avoid, expand_G_r_31_2,
                             sqrt_series)


def test_arithmetic_basics():
    s = PowerSeries.from_coeffs([0, 1, 2, 3], 8)
    assert s.integrate().derive().agrees_with(s)
    geometric = PowerSeries.from_coeffs([1] * 10)
    assert (PowerSeries.from_coeffs([1, -1], 10) * geometric).coeffs \
        == (1,) + (0,) * 9
    assert PowerSeries.one(4).integrate().coeffs == (0, 1, 0, 0, 0)
    assert (PowerSeries.x(5) ** 2).coeffs == (0, 0, 1, 0, 0)


def test_order_semantics():
    a = PowerSeries.from_coeffs([1, 2, 3], 3)
    b = PowerSeries.from_coeffs([1, 1], 6)
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert a.truncate(2).coeffs == (1, 2)
    assert a.agrees_with(PowerSeries.from_coeffs([1, 2, 3, 99], 4))
    with pytest.raises(IndexError):
        a.coefficient(3)


def test_exact_div():
    num = PowerSeries.from_coeffs([1], 8)
    den = PowerSeries.from_coeffs([1, -1], 8)
    assert num.exact_div(den).coeffs == (1,) * 8
    with pytest.raises(ValueError):
        num.exact_div(PowerSeries.x(8))


def test_exp_series():
    e = exp_series(PowerSeries.x(6))
    assert e.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6),
                        Fraction(1, 24), Fraction(1, 120))
    with pytest.raises(ValueError):
        exp_series(PowerSeries.one(4))


def test_sqrt_series():
    s = PowerSeries.from_coeffs([1, -4], 8)
    root = sqrt_series(s)
    assert root.coeffs[:6] == (1, -2, -2, -4, -10, -28)
    assert (root * root).agrees_with(s)
    with pytest.raises(ValueError):
        sqrt_series(PowerSeries.from_coeffs([2], 4))


def test_g31_2_r0():
    g0 = expand_G_r_31_2(0, 8)
    assert g0.coefficient(1) == 0       # x - x cancellation
    assert g0.coefficient(3) == 6
    assert g0.coefficient(4) == 20
    for n in range(3, 8):
        assert g0.coefficient(n) == avoiders("31-2", n) \
            == math.comb(2 * n - 2, n - 1)
    with pytest.raises(ValueError):
        expand_G_r_31_2(4, 8)
    with pytest.raises(ValueError):
        expand_G_r_31_2(0, 3)


def test_g31_2_r0_length2_documented_discrepancy():
    # the closed form yields 0 at x^2 even though both length-2
    # permutations avoid; reliability starts at x^3
    g0 = expand_G_r_31_2(0, 8)
    assert g0.coefficient(2) == 0
    assert distribution_table(PatternId.P31_2, 2).g(2).constant_term() == 2


def test_g31_2_higher_r_match_table_coefficients():
    table = distribution_table(PatternId.P31_2, MAX_ORDER - 1)
    for r in range(4):
        expansion = expand_G_r_31_2(r, MAX_ORDER)
        for n in range(3, MAX_ORDER):
            assert expansion.coefficient(n) == table.g(n).coefficient(r), (r, n)


def test_egf_21_3():
    egf = expand_egf_21_3_avoid(MAX_ORDER)
    assert egf.coefficient(0) == 2      # the length-2 count
    assert [int(egf.coefficient(i)) for i in range(3)] == [2, 6, 10]
    for m in range(MAX_ORDER):
        assert egf.coefficient(m) * math.factorial(m) == avoiders("21-3", m + 2)


def test_egf_12_3():
    egf = expand_egf_12_3_avoid(MAX_ORDER)
    assert egf.coefficient(0) == 2
    for m in range(MAX_ORDER):
        assert egf.coefficient(m) * math.factorial(m) == avoiders("12-3", m + 2)


def test_expansions_build_fractions_only_for_non_integral_coefficients(
        monkeypatch):
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for r in range(4):
        expansion = expand_G_r_31_2(r, MAX_ORDER)
        assert built == [], r
        assert all(type(c) is int for c in expansion.coeffs)
    for expand in (expand_egf_21_3_avoid, expand_egf_12_3_avoid):
        for order in (2, 13, MAX_ORDER):
            built.clear()
            expansion = expand(order)
            assert len(built) <= order, (expand.__name__, order)


def test_bell_egf_cross_checks():
    order = 12
    ex = exp_series(PowerSeries.x(order))
    bell_egf = exp_series(ex - 1)
    cbell_egf = exp_series(1 - ex)
    for m in range(order):
        assert bell_egf.coefficient(m) * math.factorial(m) == numbers.bell(m)
        assert cbell_egf.coefficient(m) * math.factorial(m) \
            == numbers.complementary_bell(m)


def test_order_caps():
    assert DEFAULT_ORDER == 24
    with pytest.raises(ValueError):
        expand_G_r_31_2(1, MAX_ORDER + 1)
    with pytest.raises(ValueError):
        expand_egf_21_3_avoid(MAX_ORDER + 1)


# -- properties, against plain Fraction arithmetic ---------------------------

def _ref_mul(a, b):
    m = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(m)]


def _ref_div(a, b):
    out = []
    for i in range(min(len(a), len(b))):
        acc = a[i] - sum((b[j] * out[i - j] for j in range(1, i + 1)),
                         Fraction(0))
        out.append(acc / b[0])
    return out


def _ref_exp(s):
    out = [Fraction(1)]
    for m in range(1, len(s)):
        out.append(sum((i * s[i] * out[m - i] for i in range(1, m + 1)),
                       Fraction(0)) / m)
    return out


def _canonical(series):
    """Every coefficient is an int when integral and a Fraction otherwise."""
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in series.coeffs)


_coeff = st.one_of(st.integers(-40, 40),
                 st.builds(Fraction, st.integers(-40, 40), st.integers(1, 6)))


def _coeffs(max_size=10):
    return st.lists(_coeff, min_size=1, max_size=max_size)


def _fracs(cs):
    return [Fraction(c) for c in cs]


@given(_coeffs(), _coeffs(), st.sampled_from([1, -1]))
def test_ring_operations_match_fraction_arithmetic(a, b, lead):
    fa, fb = _fracs(a), _fracs(b)
    m = min(len(a), len(b))
    sa, sb = PowerSeries.from_coeffs(a), PowerSeries.from_coeffs(b)
    assert PowerSeries.from_coeffs(fa).coeffs == sa.coeffs
    unit = PowerSeries.from_coeffs([lead] + b[1:])
    results = {
        "+": (sa + sb, [x + y for x, y in zip(fa, fb)]),
        "-": (sa - sb, [x - y for x, y in zip(fa, fb)]),
        "*": (sa * sb, _ref_mul(fa, fb)),
        "exact_div": (sa.exact_div(unit), _ref_div(fa, _fracs(unit.coeffs))),
        "integrate": (sa.integrate(),
                      [Fraction(0)] + [c / (i + 1) for i, c in enumerate(fa)]),
    }
    for name, (got, want) in results.items():
        assert list(got.coeffs) == want, name
        assert _canonical(got), name
    assert (sa + sb).order == m
    assert (sa * unit).exact_div(unit) == sa.truncate(m)


@given(_coeffs(max_size=9), _coeffs(max_size=9))
def test_exp_and_sqrt_match_fraction_arithmetic(a, b):
    sa = PowerSeries.from_coeffs([0] + a)
    sb = PowerSeries.from_coeffs([0] + b)
    ea = exp_series(sa)
    assert list(ea.coeffs) == _ref_exp(_fracs(sa.coeffs))
    assert _canonical(ea)
    assert exp_series(sa + sb) == exp_series(sa) * exp_series(sb)
    s = 1 + sa
    root = sqrt_series(s)
    assert root.order == s.order
    assert _canonical(root)
    assert (root ** 2).agrees_with(s)
