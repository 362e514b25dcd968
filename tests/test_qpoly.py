import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatperm.qpoly import (IdentityViolation, QPoly, complete_h,
                            e_on_qints_closed_form, elementary_e,
                            h_on_qint_window_closed_form, nonadjacent_e_prime,
                            q_binomial, q_factorial, q_int)
from flatperm.qpoly import (_derivative_at_one, _div_one_minus_q, _dot,
                            _mul_schoolbook, _unpack)
from flatperm.perm_core import VincularPattern3, brute_distribution
from flatperm.recurrences import ALL_PATTERNS, distribution_table

Q = QPoly.q()
ONE = QPoly.one()


def test_ring_basics():
    assert (Q - 1) * (Q + 1) == Q**2 - 1
    assert (Q - 1) ** 0 == 1
    assert q_int(2) * q_int(3) == QPoly([1, 2, 2, 1])
    assert QPoly([1, 2]) + QPoly([0, -2, 5]) == QPoly([1, 0, 5])
    assert -QPoly([1, -2]) == QPoly([-1, 2])
    assert QPoly([0, 0]) == QPoly() == 0
    with pytest.raises(ValueError):
        Q ** -1


def test_hash_agrees_with_equality():
    # a constant polynomial equals its int, so it must hash as that int
    assert 2 in {QPoly((2,))} and 0 in {QPoly()} and -5 in {QPoly([-5])}
    assert QPoly((2,)) in {2} and QPoly([0, 0]) in {0}
    assert len({QPoly((2,)), 2}) == 1 and len({QPoly(), 0}) == 1
    assert len({QPoly([1, 2]), QPoly((1, 2)), 1, 2}) == 3


def test_canonical_form_strips_trailing_zeros():
    assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPoly([0]).degree == -1
    assert QPoly([5]).degree == 0
    # the coefficients must be ints, bool excluded, as perm_core's values'
    # entries: each of these would print as something else or store junk
    for bad in ([True, 2], [1.5], ["a"], [1, 2.0], [1, 0, False]):
        with pytest.raises(ValueError, match="^QPoly coefficients must be "
                                             "ints, bool excluded$"):
            QPoly(bad)


def test_monomial_takes_ints_only():
    assert QPoly.monomial(2, -3) == QPoly([0, 0, -3])
    for exponent, coefficient in ((2, 1.5), (1, True), (True, 1), (1.0, 1),
                                  (2, False), ("2", 1)):
        with pytest.raises(ValueError, match="^monomial exponent and "
                                             "coefficient must be ints, "
                                             "bool excluded$"):
            QPoly.monomial(exponent, coefficient)


def test_bool_operand_makes_no_constant():
    # an int operand is a constant polynomial; a bool is not an int here
    assert QPoly.zero() + 3 == QPoly([3]) and 2 - ONE == ONE
    for bad in (True, False):
        for op in (lambda p: p + bad, lambda p: bad + p, lambda p: p - bad,
                   lambda p: bad - p, lambda p: p * bad, lambda p: bad * p):
            with pytest.raises(TypeError):
                op(QPoly.zero())
    assert ONE != True and QPoly.zero() != False


def test_exact_div():
    assert (Q**2 - 1).exact_div(Q - 1) == Q + 1
    assert q_int(4).exact_div(q_int(2)) == QPoly([1, 0, 1])
    with pytest.raises(IdentityViolation):
        q_int(3).exact_div(q_int(2))
    with pytest.raises(IdentityViolation):
        QPoly([1, 1]).exact_div(QPoly([2]))  # quotient leaves the integers
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(QPoly())


def test_q_analogs():
    assert q_int(0) == 0
    assert q_int(1) == 1
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
    assert q_binomial(4, 2) == QPoly([1, 1, 2, 1, 1])
    assert q_binomial(5, -1) == 0 and q_binomial(3, 4) == 0
    for n in range(1, 9):
        assert q_int(n).evaluate(0) == 1
        assert q_int(n).evaluate(1) == n
        # derivative of [n] at q=1 counts the inversions of a 2-subset
        assert q_int(n).derivative().evaluate(1) == n * (n - 1) // 2


def test_q_binomial_symmetry_and_value_at_one():
    import math
    for n in range(0, 11):
        for k in range(0, n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)
            assert q_binomial(n, k).evaluate(1) == math.comb(n, k)


def test_symmetric_function_examples():
    assert elementary_e(2, [Q, ONE, Q**2]) == Q + Q**2 + Q**3
    assert complete_h(2, [ONE, Q]) == QPoly([1, 1, 1])
    a, b, c = QPoly.monomial(1), QPoly.monomial(2), QPoly.monomial(3)
    assert nonadjacent_e_prime(2, [a, b, c]) == a * c


def test_symmetric_function_conventions():
    # s_0 = 1 everywhere; on the empty list s_j is 1 exactly at j = 1
    for fn in (elementary_e, complete_h, nonadjacent_e_prime):
        assert fn(0, [Q]) == 1
        assert fn(-1, [Q]) == 0
        assert fn(0, []) == 1
        assert fn(1, []) == 1
        assert fn(2, []) == 0


def test_e_prime_against_direct_enumeration():
    from itertools import combinations
    xs = [Q, ONE + Q, Q**2, QPoly([3]), Q + 2]
    for j in range(0, 4):
        direct = QPoly()
        for idx in combinations(range(len(xs)), j):
            if all(b - a >= 2 for a, b in zip(idx, idx[1:])):
                term = ONE
                for i in idx:
                    term = term * xs[i]
                direct = direct + term
        assert nonadjacent_e_prime(j, xs) == direct
    assert nonadjacent_e_prime(1, xs) == elementary_e(1, xs)


def test_elementary_generating_identity():
    """sum_j e_j(X) z^j equals the product of (1 + x z), as polynomials in z
    with QPoly coefficients, for every prefix of a size-6 list."""
    xs = [Q, ONE, Q**2, Q + 1, QPoly([2, 1]), Q**3]
    for m in range(len(xs) + 1):
        prefix = xs[:m]
        product = [ONE]  # coefficients of z^j
        for x in prefix:
            nxt = [QPoly()] * (len(product) + 1)
            for j, coeff in enumerate(product):
                nxt[j] = nxt[j] + coeff
                nxt[j + 1] = nxt[j + 1] + x * coeff
            product = nxt
        for j in range(m + 1):
            assert product[j] == elementary_e(j, prefix)


def test_complete_h_against_direct_enumeration():
    from itertools import combinations_with_replacement
    xs = [Q, ONE + Q, QPoly([2])]
    for j in range(0, 5):
        direct = QPoly()
        for idx in combinations_with_replacement(range(len(xs)), j):
            term = ONE
            for i in idx:
                term = term * xs[i]
            direct = direct + term
        assert complete_h(j, xs) == direct


def test_e_on_qints_closed_form():
    assert e_on_qints_closed_form(1, 5) == QPoly([2, 1])          # [1] + [2]
    assert e_on_qints_closed_form(2, 5) == QPoly([1, 1])          # [1] * [2]
    for k in range(3, 11):
        qints = [q_int(i) for i in range(1, k - 2)]
        for j in range(1, k - 2):
            assert e_on_qints_closed_form(j, k) == elementary_e(j, qints)


def test_h_on_qint_window_closed_form():
    assert h_on_qint_window_closed_form(1, 4, 2) == 1
    assert h_on_qint_window_closed_form(2, 4, 1) == QPoly([2, 1])
    for k in range(1, 11):
        for j in range(0, k):
            for n in range(0, 6):
                window = [q_int(n + i) for i in range(0, k - j)]
                assert h_on_qint_window_closed_form(j, k, n) \
                    == complete_h(j - 1, window)


def _dot_reference(pairs):
    """sum a * b by schoolbook products, added one at a time."""
    out = QPoly()
    for a, b in pairs:
        out = out + QPoly(_mul_schoolbook(a.coeffs, b.coeffs))
    return out


def test_dot_matches_schoolbook():
    rng = random.Random(2024)
    for _ in range(150):
        pairs = [(QPoly([rng.randrange(-10**9, 10**9)
                         for _ in range(rng.randrange(0, 70))]),
                  QPoly([rng.randrange(-10**30, 10**30)
                         for _ in range(rng.randrange(0, 70))]))
                 for _ in range(rng.randrange(0, 6))]
        assert _dot(pairs) == _dot_reference(pairs)


@pytest.mark.parametrize("width", range(1, 5))
def test_dot_at_its_bound(width):
    """Sums with a coefficient equal to the bound sum ||a||_1 ||b||_inf, of
    either sign: at the top of a slot width, 2^(8 width - 1) - 1, where
    that coefficient's slot is full (or holds 1) once the comb is added
    back, and one past it, where the width grows by a byte."""
    for bound in (2 ** (8 * width - 1) - 1, 2 ** (8 * width - 1)):
        for sign in (1, -1):
            # constants: the bound split over two pairs
            pairs = [(QPoly([sign * (bound // 2)]), QPoly([1, 1])),
                     (QPoly([1]), QPoly([sign * (bound - bound // 2)]))]
            want = QPoly([sign * bound, sign * (bound // 2)])
            assert _dot(pairs) == want == _dot_reference(pairs)
            # a run of ones times a flat polynomial peaks at its middle
            length = 3
            x, r = divmod(bound, length)
            pairs = [(QPoly([1] * length), QPoly([sign * x] * length))]
            if r:
                pairs.append((QPoly([r]), QPoly([0, 0, sign])))
            got = _dot(pairs)
            assert got == _dot_reference(pairs)
            assert max(map(abs, got.coeffs)) == bound


@st.composite
def _slotted_coeffs(draw):
    """A slot width w in bytes and coefficients in [0, 2^(8w)), with
    trailing zeros drawn on purpose."""
    width = draw(st.integers(1, 32))
    coeffs = draw(st.lists(st.integers(0, 2 ** (8 * width) - 1),
                           max_size=40))
    return width, coeffs + [0] * draw(st.integers(0, 3))


@given(_slotted_coeffs())
def test_unpack_inverts_evaluation(case):
    width, coeffs = case
    poly = QPoly(coeffs)
    out = _unpack(poly.evaluate(2 ** (8 * width)), width)
    assert out == poly
    assert not out.coeffs or out.coeffs[-1] != 0


@given(st.integers(max_value=-1), st.integers(1, 32))
def test_unpack_rejects_negative_values(value, width):
    with pytest.raises(IdentityViolation):
        _unpack(value, width)


def _signed_coeffs(max_size):
    return st.integers(0, 2000).flatmap(lambda bits: st.lists(
        st.integers(-2 ** bits, 2 ** bits), max_size=max_size))


@given(st.lists(st.tuples(_signed_coeffs(24).map(QPoly),
                          _signed_coeffs(24).map(QPoly)), max_size=3))
def test_dot_matches_schoolbook_on_wide_coefficients(pairs):
    assert _dot(pairs) == _dot_reference(pairs)


_polys = st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=12).map(QPoly)


@given(_polys, _polys, _polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + QPoly.zero() == a == a * ONE
    assert a * QPoly.zero() == 0 == a - a
    assert a - b == a + (-b)


@given(_polys, _polys.filter(bool))
def test_exact_div_inverts_multiplication(a, b):
    assert (a * b).exact_div(b) == a


def _quotient_or_violation(divide, p, m):
    try:
        return divide(p, m)
    except IdentityViolation:
        return IdentityViolation


@pytest.mark.parametrize("m", range(7))
def test_running_sum_division_matches_exact_div(m):
    """_div_one_minus_q(p, m) returns p.exact_div((1 - q)^m), or raises
    IdentityViolation where it does: on zero, on constants, on random
    multiples of (1 - q)^m and on those plus one monomial, which no
    (1 - q)^m with m >= 1 divides."""
    rng = random.Random(m)
    power = (ONE - Q) ** m
    polys = [QPoly(), ONE, QPoly([-7]), QPoly([2 ** 80])]
    for _ in range(40):
        a = QPoly([rng.randint(-2 ** 60, 2 ** 60)
                   for _ in range(rng.randint(0, 15))])
        polys.append(a * power)
        polys.append(a * power + QPoly.monomial(rng.randint(0, 20),
                                                rng.choice([-3, 1, 5])))
    divisible = 0
    for p in polys:
        want = _quotient_or_violation(lambda p, m: p.exact_div(power), p, m)
        assert _quotient_or_violation(_div_one_minus_q, p, m) == want, p
        divisible += want is not IdentityViolation
    assert divisible == (len(polys) if m == 0 else 41)


def test_running_sum_division_raises_at_the_first_nonzero_remainder():
    # (1 - q)[3] passes one running-sum pass and leaves [3](1) = 3 at the
    # second
    assert _div_one_minus_q((ONE - Q) * q_int(3), 1) == q_int(3)
    for p, m in [((ONE - Q) * q_int(3), 2), (q_int(4), 1), (QPoly([5]), 1)]:
        with pytest.raises(IdentityViolation, match="nonzero remainder"):
            _div_one_minus_q(p, m)


def test_derivative_at_one_on_tables_and_oracle():
    """The weighted sum is g'(1) on every g_n to n = 40 of the five tables
    and on the oracle's distributions, those of 13-2, 3-21 and 3-12 too."""
    for pattern in ALL_PATTERNS:
        table = distribution_table(pattern, 40)
        for n in range(1, 41):
            g = table.g(n)
            assert _derivative_at_one(g) == g.derivative().evaluate(1), \
                (pattern, n)
    for text in [*map(str, ALL_PATTERNS), "13-2", "3-21", "3-12"]:
        pat = VincularPattern3.from_string(text)
        for n in range(1, 9):
            g = brute_distribution(n, pat)
            assert _derivative_at_one(g) == g.derivative().evaluate(1), \
                (text, n)


@given(_polys)
def test_derivative_at_one_is_the_weighted_sum(a):
    assert _derivative_at_one(a) == a.derivative().evaluate(1)


def _sized_coeffs(low, high):
    return st.integers(low, high).flatmap(lambda size: st.lists(
        st.integers(-2 ** 40, 2 ** 40), min_size=size, max_size=size))


@settings(max_examples=50)
@given(st.lists(st.tuples(_sized_coeffs(0, 20), _sized_coeffs(0, 60)),
                min_size=1, max_size=4))
def test_dot_equals_the_sum_of_products(pairs):
    """Mixed lengths, zero polynomials and constants among them: _dot of
    the pairs is the sum of their QPoly products."""
    pairs = [(QPoly(a), QPoly(b)) for a, b in pairs]
    want = QPoly()
    for a, b in pairs:
        want = want + a * b
    assert _dot(pairs) == want
    assert _dot(reversed(pairs)) == want


def test_evaluate_and_shift():
    p = QPoly([3, -1, 2])
    assert p.evaluate(2) == 3 - 2 + 8
    assert p.shifted(2) == QPoly([0, 0, 3, -1, 2])
    with pytest.raises(ValueError):
        p.shifted(-1)
