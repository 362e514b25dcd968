import ast
import inspect
import math
import os
import subprocess
import sys
import tracemalloc

import pytest
from conftest import interrupt_every_line

from flatperm import cli, closed_forms, perm_core, recurrences
from flatperm.qpoly import IdentityViolation, QPoly, _unpack, q_int
from flatperm.recurrences import (ALL_PATTERNS, DistributionTable, PatternId,
                                  a_coeff_table_31_2, b2_poly_21_3,
                                  b2_poly_23_1, b2_rational_identity_21_3,
                                  b2_rational_identity_23_1, b_coeff_31_2,
                                  distribution_polynomial, distribution_table,
                                  g1k_via_elementary_32_1,
                                  g_12_3, g_21_3, g_23_1, g_31_2, g_32_1,
                                  refined_g1k, qbinom_coefficient_12_3,
                                  qbinom_form_consistency_12_3)
from flatperm.recurrences import (_MIN_CAPACITY, _SIDE_WEIGHT, _slot_bytes,
                                  coefficient_table)
from flatperm.verification import (CROSS_PATTERN_N_MAX, DEFAULT_N_MAX,
                                   run_suite)

QM1 = QPoly([-1, 1])


def _empty_memo(monkeypatch):
    """Give ``recurrences`` an empty memo: no tables and no builder."""
    monkeypatch.setattr(recurrences, "_TABLES", {})
    monkeypatch.setattr(recurrences, "_BUILDERS", {})


def test_pattern_id():
    assert PatternId.from_string("31-2") is PatternId.P31_2
    assert str(PatternId.P12_3) == "12-3"
    assert PatternId.P23_1.vincular().letters == (2, 3, 1)
    with pytest.raises(ValueError):
        PatternId.from_string("13-2")


@pytest.mark.parametrize("route", [
    lambda p: distribution_table(p, 31),
    lambda p: distribution_polynomial(p, 31),
    lambda p: refined_g1k(p, 31, 2),
    lambda p: coefficient_table(p, 31),
], ids=["table", "polynomial", "refined", "coefficients"])
def test_non_pattern_refused_before_the_memo_changes(route, monkeypatch):
    # a string, the oracle's pattern value or None is not a PatternId: it
    # is refused with the five patterns named, and the tables and the live
    # builder (23-1 at level 30) stay as they were
    _empty_memo(monkeypatch)
    distribution_table(PatternId.P21_3, 8)
    refined_g1k(PatternId.P23_1, 30, 2)
    before = _memo()
    builder = recurrences._BUILDERS[PatternId.P23_1]
    for bad in ("23-1", PatternId.P23_1.vincular(), None):
        with pytest.raises(ValueError, match="^unknown pattern .*; expected "
                           "a PatternId, one of 12-3, 21-3, 23-1, 32-1, "
                           "31-2$"):
            route(bad)
        assert _memo() == before
        assert recurrences._BUILDERS[PatternId.P23_1] is builder


def test_small_values():
    assert g_31_2(3).g(2) == 2 and g_31_2(3).g(3) == 6
    assert g_31_2(4).g(4) == QPoly([20, 4])
    assert g_32_1(4).g(3) == 6
    assert g_32_1(4).g(4).constant_term() == 22
    assert g_12_3(3).g(3) == QPoly([2, 4])
    assert g_12_3(4).g(4).constant_term() == 6
    assert g_23_1(4).g(3) == 6
    assert g_23_1(4).g(4).constant_term() == 22
    assert g_21_3(4).g(3) == 6
    assert g_21_3(4).g(4).constant_term() == 20


def test_avoider_counts_match_partition_sums():
    # 23-1 at n=4 by its own avoidance recurrence: 2(g_3 + 2 g_2 + g_1)
    t = g_23_1(4)
    a = [t.g(n).constant_term() for n in range(1, 5)]
    assert a[3] == 2 * (a[2] + 2 * a[1] + a[0]) == 22
    # 21-3 at n=4: 4 g_3 - 2 g_2 and twice the weighted partition count
    t = g_21_3(4)
    a = [t.g(n).constant_term() for n in range(1, 5)]
    assert a[3] == 4 * a[2] - 2 * a[1] == 20
    from flatperm.closed_forms import numbers
    assert a[3] == 2 * sum(k * numbers.stirling2(3, k) for k in range(1, 4))
    # 32-1 at n=4 matches the doubled-blocks partition count
    assert g_32_1(4).g(4).constant_term() \
        == sum(2 ** k * numbers.stirling2(3, k) for k in range(1, 4))


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_oracle_equivalence_small(pattern):
    table = distribution_table(pattern, 6)
    vinc = pattern.vincular()
    for n in range(1, 7):
        assert table.g(n) == perm_core.brute_distribution(n, vinc)


def test_normalization_at_one():
    for pattern in ALL_PATTERNS:
        table = distribution_table(pattern, 10)
        for n in range(1, 11):
            assert table.g(n).evaluate(1) == math.factorial(n)


def test_distribution_table_invariants():
    with pytest.raises(ValueError):
        DistributionTable(PatternId.P31_2, (QPoly([2]),))
    with pytest.raises(ValueError):
        DistributionTable(PatternId.P31_2, (QPoly([1]), QPoly([3])))
    with pytest.raises(ValueError):
        # g_3(1) must equal 3!
        DistributionTable(PatternId.P31_2,
                          (QPoly([1]), QPoly([2]), QPoly([5, 2])))


def test_table_is_grown_incrementally():
    low = distribution_table(PatternId.P31_2, 5)
    high = distribution_table(PatternId.P31_2, 9)
    assert high.polys[:5] == low.polys
    assert distribution_table(PatternId.P31_2, 7).max_n == 7


def test_refined_examples():
    # prefix 1,3 for 31-2 collapses to the full next-smaller distribution
    assert refined_g1k(PatternId.P31_2, 4, 3) == g_31_2(3).g(3)
    # prefix 1,3 for 21-3, length 4
    expect = g_21_3(3).g(3) + 2 * QM1 * q_int(1) * g_21_3(2).g(2)
    assert refined_g1k(PatternId.P21_3, 4, 3) == expect == QPoly([2, 4])


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_refined_oracle_equivalence_small(pattern):
    vinc = pattern.vincular()
    for n in range(2, 7):
        for k in range(2, n + 1):
            assert refined_g1k(pattern, n, k) \
                == perm_core.brute_refined_distribution(n, vinc, k)


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_rows_equal_the_word_walk(pattern):
    # the rank pass rests on the order-type lemma as production does; the
    # word walk counts each flattened word on its own
    vinc = pattern.vincular()
    for n in range(2, 9):
        assert perm_core._bucket(perm_core._flat_words(n), vinc) \
            == distribution_table(pattern, n).g(n)
        for k in range(2, n + 1):
            assert perm_core._bucket(perm_core._flat_words(n, k), vinc) \
                == refined_g1k(pattern, n, k)


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_oracle_past_the_default_cap(pattern):
    """The xy-z oracle pass against the recurrences for n = 11..20, whole
    and for every k, with the cap raised explicitly."""
    vinc = pattern.vincular()
    table = distribution_table(pattern, 20)
    for n in range(11, 21):
        assert perm_core.brute_distribution(n, vinc, max_n=20) == table.g(n)
        for k in range(2, n + 1):
            assert perm_core.brute_refined_distribution(n, vinc, k, max_n=n) \
                == refined_g1k(pattern, n, k)


def test_refined_sums_and_range_errors():
    for pattern in ALL_PATTERNS:
        table = distribution_table(pattern, 6)
        for n in range(2, 7):
            total = QPoly()
            for k in range(2, n + 1):
                total = total + refined_g1k(pattern, n, k)
            assert total == table.g(n)
    with pytest.raises(ValueError):
        refined_g1k(PatternId.P31_2, 4, 1)
    with pytest.raises(ValueError):
        refined_g1k(PatternId.P31_2, 4, 5)


def test_prefix_12_relations():
    for pattern in ALL_PATTERNS:
        table = distribution_table(pattern, 7)
        for n in range(2, 8):
            doubled = 2 * table.g(n - 1)
            if pattern is PatternId.P12_3:
                # the leading ascent 1,2 already sees the n-2 larger letters
                assert refined_g1k(pattern, n, 2) == doubled.shifted(n - 2)
            else:
                assert refined_g1k(pattern, n, 2) == doubled


def test_refined_initial_values():
    q = QPoly.q()
    for n in range(3, 8):
        g = {m: g_31_2(7).g(m) for m in range(1, 8)}
        assert refined_g1k(PatternId.P31_2, n, 3) == g[n - 1]
        if n >= 4:
            assert refined_g1k(PatternId.P31_2, n, 4) \
                == g[n - 1] + 2 * QM1 * g[n - 2]
        g = {m: g_32_1(7).g(m) for m in range(1, 8)}
        assert refined_g1k(PatternId.P32_1, n, 3) == g[n - 1]
        g = {m: g_23_1(7).g(m) for m in range(1, 8)}
        assert refined_g1k(PatternId.P23_1, n, 3) \
            == q * g[n - 1] + 2 * (1 - q) * g[n - 2]
        g = {m: g_21_3(7).g(m) for m in range(1, 8)}
        assert refined_g1k(PatternId.P21_3, n, 3) \
            == g[n - 1] + 2 * QM1 * q_int(n - 3) * g[n - 2]
        g = {m: g_12_3(7).g(m) for m in range(1, 8)}
        qpow = QPoly.monomial(n - 3)
        assert refined_g1k(PatternId.P12_3, n, 3) \
            == qpow * g[n - 1] - 2 * qpow * (QPoly.monomial(n - 3) - 1) * g[n - 2]


def test_31_2_coefficient_routes():
    table = a_coeff_table_31_2(14)
    assert table[(3, 1)] == 1 and table[(4, 2)] == 2
    for n in range(4, 15):
        for j in range(2, n // 2 + 1):
            summed = QPoly()
            for k in range(3, n + 1):
                summed = summed + table.get((k, j), QPoly())
            assert summed == b_coeff_31_2(n, j)


def test_32_1_symmetric_route_for_refined_values():
    for n in range(3, 17):
        for k in range(3, n + 1):
            assert g1k_via_elementary_32_1(n, k) \
                == refined_g1k(PatternId.P32_1, n, k)


def _rows(pattern, n_max):
    """Every row {k: g_n(1k)} for n = 2..n_max, n ascending."""
    for n in range(2, n_max + 1):
        yield n, {k: refined_g1k(pattern, n, k) for k in range(2, n + 1)}


def test_31_2_second_order_refined_recurrence():
    # the paper's refined recurrence, which production replaces by its
    # Horner cell: for k >= 5, g_n(1k) = (q+1) g_n(1,k-1) - q g_n(1,k-2)
    # + (q-1) g_{n-1}(1,k-2), from g_n(13) = g_{n-1} and
    # g_n(14) = g_{n-1} + 2 (q-1) g_{n-2}
    table = distribution_table(PatternId.P31_2, 40)
    prev = {}
    for n, row in _rows(PatternId.P31_2, 40):
        if n >= 3:
            assert row[3] == table.g(n - 1)
        if n >= 4:
            assert row[4] == table.g(n - 1) + 2 * QM1 * table.g(n - 2)
        for k in range(5, n + 1):
            r1, r2 = row[k - 1], row[k - 2]
            assert row[k] == (r1.shifted(1) + r1 - r2.shifted(1)
                              + prev[k - 2].shifted(1) - prev[k - 2])
        prev = row


def test_12_3_prefix_suffix_refinement():
    # the paper's refinement, which production telescopes: on the rows
    # lowered as low_n(k) = g_n(1k) / q^(n-k), for k >= 3,
    # low_n(k) = sum_{j<k} low_{n-1}(j) + sum_{j>=k} q^(n-1-j) low_{n-1}(j),
    # and the whole second sum at k = 2 is g_{n-1}
    table = distribution_table(PatternId.P12_3, 40)
    prev = {}
    for n, row in _rows(PatternId.P12_3, 40):
        low = {}
        for k, g in row.items():
            assert not any(g.coeffs[:n - k])
            low[k] = QPoly(g.coeffs[n - k:])
        prefix = QPoly()
        suffix = sum((p.shifted(n - 1 - j) for j, p in prev.items()),
                     QPoly())
        if n >= 3:
            assert suffix == table.g(n - 1)
        for k in range(3, n + 1):
            prefix = prefix + prev[k - 1]
            suffix = suffix - prev[k - 1].shifted(n - k)
            assert low[k] == prefix + suffix
        prev = low


def _shift_mutants(entries):
    """Each copy of the generator ``entries`` with one shift exponent one
    slot larger: ``x << e`` read as ``x << e + s``."""
    tree = ast.parse(inspect.getsource(entries))
    sites = [node for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)]
    for site in sites:
        exponent = site.right
        site.right = ast.BinOp(exponent, ast.Add(), ast.Name("s", ast.Load()))
        namespace = dict(vars(recurrences))
        exec(compile(ast.fix_missing_locations(tree), "<mutant>", "exec"),
             namespace)
        site.right = exponent
        yield namespace[entries.__name__]


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_every_one_slot_shift_mutant_is_caught(pattern, monkeypatch):
    # 31-2 and 32-1 have no asserted identity, and a shift keeps
    # g_n(1) = n!, so only the table comparison sees their mutants
    reference = coefficient_table(pattern, 12).polys
    mutants = list(_shift_mutants(recurrences._ENTRIES[pattern]))
    assert mutants
    for mutant in mutants:
        _empty_memo(monkeypatch)
        monkeypatch.setitem(recurrences._ENTRIES, pattern, mutant)
        try:
            table = distribution_table(pattern, 12)
        except IdentityViolation:
            continue
        assert table.polys != reference


# ---------------------------------------------------------------------------
# The row pass over two projections of Z[q]
# ---------------------------------------------------------------------------

class _Projection:
    """The image of a polynomial under a ring map of Z[q], for
    ``_row_pass`` at s = 1, where ``x << t`` is q^t x."""

    __slots__ = ()
    __hash__ = None

    def __radd__(self, zero):
        # the generators start their sums from the int 0
        assert zero == 0
        return self


class _AtZero(_Projection):
    """p(0), the constant term: q^t p keeps it only at t = 0."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def __add__(self, other):
        return _AtZero(self.a + other.a)

    def __sub__(self, other):
        return _AtZero(self.a - other.a)

    def __rmul__(self, c):
        return _AtZero(c * self.a)

    def __lshift__(self, t):
        return self if t == 0 else _AtZero(0)

    def __eq__(self, other):
        return self.a == other.a


class _Jet(_Projection):
    """p mod (q - 1)^3, as a, b, c = p(1), p'(1), p''(1)/2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def __add__(self, other):
        return _Jet(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other):
        return _Jet(self.a - other.a, self.b - other.b, self.c - other.c)

    def __rmul__(self, c):
        return _Jet(c * self.a, c * self.b, c * self.c)

    def __lshift__(self, t):
        a, b = self.a, self.b
        return _Jet(a, b + t * a, self.c + t * b + t * (t - 1) // 2 * a)

    def __eq__(self, other):
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)


def _first_projection_miss(pattern, n_max):
    """The least n <= n_max at which ``_row_pass``, run from level 1 at
    q = 0 and on the jets, gives a [q^0] g_n, g_n(1) or g_n'(1) that
    differs from its closed form (n!, for g_n(1)); None if there is none.
    Every asserted identity of the pattern runs on both rings."""
    zero_row, zero = [0, 0], _AtZero(1)
    jet_row, jet = [0, 0], _Jet(1, 0, 0)
    for n in range(2, n_max + 1):
        zero_row, zero = recurrences._row_pass(pattern, 1, n, zero_row, zero)
        jet_row, jet = recurrences._row_pass(pattern, 1, n, jet_row, jet)
        total = closed_forms.total_occurrences(pattern, n) if n >= 3 \
            else jet.b
        if (zero.a, jet.a, jet.b) \
                != (closed_forms.avoiders(pattern, n), math.factorial(n), total):
            return n
    return None


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_row_pass_projections_match_the_closed_forms(pattern):
    # q = 0 and q = 1 + e mod e^3 are ring maps of Z[q], so the production
    # row pass, unchanged, checks every row to n = 200 at both
    assert _first_projection_miss(pattern, 200) is None


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_every_one_slot_shift_mutant_fails_the_projections(pattern,
                                                           monkeypatch):
    mutants = list(_shift_mutants(recurrences._ENTRIES[pattern]))
    assert mutants
    for mutant in mutants:
        monkeypatch.setitem(recurrences._ENTRIES, pattern, mutant)
        try:
            assert _first_projection_miss(pattern, 12) is not None
        except IdentityViolation:
            pass


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_generators_are_pure_and_the_pass_releases_the_row(pattern,
                                                           monkeypatch):
    _empty_memo(monkeypatch)
    below = recurrences._grown(pattern, 11)
    s, prev, g1 = 8 * below.width, list(below.row), below.g
    del below
    kept, entries = list(prev), recurrences._ENTRIES[pattern]
    first = list(entries(s, 12, prev, g1))
    assert prev == kept
    assert list(entries(s, 12, prev, g1)) == first
    assert prev == kept
    row, g = recurrences._row_pass(pattern, s, 12, prev, g1)
    # entries 2 .. 11, every one that level 12 reads, are released
    assert prev[2:] == [None] * 10
    assert [(k, row[k]) for k in range(3, 13)] == first
    level = recurrences._grown(pattern, 12)
    assert (tuple(row), g) == (level.row, level.g)


def test_b2_polynomial_sums():
    assert b2_poly_23_1(4) == QPoly([4, 3, 1])
    assert b2_poly_21_3(4) == QPoly([2])
    assert b2_poly_21_3(5) == QPoly([5, 2])
    for n in range(3, 16):
        assert b2_rational_identity_23_1(n)
        assert b2_rational_identity_21_3(n)


def test_12_3_qbinom_coefficient():
    # the j=1 coefficient of the closed form is the leading term 2q^(n-2)+[n-2]
    for n in range(3, 9):
        lead = QPoly([1] * (n - 2)) + QPoly.monomial(n - 2, 2)
        assert qbinom_coefficient_12_3(n, 1) == lead
    with pytest.raises(ValueError):
        qbinom_coefficient_12_3(5, 5)


def test_12_3_coefficient_form_report():
    report = qbinom_form_consistency_12_3(9)
    assert [c.n for c in report] == list(range(3, 10))
    # with the sum starting at j=2 the recurrence misses its g_(n-1) term
    assert not any(c.j2_only_matches for c in report)
    # restoring the j=1 term reproduces the table everywhere
    assert all(c.with_j1_term_matches for c in report)


def test_avoidance_specializations_at_zero():
    g23 = g_23_1(12)
    a = [None] + [g23.g(n).constant_term() for n in range(1, 13)]
    for n in range(2, 13):
        assert a[n] == 2 * sum(math.comb(n - 2, j - 1) * a[n - j]
                               for j in range(1, n))
    g21 = g_21_3(12)
    a = [None] + [g21.g(n).constant_term() for n in range(1, 13)]
    for n in range(3, 13):
        assert a[n] == (n * a[n - 1] - n * (n - 3) // 2 * a[n - 2]
                        + sum((-1) ** (j - 1) * (math.comb(n - 2, j)
                                                 + math.comb(n - 3, j - 1))
                              * a[n - j] for j in range(3, n)))
    g32 = g_32_1(12)
    a = [None] + [g32.g(n).constant_term() for n in range(1, 13)]
    for n in range(2, 13):
        assert a[n] == n * a[n - 1] + sum(
            (-1) ** (j - 1) * math.comb(n - 2, j) * a[n - j]
            for j in range(2, n - 1))


def test_cross_pattern_equalities_small():
    g23, g32 = g_23_1(12), g_32_1(12)
    g21, g31 = g_21_3(12), g_31_2(12)
    for n in range(1, 13):
        assert g23.g(n).constant_term() == g32.g(n).constant_term()
        assert g21.g(n).derivative().evaluate(1) \
            == g31.g(n).derivative().evaluate(1)


# ---------------------------------------------------------------------------
# The coefficient-table check and the packed representation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_coefficient_tables_match_production(pattern):
    # for 32-1 the build also compares its two coefficient routes
    assert coefficient_table(pattern, CROSS_PATTERN_N_MAX).polys \
        == distribution_table(pattern, CROSS_PATTERN_N_MAX).polys


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_coefficient_tables_at_the_smallest_n(pattern):
    # n = 1 and 2 read no coefficients, n = 3 one row of them
    for n in (1, 2, 3):
        assert coefficient_table(pattern, n).polys \
            == distribution_table(pattern, n).polys
    with pytest.raises(ValueError, match="^n_max must be at least 1$"):
        coefficient_table(pattern, 0)


def test_32_1_check_rejects_a_wrong_q_binomial(monkeypatch):
    # q_binomial(3, 1) first enters the triple-sum route at n = 6, j = 2
    real = recurrences.q_binomial

    def bumped(m, i):
        return real(m, i) + (1 if (m, i) == (3, 1) else 0)

    monkeypatch.setattr(recurrences, "q_binomial", bumped)
    coefficient_table(PatternId.P32_1, 5)
    with pytest.raises(IdentityViolation,
                       match="^32-1 coefficient routes disagree at n=6, j=2$"):
        coefficient_table(PatternId.P32_1, 6)


def test_31_2_check_rejects_a_fractional_coefficient(monkeypatch):
    # _binom(2, 1) first enters b_{n,j} at n = 5, j = 2, k = 0, where
    # (n - k) * 3 * 1 = 15 is odd
    real = recurrences._binom

    def bumped(m, r):
        return real(m, r) + (1 if (m, r) == (2, 1) else 0)

    monkeypatch.setattr(recurrences, "_binom", bumped)
    coefficient_table(PatternId.P31_2, 4)
    message = "^31-2 coefficient not an integer at n=5, j=2, k=0$"
    with pytest.raises(IdentityViolation, match=message):
        coefficient_table(PatternId.P31_2, 5)
    with pytest.raises(IdentityViolation, match=message):
        b_coeff_31_2(5, 2)


def test_slot_width_bounds_every_asserted_side():
    for capacity in range(1, 201):
        s = 8 * _slot_bytes(capacity)
        assert _SIDE_WEIGHT * math.factorial(capacity) < 2 ** (s - 2)
        # and a slot one byte narrower would not do
        assert _SIDE_WEIGHT * math.factorial(capacity) >= 2 ** (s - 10)


@pytest.mark.parametrize("bump", ["+1", "-1", "+q^(n-2)"])
@pytest.mark.parametrize("pattern", [PatternId.P12_3, PatternId.P21_3,
                                     PatternId.P23_1], ids=str)
def test_asserted_identities_reject_a_corrupted_row(pattern, bump,
                                                    monkeypatch):
    # the assertions run before g_n is unpacked, so only they can raise
    _empty_memo(monkeypatch)
    distribution_table(pattern, 2)
    s = 8 * recurrences._BUILDERS[pattern].width
    entries_of = recurrences._ENTRIES[pattern]
    for n in range(3, 13):
        delta = {"+1": 1, "-1": -1, "+q^(n-2)": 1 << s * (n - 2)}[bump]
        for k in range(3, n + 1):
            def corrupted(s, m, *rest):
                for j, entry in entries_of(s, m, *rest):
                    yield j, entry + delta if (m, j) == (n, k) else entry

            monkeypatch.setitem(recurrences._ENTRIES, pattern, corrupted)
            message = (f"^{pattern} refined difference recurrence failed "
                       f"at n={n}, k={k}$")
            with pytest.raises(IdentityViolation, match=message):
                distribution_table(pattern, n)
            # the failed step left no builder, and the table as it was
            assert recurrences._BUILDERS == {}
            assert len(recurrences._TABLES[pattern]) == n - 1
        monkeypatch.setitem(recurrences._ENTRIES, pattern, entries_of)
        distribution_table(pattern, n)


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_row_entries_ascend_after_the_12_entry(pattern, monkeypatch):
    # every generator yields k = 3..n once each, in ascending order, and
    # the step itself sets g_n(12) = 2 g_{n-1} (q-lowered for 12-3)
    _empty_memo(monkeypatch)
    lowered = pattern is PatternId.P12_3
    for n in range(2, 13):
        below = recurrences._grown(pattern, n - 1)
        s, g1 = 8 * below.width, below.g
        entries = recurrences._ENTRIES[pattern](s, n, list(below.row), g1)
        assert [k for k, _ in entries] == list(range(3, n + 1))
        del below   # a held record would keep its row through the step
        assert recurrences._grown(pattern, n).row[2] == 2 * g1
        g = _unpack(g1, recurrences._BUILDERS[pattern].width)
        assert refined_g1k(pattern, n, 2) \
            == (2 * g).shifted(n - 2 if lowered else 0)


def test_pack_unpack_round_trip():
    width = _slot_bytes(12)
    q = 1 << 8 * width
    for poly in (QPoly(), QPoly([1]), QPoly([0, 0, 5]),
                 QPoly([math.factorial(12), 0, 3, 1]),
                 distribution_table(PatternId.P12_3, 12).g(12)):
        assert _unpack(poly.evaluate(q), width) == poly


def test_unpack_negative_raises():
    with pytest.raises(IdentityViolation):
        _unpack(-1, 1)
    with pytest.raises(IdentityViolation):
        _unpack(QPoly([3, -1]).evaluate(1 << 8), 1)


def test_request_past_capacity_starts_over(monkeypatch):
    _empty_memo(monkeypatch)
    low = distribution_table(PatternId.P32_1, 5)
    first = recurrences._BUILDERS[PatternId.P32_1]
    high = distribution_table(PatternId.P32_1, first.capacity + 1)
    second = recurrences._BUILDERS[PatternId.P32_1]
    assert second is not first
    # from level 5 the build jumps past twice that level, so it builds at
    # the requested n's own width
    assert (second.capacity, second.width) == (41, _slot_bytes(41))
    assert high.polys[:5] == low.polys


def test_verify_default_bounds_fit_a_first_builder(monkeypatch):
    # a table past _MIN_CAPACITY is built at wider slots, so verify's table
    # bounds at their defaults must stay within it
    assert CROSS_PATTERN_N_MAX <= _MIN_CAPACITY
    assert max(max(DEFAULT_N_MAX.values()), 20) <= _MIN_CAPACITY
    step = recurrences._step
    sizes, steps = set(), []

    def recorded(p, tabled):
        builder = recurrences._BUILDERS[p]
        sizes.add((builder.capacity, builder.width))
        steps.append(p)
        step(p, tabled)

    _empty_memo(monkeypatch)
    monkeypatch.setattr(recurrences, "_step", recorded)
    assert run_suite("all").ok
    assert sizes == {(_MIN_CAPACITY, _slot_bytes(_MIN_CAPACITY))}
    # the verify_breadth benchmark's order: a rebuild added to it fails here
    assert len(steps) == 328


def test_memo_tables_empty_at_import():
    src = os.path.dirname(os.path.dirname(recurrences.__file__))
    # the benchmark's cold-state probe reads these by name: the builder
    # dict, and every list in closed_forms.numbers by its length - 1; the
    # tables and the oracle's memo perm_core._FRONTS are checked here only
    probe = (f"import sys; sys.path.insert(0, {src!r})\n"
             "import flatperm.cli\n"
             "from flatperm import closed_forms, perm_core, recurrences as r\n"
             "memos = r._BUILDERS, r._TABLES, perm_core._FRONTS\n"
             "print(all(m == {} and type(m) is dict for m in memos),\n"
             "      len(set(map(id, memos))) == 3,\n"
             "      sum(len(v) - 1 for v in vars(closed_forms.numbers).values()\n"
             "          if isinstance(v, list)))\n")
    out = subprocess.run([sys.executable, "-I", "-c", probe],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["True", "True", "0"]


# ---------------------------------------------------------------------------
# Memo state after a step that stops midway
# ---------------------------------------------------------------------------

def _interrupt_every_line(monkeypatch, empty, build_to):
    """Build to n = 6 (on an empty memo, if ``empty``), then run step 7
    with a KeyboardInterrupt raised at the i-th line event that
    sys.settrace reports inside ``recurrences``, for every such event of
    the step.  Yields after each interrupted step, for the caller's retry."""
    def start():
        if empty:
            _empty_memo(monkeypatch)
        build_to(6)

    return interrupt_every_line(recurrences, start, lambda _: build_to(7))


def _memo():
    """Copies of the builder dict and the table dict."""
    return dict(recurrences._BUILDERS), dict(recurrences._TABLES)


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_table_rebuilt_after_interrupted_step(pattern, monkeypatch):
    _empty_memo(monkeypatch)
    fresh = distribution_table(pattern, 9).polys
    for _ in _interrupt_every_line(
            monkeypatch, True, lambda n: distribution_table(pattern, n)):
        assert distribution_table(pattern, 9).polys == fresh


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_refined_rebuilt_after_interrupted_step(pattern, monkeypatch):
    def rows(n_max):
        return {(n, k): refined_g1k(pattern, n, k)
                for n in range(2, n_max + 1) for k in range(2, n + 1)}

    _empty_memo(monkeypatch)
    fresh = rows(9)
    for _ in _interrupt_every_line(
            monkeypatch, True, lambda n: refined_g1k(pattern, n, 2)):
        assert rows(9) == fresh


@pytest.mark.parametrize("restarted", [False, True])
@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_interrupted_step_leaves_a_whole_level(pattern, restarted,
                                               monkeypatch):
    # a builder grown from nothing, or one started over below the level
    # it had reached, so that the table reaches past its level; a whole
    # level is the last one committed, or no builder, with the same table
    def build_to(n):
        if n == 6:
            _empty_memo(monkeypatch)
            if restarted:
                distribution_table(pattern, 9)
        refined_g1k(pattern, n, 2)
        return _memo()

    six = build_to(6)
    whole = (six, ({}, six[1]), build_to(7))
    want = build_to(9)
    assert len(want[1].get(pattern, ())) == (9 if restarted else 0)
    seen = set()
    for _ in _interrupt_every_line(monkeypatch, False, build_to):
        got = _memo()
        assert got in whole
        seen.add(got[0][pattern].n if got[0] else None)
        assert build_to(9) == want
    # stopped before the step, inside it, and after its commit
    assert seen == {6, None, 7}


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_interrupted_step_of_another_pattern(pattern, monkeypatch):
    # pattern's builder at level 6, then another pattern (no builder, a
    # table to 3) grown to 7; the interrupts fall where pattern's builder
    # is dropped as well as in the steps
    other = ALL_PATTERNS[ALL_PATTERNS.index(pattern) - 1]

    def start():
        _empty_memo(monkeypatch)
        distribution_table(other, 3)
        refined_g1k(pattern, 6, 2)
        return _memo()

    def rows(p, n_max):
        return {(n, k): refined_g1k(p, n, k)
                for n in range(2, n_max + 1) for k in range(2, n + 1)}

    def rebuilt():
        return {p: (rows(p, 8), distribution_table(p, 9).polys)
                for p in (pattern, other)}

    # the whole states: the start, then other's committed levels 1 .. 7,
    # each also without its builder
    whole = [start()]
    recurrences._grown(other, 1, tabled=True)
    whole.append(_memo())
    while len(whole) < 8:
        recurrences._step(other, True)
        whole.append(_memo())
    whole += [({}, tables) for _, tables in whole]
    _empty_memo(monkeypatch)
    fresh = rebuilt()

    seen = set()
    for _ in interrupt_every_line(
            recurrences, start, lambda _: distribution_table(other, 7)):
        assert len(recurrences._BUILDERS) <= 1
        assert _memo() in whole
        seen.add(tuple((p, b.n) for p, b in recurrences._BUILDERS.items()))
        assert rebuilt() == fresh
    # interrupted before the drop, after it and before the first step,
    # inside a step, and after steps
    assert {((pattern, 6),), (), ((other, 1),), ((other, 2),)} <= seen


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_refined_failed_check_raises_again(pattern, monkeypatch):
    original = recurrences._CHECKS.get(pattern)

    def failing(s, n, k, *rest):
        if (n, k) == (7, 3):
            return False
        return original(s, n, k, *rest) if original else True

    _empty_memo(monkeypatch)
    monkeypatch.setitem(recurrences._CHECKS, pattern, failing)
    for _ in range(2):
        with pytest.raises(IdentityViolation, match="at n=7, k=3$"):
            refined_g1k(pattern, 7, 3)
        with pytest.raises(IdentityViolation, match="at n=7, k=3$"):
            refined_g1k(pattern, 8, 3)
    if original:
        monkeypatch.setitem(recurrences._CHECKS, pattern, original)
    else:
        monkeypatch.delitem(recurrences._CHECKS, pattern)
    assert refined_g1k(pattern, 7, 3) \
        == perm_core.brute_refined_distribution(7, pattern.vincular(), 3)


# ---------------------------------------------------------------------------
# One builder per pattern, keeping only its last row
# ---------------------------------------------------------------------------

def _fresh(monkeypatch, read):
    _empty_memo(monkeypatch)
    return read()


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_read_below_the_level_then_the_table(pattern, monkeypatch):
    def row(n):
        return [refined_g1k(pattern, n, k) for k in range(2, n + 1)]

    want = (_fresh(monkeypatch, lambda: row(40)),
            _fresh(monkeypatch, lambda: row(3)),
            _fresh(monkeypatch, lambda: distribution_table(pattern, 50)))
    got = _fresh(monkeypatch, lambda: (
        row(40), row(3), distribution_table(pattern, 50)))
    assert got == want
    # the builder started over below the top of its table, so it does not
    # double its capacity: the table grows at a fresh process's width
    builder = recurrences._BUILDERS[pattern]
    assert (builder.capacity, builder.width) == (50, _slot_bytes(50))


def test_table_reads_within_the_table_run_no_step(monkeypatch):
    _empty_memo(monkeypatch)
    fresh = {p: distribution_table(p, 12).polys for p in ALL_PATTERNS}
    for p in ALL_PATTERNS:
        refined_g1k(p, 3, 2)

    def no_step(*args):
        raise AssertionError("a row step ran")

    for p in ALL_PATTERNS:
        monkeypatch.setitem(recurrences._ENTRIES, p, no_step)
    for p in ALL_PATTERNS:
        for n in (1, 3, 7, 12):
            assert distribution_table(p, n).polys == fresh[p][:n]
    with pytest.raises(AssertionError, match="a row step ran"):
        distribution_table(PatternId.P31_2, 13)


def _deep_tables_order(monkeypatch):
    """The deep_tables benchmark order on an empty memo: each table to
    n = 50, then every g_n(1k) to n = 40, one pattern at a time with n
    ascending."""
    _empty_memo(monkeypatch)
    for p in ALL_PATTERNS:
        distribution_table(p, 50)
    for p in ALL_PATTERNS:
        for n in range(2, 41):
            for k in range(2, n + 1):
                refined_g1k(p, n, k)


def test_memo_keeps_one_row(monkeypatch):
    # every table is kept and read without a step, but only the pattern
    # stepped last keeps a builder
    step, steps = recurrences._step, []

    def counted(p, tabled):
        steps.append(p)
        step(p, tabled)

    monkeypatch.setattr(recurrences, "_step", counted)
    _deep_tables_order(monkeypatch)
    # 49 levels per table, then 39 per pattern's rows from n = 2: a
    # rebuild added to the deep_tables benchmark's order fails here
    assert len(steps) == 440
    last = ALL_PATTERNS[-1]
    assert list(recurrences._BUILDERS) == [last]
    builder = recurrences._BUILDERS[last]
    assert type(builder) is recurrences._Level
    # the rows were built at the slot width of capacity 40, not 50
    assert (builder.capacity, builder.width) \
        == (_MIN_CAPACITY, _slot_bytes(_MIN_CAPACITY))
    assert builder.n == 40 and len(builder.row) == 41
    assert all(type(x) is int for x in builder.row + (builder.g,))
    assert set(recurrences._TABLES) == set(ALL_PATTERNS)
    for table in recurrences._TABLES.values():
        assert len(table) == 50
        assert all(type(x) is QPoly for x in table)


def test_table_reads_never_step_a_dropped_pattern(monkeypatch):
    _deep_tables_order(monkeypatch)
    last = ALL_PATTERNS[-1]
    tables = dict(recurrences._TABLES)

    def no_step(*args):
        raise AssertionError("a row step ran")

    for p in ALL_PATTERNS:
        monkeypatch.setitem(recurrences._ENTRIES, p, no_step)
    for p in ALL_PATTERNS:
        for n in range(1, 51):
            assert distribution_table(p, n).polys == tables[p][:n]
    assert list(recurrences._BUILDERS) == [last]


@pytest.mark.parametrize("restart", ["refined read below the level",
                                     "row dropped by another pattern"])
def test_table_after_a_start_over_is_built_at_the_fresh_width(
        restart, monkeypatch):
    pattern, other = PatternId.P31_2, PatternId.P32_1
    fresh = _fresh(monkeypatch, lambda: distribution_table(pattern, 50))
    for n in (30, 50):
        _empty_memo(monkeypatch)
        distribution_table(pattern, n - 5)
        if restart == "refined read below the level":
            refined_g1k(pattern, 5, 2)
        else:
            distribution_table(other, 3)
            assert pattern not in recurrences._BUILDERS
        assert distribution_table(pattern, n).polys == fresh.polys[:n]
        builder = recurrences._BUILDERS[pattern]
        capacity = max(n, _MIN_CAPACITY)
        assert (builder.capacity, builder.width) \
            == (capacity, _slot_bytes(capacity))


def test_distribution_polynomial_unpacks_only_g_n(monkeypatch):
    pattern = PatternId.P23_1
    fresh = _fresh(monkeypatch, lambda: distribution_table(pattern, 20).polys)
    _empty_memo(monkeypatch)
    for n in (12, 20, 5):
        assert distribution_polynomial(pattern, n) == fresh[n - 1]
        assert recurrences._TABLES == {}
    distribution_table(pattern, 20)

    def no_step(*args):
        raise AssertionError("a row step ran")

    monkeypatch.setitem(recurrences._ENTRIES, pattern, no_step)
    # a table that holds n is read, whatever the builder's level
    for n in (1, 5, 20):
        assert distribution_polynomial(pattern, n) == fresh[n - 1]
    with pytest.raises(ValueError):
        distribution_polynomial(pattern, 0)


def test_cli_distribution_then_refined_keeps_one_row(monkeypatch, capsys):
    """The deep_tables benchmark order through the CLI: distribution
    unpacks no table, so the memo holds none, and only the pattern read
    last keeps a builder."""
    _empty_memo(monkeypatch)
    for p in ALL_PATTERNS:
        assert cli.main(["distribution", "--pattern", p.value, "--n", "50",
                         "--format", "json"]) == 0
    capsys.readouterr()
    for p in ALL_PATTERNS:
        for n in range(2, 41):
            for k in range(2, n + 1):
                refined_g1k(p, n, k)
    last = ALL_PATTERNS[-1]
    assert list(recurrences._BUILDERS) == [last]
    assert recurrences._TABLES == {}

    def reads(p):
        return (distribution_table(p, 50).polys,
                [refined_g1k(p, 50, k) for k in range(2, 51)])

    got = {p: reads(p) for p in ALL_PATTERNS}
    assert got == {p: _fresh(monkeypatch, lambda: reads(p))
                   for p in ALL_PATTERNS}


@pytest.mark.parametrize("table_n", [None, 60],
                         ids=["empty memo", "table to 60"])
def test_ascending_refined_reads_start_over_once_per_doubling(table_n,
                                                              monkeypatch):
    # after the table's build the builder is above the first read, which
    # starts over; from there it doubles as it does from an empty memo
    pattern = PatternId.P31_2
    step = recurrences._step
    from_level_one = []

    def counted(p, tabled):
        if recurrences._BUILDERS[p].n == 1:
            from_level_one.append(p)
        step(p, tabled)

    _empty_memo(monkeypatch)
    if table_n:
        distribution_table(pattern, table_n)
    monkeypatch.setattr(recurrences, "_step", counted)
    capacities = []
    for n in range(2, 91):
        refined_g1k(pattern, n, 2)
        capacities.append(recurrences._BUILDERS[pattern].capacity)
    # the first build, then one start-over at n = 41 and one at n = 81
    assert len(from_level_one) == 3
    assert sorted(set(capacities)) == [40, 80, 160]
    assert capacities.index(80) == 41 - 2 and capacities.index(160) == 81 - 2


@pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
def test_a_step_holds_about_one_row(pattern, monkeypatch):
    # with the committed row traced, a step that kept it whole while it
    # built the next one would peak at about twice its bytes
    monkeypatch.setattr(recurrences, "_BUILDERS",
                        {pattern: recurrences._start(60)})
    tracemalloc.start()
    try:
        refined_g1k(pattern, 59, 2)
        row = recurrences._BUILDERS[pattern].row
        row_bytes = sum(map(sys.getsizeof, row))
        del row
        tracemalloc.reset_peak()
        refined_g1k(pattern, 60, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recurrences._BUILDERS[pattern].n == 60
    assert peak < 1.25 * row_bytes


def test_level_repr_shows_sizes_not_values(monkeypatch):
    _empty_memo(monkeypatch)
    refined_g1k(PatternId.P32_1, 60, 2)
    builder = recurrences._BUILDERS[PatternId.P32_1]
    # the packed values are too long for str()
    with pytest.raises(ValueError, match="Exceeds the limit"):
        tuple.__repr__(builder)
    bits = [x.bit_length() for x in builder.row]
    assert repr(builder) == (
        f"_Level(capacity=60, width={_slot_bytes(60)}, n=60, row of 61 "
        f"entries: {sum(bits)} bits, at most {max(bits)} each, g of "
        f"{builder.g.bit_length()} bits)")
