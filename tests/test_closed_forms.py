import math
from fractions import Fraction
from itertools import product

import pytest
from conftest import interrupt_every_line

from flatperm import closed_forms, perm_core, qpoly, verification
from flatperm.closed_forms import (AUX_3_12, AUX_3_21, SpecialNumberCache,
                                   average_occurrences, avoiders, limit_check,
                                   limit_deviation_strictly_decreasing,
                                   numbers, total_occurrences)
from flatperm.recurrences import ALL_PATTERNS, PatternId, distribution_table


def brute_partition_block_counts(n):
    counts = {}
    for rgs in product(*(range(i + 1) for i in range(n))):
        ok = True
        top = -1
        for v in rgs:
            if v > top + 1:
                ok = False
                break
            top = max(top, v)
        if ok:
            k = max(rgs) + 1 if rgs else 0
            counts[k] = counts.get(k, 0) + 1
    return counts


def test_stirling_bell_against_brute_partitions():
    for n in range(0, 8):
        counts = brute_partition_block_counts(n)
        for k in range(0, n + 1):
            assert numbers.stirling2(n, k) == counts.get(k, 0)
        assert numbers.bell(n) == sum(counts.values())
        assert numbers.complementary_bell(n) \
            == sum((-1) ** k * c for k, c in counts.items())


def test_special_number_edges():
    assert numbers.complementary_bell(-1) == -1
    assert [numbers.complementary_bell(n) for n in range(6)] \
        == [1, -1, 0, 1, 1, -2]
    assert numbers.stirling2(5, 0) == 0 and numbers.stirling2(0, 0) == 1
    with pytest.raises(ValueError):
        numbers.complementary_bell(-2)
    fresh = SpecialNumberCache()
    for n in range(1, 25):
        assert fresh.harmonic(n) - fresh.harmonic(n - 1) == Fraction(1, n)


def test_avoider_examples():
    assert avoiders("31-2", 4) == math.comb(6, 3) == 20
    assert avoiders("23-1", 4) == 2 + 12 + 8 == 22
    assert avoiders("12-3", 3) == 2
    assert avoiders("13-2", 5) == 16
    for key in ("31-2", "23-1", "32-1", "21-3", "12-3", "13-2"):
        assert avoiders(key, 1) == 1
        assert avoiders(key, 2) == 2
    with pytest.raises(ValueError):
        avoiders("14-2", 3)
    with pytest.raises(ValueError):
        avoiders("31-2", 0)


def test_avoiders_accept_pattern_ids():
    assert avoiders(PatternId.P31_2, 4) == avoiders("31-2", 4)


def test_avoiders_against_brute_force():
    for n in range(1, 8):
        for pattern in ALL_PATTERNS:
            assert avoiders(pattern, n) \
                == perm_core.brute_avoider_count(n, pattern.vincular())
        assert avoiders("13-2", n) == perm_core.brute_avoider_count(
            n, perm_core.VincularPattern3.from_string("13-2")) == 2 ** (n - 1)


def test_average_examples():
    assert average_occurrences("23-1", 3) == 0
    assert average_occurrences("31-2", 4) == Fraction(1, 6)
    assert average_occurrences("13-2", 3) == Fraction(1, 3)
    for key in ("31-2", "23-1", "32-1", "21-3", "12-3", "13-2"):
        assert average_occurrences(key, 1) == 0
        assert average_occurrences(key, 2) == 0


def test_average_matches_table_derivative():
    for pattern in ALL_PATTERNS:
        table = distribution_table(pattern, 7)
        for n in range(1, 8):
            assert average_occurrences(pattern, n) * math.factorial(n) \
                == table.g(n).derivative().evaluate(1)


def test_total_examples():
    assert total_occurrences("31-2", 4) == 4
    assert total_occurrences("21-3", 5) + total_occurrences(AUX_3_21, 5) == 96
    assert total_occurrences("23-1", 5) == total_occurrences("32-1", 5)
    with pytest.raises(ValueError):
        total_occurrences("31-2", 2)
    with pytest.raises(ValueError):
        total_occurrences("1-23", 5)


def test_totals_against_brute_force():
    for n in range(3, 8):
        for pattern in ALL_PATTERNS:
            assert total_occurrences(pattern, n) \
                == perm_core.brute_total_occurrences(n, pattern.vincular())
        for aux in (AUX_3_21, AUX_3_12):
            vinc = perm_core.VincularPattern3.from_string(aux)
            assert total_occurrences(aux, n) \
                == perm_core.brute_total_occurrences(n, vinc)


def _brute_total(text, n):
    return perm_core.brute_total_occurrences(
        n, perm_core.VincularPattern3.from_string(text))


def test_total_pairing_identities():
    # on the oracle's totals: total_occurrences defines the 21-3 and 12-3
    # totals by these identities, and 32-1 and 23-1 by one formula
    for n in range(3, 9):
        fact = math.factorial(n - 1)
        assert _brute_total("21-3", n) + _brute_total(AUX_3_21, n) \
            == fact * sum((n - i) * (i - 2) for i in range(3, n))
        assert _brute_total("12-3", n) + _brute_total(AUX_3_12, n) \
            == fact * sum((n - i) * i for i in range(2, n))
        assert _brute_total("32-1", n) == _brute_total("23-1", n)


def test_pairing_identities_check_fails_on_a_wrong_brute_total(monkeypatch):
    real = perm_core.brute_total_occurrences
    aux = perm_core.VincularPattern3.from_string(AUX_3_21)

    def off_by_one(n, pat, *args):
        return real(n, pat, *args) + (pat == aux)

    monkeypatch.setattr(perm_core, "brute_total_occurrences", off_by_one)
    report = verification.run_suite("identities", 4)
    [result] = [r for r in report.results
                if r.name == "occurrence-total pairing identities"]
    assert not result.passed
    assert result.detail == "21-3 pair identity at n=3"


def _counted_brute_totals(monkeypatch):
    """Patch perm_core.brute_total_occurrences to record each (n, text)
    it is asked for; returns the list of records."""
    real = perm_core.brute_total_occurrences
    calls = []

    def counted(n, pat, *args):
        calls.append((n, str(pat)))
        return real(n, pat, *args)

    monkeypatch.setattr(perm_core, "brute_total_occurrences", counted)
    return calls


TOTAL_TEXTS = [str(p) for p in ALL_PATTERNS] + [AUX_3_21, AUX_3_12]


def test_identities_suite_computes_each_brute_total_once(monkeypatch):
    calls = _counted_brute_totals(monkeypatch)
    report = verification.run_suite("identities", 5)
    assert report.ok
    assert sorted(calls) == sorted((n, text) for n in range(3, 6)
                                   for text in TOTAL_TEXTS)


def test_pairing_identities_compute_what_a_failed_totals_check_left(
        monkeypatch):
    # the totals check stops at 23-1, n = 4; the pairing identities then
    # compute the totals it did not reach, and pass on the exact counts
    real = closed_forms.total_occurrences
    monkeypatch.setattr(closed_forms, "total_occurrences", lambda p, n:
                        real(p, n) + (n == 4 and str(p) == "23-1"))
    calls = _counted_brute_totals(monkeypatch)
    report = verification.run_suite("identities", 5)
    results = {r.name: r for r in report.results}
    totals = results["occurrence totals vs brute force"]
    assert not totals.passed
    assert totals.detail.startswith("23-1, n=4: ")
    assert results["occurrence-total pairing identities"].passed
    assert len(calls) == len(set(calls))
    assert {(4, "32-1"), (5, "23-1")} <= set(calls)


def test_totals_equal_scaled_averages():
    for n in range(3, 9):
        for pattern in ALL_PATTERNS:
            assert total_occurrences(pattern, n) \
                == average_occurrences(pattern, n) * math.factorial(n)


def test_limit_check():
    values = limit_check(20, 30)
    assert set(values) == set(ALL_PATTERNS)
    for seq in values.values():
        assert len(seq) == 11
        assert all(isinstance(v, Fraction) for v in seq)
    assert limit_deviation_strictly_decreasing(3, 200)
    twelfth = Fraction(1, 12)
    for pattern in ALL_PATTERNS:
        dev = abs(average_occurrences(pattern, 1000) / 1000**2 - twelfth)
        assert dev < Fraction(1, 100)
    with pytest.raises(ValueError):
        limit_check(2, 10)


# ---------------------------------------------------------------------------
# Special-number memos after a growth step that stops midway
# ---------------------------------------------------------------------------

def _special_numbers(cache):
    return ([[cache.stirling2(n, k) for k in range(n + 1)]
             for n in range(12)],
            [cache.bell(n) for n in range(12)],
            [cache.complementary_bell(n) for n in range(-1, 12)],
            [cache.harmonic(n) for n in range(12)])


STIRLING_AVOIDER_KEYS = ("32-1", "23-1", "21-3")


def test_special_numbers_after_interrupted_growth(monkeypatch):
    """A growth of the Stirling row, its sums and the harmonic numbers
    stopped at any line leaves only whole entries: every later value equals
    a fresh cache's, and so do the avoider counts that read the row sums
    and the complementary Bell numbers."""
    want = _special_numbers(SpecialNumberCache())
    want_avoiders = {key: [avoiders(key, n) for n in range(1, 12)]
                     for key in STIRLING_AVOIDER_KEYS + ("12-3",)}

    def start():
        cache = SpecialNumberCache()
        cache.bell(4)
        cache.harmonic(4)
        return cache

    def grow(cache):
        cache.bell(9)
        cache.harmonic(9)

    for cache in interrupt_every_line(closed_forms, start, grow):
        monkeypatch.setattr(closed_forms, "numbers", cache)
        assert {key: [avoiders(key, n) for n in range(1, 12)]
                for key in want_avoiders} == want_avoiders
        assert _special_numbers(cache) == want


# ---------------------------------------------------------------------------
# The memo against the whole Stirling triangle
# ---------------------------------------------------------------------------

M_REF = 200


def _stirling_triangle(m_max):
    """Every row S(m, 0..m) for m <= m_max, by S(m, k) = S(m-1, k-1) +
    k S(m-1, k) on a zero-padded (m_max + 1)-square table."""
    tri = [[0] * (m_max + 1) for _ in range(m_max + 1)]
    tri[0][0] = 1
    for m in range(1, m_max + 1):
        for k in range(1, m + 1):
            tri[m][k] = tri[m - 1][k - 1] + k * tri[m - 1][k]
    return [tri[m][:m + 1] for m in range(m_max + 1)]


def _reference_sums(row):
    return (sum(row), sum((-1) ** k * s for k, s in enumerate(row)),
            sum(2 ** k * s for k, s in enumerate(row)),
            sum(k * s for k, s in enumerate(row)))


def _reference_avoiders(tri, key):
    """avoiders(key, n) for n = 1..m_max, where tri holds rows 0..m_max,
    by the closed forms read off the whole triangle."""
    n_max = len(tri) - 1
    if key in ("32-1", "23-1"):
        return [1] + [sum(2 ** k * tri[n - 1][k] for k in range(1, n))
                      for n in range(2, n_max + 1)]
    if key == "21-3":
        return [1] + [2 * sum(k * tri[n - 1][k] for k in range(1, n))
                      for n in range(2, n_max + 1)]
    bell, cbell, _, _ = zip(*map(_reference_sums, tri))
    cbell += (-1,)  # index -1
    return [1, 2] + [-2 * sum(math.comb(n - 2, i) * (bell[i] + bell[i + 1])
                              * cbell[n - i - 3] for i in range(n - 1))
                     for n in range(3, n_max + 1)]


@pytest.mark.parametrize("reads", [(), (200, 5, 37)],
                         ids=["fresh", "grown-200-5-37"])
def test_memo_matches_the_whole_triangle(monkeypatch, reads):
    """On a fresh cache, and on one grown to row 200 and then read at rows
    5 and 37, every entry, avoider count and small Stirling number equals
    the value computed from the whole triangle."""
    tri = _stirling_triangle(M_REF)
    cache = SpecialNumberCache()
    for n in reads:
        cache.stirling2(n, n // 2)
    monkeypatch.setattr(closed_forms, "numbers", cache)
    for key in STIRLING_AVOIDER_KEYS + ("12-3",):
        assert [avoiders(key, n) for n in range(1, M_REF + 1)] \
            == _reference_avoiders(tri, key), key
    for m, row in enumerate(tri):
        want = _reference_sums(row)
        assert cache._row_sums(m) == want, m
        assert (cache.bell(m), cache.complementary_bell(m)) == want[:2]
    assert [[cache.stirling2(n, k) for k in range(n + 1)]
            for n in range(31)] == tri[:31]


def _ints_held(value):
    if isinstance(value, int):
        return 1
    if isinstance(value, (list, tuple)):
        return sum(_ints_held(v) for v in value)
    return 0


def test_memo_keeps_one_row_and_four_sums_per_n(monkeypatch):
    cache = SpecialNumberCache()
    # every list of a fresh cache holds one entry, so the benchmark runner's
    # cold check (sum of len - 1 over the list attributes) reads 0
    assert {name: len(v) for name, v in vars(cache).items()
            if isinstance(v, list)} == {"_row": 1, "_sums": 1, "_harmonic": 1}
    monkeypatch.setattr(closed_forms, "numbers", cache)
    avoiders("32-1", 200)  # reads row 199
    assert len(cache._row) == len(cache._sums) == 200
    assert all(len(e) == 4 and all(isinstance(v, int) for v in e)
               for e in cache._sums)
    # the whole triangle to row 199 would be 20,100 integers
    assert sum(_ints_held(v) for v in vars(cache).values()) \
        <= 201 + 4 * 201


def test_q_binomial_rows_after_interrupted_growth(monkeypatch):
    """A growth of ``qpoly._QBINOM_ROWS`` stopped at any line leaves only
    whole rows: every later Gaussian binomial equals a fresh table's."""
    def rows():
        return [[qpoly.q_binomial(n, k) for k in range(n + 1)]
                for n in range(12)]

    monkeypatch.setattr(qpoly, "_QBINOM_ROWS", [[qpoly._ONE]])
    want = rows()

    def start():
        monkeypatch.setattr(qpoly, "_QBINOM_ROWS", [[qpoly._ONE]])
        qpoly.q_binomial(4, 2)
        return qpoly._QBINOM_ROWS

    for _ in interrupt_every_line(qpoly, start,
                                   lambda memo: qpoly.q_binomial(9, 4)):
        assert rows() == want
