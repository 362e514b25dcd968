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
            assert table.avoider_count(n) == avoiders(pattern, n)
            if n >= 3:
                assert table.total_occurrences(n) \
                    == total_occurrences(pattern, n)


def test_total_examples():
    assert total_occurrences("31-2", 4) == 4
    assert total_occurrences("21-3", 5) + total_occurrences(AUX_3_21, 5) == 96
    assert total_occurrences("23-1", 5) == total_occurrences("32-1", 5)
    with pytest.raises(ValueError):
        total_occurrences("31-2", 2)
    with pytest.raises(ValueError):
        total_occurrences("1-23", 5)


def test_totals_against_brute_force():
    for n in range(3, 12):
        for pattern in ALL_PATTERNS:
            assert total_occurrences(pattern, n) \
                == perm_core.brute_total_occurrences(n, pattern.vincular(),
                                                     max_n=11)
        for aux in (AUX_3_21, AUX_3_12):
            vinc = perm_core.VincularPattern3.from_string(aux)
            assert total_occurrences(aux, n) \
                == perm_core.brute_total_occurrences(n, vinc, max_n=11)


def test_occurrence_sums_match_the_per_term_fraction_sum():
    """The integer sums behind every occurrence total equal the sum of one
    exact Fraction per term, (n - i) count(i) (n - 1)! / i, to n = 200."""
    counts = {"32-1": lambda i: math.comb(i - 1, 2),
              "31-2": lambda i: math.comb(i, 2) - 1}
    for key, count in counts.items():
        for n in range(3, 201):
            fact = math.factorial(n - 1)
            want = sum(Fraction((n - i) * count(i) * fact, i)
                       for i in range(3, n))
            assert want.denominator == 1
            assert total_occurrences(key, n) == want, (key, n)


def _brute_total(text, n):
    return perm_core.brute_total_occurrences(
        n, perm_core.VincularPattern3.from_string(text), max_n=11)


def test_total_pairing_identities():
    # on the oracle's totals: total_occurrences defines the 21-3 and 12-3
    # totals by these identities, and 32-1 and 23-1 by one formula
    for n in range(3, 12):
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
    for n_lo, n_hi in [(3, 20), (20, 20), (30, 25)]:
        with pytest.raises(ValueError):
            limit_deviation_strictly_decreasing(n_lo, n_hi)


@pytest.mark.parametrize("change", ["tie", "rise", "fall"])
def test_limit_check_fails_on_one_tie_or_rise(monkeypatch, change):
    """Patch avr(100) of 23-1 so that its deviation from 1/12 equals that
    at n = 99, or doubles it, or falls halfway to that at n = 101: the
    monotone check fails on the first two and passes on the third."""
    pattern, n = PatternId.P23_1, 100

    def dev(m):
        return average_occurrences(pattern, m) / m**2 - Fraction(1, 12)

    before, after = dev(n - 1), dev(n + 1)
    assert (before > 0) == (after > 0)
    target = {"tie": before, "rise": 2 * before,
              "fall": (before + after) / 2}[change]
    avr = (Fraction(1, 12) + target) * n**2
    real = closed_forms._average_parts

    def parts(key, m):
        if (key, m) != (pattern.value, n):
            return real(key, m)
        s = real(key, m)[2]
        rest = avr - s * numbers.harmonic(m)   # avr = rest + s H_m
        return rest.numerator, rest.denominator, s

    monkeypatch.setattr(closed_forms, "_average_parts", parts)
    assert limit_deviation_strictly_decreasing(20, 200) \
        == (change == "fall")


def test_far_harmonic_is_one_reduction_outside_the_memo():
    """H_1000 asked of a memo grown to 200 equals the value a memo grown
    step by step to 1000 holds, and the memo stays at 200.  Any later
    request past the top grows the memo."""
    stepped = SpecialNumberCache()
    for n in range(1, 1001):   # each n one past the top: the memo grows
        stepped.harmonic(n)
    assert len(stepped._harmonic) == 1001
    cache = SpecialNumberCache()
    cache.harmonic(200)
    far = cache.harmonic(1000)
    assert isinstance(far, Fraction)
    assert far == stepped._harmonic[1000]
    assert len(cache._harmonic) == 201
    assert cache.harmonic(1000) is far   # kept as the one far value
    assert len(cache._harmonic) == 201
    assert cache.harmonic(900) == stepped._harmonic[900]
    assert len(cache._harmonic) == 901
    assert cache._far_harmonic == (1000, far)


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
    """A growth of the four sequences and the harmonic numbers stopped at
    any line leaves only whole entries and a row that is either the last
    value's or one step ahead of it: every later value equals a fresh
    cache's, and so do the avoider counts that read the sequences."""
    want = _special_numbers(SpecialNumberCache())
    want_avoiders = {key: [avoiders(key, n) for n in range(1, 12)]
                     for key in STIRLING_AVOIDER_KEYS + ("12-3",)}

    def start():
        cache = SpecialNumberCache()
        monkeypatch.setattr(closed_forms, "numbers", cache)
        cache.bell(4)
        cache.harmonic(4)
        return cache

    def grow(cache):
        cache.bell(9)
        cache.harmonic(9)
        avoiders("32-1", 9)
        avoiders("12-3", 9)
        cache.complementary_bell(9)

    for cache in interrupt_every_line(closed_forms, start, grow):
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
    """The Bell, complementary Bell and doubled-blocks sums of one row."""
    return (sum(row), sum((-1) ** k * s for k, s in enumerate(row)),
            sum(2 ** k * s for k, s in enumerate(row)))


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
    bell, cbell, _ = zip(*map(_reference_sums, tri))
    cbell += (-1,)  # index -1
    return [1, 2] + [-2 * sum(math.comb(n - 2, i) * (bell[i] + bell[i + 1])
                              * cbell[n - i - 3] for i in range(n - 1))
                     for n in range(3, n_max + 1)]


@pytest.mark.parametrize("reads", [(), (200, 5, 37)],
                         ids=["fresh", "grown-200-5-37"])
def test_memo_matches_the_whole_triangle(monkeypatch, reads):
    """On a fresh cache, and on one whose sequences were grown to index 200
    and then read at 5 and 37, every entry, avoider count and small
    Stirling number equals the value computed from the whole triangle."""
    tri = _stirling_triangle(M_REF)
    cache = SpecialNumberCache()
    for n in reads:
        for name in closed_forms._SEQUENCES:
            cache._grown(name, n)
        cache.stirling2(n, n // 2)
    monkeypatch.setattr(closed_forms, "numbers", cache)
    for key in STIRLING_AVOIDER_KEYS + ("12-3",):
        assert [avoiders(key, n) for n in range(1, M_REF + 1)] \
            == _reference_avoiders(tri, key), key
    for m, row in enumerate(tri):
        assert (cache.bell(m), cache.complementary_bell(m),
                cache._grown("_doubled", m)[m]) == _reference_sums(row), m
    assert [[cache.stirling2(n, k) for k in range(n + 1)]
            for n in range(31)] == tri[:31]


def _ints_held(value):
    if isinstance(value, int):
        return 1
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return sum(_ints_held(v) for v in value)
    return 0


def test_memo_keeps_one_row_per_sequence(monkeypatch):
    cache = SpecialNumberCache()
    # every list of a fresh cache holds one entry, so the benchmark runner's
    # cold check (sum of len - 1 over the list attributes) reads 0
    assert {name: len(v) for name, v in vars(cache).items()
            if isinstance(v, list)} \
        == {"_bell": 1, "_complementary_bell": 1, "_doubled": 1,
            "_g12_3": 1, "_harmonic": 1}
    assert cache._rows == dict.fromkeys(closed_forms._SEQUENCES, ())
    monkeypatch.setattr(closed_forms, "numbers", cache)
    avoiders("32-1", 201)  # reads T_200(2)
    avoiders("21-3", 200)  # B_200 and B_199
    avoiders("12-3", 201)  # g_199 and g_200
    cache.complementary_bell(200)
    # each sequence holds x_0..x_200 and row 199, the row x_200 came from
    for name in closed_forms._SEQUENCES:
        assert len(getattr(cache, name)) == 201, name
        assert len(cache._rows[name]) == 200, name
    # 4 x (201 + 200) = 1,604 integers in all, where the whole Stirling
    # triangle to row 200 alone would be 20,301
    assert sum(_ints_held(v) for v in vars(cache).values()) == 4 * (201 + 200)


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
