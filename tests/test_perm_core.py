import itertools
import math
from collections import Counter

import pytest

from flatperm import perm_core
from flatperm.perm_core import (CapExceeded, CycleForm, Permutation,
                                VincularPattern3, _bucket, _flat_words,
                                _fronts, _layers, _rank_layers,
                                _slot_bytes,
                                brute_avoider_count, brute_distribution,
                                brute_refined_distribution,
                                brute_total_occurrences,
                                count_in_flattened_sense, count_occurrences,
                                enumerate_permutations, flatten,
                                flatten_cycle_form, to_standard_cycle_form)
from flatperm.qpoly import QPoly, _unpack

P31_2 = VincularPattern3.from_string("31-2")
P23_1 = VincularPattern3.from_string("23-1")
P12_3 = VincularPattern3.from_string("12-3")
P21_3 = VincularPattern3.from_string("21-3")
P32_1 = VincularPattern3.from_string("32-1")
P3_12 = VincularPattern3.from_string("3-12")
P3_21 = VincularPattern3.from_string("3-21")
CLASSICAL_3_1_2 = VincularPattern3.from_string("3-1-2")


def test_permutation_validation():
    Permutation((2, 1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    # entries equal to integers but not ints, and entries that do not
    # compare with ints
    for word in ((2.0, 1.0), (True,), ("a", 1)):
        with pytest.raises(ValueError):
            Permutation(word)


def test_standard_cycle_form():
    cf = to_standard_cycle_form(Permutation((7, 1, 5, 6, 4, 3, 2, 8)))
    assert cf.cycles == ((1, 7, 2), (3, 5, 4, 6), (8,))
    assert to_standard_cycle_form(Permutation((1,))).cycles == ((1,),)
    assert to_standard_cycle_form(Permutation((1, 2, 3))).cycles \
        == ((1,), (2,), (3,))


def test_cycle_form_round_trip():
    for p in enumerate_permutations(5):
        assert to_standard_cycle_form(p).to_permutation() == p


def test_cycle_form_validation():
    with pytest.raises(ValueError):
        CycleForm(((2, 1),))          # does not start with its minimum
    with pytest.raises(ValueError):
        CycleForm(((3, 4), (1, 2)))   # minima not ascending
    with pytest.raises(ValueError):
        CycleForm(((1, 2), (2, 3)))   # not a partition
    for cycles in (((1.0, 2.0),), ((1,), (2.0,)), ((1, "b"),)):
        with pytest.raises(ValueError, match="integers"):
            CycleForm(cycles)


def test_flatten():
    assert flatten(Permutation((7, 1, 5, 6, 4, 3, 2, 8))).word \
        == (1, 7, 2, 3, 5, 4, 6, 8)
    assert flatten(Permutation((2, 1, 3))).word == (1, 2, 3)
    for n in (1, 4, 6):
        ident = Permutation.identity(n)
        assert flatten(ident) == ident
    for p in enumerate_permutations(6):
        assert flatten(p).word[0] == 1


def test_flatten_concatenates_the_standard_cycle_form():
    # the paper's definition of Flatten, on every permutation of n <= 7
    for n in range(1, 8):
        for p in enumerate_permutations(n):
            assert flatten(p).word \
                == flatten_cycle_form(to_standard_cycle_form(p)).word
    assert to_standard_cycle_form(Permutation(())).cycles == ()


def test_pattern_parsing():
    assert P31_2.letters == (3, 1, 2) and P31_2.glue12 and not P31_2.glue23
    assert str(P31_2) == "31-2"
    assert str(VincularPattern3.from_string("3-12")) == "3-12"
    assert str(CLASSICAL_3_1_2) == "3-1-2"
    for text in ("312", "12-x", "1 2-3", "+1-23"):
        with pytest.raises(ValueError, match="cannot parse pattern"):
            VincularPattern3.from_string(text)
    with pytest.raises(ValueError):
        VincularPattern3((1, 2, 2))
    with pytest.raises(ValueError):
        VincularPattern3((1, 2, 3), glue12=True, glue23=True)
    for letters in ((1.0, 2, 3), (3, 1, 2.0), ("1", 2, 3)):
        with pytest.raises(ValueError, match="letters must be"):
            VincularPattern3(letters, glue12=True)


def test_vincular_glue_flags_must_be_bools():
    # a truthy non-bool flag would print as 12-3 yet equal no 12-3
    for flag in ("yes", "", None, 2, 1.0, [True]):
        for glue in ({"glue12": flag}, {"glue23": flag}):
            with pytest.raises(ValueError, match="glue flags must be bools"):
                VincularPattern3((1, 2, 3), **glue)
    # the ints 1 and 0 equal True and False, and are stored as them
    one = VincularPattern3((1, 2, 3), glue12=1, glue23=0)
    assert one == P12_3 and hash(one) == hash(P12_3)
    assert one.glue12 is True and one.glue23 is False


def test_count_occurrences_worked_example():
    host = Permutation((1, 7, 2, 3, 5, 4, 6, 8))
    assert count_occurrences(host, P31_2) == 4
    assert count_occurrences(host, P23_1) == 0
    assert count_occurrences(Permutation((1, 2, 3)), P12_3) == 1


def test_count_in_flattened_sense():
    assert count_in_flattened_sense(Permutation((7, 1, 5, 6, 4, 3, 2, 8)),
                                    P31_2) == 4
    assert count_in_flattened_sense(Permutation.identity(6), P21_3) == 0
    # 231 has cycle form (1 2 3), so its flattened form is 123
    assert count_in_flattened_sense(Permutation((2, 3, 1)), P12_3) == 1


def test_degenerate_hosts():
    for word in ((), (1,), (1, 2), (2, 1)):
        host = Permutation(word)
        for pat in (P31_2, P12_3, CLASSICAL_3_1_2):
            assert count_occurrences(host, pat) == 0


def test_count_matches_the_definition_on_all_18_patterns():
    """count_occurrences is the definition: the position triples
    i < j < k, with j = i + 1 for xy-z and k = j + 1 for x-yz, whose
    letters standardize to the pattern's.  Checked on every word of S_n
    for n <= 6 and all 6 letter orders of xy-z, x-yz and x-y-z; a glued
    count is at most (n-2)^2."""
    def by_definition(w, pat):
        total = 0
        for i, j, k in itertools.combinations(range(len(w)), 3):
            if pat.glue12 and j != i + 1 or pat.glue23 and k != j + 1:
                continue
            triple = (w[i], w[j], w[k])
            if tuple(sorted(triple).index(v) + 1 for v in triple) \
                    == pat.letters:
                total += 1
        return total

    patterns = [VincularPattern3(letters, glue12, glue23)
                for letters in itertools.permutations((1, 2, 3))
                for glue12, glue23 in ((True, False), (False, True),
                                       (False, False))]
    assert len({str(pat) for pat in patterns}) == 18
    for n in range(7):
        for w in itertools.permutations(range(1, n + 1)):
            host = Permutation(w)
            for pat in patterns:
                got = count_occurrences(host, pat)
                assert got == by_definition(w, pat), (w, str(pat))
                if pat.glue12 or pat.glue23:
                    assert got <= (n - 2) ** 2


def test_enumerate_permutations():
    assert [p.word for p in enumerate_permutations(1)] == [(1,)]
    words = [p.word for p in enumerate_permutations(3)]
    assert len(words) == 6
    assert words[0] == (1, 2, 3) and words[-1] == (3, 2, 1)
    assert words == sorted(words)
    assert sum(1 for _ in enumerate_permutations(8)) == math.factorial(8)


def test_enumeration_cap():
    with pytest.raises(CapExceeded) as exc:
        list(enumerate_permutations(11))
    assert "10" in str(exc.value)
    with pytest.raises(CapExceeded):
        brute_distribution(7, P31_2, max_n=6)
    # an explicit cap raise is honored
    assert sum(1 for _ in enumerate_permutations(4, max_n=4)) == 24


def test_brute_distribution_examples():
    for pat in (P31_2, P23_1, P12_3, P21_3, P32_1):
        assert brute_distribution(2, pat) == QPoly([2])
    assert brute_distribution(3, P31_2) == QPoly([6])
    assert brute_distribution(3, P12_3) == QPoly([2, 4])
    for n in range(1, 8):
        for pat in (P31_2, P12_3):
            assert brute_distribution(n, pat).evaluate(1) == math.factorial(n)


def test_brute_refined_distribution():
    assert brute_refined_distribution(3, P31_2, 2) == QPoly([4])
    assert brute_refined_distribution(3, P31_2, 3) == QPoly([2])
    with pytest.raises(ValueError):
        brute_refined_distribution(3, P31_2, 1)
    with pytest.raises(ValueError):
        brute_refined_distribution(3, P31_2, 4)
    for n in range(2, 8):
        for pat in (P31_2, P23_1, P12_3, P21_3, P32_1):
            total = QPoly()
            for k in range(2, n + 1):
                total = total + brute_refined_distribution(n, pat, k)
            assert total == brute_distribution(n, pat)


def test_flattened_31_2_avoidance_equals_classical():
    for n in range(1, 7):
        for p in enumerate_permutations(n):
            w = flatten(p)
            vinc = count_occurrences(w, P31_2)
            classical = count_occurrences(w, CLASSICAL_3_1_2)
            assert (vinc == 0) == (classical == 0)
            if classical > 0:
                assert vinc > 0


def test_flat_words_are_the_preimage_counts():
    """A flattened word with r right-to-left minima has 2^(r-1) preimages."""
    for n in range(1, 9):
        literal = Counter(flatten(p).word for p in enumerate_permutations(n))
        assert dict(_flat_words(n)) == literal
        for k in range(2, n + 1):
            assert dict(_flat_words(n, k)) \
                == {w: c for w, c in literal.items() if w[1] == k}


@pytest.mark.parametrize("text", ["12-3", "21-3", "23-1", "32-1", "31-2",
                                  "13-2", "3-21", "3-12"])
def test_oracle_matches_literal_sweep(text):
    """Every brute-force counter against the definition: flatten each of the
    n! permutations and count occurrences."""
    pat = VincularPattern3.from_string(text)

    def as_counter(poly):
        return Counter({occ: c for occ, c in enumerate(poly.coeffs) if c})

    for n in range(1, 8):
        sweep = Counter((flatten(p).word[1:2], count_in_flattened_sense(p, pat))
                        for p in enumerate_permutations(n))
        whole = Counter()
        for (_, occ), count in sweep.items():
            whole[occ] += count
        assert as_counter(brute_distribution(n, pat)) == whole
        assert brute_total_occurrences(n, pat) \
            == sum(occ * c for occ, c in whole.items())
        assert brute_avoider_count(n, pat) == whole[0]
        for k in range(2, n + 1):
            assert as_counter(brute_refined_distribution(n, pat, k)) \
                == Counter({occ: c for (second, occ), c in sweep.items()
                            if second == (k,)})


XY_Z = ["12-3", "21-3", "23-1", "32-1", "31-2", "13-2"]
X_YZ = ["3-21", "3-12", "1-32", "2-13", "1-23", "2-31"]
GLUED = XY_Z + X_YZ


@pytest.mark.parametrize("text", GLUED)
def test_glued_pass_matches_word_walk(text):
    """The rank pass (xy-z) and the (suffix set, front letter) pass (x-yz)
    against the weighted word walk, whole and for every prefix letter k."""
    pat = VincularPattern3.from_string(text)
    for n in range(1, 9):
        assert brute_distribution(n, pat) == _bucket(_flat_words(n), pat)
        for k in range(2, n + 1):
            assert brute_refined_distribution(n, pat, k) \
                == _bucket(_flat_words(n, k), pat)


@pytest.mark.parametrize("text", GLUED)
def test_glued_state_weights_fit_their_slots(text):
    """After L letters are placed, the states on each set S total (L+1)!
    weighted suffixes, and (L+1)! <= n! < 2^s for the least byte-multiple
    slot s, so each state reads back the same as at a slot 4 bytes wider.
    An xy-z rank layer F_L holds one value per rank r of the front letter,
    the value of every state on an L-set with front rank r, and one set's
    states take each rank once: so each F_L[r] reads back the same at the
    wider slot, and the F_L[r] total (L+1)!."""
    pat = VincularPattern3.from_string(text)
    for n in range(2, 11):
        width = _slot_bytes(n)
        assert math.factorial(n) < 1 << 8 * width
        assert math.factorial(n) >= 1 << 8 * (width - 1)
        if pat.glue12:
            layers = zip(_rank_layers(n, pat, 8 * width),
                         _rank_layers(n, pat, 8 * (width + 4)))
            for placed_count, (layer, wide) in enumerate(layers, 1):
                assert len(layer) == len(wide) == placed_count
                polys = [_unpack(value, width) for value in layer]
                assert polys == [_unpack(value, width + 4) for value in wide]
                assert sum(poly.evaluate(1) for poly in polys) \
                    == math.factorial(placed_count + 1)
            assert placed_count == n - 1
            continue
        layers = zip(_layers(n, pat, 8 * width),
                     _layers(n, pat, 8 * (width + 4)))
        for placed_count, (layer, wide) in enumerate(layers, 1):
            assert layer.keys() == wide.keys()
            totals = Counter()
            for placed, values in layer.items():
                assert placed.bit_count() == placed_count
                assert values.keys() == wide[placed].keys()
                for b, value in values.items():
                    assert placed & 1 << (b - 2)
                    poly = _unpack(value, width)
                    assert poly == _unpack(wide[placed][b], width + 4)
                    totals[placed] += poly.evaluate(1)
            assert len(totals) == math.comb(n - 1, placed_count)
            assert set(totals.values()) \
                == {math.factorial(placed_count + 1)}
        assert placed_count == n - 1


@pytest.mark.parametrize("text", XY_Z)
def test_refined_xy_z_pass_matches_all_fronts_pass(text):
    """Every refined call reads entry k of the pass over every front
    letter, at that pass's slot width, whether the memo holds the pass or
    not."""
    pat = VincularPattern3.from_string(text)
    for n in range(2, 11):
        fronts, width = _fronts(n, pat)
        assert sorted(fronts) == list(range(2, n + 1))
        for k in range(2, n + 1):
            assert brute_refined_distribution(n, pat, k) \
                == _unpack(fronts[k], width)


@pytest.mark.parametrize("text", XY_Z)
def test_refined_xy_z_state_weights_fit_their_slots(text):
    """Front k weighs (n-1)! weighted tails after 1, k, doubled when k = 2
    (the only k that is a right-to-left minimum), and all fronts together
    n! < 2^s, so no front and no sum of fronts carries out of a slot."""
    pat = VincularPattern3.from_string(text)
    for n in range(2, 11):
        fronts, width = _fronts(n, pat)
        assert 2 * math.factorial(n - 1) <= math.factorial(n) < 1 << 8 * width
        for k in range(2, n + 1):
            want = math.factorial(n - 1) * (2 if k == 2 else 1)
            assert _unpack(fronts[k], width).evaluate(1) == want
            assert brute_refined_distribution(n, pat, k).evaluate(1) == want
        assert _unpack(sum(fronts.values()), width).evaluate(1) \
            == math.factorial(n)


def test_xy_z_pass_memo_holds_finished_passes_only(monkeypatch):
    """A pass interrupted after its first layer stores nothing, for an xy-z
    pattern (the rank pass) and an x-yz one (the set pass) alike; the next
    call runs the pass again and stores it once it has finished."""
    monkeypatch.setattr(perm_core, "_FRONTS", {})
    originals = {name: getattr(perm_core, name)
                 for name in ("_rank_layers", "_layers")}
    layers_seen = []

    def interrupting(original):
        def interrupted(*args):
            for layer in original(*args):
                layers_seen.append(len(layer))
                yield layer
                raise KeyboardInterrupt
        return interrupted

    for name, original in originals.items():
        monkeypatch.setattr(perm_core, name, interrupting(original))
    for pat in (P23_1, P3_12):
        for call in (lambda: brute_distribution(7, pat),
                     lambda: brute_refined_distribution(7, pat, 3)):
            with pytest.raises(KeyboardInterrupt):
                call()
            assert perm_core._FRONTS == {}
    # one rank for 23-1's first layer, six placed sets for 3-12's
    assert layers_seen == [1, 1, 6, 6]

    for name, original in originals.items():
        monkeypatch.setattr(perm_core, name, original)
    for pat in (P23_1, P3_12):
        assert brute_refined_distribution(7, pat, 3) \
            == _bucket(_flat_words(7, 3), pat)
        assert brute_distribution(7, pat) == _bucket(_flat_words(7), pat)
    assert list(perm_core._FRONTS) == [(7, P23_1), (7, P3_12)]


def test_xy_z_pass_memo_keeps_the_cap(monkeypatch):
    """A call over the cap is refused, with the same message, before the
    memo is read: also once a call with a higher cap has stored that very
    (n, pattern), xy-z or x-yz."""
    message = ("refusing exhaustive enumeration at n=11: cap is 10 (raise "
               "the cap explicitly to go further)")
    for pat in (P32_1, P3_21):
        monkeypatch.setattr(perm_core, "_FRONTS", {})
        with pytest.raises(CapExceeded) as exc:
            brute_distribution(11, pat)
        assert str(exc.value) == message
        assert perm_core._FRONTS == {}
        whole = brute_distribution(11, pat, max_n=11)
        assert list(perm_core._FRONTS) == [(11, pat)]
        for refused in (lambda: brute_distribution(11, pat),
                        lambda: brute_refined_distribution(11, pat, 2),
                        lambda: brute_avoider_count(11, pat),
                        lambda: brute_total_occurrences(11, pat, max_n=10)):
            with pytest.raises(CapExceeded) as exc:
                refused()
            assert str(exc.value) == message
        assert brute_distribution(11, pat, max_n=12) == whole


def test_xy_z_pass_keeps_the_cap():
    message = ("refusing exhaustive enumeration at n=11: cap is 10 (raise "
               "the cap explicitly to go further)")
    for pat in (P32_1, VincularPattern3.from_string("3-21")):
        with pytest.raises(CapExceeded) as exc:
            brute_distribution(11, pat)
        assert str(exc.value) == message
        with pytest.raises(CapExceeded) as exc:
            brute_refined_distribution(11, pat, 2)
        assert str(exc.value) == message
        with pytest.raises(ValueError):
            brute_refined_distribution(1, pat, 1)
        assert brute_distribution(11, pat, max_n=11).evaluate(1) \
            == math.factorial(11)


# ---------------------------------------------------------------------------
# The pass against the per-transition definition of its steps
# ---------------------------------------------------------------------------

def _reference_layers(n, pat, s):
    """Yield the states {(S, b): value} of the right-to-left pass after
    each letter of 2..n is placed, every state going to (S + {a}, a) for
    each unplaced letter a.  Prepending a to a suffix on S with front b
    shifts its value by s once per occurrence that a and b complete (see
    ``_completed``), and doubles it when a lies below all of S."""
    letters = range(2, n + 1)
    layer = {(1 << (b - 2), b): 2 for b in letters}
    yield layer
    for _ in range(n - 2):
        nxt: dict = {}
        for (placed, b), value in layer.items():
            for a in letters:
                bit = 1 << (a - 2)
                if placed & bit:
                    continue
                step = value << s * _completed(n, pat, placed, b, a)
                if bit < placed & -placed:
                    step <<= 1
                key = (placed | bit, a)
                nxt[key] = nxt.get(key, 0) + step
        layer = nxt
        yield layer


def _completed(n, pat, placed, b, a):
    """Occurrences added by prepending a to a suffix on the set placed
    (letter c at bit c - 2) with front b: (a, b, z) with z placed, not b,
    for xy-z; (x, a, b) with x unplaced, not a, 1 included, for x-yz."""
    p1, p2, p3 = pat.letters
    xy, xz, yz = p1 < p2, p1 < p3, p2 < p3
    if pat.glue12:
        if (a < b) != xy:
            return 0
        return sum(1 for z in range(2, n + 1)
                   if placed >> (z - 2) & 1 and z != b
                   and (a < z) == xz and (b < z) == yz)
    if (a < b) != yz:
        return 0
    return sum(1 for x in range(1, n + 1)
               if x != a and (x == 1 or not placed >> (x - 2) & 1)
               and (x < a) == xy and (x < b) == xz)


def _set_states(n, pat, s):
    """The x-yz pass's grouped layers {S: {b: value}}, each as
    {(S, b): value}, no set empty."""
    for layer in _layers(n, pat, s):
        assert all(layer.values())
        yield {(placed, b): value for placed, values in layer.items()
               for b, value in values.items()}


def _rank_states(n, pat, s):
    """The xy-z pass's rank layers spread over the states: each state
    (S, b) on an L-set S takes F_L[r - 1], r the rank of b in S."""
    for placed_count, ranks in enumerate(_rank_layers(n, pat, s), 1):
        assert len(ranks) == placed_count
        states = {}
        for placed in range(1, 1 << (n - 1)):
            if placed.bit_count() == placed_count:
                members = [c for c in range(2, n + 1) if placed >> (c - 2) & 1]
                for rank, b in enumerate(members):
                    states[placed, b] = ranks[rank]
        yield states


@pytest.mark.parametrize("text", GLUED)
def test_glued_pass_matches_per_transition_loop(text):
    """Each pass forms every layer state by state as the per-transition
    loop does, and the fronts as prepending 1 (no weight) to the last
    layer's states does.  For xy-z this reads every state (S, b) as
    F_|S|[rank of b in S], so it checks the order-type lemma the rank pass
    rests on: states with equal |S| and front rank hold equal values."""
    pat = VincularPattern3.from_string(text)
    route = _rank_states if pat.glue12 else _set_states
    for n in range(2, 10):
        width = _slot_bytes(n)
        s = 8 * width
        pairs = itertools.zip_longest(route(n, pat, s),
                                      _reference_layers(n, pat, s))
        for layer, want in pairs:
            assert layer == want
        fronts = {k: value << s * _completed(n, pat, placed, k, 1)
                  for (placed, k), value in want.items()}
        assert _fronts(n, pat) == (fronts, width)
