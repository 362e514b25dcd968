import copy
import itertools
import pickle

import pytest

from flatperm import bijections, perm_core
from flatperm.bijections import (MarkedPartition, _chain_reversal,
                                 _contains_3_1_2, _contains_23_1,
                                 _contains_31_2, _contains_32_1,
                                 _reversal, _runs_partition,
                                 avoider_23_1_to_partition,
                                 check_31_2_equivalence,
                                 enumerate_marked_partitions,
                                 inverse_32_1_to_23_1, map_23_1_to_32_1,
                                 partition_to_23_1_avoider)
from flatperm.closed_forms import avoiders
from flatperm.perm_core import (CycleForm, Permutation, VincularPattern3,
                                _count_word, _flat_words,
                                count_in_flattened_sense, count_occurrences,
                                enumerate_permutations, flatten_cycle_form,
                                to_standard_cycle_form)

PAT_23_1 = VincularPattern3.from_string("23-1")
PAT_32_1 = VincularPattern3.from_string("32-1")

WORKED_PARTITION = MarkedPartition(((6, 5, 2), (10, 7, 3), (4,), (9, 8)),
                                   (False, True, True, False))
WORKED_CYCLES = CycleForm(((1, 6, 5, 2, 10, 7), (3,), (4, 9, 8)))
WORKED_IMAGE = CycleForm(((1, 5, 6, 2, 7, 10), (3,), (4, 9, 8)))


def test_marked_partition_validation():
    with pytest.raises(ValueError):
        MarkedPartition(((2, 5),), (False,))       # not descending
    with pytest.raises(ValueError):
        MarkedPartition(((3,), (2,)), (False, False))  # minima not ascending
    with pytest.raises(ValueError):
        MarkedPartition(((3, 2),), (False, True))  # marks length mismatch
    with pytest.raises(ValueError):
        MarkedPartition(((3, 1),), (False,))       # 1 never belongs
    for blocks in (((3.0, 2.0),), ((3, 2.0),), ((3, "x"),)):
        with pytest.raises(ValueError):            # entries not ints
            MarkedPartition(blocks, (False,))
    assert MarkedPartition((), ()).n == 1


def test_marked_partition_marks_must_be_bools():
    # a string mark would silently mark its block
    for mark in ("no", "", None, 2, 1.0, 0.0):
        with pytest.raises(ValueError, match="marks must be bools"):
            MarkedPartition(((2,),), (mark,))
    # the ints 1 and 0 are stored as True and False
    mp = MarkedPartition(((3, 2), (4,)), (1, 0))
    assert mp.marks == (True, False)
    assert all(type(m) is bool for m in mp.marks)
    # pickle and copy rebuild the value through the checking constructor
    for value in (mp, WORKED_PARTITION):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert twin == value and twin.marks == value.marks


def test_partition_to_avoider_worked_example():
    assert partition_to_23_1_avoider(WORKED_PARTITION) == WORKED_CYCLES
    assert avoider_23_1_to_partition(WORKED_CYCLES) == WORKED_PARTITION


def test_partition_to_avoider_smallest_cases():
    assert partition_to_23_1_avoider(MarkedPartition(((2,),), (False,))) \
        == CycleForm(((1, 2),))
    assert partition_to_23_1_avoider(MarkedPartition((), ())) \
        == CycleForm(((1,),))
    # all-marked singleton blocks build the identity permutation
    n = 6
    mp = MarkedPartition(tuple((i,) for i in range(2, n + 1)), (True,) * (n - 1))
    assert partition_to_23_1_avoider(mp).to_permutation() \
        == Permutation.identity(n)


def test_partition_round_trip_exhaustive():
    for n in range(1, 8):
        seen = set()
        images = set()
        total = 0
        for mp in enumerate_marked_partitions(n):
            total += 1
            # enumerated unchecked: the checked constructor agrees
            assert MarkedPartition(mp.blocks, mp.marks) == mp
            cf = partition_to_23_1_avoider(mp)
            images.add(cf)
            flat = flatten_cycle_form(cf)
            assert Permutation(flat.word) == flat
            assert count_occurrences(flat, PAT_23_1) == 0
            word = flat.word
            ascents = sum(1 for i in range(n - 1) if word[i] < word[i + 1])
            assert ascents == len(mp.blocks)
            assert avoider_23_1_to_partition(cf) == mp
            perm = cf.to_permutation()
            assert Permutation(perm.word) == perm
            seen.add(perm.word)
        assert total == len(seen) == avoiders("23-1", n)
        # the images, which the reversal check takes as its sources, are
        # exactly the 23-1 avoiders found by filtering all of S_n
        assert images == {to_standard_cycle_form(p)
                          for p in enumerate_permutations(n)
                          if count_in_flattened_sense(p, PAT_23_1) == 0}


def test_avoider_to_partition_rejects_containment():
    # flattened form 1342 contains 23-1
    bad = CycleForm(((1, 3, 4, 2),))
    with pytest.raises(ValueError):
        avoider_23_1_to_partition(bad)
    with pytest.raises(ValueError):
        map_23_1_to_32_1(bad)


def test_reversal_map_worked_example():
    assert map_23_1_to_32_1(WORKED_CYCLES) == WORKED_IMAGE
    assert inverse_32_1_to_23_1(WORKED_IMAGE) == WORKED_CYCLES


def test_reversal_map_identity_and_single_run():
    ident = to_standard_cycle_form(Permutation.identity(6))
    assert map_23_1_to_32_1(ident) == ident
    assert inverse_32_1_to_23_1(ident) == ident
    # flattened 1432 is 23-1-avoiding but contains 32-1: its single
    # descending run must be reversed even though it trails the last ascent
    src = CycleForm(((1, 4, 3, 2),))
    out = map_23_1_to_32_1(src)
    assert flatten_cycle_form(out).word == (1, 3, 4, 2)
    assert inverse_32_1_to_23_1(out) == src


def test_inverse_rejects_containment():
    with pytest.raises(ValueError):
        inverse_32_1_to_23_1(CycleForm(((1, 4, 3, 2),)))


def test_reversal_bijection_exhaustive():
    for n in range(1, 8):
        sources = []
        for p in enumerate_permutations(n):
            assert Permutation(p.word) == p
            if count_in_flattened_sense(p, PAT_23_1) == 0:
                sources.append(to_standard_cycle_form(p))
        images = set()
        for cf in sources:
            out = map_23_1_to_32_1(cf)
            flat = flatten_cycle_form(out)
            assert Permutation(flat.word) == flat
            assert count_occurrences(flat, PAT_32_1) == 0
            for before, after in zip(cf.cycles, out.cycles):
                assert sorted(before) == sorted(after)
            assert inverse_32_1_to_23_1(out) == cf
            perm = out.to_permutation()
            assert Permutation(perm.word) == perm
            images.add(perm.word)
        assert len(images) == len(sources) == avoiders("32-1", n)


def test_public_maps_equal_their_word_cores():
    """Each public map is its domain check plus its word-level core, which
    the bijection suite calls directly on the words it flattened once.
    The suite compares a core's round-trip fields, or the reversal's
    words, with a valid source's instead of building a value, so the cores
    must return the very fields the checked constructors store: tuples,
    not lists."""
    for n in range(1, 8):
        for mp in enumerate_marked_partitions(n):
            cf = partition_to_23_1_avoider(mp)
            word = flatten_cycle_form(cf).word
            fields = _runs_partition(cf, word)
            back = MarkedPartition(*fields)
            assert avoider_23_1_to_partition(cf) == back == mp
            assert (back.blocks, back.marks) == fields == (mp.blocks, mp.marks)
            reversed_word, image = _reversal(cf, word)
            out = map_23_1_to_32_1(cf)
            assert out == image
            out_word = flatten_cycle_form(out).word
            # the suite's reversal check reads these two words only
            assert out_word == reversed_word == tuple(_chain_reversal(word))
            assert tuple(_chain_reversal(out_word)) == word
            back_word, back = _reversal(out, out_word)
            assert inverse_32_1_to_23_1(out) == back == cf
            assert back_word == word


def test_maps_reject_everything_outside_their_domains():
    """The public maps keep their domain checks and their messages."""
    for n in range(1, 7):
        for p in enumerate_permutations(n):
            cf = to_standard_cycle_form(p)
            flat = flatten_cycle_form(cf)
            if count_occurrences(flat, PAT_23_1):
                for forward in (avoider_23_1_to_partition, map_23_1_to_32_1):
                    with pytest.raises(ValueError) as exc:
                        forward(cf)
                    assert str(exc.value) == ("flattened form contains 23-1; "
                                              "not in the bijection's domain")
            if count_occurrences(flat, PAT_32_1):
                with pytest.raises(ValueError) as exc:
                    inverse_32_1_to_23_1(cf)
                assert str(exc.value) == ("flattened form contains 32-1; "
                                          "not in the bijection's domain")


def test_chain_reversal_matches_its_definition():
    def by_definition(word):
        # jump to the smallest letter to the right, reversing what lies
        # strictly between, until the last position
        new_word = list(word)
        pos = 0
        while pos < len(word) - 1:
            nxt = min(range(pos + 1, len(word)), key=word.__getitem__)
            new_word[pos + 1:nxt] = reversed(new_word[pos + 1:nxt])
            pos = nxt
        return new_word

    for n in range(1, 9):
        for tail in itertools.permutations(range(2, n + 1)):
            word = (1,) + tail
            assert _chain_reversal(word) == by_definition(word)


def test_containment_predicates_match_the_counts():
    """Each early-exit predicate says "contains" exactly when the full count
    is positive: on every flat word for n <= 8, and on every word of S_n
    for n <= 6, where a letter other than 1 leads."""
    p31_2 = VincularPattern3.from_string("31-2")
    p3_1_2 = VincularPattern3.from_string("3-1-2")
    words = [w for n in range(1, 9) for w, _ in _flat_words(n)]
    words += [p.word for n in range(1, 7) for p in enumerate_permutations(n)]
    for w in words:
        assert _contains_31_2(w) == (_count_word(w, p31_2) != 0)
        assert _contains_3_1_2(w) == (_count_word(w, p3_1_2) != 0)
        assert _contains_23_1(w) == (_count_word(w, PAT_23_1) != 0)
        assert _contains_32_1(w) == (_count_word(w, PAT_32_1) != 0)


def test_check_31_2_equivalence():
    for n in range(1, 8):
        assert check_31_2_equivalence(n)
    with pytest.raises(perm_core.CapExceeded):
        check_31_2_equivalence(11)


def test_check_31_2_equivalence_can_fail(monkeypatch):
    """With the 3-1-2 predicate stuck at "avoids", the sweep at n = 4 must
    see 1423, which contains both patterns, and say no."""
    assert _contains_31_2((1, 4, 2, 3)) and _contains_3_1_2((1, 4, 2, 3))
    monkeypatch.setattr(bijections, "_contains_3_1_2", lambda word: False)
    assert not check_31_2_equivalence(4)
