"""The value classes: validation, equality, hashing, repr, immutability,
pickle and copy."""

import copy
import pickle
from fractions import Fraction

import pytest

from flatperm.bijections import MarkedPartition
from flatperm.perm_core import CycleForm, Permutation, VincularPattern3
from flatperm.qpoly import QPoly
from flatperm.recurrences import (CoefficientFormComparison12_3,
                                  DistributionTable, PatternId,
                                  distribution_table)
from flatperm.series import PowerSeries
from flatperm.verification import CheckResult, Report

# one instance of each value class, with its repr in the dataclass form
REPRS = [
    (Permutation((2, 1, 3)), "Permutation(word=(2, 1, 3))"),
    (CycleForm(((1, 2), (3,))), "CycleForm(cycles=((1, 2), (3,)))"),
    (VincularPattern3((2, 3, 1), glue12=True),
     "VincularPattern3(letters=(2, 3, 1), glue12=True, glue23=False)"),
    (MarkedPartition(((3, 2),), (1,)),
     "MarkedPartition(blocks=((3, 2),), marks=(True,))"),
    (DistributionTable(PatternId.P31_2, (QPoly((1,)), QPoly((2,)))),
     "DistributionTable(pattern=<PatternId.P31_2: '31-2'>, "
     "polys=(QPoly([1]), QPoly([2])))"),
    (CoefficientFormComparison12_3(3, False, True),
     "CoefficientFormComparison12_3(n=3, j2_only_matches=False, "
     "with_j1_term_matches=True)"),
    (PowerSeries((1, Fraction(1, 2))),
     "PowerSeries(coeffs=(1, Fraction(1, 2)))"),
    (CheckResult("oracle", "a check", True),
     "CheckResult(suite='oracle', name='a check', passed=True, detail='')"),
    (Report([CheckResult("series", "b", False, "why")]),
     "Report(results=[CheckResult(suite='series', name='b', passed=False, "
     "detail='why')])"),
]
VALUES = [value for value, _ in REPRS]
FROZEN = [value for value in VALUES
          if not isinstance(value, (CheckResult, Report))]
ROUND_TRIP = VALUES + [QPoly((1, -2, 3)),
                       distribution_table(PatternId.P32_1, 6)]


def _name(value):
    return type(value).__name__


@pytest.mark.parametrize("value, text", REPRS,
                         ids=[_name(value) for value in VALUES])
def test_repr_is_the_dataclass_form(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", ROUND_TRIP, ids=_name)
def test_pickle_and_copy_round_trip(value):
    for restore in (copy.copy, copy.deepcopy,
                    lambda v: pickle.loads(pickle.dumps(v))):
        back = restore(value)
        assert type(back) is type(value)
        assert back == value
        if type(value).__hash__ is not None:
            assert hash(back) == hash(value)


@pytest.mark.parametrize("value", FROZEN + [QPoly((1, 2))], ids=_name)
def test_frozen_values_refuse_assignment(value):
    for name in value.__slots__:
        old = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, old)
        assert getattr(value, name) is old
    if not isinstance(value, QPoly):
        with pytest.raises(AttributeError):
            delattr(value, value.__slots__[0])


def test_equality_and_hashing_follow_the_fields():
    for value in FROZEN:
        twin = copy.deepcopy(value)
        assert twin is not value and twin == value
        assert hash(twin) == hash(value)
        assert not twin != value
    # fields equal, classes different: never equal
    assert Permutation((1,)) != CycleForm(((1,),))
    assert VincularPattern3((1, 2, 3)) != VincularPattern3((1, 2, 3), True)
    assert len({VincularPattern3((1, 2, 3)), VincularPattern3((1, 2, 3))}) == 1
    # results and reports may change, so they are unhashable
    result = CheckResult("oracle", "a", True)
    for value in (result, Report([result])):
        with pytest.raises(TypeError):
            hash(value)
    result.detail = "changed"
    assert result == CheckResult("oracle", "a", True, "changed")
    assert Report().results == [] and Report().results is not Report().results


@pytest.mark.parametrize("build, message", [
    (lambda: Permutation((1, 1, 2)), "not a permutation of [n]: (1, 1, 2)"),
    (lambda: CycleForm(((1, 2), (2, 3))), "cycles do not partition [n]"),
    (lambda: CycleForm(((2, 1),)), "cycle (2, 1) does not start with its minimum"),
    (lambda: CycleForm(((3, 4), (1, 2))),
     "cycles not ordered by increasing first element"),
    (lambda: VincularPattern3((1, 2, 2)),
     "letters must be a permutation of 1,2,3: (1, 2, 2)"),
    (lambda: VincularPattern3((1, 2, 3), True, True),
     "fully glued length-3 blocks are not supported"),
    (lambda: MarkedPartition(((3, 2),), (False, True)),
     "need one mark flag per block"),
    (lambda: MarkedPartition(((3, 1),), (False,)),
     "blocks must partition {2,...,n}"),
    (lambda: MarkedPartition(((2, 3),), (False,)),
     "block (2, 3) not in descending order"),
    (lambda: MarkedPartition(((3,), (2,)), (False, False)),
     "blocks not ordered by ascending minima"),
    (lambda: DistributionTable(PatternId.P12_3, ()),
     "table must start with g_1 = 1"),
    (lambda: DistributionTable(PatternId.P12_3, (QPoly((1,)), QPoly((1,)))),
     "g_2 must equal 2"),
    (lambda: DistributionTable(PatternId.P12_3,
                               (QPoly((1,)), QPoly((2,)), QPoly((5,)))),
     "g_3(1) != 3! for pattern 12-3"),
    (lambda: PowerSeries(()), "a series needs a positive truncation order"),
])
def test_constructors_keep_their_checks(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_constructors_store_tuples():
    assert Permutation([2, 1]).word == (2, 1)
    assert CycleForm([[1, 2]]).cycles == ((1, 2),)
    assert VincularPattern3([1, 3, 2]).letters == (1, 3, 2)
    assert MarkedPartition([[3, 2]], [1]).marks == (True,)
    assert PowerSeries([Fraction(4, 2)]).coeffs == (2,)
    assert type(PowerSeries([Fraction(4, 2)]).coeffs[0]) is int
    table = DistributionTable(PatternId.P31_2, [QPoly((1,))])
    assert table.polys == (QPoly((1,)),)
