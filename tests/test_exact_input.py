"""The package's one rule for exact input (``flatperm._value``).

Every route below is fed 1.5, True, "1" and Decimal("1") and must refuse
each with a plain TypeError or ValueError that names the argument, or
the operand's type for an operator, before any memo changes.  The
valid ints, Fractions and QPolys of the same routes keep their values,
coefficient types included.
"""

import copy
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from flatperm import closed_forms, recurrences
from flatperm.closed_forms import (SpecialNumberCache, average_occurrences,
                                   avoiders, total_occurrences)
from flatperm.qpoly import (QPoly, complete_h, elementary_e,
                            nonadjacent_e_prime)
from flatperm.recurrences import (PatternId, coefficient_table,
                                  distribution_polynomial, distribution_table,
                                  refined_g1k)
from flatperm.series import PowerSeries

BAD = [1.5, True, "1", Decimal("1")]
P = QPoly([1, 2])
Q = QPoly([0, 1])
S = PowerSeries.from_coeffs([1, Fraction(1, 2), 2], 4)
P23 = PatternId.P23_1

# routes whose refusal is Python's own operator TypeError, after every
# method involved returned NotImplemented
OPERATORS = {
    "QPoly +": lambda x: P + x,
    "QPoly + reflected": lambda x: x + P,
    "QPoly -": lambda x: P - x,
    "QPoly - reflected": lambda x: x - P,
    "QPoly *": lambda x: P * x,
    "QPoly * reflected": lambda x: x * P,
    "elementary_e": lambda x: elementary_e(1, [x, 1]),
    "complete_h": lambda x: complete_h(2, [1, x]),
    "nonadjacent_e_prime": lambda x: nonadjacent_e_prime(1, [x, 2]),
    "PowerSeries +": lambda x: S + x,
    "PowerSeries + reflected": lambda x: x + S,
    "PowerSeries -": lambda x: S - x,
    "PowerSeries - reflected": lambda x: x - S,
    "PowerSeries *": lambda x: S * x,
    "PowerSeries * reflected": lambda x: x * S,
}

# routes that raise themselves: (route, exception, message pattern)
NAMED = {
    "exact_div": (lambda x: QPoly.one().exact_div(x), TypeError,
                  "^exact_div divisor must be a QPoly or an int, bool "
                  "excluded, got "),
    "evaluate": (lambda x: P.evaluate(x), TypeError,
                 "^evaluate point must be an int, bool excluded, or a "
                 "Fraction, got "),
    "PowerSeries": (lambda x: PowerSeries((1, x)), ValueError,
                    "^series coefficients must be ints, bool excluded, "
                    "or Fractions$"),
    "from_coeffs": (lambda x: PowerSeries.from_coeffs([x, 1], 3),
                    ValueError, "^series coefficients must be ints, bool "
                    "excluded, or Fractions$"),
}

# size arguments: (route, the argument's name)
SIZES = {
    "distribution_table": (lambda x: distribution_table(P23, x), "n_max"),
    "distribution_polynomial": (lambda x: distribution_polynomial(P23, x),
                                "n"),
    "refined_g1k n": (lambda x: refined_g1k(P23, x, 2), "n"),
    "refined_g1k k": (lambda x: refined_g1k(P23, 5, x), "k"),
    "coefficient_table": (lambda x: coefficient_table(P23, x), "n_max"),
    "avoiders": (lambda x: avoiders("23-1", x), "n"),
    "average_occurrences": (lambda x: average_occurrences("23-1", x), "n"),
    "total_occurrences": (lambda x: total_occurrences("23-1", x), "n"),
}

F = Fraction


def _typed(*coeffs):
    """A series' coefficients as (type name, value) pairs, so that a test
    tells an int from an equal Fraction."""
    return tuple((type(c).__name__, c) for c in coeffs)


# each route with valid operands, and what it gave before the rule was
# made one: a QPoly, a number, or a series' _typed coefficients
VALID = {
    "QPoly + int": (lambda: P + 3, QPoly([4, 2])),
    "int + QPoly": (lambda: 3 + P, QPoly([4, 2])),
    "QPoly - int": (lambda: P - 3, QPoly([-2, 2])),
    "int - QPoly": (lambda: 3 - P, QPoly([2, -2])),
    "QPoly * int": (lambda: P * 3, QPoly([3, 6])),
    "int * QPoly": (lambda: 3 * P, QPoly([3, 6])),
    "QPoly * QPoly": (lambda: P * Q, QPoly([0, 1, 2])),
    "QPoly - QPoly": (lambda: P - Q, QPoly([1, 1])),
    "QPoly == int": (lambda: (P == 1, QPoly([5]) == 5), (False, True)),
    "exact_div int": (lambda: QPoly([2, 4]).exact_div(2), QPoly([1, 2])),
    "exact_div QPoly": (lambda: QPoly([1, 3, 2]).exact_div(QPoly([1, 1])),
                        QPoly([1, 2])),
    "evaluate int": (lambda: P.evaluate(3), 7),
    "evaluate Fraction": (lambda: (P.evaluate(F(1, 2)),
                                   QPoly([1, 2, 3]).evaluate(F(-1, 3))),
                          (F(2), F(2, 3))),
    "elementary_e": (lambda: elementary_e(2, [1, 2, Q]), QPoly([2, 3])),
    "complete_h": (lambda: complete_h(2, [1, Q]), QPoly([1, 1, 1])),
    "nonadjacent_e_prime": (lambda: nonadjacent_e_prime(2, [1, 2, 3, Q]),
                            QPoly([3, 3])),
    "PowerSeries": (lambda: PowerSeries((F(4, 2), F(1, 3), -5)),
                    _typed(2, F(1, 3), -5)),
    "from_coeffs": (lambda: S, _typed(1, F(1, 2), 2, 0)),
    "series + int": (lambda: S + 1, _typed(2, F(1, 2), 2, 0)),
    "int + series": (lambda: 1 + S, _typed(2, F(1, 2), 2, 0)),
    "series - Fraction": (lambda: S - F(1, 2),
                          _typed(F(1, 2), F(1, 2), 2, 0)),
    "Fraction - series": (lambda: F(1, 2) - S,
                          _typed(F(-1, 2), F(-1, 2), -2, 0)),
    "series * int": (lambda: S * 3, _typed(3, F(3, 2), 6, 0)),
    "int * series": (lambda: 3 * S, _typed(3, F(3, 2), 6, 0)),
    "series * Fraction": (lambda: S * F(2, 3),
                          _typed(F(2, 3), F(1, 3), F(4, 3), 0)),
    "series * series": (lambda: S * S, _typed(1, 1, F(17, 4), 2)),
    "series + series": (lambda: S + S, _typed(2, 1, 4, 0)),
    "distribution_table": (lambda: distribution_table(P23, 5).g(5),
                           QPoly([94, 18, 8])),
    "distribution_polynomial": (lambda: distribution_polynomial(P23, 6),
                                QPoly([454, 138, 86, 34, 8])),
    "refined_g1k": (lambda: refined_g1k(P23, 6, 3), QPoly([44, 54, 14, 8])),
    "coefficient_table": (lambda: coefficient_table(P23, 5).g(5),
                          QPoly([94, 18, 8])),
    "avoiders": (lambda: avoiders("23-1", 6), 454),
    "average_occurrences": (lambda: average_occurrences("23-1", 6),
                            F(37, 60)),
    "total_occurrences": (lambda: total_occurrences("23-1", 6), 444),
}


def _memos():
    """Copies of the recurrence memo and of the special-number memo."""
    return (dict(recurrences._BUILDERS), dict(recurrences._TABLES),
            copy.deepcopy(vars(closed_forms.numbers)))


@pytest.fixture
def live_memos(monkeypatch):
    """Memos with state to lose: a 21-3 table, the 31-2 builder at level
    12, and grown special numbers."""
    monkeypatch.setattr(recurrences, "_TABLES", {})
    monkeypatch.setattr(recurrences, "_BUILDERS", {})
    monkeypatch.setattr(closed_forms, "numbers", SpecialNumberCache())
    distribution_table(PatternId.P21_3, 8)
    refined_g1k(PatternId.P31_2, 12, 2)
    for pattern in ("23-1", "21-3", "12-3"):
        avoiders(pattern, 9)
    average_occurrences("23-1", 9)
    return _memos(), recurrences._BUILDERS[PatternId.P31_2]


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("route", [*OPERATORS, *NAMED, *SIZES])
def test_non_exact_input_is_refused(route, bad, live_memos):
    before, builder = live_memos
    if route in OPERATORS:
        with pytest.raises(TypeError) as exc:
            OPERATORS[route](bad)
        message = str(exc.value)
        assert "NotImplemented" not in message
        # str * x is str's sequence repeat, whose message names only x
        assert (type(bad).__name__ in message
                or message.startswith("can't multiply sequence by non-int"))
    elif route in NAMED:
        call, error, pattern = NAMED[route]
        with pytest.raises(error, match=pattern):
            call(bad)
    else:
        call, name = SIZES[route]
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an int, got {bad!r}")):
            call(bad)
    assert _memos() == before
    assert recurrences._BUILDERS[PatternId.P31_2] is builder


@pytest.mark.parametrize("route", VALID)
def test_exact_input_keeps_its_values(route):
    call, want = VALID[route]
    got = call()
    if isinstance(got, PowerSeries):
        got = _typed(*got.coeffs)
    assert got == want
    assert type(got) is type(want)


# the inputs that were once accepted, or failed deep inside
REPORTED = {
    "exact_div(1.5)": (lambda: QPoly.one().exact_div(1.5), TypeError,
                       "^exact_div divisor"),
    "nonadjacent_e_prime([1.5, 2])": (
        lambda: nonadjacent_e_prime(1, [1.5, 2]), TypeError, "'float'"),
    "elementary_e([True, 1])": (lambda: elementary_e(1, [True, 1]),
                                TypeError, "'bool'"),
    "from_coeffs([True, 1.5])": (
        lambda: PowerSeries.from_coeffs([True, 1.5], 3), ValueError,
        "^series coefficients"),
    "from_coeffs(['1/2'])": (lambda: PowerSeries.from_coeffs(["1/2"], 2),
                             ValueError, "^series coefficients"),
    "from_coeffs([Decimal('0.5')])": (
        lambda: PowerSeries.from_coeffs([Decimal("0.5")], 2), ValueError,
        "^series coefficients"),
    "x(4) * True": (lambda: PowerSeries.x(4) * True, TypeError, "'bool'"),
    "evaluate(0.5)": (lambda: QPoly((1, 2)).evaluate(0.5), TypeError,
                      "^evaluate point"),
    "distribution_polynomial(3.0)": (
        lambda: distribution_polynomial(P23, 3.0), ValueError,
        r"^n must be an int, got 3\.0$"),
    "distribution_table(True)": (lambda: distribution_table(P23, True),
                                 ValueError,
                                 "^n_max must be an int, got True$"),
    "avoiders(True)": (lambda: avoiders("23-1", True), ValueError,
                       "^n must be an int, got True$"),
}


@pytest.mark.parametrize("case", REPORTED)
def test_reported_inputs_are_refused(case, live_memos):
    before, builder = live_memos
    call, error, pattern = REPORTED[case]
    with pytest.raises(error, match=pattern):
        call()
    assert _memos() == before
    assert recurrences._BUILDERS[PatternId.P31_2] is builder
