"""The base of the package's value classes.

A value class lists its fields as its ``__slots__`` and writes its own
``__init__``, which validates and stores them.  The base gives it, once
for all of them, what ``dataclasses`` would generate: equality on the
tuple of fields, only between objects of the same class; ``repr`` as
``Name(field=value, ...)``; and, for ``FrozenValue``, hashing on the same
tuple and an ``AttributeError`` on any assignment or deletion.  Pickle and
``copy`` rebuild a value through its class's constructor, so a restored
value passes the same checks as a new one.

Defining a value class compiles nothing: the only per-class work is one
``operator.attrgetter`` for its fields.

Exact input.  ``_all_ints`` is the one test of integer input, and
``_all_exact`` that of exact numbers: every entry must be an ``int``,
``bool`` excluded, or, for ``_all_exact``, a ``fractions.Fraction``.  A
float equal to an integer, a string or a ``Decimal`` would pass or fail
later checks by accident, and print as something other than the number it
stands for; a bool would print as a flag.  The rule applies at these
places, the only ones where the package tests the type of a number it is
given, flags apart (``perm_core``'s Validation paragraph):

* ``_all_ints``: the coefficients of ``qpoly.QPoly`` and the exponent and
  coefficient of ``QPoly.monomial``; the entries of ``perm_core``'s values
  (``Permutation``, ``CycleForm``, ``VincularPattern3``) and of
  ``bijections.MarkedPartition``.  A constructor refuses a bad entry with
  ValueError.
* ``qpoly.QPoly._coerce``: an operand of ``QPoly``'s ``+``, ``-``, ``*``,
  ``==`` and ``exact_div`` is a ``QPoly`` or an ``int``, bool excluded.
  The operators return NotImplemented for any other, so Python raises
  TypeError (``==`` gives False), and ``exact_div`` raises TypeError.  The
  symmetric-function helpers (``elementary_e``, ``complete_h``,
  ``nonadjacent_e_prime``) take their entries through those operators.
* ``_all_exact``: the point of ``QPoly.evaluate`` (TypeError); the
  coefficients of ``series.PowerSeries`` (ValueError) and an operand of
  its ``+``, ``-`` and ``*`` (NotImplemented, so TypeError).
* ``_check_int``: a size argument, refused with ValueError naming it
  before any memo changes: ``recurrences.distribution_table``,
  ``distribution_polynomial``, ``refined_g1k`` (n and k) and
  ``coefficient_table``; ``closed_forms.avoiders``,
  ``average_occurrences`` and ``total_occurrences``;
  ``verification.run_suite``'s ``n_max``.
"""

from fractions import Fraction
from operator import attrgetter

_INT = frozenset((int,))
_EXACT = frozenset((int, Fraction))


def _all_ints(values) -> bool:
    """Whether every entry is an int, bool excluded."""
    return set(map(type, values)) <= _INT


def _all_exact(values) -> bool:
    """Whether every entry is an int, bool excluded, or a Fraction."""
    return set(map(type, values)) <= _EXACT


def _check_int(name: str, value) -> None:
    """Refuse a size argument that is not an int, bool excluded."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


class Value:
    """A value whose fields may be reassigned; unhashable, like a
    ``dataclass`` with ``eq=True``."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if names:
            get = attrgetter(*names)
            # the tuple of an instance's fields; attrgetter returns a bare
            # value for a single name
            cls._fields = staticmethod(
                get if len(names) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value
                          in zip(self.__slots__, self._fields(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._fields(self)


class FrozenValue(Value):
    """An immutable, hashable value."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
