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
"""

from operator import attrgetter


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
