"""Frozen records: the one mechanism behind every immutable class here.

Frozen refuses assignment and deletion of any attribute with
FrozenInstanceError; a subclass stores its fields once, in __init__ or
__new__, with object.__setattr__.  Formula and Topology build on it
directly.  Record adds, over the fields a subclass lists in _fields (its
slots, in constructor order), what a value class needs: a constructor
taking them by position or keyword, the repr Name(field=value!r, ...),
== with records of the same class alone, a hash of the field tuple (so a
record holding a dict is unhashable), and pickle and copy through the
constructor.  A record that checks its input, derives more slots or has
defaults writes its own __init__, as does one built in bulk, since the
generic constructor costs about twice a written one.

The package imports no `dataclasses`: the module pulls in `inspect` and
more, and compiles each class's methods when the class is defined, which
a fresh process paid on every CLI call.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen object."""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind(cls: type, args: tuple, kwargs: dict) -> tuple:
    """A constructor's arguments in the field order of cls._fields, for
    Record and Formula alike."""
    names = cls._fields
    unknown = set(kwargs) - set(names[len(args) :])  # unknown, or given twice
    if unknown or len(args) + len(kwargs) != len(names):
        raise TypeError(f"{cls.__name__} takes the fields {names}")
    return args + tuple(kwargs[name] for name in names[len(args) :])


class Record(Frozen):
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = _bind(type(self), args, kwargs)
        store = object.__setattr__
        for name, value in zip(names, args):
            store(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()
