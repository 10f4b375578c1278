"""Immutable classes over __slots__, written out instead of generated.

Each value type of the package sets its slots once, in its own __init__,
through object.__setattr__; assigning to or deleting an attribute after
that raises AttributeError.  A Value also compares, hashes and shows
itself by the fields it names in _fields, in that order, as a frozen
dataclass would: equal when the other operand has the same class and
equal fields.  A slot outside _fields, such as a memo, stays out of all
three.
"""

from __future__ import annotations


class Frozen:
    """Refuses assignment and deletion of attributes once __init__ has run."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    """A Frozen type with equality, hashing and repr by its _fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
