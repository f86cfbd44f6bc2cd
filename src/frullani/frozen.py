"""The base of the records that check their fields or keep a field out of
comparison: LimitVerdict, FrullaniProblem, SeriesParams, OscillatorySpec.
The package's plain records are named tuples.
"""

from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    """A record with __slots__ whose fields are set once, by __init__
    through _set.  ==, hash() and repr() read the fields _compared names,
    in that order, and no other slot.  Assigning or deleting a field raises
    AttributeError."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"
