"""Value equality, hash and repr for the library's small classes.

A subclass names its value in the class attribute ``_fields``; attributes
left out of it (derived data, counters) take no part in equality, hash or
repr.
"""


class Record:
    """Equal to an object of the same class with equal ``_fields``; unhashable."""

    __slots__ = ()
    _fields = ()

    def _key(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        args = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({args})"


class FrozenRecord(Record):
    """A ``Record`` that hashes over its ``_fields``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())
