"""Immutable value records.

A record names its fields in ``_fields``.  Its own ``__init__`` checks the
arguments and stores them with ``_set``, the one write to ``__dict__``.
Equality compares the exact class and the field tuple, the hash is that
of the field tuple, and no attribute can be assigned or deleted later.
``functools.cached_property`` still works: it writes ``__dict__`` directly,
and what it stores is no field, so equality and hashing ignore it.
"""

from __future__ import annotations


class Record:
    _fields: tuple = ()

    def _set(self, *values) -> None:
        """Store ``values`` as the fields, in ``_fields`` order."""
        self.__dict__.update(zip(self._fields, values, strict=True))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot assign to field {name!r}")
