"""Immutable value records.

A record names its fields in ``_fields`` and the defaults of optional ones
in ``_defaults``.  ``Record.__init__`` binds positional and keyword
arguments to the fields, the one write to ``__dict__``; a record that
checks its input does so in its own ``__init__`` and ends it with
``super().__init__(...)``.  Equality compares the exact class and the
field tuple, the hash is that of the field tuple, and no attribute can be
assigned or deleted later.  ``functools.cached_property`` still works: it
writes ``__dict__`` directly, and what it stores is no field, so equality
and hashing ignore it.
"""

from __future__ import annotations


class Record:
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        # names missing or unknown, and names given twice
        wrong = (values.keys() ^ fields) | (kwargs.keys() & fields[:len(args)])
        if wrong or len(args) > len(fields):
            name = self.__class__.__qualname__
            raise TypeError(f"{name}() takes ({', '.join(fields)}), not "
                            f"{len(args)} positional and {sorted(kwargs)}")
        self.__dict__.update((field, values[field]) for field in fields)

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
