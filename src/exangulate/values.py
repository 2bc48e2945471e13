"""Plain base classes for the package's value types.

Each value type names its fields in `_fields` and writes its own
`__init__`; the bases supply what `dataclasses` would generate, as methods
written here once, so defining a value type compiles nothing at import.

* `Record`: value equality, unhashable (mutable, like `@dataclass`);
* `Frozen`: fields cannot be assigned or deleted (`__init__` fills the
  instance dict); identity equality and hash (`@dataclass(frozen=True,
  eq=False)`);
* `Value`: frozen, with value equality and hash (`@dataclass(frozen=True)`).

All three print as `Name(field=value, ...)`.  Pickling and copying restore
the instance dict directly, as for a dataclass.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()
    __hash__ = None  # mutable, so unhashable

    def __init_subclass__(cls) -> None:
        if "_fields" in cls.__dict__:
            # a C-level getter of the field values, as fast as a literal
            # tuple; not a function, so `self._values` is unbound
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class Frozen(Record):
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    __eq__ = Record.__eq__

    def __hash__(self) -> int:
        return hash(self._values(self))
