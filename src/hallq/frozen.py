"""The base of hallq's immutable value types.

A value type lists its fields in _fields and its __slots__ and sets them
once in its own __init__ through set_field. The base adds the rest: equality
with values of the same class only, a hash of the tuple of compared fields
(every field, unless the type overrides _compared), so set and dict order is
that of a tuple of the fields; the repr; refusal of assignment; and pickling
and copying by rebuilding from the fields. A rebuild re-runs __init__'s
checks and recomputes any cached hash, which for a string differs between
processes. IndecLabel, which keys every cache and table, keeps its own
__eq__ and a hash computed once.
"""

from __future__ import annotations

# bypasses Frozen.__setattr__; for __init__ only
set_field = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _compared(self) -> tuple:
        """The values that __eq__ and __hash__ read."""
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared() == other._compared()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._compared())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)
