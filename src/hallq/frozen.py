"""The base of hallq's immutable value types.

A value type lists its fields in _fields and its __slots__, sets them once
in its own __init__ through set_field, and writes its own __eq__ and
__hash__: hash((f1, ...)) over the fields it compares, so set and dict
order is that of a tuple of the fields. The base adds what no hot path
calls: the repr, refusal of assignment, and pickling and copying by
rebuilding from the fields. A rebuild re-runs __init__'s checks and
recomputes any cached hash, which for a string differs between processes.
"""

from __future__ import annotations

# bypasses Frozen.__setattr__; for __init__ only
set_field = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)
