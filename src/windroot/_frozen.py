"""Base class of the package's immutable value types.

A subclass names its fields in ``__slots__`` and sets each one in its
``__init__`` through ``object.__setattr__``.  ``Frozen`` then refuses any
later assignment or deletion with ``AttributeError``, and gives equality
(between instances of the same class only), hashing, a repr and
copying or pickling over the fields in slot order.  Plain classes keep
the package's import small: the standard library's class generator
loads ``inspect``, ``ast`` and ``dis``, which nothing else in a run uses.
"""

from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
