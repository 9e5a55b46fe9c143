"""Frozen record classes: what ``@dataclass(frozen=True)`` gave, and no more.

A subclass of :class:`Record` declares its fields as class annotations,
with class-level defaults, as a frozen dataclass does, and gets:

* an ``__init__`` that takes the fields positionally or by keyword and
  then calls ``__post_init__`` when the class has one; ``__post_init__``
  may still set attributes with ``object.__setattr__``;
* ``==`` on the tuple of field values within one class, and
  ``NotImplemented`` across classes, so equal fields of two classes
  compare unequal;
* the hash of that tuple, which the ``lru_cache``s keyed on measures and
  triplets rely on;
* the repr ``Cls(field=value, ...)``;
* assignment and deletion that raise ``AttributeError``.

A method the class defines itself overrides the base's: a record with
array fields sets ``__eq__ = object.__eq__`` and ``__hash__ =
object.__hash__``, since an array has no truth value.  Creating a
record class costs one small ``exec``, about 0.15 ms on Python 3.11,
where a frozen dataclass took about 1.2 ms of code generation and
introspection.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the package's immutable value classes."""

    #: field names, in declaration order, inherited ones first
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._fields = fields
        required = [name for name in fields if not hasattr(cls, name)]
        if fields[:len(required)] != tuple(required):
            raise TypeError(f"{cls.__qualname__}: a field without a default "
                            "follows one with a default")
        source = (
            f"def __init__(self, {''.join(f'{n}, ' for n in fields)}):\n"
            f"    self.__dict__.update({', '.join(f'{n}={n}' for n in fields)})\n"
            + ("    self.__post_init__()\n"
               if hasattr(cls, "__post_init__") else "")
            + "def _values(self):\n"
            f"    return ({''.join(f'self.{n}, ' for n in fields)})\n")
        namespace: dict = {}
        exec(source, {}, namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(
            getattr(cls, name) for name in fields[len(required):]) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        if "__init__" not in cls.__dict__:
            cls.__init__ = init
        cls._values = namespace["_values"]

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
