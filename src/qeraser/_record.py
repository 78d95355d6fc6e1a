"""Frozen records: immutable value classes with no generated code.

The standard library's generator of such classes imports ``inspect`` and
compiles methods for every class, which costs each CLI process tens of
milliseconds before it does any work.  A :class:`Record` subclass reads
its fields once, when the class is created, and shares one ``__init__``,
``__eq__``, ``__hash__`` and ``__repr__`` with every other record.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, TypeVar

_R = TypeVar("_R", bound="Record")


def _tuple_getter(fields: tuple[str, ...]) -> Callable[[object], tuple]:
    """A callable returning the values of ``fields`` of its argument as a tuple."""
    if len(fields) == 1:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return attrgetter(*fields)


class Record:
    """Immutable value whose fields are the annotated names of its class.

    Fields come in declaration order, base classes first, and a class value
    is the field's default; fields with defaults come last.  Every
    annotation is a field.  The constructor binds positional and keyword
    arguments to fields, raising ``TypeError`` on a missing or unknown one,
    then calls ``__post_init__``, which may normalise a field with
    ``object.__setattr__``.  After that, assigning or deleting an attribute
    raises ``AttributeError``.  Records are equal when they are of the same
    class and their field tuples are equal, and hash their field tuple.
    Pickling and ``copy`` work on the instance dict.
    """

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()  # of the last len(_defaults) fields

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # own annotations only (Python >= 3.10); a base's fields come first
        fields = tuple(dict.fromkeys([*cls._fields, *cls.__annotations__]))
        required = [name for name in fields if not hasattr(cls, name)]
        if fields[: len(required)] != tuple(required):
            raise TypeError(f"{cls.__name__}: a field without a default follows a default")
        cls._fields = fields
        cls._defaults = tuple(getattr(cls, name) for name in fields[len(required) :])
        # read as self.__class__._values: through an instance, a lambda would bind
        cls._values = _tuple_getter(fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        missing = len(fields) - len(args)
        if kwargs or not 0 <= missing <= len(self._defaults):
            args = self._bind(args, kwargs)
        elif missing:
            args += self._defaults[-missing:]
        # the instance dict directly: vars(self) costs a builtin call
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value in field order, from the arguments and the defaults."""
        fields, name = cls._fields, cls.__name__
        required = len(fields) - len(cls._defaults)
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = dict(zip(fields[required:], cls._defaults))
        values.update(zip(fields, args))
        for key in kwargs:
            if key in fields[: len(args)]:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values.update(kwargs)
        unset = [field for field in fields if field not in values]
        if unset:
            raise TypeError(f"{name}() missing required arguments: {', '.join(unset)}")
        return tuple(values[field] for field in fields)

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self.__class__._values
        return values(self) == values(other)

    def __hash__(self) -> int:
        return hash(self.__class__._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, astuple(self)))
        return f"{type(self).__qualname__}({body})"


def astuple(record: Record) -> tuple:
    """The field values of ``record`` in field order (a shallow tuple)."""
    return record.__class__._values(record)


def replace(record: _R, /, **changes) -> _R:
    """A new record of the same class with ``changes`` applied.

    The copy is built by the constructor, so ``__post_init__`` checks and
    normalises it again; an unknown field raises ``TypeError``.
    """
    return record.__class__(**{**dict(zip(record._fields, astuple(record))), **changes})
