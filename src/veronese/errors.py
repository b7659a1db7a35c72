"""Exception types shared across the package, and the two bases of its
value classes: Frozen, a class with __slots__, and FrozenTuple, the tuple
of its fields.

Every error raised by library code derives from VeroneseError so callers
(notably the CLI) can map failures to exit codes without catching builtins.
"""

from __future__ import annotations

from operator import itemgetter


class VeroneseError(Exception):
    """Base class for all library errors."""


class ContractError(VeroneseError):
    """A documented precondition was violated (mismatched lengths, degrees,
    dimensions or fields)."""


class InvalidPointError(VeroneseError):
    """A projective point with no nonzero coordinate."""


class NoChartError(VeroneseError):
    """No pure-power coordinate is nonzero, so no affine chart contains the
    point.  For a point satisfying all 2-minors this certifies the input was
    not a valid projective point at all."""


class BudgetError(VeroneseError):
    """An exhaustive enumeration was refused because it would exceed the
    configured budget.  Carries the estimated cost, counted in `unit`."""

    def __init__(self, estimated: int, budget: int, unit: str = "membership tests"):
        super().__init__(
            f"enumeration refused: estimated {estimated} {unit} "
            f"exceed budget {budget}"
        )
        self.estimated = estimated
        self.budget = budget


class Frozen:
    """Base of the package's immutable value classes built a few at a time,
    which behave as frozen dataclasses without importing dataclasses and
    inspect.

    A subclass names its fields in __slots__, in constructor order, and its
    __init__ validates and stores them.  Equality holds only against the
    same class with equal fields (never against a tuple), the hash is that
    of the field tuple, and the repr reads "Name(field=value, ...)".
    Assigning or deleting an attribute raises FrozenInstanceError, the one
    path that imports dataclasses.  Classes built or hashed in hot loops
    override __init__, __eq__ and __hash__ with field-by-field versions.
    Values built by the hundred or the ten thousand are FrozenTuples.
    """

    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # pickle and copy by calling the class on the fields
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class FrozenTuple(tuple):
    """Base of the value classes built in bulk: a value is the tuple of its
    fields, made with one tuple.__new__ and hashed and freed in C.

    A subclass declares __slots__ = () and names its fields in _fields, in
    constructor order; each becomes a property reading its index.  Its
    public __new__ validates the fields; code that builds valid values by
    construction calls tuple.__new__(cls, fields) itself.  Otherwise a
    value behaves as a Frozen one: equal only to the same class with equal
    fields (never to a tuple), the hash of the field tuple, the same repr
    and pickling, immutable, and in addition unordered.  As a tuple it
    also has len, iteration and indexing over its fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = tuple.__hash__
    __setattr__, __delattr__ = Frozen.__setattr__, Frozen.__delattr__

    def __init_subclass__(cls):
        super().__init_subclass__()
        for k, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, property(itemgetter(k)))

    def __eq__(self, other):
        # False, not NotImplemented: the reflected tuple.__eq__ would say True
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):  # unordered: tuple's order would compare the fields
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(self)
