"""Exception types shared across the package, and FrozenTuple, the base
of its value classes: each value is the tuple of its fields.

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


class FrozenTuple(tuple):
    """Base of the package's immutable value classes, which behave as frozen
    dataclasses without importing dataclasses and inspect: a value is the
    tuple of its fields, made with one tuple.__new__ and hashed and freed
    in C.

    A subclass declares __slots__ = () and names its fields in _fields, in
    constructor order; each becomes a property reading its index.  Its
    public __new__ validates the fields; code that builds valid values by
    construction calls tuple.__new__(cls, fields) itself.  A value equals
    only a value of the same class with equal fields, never a plain tuple;
    its hash is that of the field tuple, and its repr reads
    "Name(field=value, ...)".  It pickles and copies by calling the class
    on its fields, and it is unordered.  Assigning or deleting an
    attribute raises FrozenInstanceError, the one path that imports
    dataclasses.  As a tuple it also has len, iteration and indexing over
    its fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

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
