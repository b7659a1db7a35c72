"""Exception types shared across the package.

Every error raised by library code derives from VeroneseError so callers
(notably the CLI) can map failures to exit codes without catching builtins.
"""

from __future__ import annotations


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


class EmptyMatrixError(VeroneseError):
    """The coordinate matrix is undefined because d = 0 leaves no monomial
    with any variable as a factor."""


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
