"""Exception types shared across the package."""

from __future__ import annotations


class Gf4LrcError(Exception):
    """Base class for all package errors."""


class ZeroInverse(Gf4LrcError, ZeroDivisionError):
    """Multiplicative inverse of 0 requested."""


class ShapeMismatch(Gf4LrcError, ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class FieldMismatch(Gf4LrcError, ValueError):
    """Operands live over different fields."""


class RankDeficient(Gf4LrcError, ValueError):
    """Input rows are linearly dependent where full rank is required."""


class ParseError(Gf4LrcError, ValueError):
    """Malformed matrix / cap / table text."""


class BudgetExceeded(Gf4LrcError):
    """An enumeration ran out of budget.

    ``lower``/``upper`` bracket the quantity being computed (distance
    bounds for a distance search); either may be None when unknown.
    """

    def __init__(self, message: str, lower=None, upper=None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


class SubsetBudgetExceeded(BudgetExceeded):
    """Repair-group subset enumeration ran out of budget."""


class NonIntegerResult(Gf4LrcError, ValueError):
    """A transform that must produce integers did not (inconsistent input)."""


class UnsupportedParameters(Gf4LrcError, ValueError):
    """Requested parameters are outside the family supported by a builder."""


class InvalidParameters(Gf4LrcError, ValueError):
    """Parameters violate a builder's validity constraints."""


class UnsupportedSubspaceLayout(Gf4LrcError, ValueError):
    """Deleted subspaces cannot be placed on disjoint coordinate blocks."""


class NotACap(Gf4LrcError, ValueError):
    """Point set contains three collinear points.

    ``triple`` holds the indices of one violating triple.
    """

    def __init__(self, message: str, triple=None):
        super().__init__(message)
        self.triple = triple


class NotADivisor(Gf4LrcError, ValueError):
    """Generator polynomial does not divide x^n - 1."""


class GroupDamaged(Gf4LrcError):
    """Local repair impossible: another symbol of the group is also erased."""


class AmbiguousDecode(Gf4LrcError):
    """Erased columns are dependent; ``solution_dim`` > 0 codewords fit."""

    def __init__(self, message: str, solution_dim: int):
        super().__init__(message)
        self.solution_dim = solution_dim


class OddDistance(Gf4LrcError, ValueError):
    """Bound only defined for even minimum distance."""


class InvalidShape(Gf4LrcError, ValueError):
    """Parameters do not have the shape the bound requires."""


class EmptyTauRange(Gf4LrcError, ValueError):
    """No admissible tau value (dimension does not exceed locality)."""
