"""Exception types shared across the package, and its one finite-number,
one positive-number, one integer and one non-negative-integer check."""

import math
from numbers import Real


class SpecValidationError(ValueError):
    """A spec object (norm, grid, config, ...) violates its invariants."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class OutOfRangeError(DomainError):
    """A requested evaluation point lies outside a profile/grid range."""


class StabilityError(SpecValidationError):
    """An explicit time step violates its stability bound."""


class ConvergenceError(RuntimeError):
    """An iterative procedure did not reach its tolerance.

    Carries the best value found and an estimate of the remaining gap so
    callers can decide whether the partial answer is usable.
    """

    def __init__(self, message, best=None, gap=None):
        super().__init__(message)
        self.best = best
        self.gap = gap


def finite(value) -> bool:
    """Whether `value` is a finite real number (booleans and strings are not)."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def positive(value, what: str):
    """`value` if it is a finite number above 0, else a SpecValidationError naming it."""
    if finite(value) and value > 0:
        return value
    raise SpecValidationError(f"{what} must be a finite number above 0, not {value!r}")


def integer(value, what: str) -> int:
    """`value` as an int if it is an integral number, 300 or 300.0; else a
    SpecValidationError naming `what` (2.7 is not truncated; NaN, infinity,
    booleans and strings are refused)."""
    if finite(value) and float(value).is_integer():
        return int(value)
    raise SpecValidationError(f"{what} must be an integer, not {value!r}")


def natural(value, what: str) -> int:
    """`integer(value, what)` if it is at least 0, else a SpecValidationError naming `what`."""
    if (n := integer(value, what)) >= 0:
        return n
    raise SpecValidationError(f"{what} must be an integer >= 0, not {value!r}")
