"""Exception types shared across the library."""

import dataclasses
import functools
import math


class EconModelError(Exception):
    """Base class for all library errors."""


class DomainError(EconModelError, ValueError):
    """An operation input lies outside its mathematical domain."""


class ParameterError(EconModelError, ValueError):
    """A configuration or model parameter is invalid."""


class DegenerateProblemError(EconModelError):
    """The optimization problem has no well-posed solution (e.g. no interior maximum)."""


class SingularSystemError(EconModelError):
    """A linear system is singular, rank deficient, or underdetermined."""


class InfeasibleProblemError(EconModelError):
    """The constraint set is empty."""


class UnboundedProblemError(EconModelError):
    """The objective is unbounded over the feasible set."""


class DataValidationError(EconModelError):
    """An input data file failed validation."""


class NumericalOverflowError(EconModelError, OverflowError):
    """A result lies outside the double range (math.exp overflowed)."""


def overflow_as_error(fn):
    """fn, with an OverflowError it raises re-raised as NumericalOverflowError (same message)."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise NumericalOverflowError(str(exc)) from exc
    return checked


def check_finite(record) -> None:
    """Raise NumericalOverflowError naming the first NaN or infinite field of a dataclass."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if value is not None and not math.isfinite(value):
            raise NumericalOverflowError(f"non-finite result {field.name} = {value}")
