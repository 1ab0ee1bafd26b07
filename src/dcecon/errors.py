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
    """fn, raising NumericalOverflowError for an OverflowError (same message) or a non-finite
    float it returns, alone or in a tuple (exp returns inf or NaN for a non-finite argument)."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except OverflowError as exc:
            raise NumericalOverflowError(str(exc)) from exc
        for value in result if isinstance(result, tuple) else (result,):
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericalOverflowError(f"non-finite result {fn.__name__} = {value}")
        return result
    return checked


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# domain -> (membership test, what a value must do); no test holds for NaN, and no
# integer domain holds for a bool
DOMAINS = {
    "finite": (lambda x: x == x, "be finite"),
    "non-negative": (lambda x: x >= 0, "be non-negative"),
    "positive": (lambda x: x > 0, "be strictly positive"),
    "unit": (lambda x: 0 < x < 1, "lie strictly inside (0, 1)"),
    "percent": (lambda x: 0 <= x <= 100, "lie in [0, 100]"),
    "count": (lambda x: _is_integer(x) and x >= 1, "be an integer of at least 1"),
    "integer": (_is_integer, "be an integer"),
}


def check_domain(name: str, value, domain: str, error: type) -> None:
    """Raise error("<name> must ..., got <value>") unless value is in DOMAINS[domain] and finite."""
    inside, requirement = DOMAINS[domain]
    if not inside(value):
        raise error(f"{name} must {requirement}, got {value}")
    # a comparison, as math.isfinite overflows on an int beyond the float range
    if abs(value) == math.inf:
        raise error(f"{name} must be finite, got {value}")


def check_finite(record) -> None:
    """Raise NumericalOverflowError naming the first NaN or infinite field of a dataclass."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if value is not None and not math.isfinite(value):
            raise NumericalOverflowError(f"non-finite result {field.name} = {value}")
