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


def first_non_finite(value, path: str = ""):
    """(path, value) of the first NaN or infinity in a float, a dataclass record (its fields in
    declaration order) or a dict, list or tuple of those, else None; other values are skipped."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else str(key), item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{index}]", item) for index, item in enumerate(value))
    else:
        return None
    for item_path, item in items:
        found = first_non_finite(item, item_path)
        if found is not None:
            return found
    return None


def overflow_as_error(fn):
    """fn, raising NumericalOverflowError for an OverflowError (same message) or a non-finite
    float it returns, alone or in a tuple (exp returns inf or NaN for a non-finite argument)."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except OverflowError as exc:
            raise NumericalOverflowError(str(exc)) from exc
        if isinstance(result, (float, tuple)) and (found := first_non_finite(result)):
            raise NumericalOverflowError(f"non-finite result {fn.__name__} = {found[1]}")
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
