"""Cobb-Douglas production primitives.

Output Y = P * L^alpha * K^beta, its augmented quasi form (A*R)^alpha * (B*I)^beta
with Harrod (labor) and Solow (capital) technological-progress factors, the linear
cost function, and returns-to-scale classification. All power evaluations run in
log space and require strictly positive bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Tuple

from .errors import DomainError, NumericalOverflowError, ParameterError, overflow_as_error

# |alpha + beta - 1| below this counts as constant returns to scale
CRS_TOLERANCE = 1e-9


class ScaleRegime(str, Enum):
    CRS = "CRS"
    IRS = "IRS"
    DRS = "DRS"


class ScaleClassification(NamedTuple):
    regime: ScaleRegime
    n: float


@dataclass(frozen=True)
class CobbDouglasParams:
    """Total factor productivity P and the two output elasticities."""

    P: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not self.P > 0:
            raise ParameterError(f"total factor productivity must be positive, got {self.P}")
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ParameterError(f"elasticities must be non-negative, got ({self.alpha}, {self.beta})")


@dataclass(frozen=True)
class RdDeterminants:
    """R&D inputs that determine the technological-progress factors.

    r is the future discount rate, Gamma the capital invested in R&D behind
    labor-augmenting progress, Delta the labor contribution to R&D behind
    capital-augmenting progress, and alpha1/beta1 the R&D output elasticities.
    """

    r: float
    Gamma: float
    Delta: float
    alpha1: float
    beta1: float

    def __post_init__(self):
        for name in ("r", "Gamma", "Delta"):
            _check_positive(name, getattr(self, name), ParameterError)
        _check_unit_interval("alpha1", self.alpha1)
        _check_unit_interval("beta1", self.beta1)


@dataclass(frozen=True)
class TechProgress:
    """Harrod factor A (labor augmenting) and Solow factor B (capital augmenting).

    rd, L_star and K_star are present when the factors were built via
    :meth:`from_determinants` and absent when A and B are given directly.
    """

    A: float
    B: float
    rd: Optional[RdDeterminants] = None
    L_star: Optional[float] = None
    K_star: Optional[float] = None

    def __post_init__(self):
        if not (0 < self.A < math.inf and 0 < self.B < math.inf):
            raise ParameterError(
                f"progress factors must be positive and finite, got A={self.A}, B={self.B}")
        for name in ("L_star", "K_star"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ParameterError(f"{name} must be positive, got {value}")

    @classmethod
    def from_determinants(cls, r: float, L_star: float, K_star: float,
                          Gamma: float, Delta: float,
                          alpha1: float, beta1: float) -> "TechProgress":
        """Build A = r * L*^beta1 * Gamma^(1-beta1) and B = r * K*^alpha1 * Delta^(1-alpha1)."""
        A = harrod_progress(r, L_star, Gamma, beta1)
        B = solow_progress(r, K_star, Delta, alpha1)
        return cls(A=A, B=B, rd=RdDeterminants(r=r, Gamma=Gamma, Delta=Delta,
                                               alpha1=alpha1, beta1=beta1),
                   L_star=L_star, K_star=K_star)


@dataclass(frozen=True)
class CostRecord:
    """One year's observed input costs (currency units consistent within a series)."""

    year: int
    server_cost: float
    power_cooling_cost: float

    def __post_init__(self):
        costs = (self.server_cost, self.power_cooling_cost)
        if not all(cost > 0 and math.isfinite(cost) for cost in costs):
            raise DomainError(f"costs must be strictly positive and finite, got {costs}")


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ParameterError(f"{name} must lie strictly inside (0, 1), got {value}")


def _check_positive(name: str, value: float, error=DomainError) -> None:
    """Raise error (a DomainError by default) unless 0 < value < inf."""
    if not value > 0:
        raise error(f"{name} must be strictly positive, got {value}")
    if value == math.inf:
        raise error(f"{name} must be finite, got {value}")


@overflow_as_error
def evaluate_output(params: CobbDouglasParams, L: float, K: float) -> float:
    """Production output P * L^alpha * K^beta, evaluated as exp(ln P + a ln L + b ln K)."""
    _check_positive("L", L)
    _check_positive("K", K)
    return math.exp(math.log(params.P) + params.alpha * math.log(L) + params.beta * math.log(K))


def evaluate_augmented(tech: TechProgress, alpha: float, beta: float, R: float, I: float) -> float:
    """Quasi form (A*R)^alpha * (B*I)^beta over recurring and infrastructure costs."""
    _check_positive("R", R)
    _check_positive("I", I)
    return evaluate_output(CobbDouglasParams(P=1.0, alpha=alpha, beta=beta), tech.A * R, tech.B * I)


def harrod_progress(r: float, L_star: float, Gamma: float, beta1: float) -> float:
    """Labor-augmenting factor A = r * L*^beta1 * Gamma^(1-beta1)."""
    return _progress(r, L_star, Gamma, beta1, ("L_star", "Gamma", "beta1"))


def solow_progress(r: float, K_star: float, Delta: float, alpha1: float) -> float:
    """Capital-augmenting factor B = r * K*^alpha1 * Delta^(1-alpha1)."""
    return _progress(r, K_star, Delta, alpha1, ("K_star", "Delta", "alpha1"))


@overflow_as_error
def _progress(r: float, x: float, y: float, e: float, names: Tuple[str, str, str]) -> float:
    """r * x^e * y^(1-e), the form both progress factors share; names label x, y and e."""
    _check_positive("r", r)
    _check_positive(names[0], x)
    _check_positive(names[1], y)
    _check_unit_interval(names[2], e)
    power = math.exp(e * math.log(x) + (1.0 - e) * math.log(y))
    value = r * power
    if value == math.inf:
        raise NumericalOverflowError(f"progress factor {r} * {power} overflows")
    return value


def invert_harrod(A: float, r: float, Gamma: float, beta1: float) -> float:
    """R&D labor L* = (A / (r * Gamma^(1-beta1)))^(1/beta1); inverse of harrod_progress."""
    return _invert(A, r, Gamma, beta1, ("A", "Gamma", "beta1"))


def invert_solow(B: float, r: float, Delta: float, alpha1: float) -> float:
    """R&D capital K* = (B / (r * Delta^(1-alpha1)))^(1/alpha1); inverse of solow_progress."""
    return _invert(B, r, Delta, alpha1, ("B", "Delta", "alpha1"))


@overflow_as_error
def _invert(z: float, r: float, y: float, e: float, names: Tuple[str, str, str]) -> float:
    """x with z = r * x^e * y^(1-e), the inverse of _progress; names label z, y and e."""
    _check_positive(names[0], z)
    _check_positive("r", r)
    _check_positive(names[1], y)
    _check_unit_interval(names[2], e)
    return math.exp((math.log(z) - math.log(r) - (1.0 - e) * math.log(y)) / e)


def linear_cost(w1: float, w2: float, L: float, K: float) -> float:
    """Linear cost w1*L + w2*K with non-negative weights."""
    if not (w1 >= 0 and w2 >= 0):
        raise ParameterError(f"cost weights must be non-negative, got ({w1}, {w2})")
    _check_positive("L", L)
    _check_positive("K", K)
    cost = w1 * L + w2 * K
    if not math.isfinite(cost):
        raise NumericalOverflowError(f"linear cost {w1}*{L} + {w2}*{K} is not finite")
    return cost


def returns_to_scale(alpha: float, beta: float, tol: float = CRS_TOLERANCE) -> ScaleClassification:
    """Classify n = alpha + beta as constant (|n-1| <= tol), increasing, or decreasing."""
    n = alpha + beta
    if not math.isfinite(n):
        raise ParameterError(f"elasticities must be finite, got ({alpha}, {beta})")
    if abs(n - 1.0) <= tol:
        regime = ScaleRegime.CRS
    elif n > 1.0:
        regime = ScaleRegime.IRS
    else:
        regime = ScaleRegime.DRS
    return ScaleClassification(regime, n)
