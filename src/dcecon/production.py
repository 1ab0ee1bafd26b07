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
from typing import NamedTuple, Tuple

from .errors import (DomainError, NumericalOverflowError, ParameterError, check_domain,
                     overflow_as_error)

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
            check_domain(name, getattr(self, name), "positive", ParameterError)
        check_domain("alpha1", self.alpha1, "unit", ParameterError)
        check_domain("beta1", self.beta1, "unit", ParameterError)


@dataclass(frozen=True)
class CostRecord:
    """One year's observed input costs (currency units consistent within a series)."""

    year: int
    server_cost: float
    power_cooling_cost: float

    def __post_init__(self):
        check_domain("server_cost", self.server_cost, "positive", DomainError)
        check_domain("power_cooling_cost", self.power_cooling_cost, "positive", DomainError)


@overflow_as_error
def evaluate_output(P: float, alpha: float, beta: float, L: float, K: float) -> float:
    """Production output P * L^alpha * K^beta, evaluated as exp(ln P + a ln L + b ln K)."""
    check_domain("P", P, "positive", ParameterError)
    check_domain("alpha", alpha, "non-negative", ParameterError)
    check_domain("beta", beta, "non-negative", ParameterError)
    check_domain("L", L, "positive", DomainError)
    check_domain("K", K, "positive", DomainError)
    return math.exp(math.log(P) + alpha * math.log(L) + beta * math.log(K))


def evaluate_augmented(A: float, B: float, alpha: float, beta: float, R: float, I: float) -> float:
    """Quasi form (A*R)^alpha * (B*I)^beta over recurring and infrastructure costs, with
    Harrod factor A (labor augmenting) and Solow factor B (capital augmenting)."""
    check_domain("A", A, "positive", ParameterError)
    check_domain("B", B, "positive", ParameterError)
    for name, value in (("R", R), ("I", I), ("A*R", A * R), ("B*I", B * I)):
        check_domain(name, value, "positive", DomainError)
    return evaluate_output(1.0, alpha, beta, A * R, B * I)


def harrod_progress(r: float, L_star: float, Gamma: float, beta1: float) -> float:
    """Labor-augmenting factor A = r * L*^beta1 * Gamma^(1-beta1)."""
    return _progress(r, L_star, Gamma, beta1, ("L_star", "Gamma", "beta1"))


def solow_progress(r: float, K_star: float, Delta: float, alpha1: float) -> float:
    """Capital-augmenting factor B = r * K*^alpha1 * Delta^(1-alpha1)."""
    return _progress(r, K_star, Delta, alpha1, ("K_star", "Delta", "alpha1"))


@overflow_as_error
def _progress(r: float, x: float, y: float, e: float, names: Tuple[str, str, str]) -> float:
    """r * x^e * y^(1-e), the form both progress factors share; names label x, y and e."""
    check_domain("r", r, "positive", DomainError)
    check_domain(names[0], x, "positive", DomainError)
    check_domain(names[1], y, "positive", DomainError)
    check_domain(names[2], e, "unit", ParameterError)
    power = math.exp(e * math.log(x) + (1.0 - e) * math.log(y))
    value = r * power
    if value == math.inf:
        raise NumericalOverflowError(f"progress factor {r} * {power} overflows")
    if value == 0.0:
        raise DomainError(f"r * {names[0]}^{names[2]} * {names[1]}^(1-{names[2]}) underflows to 0")
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
    check_domain(names[0], z, "positive", DomainError)
    check_domain("r", r, "positive", DomainError)
    check_domain(names[1], y, "positive", DomainError)
    check_domain(names[2], e, "unit", ParameterError)
    return math.exp((math.log(z) - math.log(r) - (1.0 - e) * math.log(y)) / e)


@overflow_as_error
def linear_cost(w1: float, w2: float, L: float, K: float) -> float:
    """Linear cost w1*L + w2*K with non-negative weights."""
    check_domain("w1", w1, "non-negative", ParameterError)
    check_domain("w2", w2, "non-negative", ParameterError)
    check_domain("L", L, "positive", DomainError)
    check_domain("K", K, "positive", DomainError)
    return w1 * L + w2 * K


@overflow_as_error
def returns_to_scale(alpha: float, beta: float, tol: float = CRS_TOLERANCE) -> ScaleClassification:
    """Classify n = alpha + beta as constant (|n-1| <= tol), increasing, or decreasing."""
    check_domain("alpha", alpha, "finite", ParameterError)
    check_domain("beta", beta, "finite", ParameterError)
    check_domain("tol", tol, "non-negative", ParameterError)
    n = alpha + beta
    if abs(n - 1.0) <= tol:
        regime = ScaleRegime.CRS
    elif n > 1.0:
        regime = ScaleRegime.IRS
    else:
        regime = ScaleRegime.DRS
    return ScaleClassification(regime, n)
