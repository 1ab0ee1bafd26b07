"""Least-squares and constrained fitting for the log-linearized production model.

The regression is y_i ~ K' + alpha*x1_i + beta*x2_i, either on the log scale
(log inputs and log outputs, the linearized Cobb-Douglas) or on the raw scale.
Unconstrained fits go through the normal equations (stable SVD solve); fits with
linear inequality constraints become a small dense quadratic program

    min x^T H x + f^T x   s.t.  C x <= b  (and optional C_eq x = b_eq)

with H = A^T A and f = -2 A^T y, solved exactly by enumerating working sets:
every set of at most n - n_eq inequality constraints, sum_{k <= n - n_eq} C(m, k)
of them (1,351 at m = 20 and n = 3). The KKT systems of one working-set size
are solved together, as one stacked np.linalg.solve call that gives each
solution the bits of a separate solve. The same enumeration tells an infeasible
QP from an unbounded one (by minimising ||x||^2 under the same constraints) and
certifies a claimed solution post hoc against the KKT conditions. This is the
only module that needs numpy, the package's only dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateProblemError,
    DomainError,
    InfeasibleProblemError,
    NumericalOverflowError,
    ParameterError,
    SingularSystemError,
    UnboundedProblemError,
    check_domain,
    first_non_finite,
    overflow_as_error,
)

# relative pivot threshold for rank decisions in the SVD solve
RANK_RCOND = 1e-12

FEASIBILITY_TOL = 1e-10
DUAL_TOL = 1e-8

# working sets per stacked KKT solve; bounds the stack's memory at large m
BATCH_SETS = 4096


@dataclass(frozen=True)
class DesignMatrix:
    """Design rows (1, x1_i, x2_i) and the response column.

    Build via :meth:`log_scale` (logs of inputs and outputs) or :meth:`raw_scale`.
    """

    matrix: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        matrix = _finite_array("design matrix", np.atleast_2d(self.matrix))
        outputs = _finite_array("design outputs", self.outputs).ravel()
        if matrix.shape[0] != outputs.shape[0]:
            raise ParameterError(
                f"row mismatch: {matrix.shape[0]} design rows vs {outputs.shape[0]} outputs"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "outputs", outputs)

    @classmethod
    def log_scale(cls, x1: Sequence[float], x2: Sequence[float], y: Sequence[float],
                  intercept: bool = True) -> "DesignMatrix":
        x1, x2, y = (np.asarray(column, dtype=float) for column in (x1, x2, y))
        for name, column in (("x1", x1), ("x2", x2), ("y", y)):
            for value in column.tolist():
                check_domain(name, value, "positive", DomainError)
        return cls(_stack_columns(np.log(x1), np.log(x2), intercept), np.log(y))

    @classmethod
    def raw_scale(cls, x1: Sequence[float], x2: Sequence[float], y: Sequence[float],
                  intercept: bool = True) -> "DesignMatrix":
        return cls(
            _stack_columns(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float), intercept),
            np.asarray(y, dtype=float),
        )


def _finite_array(name: str, value) -> np.ndarray:
    """value as a float array; raise ParameterError naming it if an entry is NaN or infinite."""
    array = np.asarray(value, dtype=float)
    if not np.isfinite(array).all():
        raise ParameterError(f"{name} has non-finite entries")
    return array


def _stack_columns(x1: np.ndarray, x2: np.ndarray, intercept: bool) -> np.ndarray:
    if intercept:
        return np.column_stack([np.ones_like(x1), x1, x2])
    return np.column_stack([x1, x2])


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients with the goodness of fit on the fitted scale."""

    intercept: float
    alpha: float
    beta: float
    r_squared: float
    residual_norm: float

    def __post_init__(self):
        if found := first_non_finite(self):
            raise NumericalOverflowError("non-finite result %s = %s" % found)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([self.intercept, self.alpha, self.beta])


@dataclass(frozen=True)
class QuadraticProgram:
    """min x^T H x + f^T x subject to C x <= b and optionally C_eq x = b_eq."""

    H: np.ndarray
    f: np.ndarray
    C: np.ndarray
    b: np.ndarray
    C_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None

    def __post_init__(self):
        H = _finite_array("QP H", self.H)
        f = _finite_array("QP f", self.f).ravel()
        C = np.atleast_2d(_finite_array("QP C", self.C))
        b = _finite_array("QP b", self.b).ravel()
        if H.shape[0] != H.shape[1]:
            raise ParameterError(f"H must be square, got shape {H.shape}")
        if not np.allclose(H, H.T, atol=1e-10):
            raise ParameterError("H must be symmetric")
        if f.shape[0] != H.shape[0]:
            raise ParameterError("f length must match H dimension")
        if C.size == 0:
            C = np.zeros((0, H.shape[0]))
        elif C.shape[1] != H.shape[0]:
            raise ParameterError("C column count must match H dimension")
        if C.shape[0] != b.shape[0]:
            raise ParameterError("C and b row counts differ")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "b", b)
        if self.C_eq is not None:
            C_eq = np.atleast_2d(_finite_array("QP C_eq", self.C_eq))
            b_eq = _finite_array("QP b_eq", self.b_eq).ravel()
            if C_eq.shape[1] != H.shape[0] or C_eq.shape[0] != b_eq.shape[0]:
                raise ParameterError("equality constraint shapes are inconsistent")
            object.__setattr__(self, "C_eq", C_eq)
            object.__setattr__(self, "b_eq", b_eq)

    def objective(self, x: np.ndarray) -> float:
        return float(x @ self.H @ x + self.f @ x)


@np.errstate(all="ignore")
def ols_fit(design: DesignMatrix) -> FitResult:
    """Least-squares coefficients for an (over)determined design.

    Solves min ||Ax - y|| via SVD with a relative rank threshold; the residual
    is orthogonal to the column space by construction. numpy warns of nothing:
    an overflow surfaces as a non-finite FitResult field, which raises.
    """
    A, y = design.matrix, design.outputs
    n_rows, n_cols = A.shape
    if n_rows < n_cols:
        raise SingularSystemError(
            f"underdetermined system: {n_rows} rows for {n_cols} coefficients"
        )
    x, _, rank, _ = np.linalg.lstsq(A, y, rcond=RANK_RCOND)
    if rank < n_cols:
        raise SingularSystemError(f"design matrix is rank deficient (rank {rank} of {n_cols})")
    return _fit_result_from_coefficients(x, design)


def _r_squared(predictions: np.ndarray, y: np.ndarray) -> float:
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateProblemError("outputs have zero variance")
    return 1.0 - float(np.sum((y - predictions) ** 2)) / ss_tot


def _fit_result_from_coefficients(x: np.ndarray, design: DesignMatrix) -> FitResult:
    residual = design.outputs - design.matrix @ x
    if design.matrix.shape[1] == 3:
        intercept, alpha, beta = x
    else:
        intercept, (alpha, beta) = 0.0, x
    return FitResult(intercept=float(intercept), alpha=float(alpha), beta=float(beta),
                     r_squared=_r_squared(design.matrix @ x, design.outputs),
                     residual_norm=float(np.linalg.norm(residual)))


@np.errstate(all="ignore")
def kkt_certificate(qp: QuadraticProgram, x: np.ndarray, lam: np.ndarray,
                    mu: Optional[np.ndarray] = None) -> bool:
    """Stationarity, primal/dual feasibility, and complementary slackness.

    Tolerances: stationarity and complementary slackness 1e-8, dual sign 1e-8,
    primal feasibility 1e-10. A non-finite x, lam or mu is rejected.
    """
    if not all(np.isfinite(v).all() for v in (x, lam, mu) if v is not None):
        return False
    grad = 2.0 * qp.H @ x + qp.f + qp.C.T @ lam
    if qp.C_eq is not None and mu is not None:
        grad = grad + qp.C_eq.T @ mu
    if np.linalg.norm(grad) > DUAL_TOL:
        return False
    if np.any(lam < -DUAL_TOL):
        return False
    slack = qp.C @ x - qp.b
    if np.any(slack > FEASIBILITY_TOL):
        return False
    if qp.C_eq is not None and np.any(np.abs(qp.C_eq @ x - qp.b_eq) > FEASIBILITY_TOL):
        return False
    if np.any(np.abs(lam * slack) > DUAL_TOL):
        return False
    return True


def _kkt_stack(qp: QuadraticProgram, active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The KKT matrices and right-hand sides of the working sets in the rows of active.

    Set i gives the system [[2H, G_i^T], [G_i, 0]] (x, mu, lam) = (-f, b_eq, b[active[i]]),
    where G_i stacks C_eq over the rows active[i] of C.
    """
    n = qp.H.shape[0]
    n_eq = qp.C_eq.shape[0] if qp.C_eq is not None else 0
    count, k = active.shape
    size = n + n_eq + k
    kkt = np.zeros((count, size, size))
    rhs = np.empty((count, size))
    kkt[:, :n, :n] = 2.0 * qp.H
    rhs[:, :n] = -qp.f
    if n_eq:
        kkt[:, :n, n:n + n_eq] = qp.C_eq.T
        kkt[:, n:n + n_eq, :n] = qp.C_eq
        rhs[:, n:n + n_eq] = qp.b_eq
    G = qp.C[active]
    kkt[:, :n, n + n_eq:] = G.transpose(0, 2, 1)
    kkt[:, n + n_eq:, :n] = G
    rhs[:, n + n_eq:] = qp.b[active]
    return kkt, rhs


def _solve_one(kkt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution of one KKT system; a singular one by least squares, NaN if inconsistent."""
    try:
        return np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        solution, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        if np.linalg.norm(kkt @ solution - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            return np.full_like(rhs, np.nan)
        return solution


def _least_kkt_point(qp: QuadraticProgram) -> Optional[np.ndarray]:
    """The certified KKT point with the least objective over all working sets, or None.

    The working sets of one size are solved as stacks of at most BATCH_SETS
    systems, one np.linalg.solve call each. LAPACK factors every matrix of a
    stack on its own, so each solution has the bits of a separate solve; a stack
    holding a singular matrix is solved one set at a time (an inconsistent one
    gives NaN, which the certificate rejects). A solution with a multiplier below
    -DUAL_TOL fails the certificate's dual-sign test on the same floats, so it is
    dropped before the certificate runs. Ties between equal objectives go to the
    working set with the least bit mask (sum of 2^i); a non-finite one never wins,
    and when every certified point has one, NumericalOverflowError names it.
    """
    n = qp.H.shape[0]
    m = qp.C.shape[0]
    n_eq = qp.C_eq.shape[0] if qp.C_eq is not None else 0
    best = None  # (objective, bit mask, x)
    overflowed = None  # a non-finite objective at a certified point
    for k in range(min(m, n - n_eq) + 1):
        sets = combinations(range(m), k)
        while True:
            batch = list(islice(sets, BATCH_SETS))
            if not batch:
                break
            active = np.array(batch, dtype=np.intp).reshape(len(batch), k)
            kkt, rhs = _kkt_stack(qp, active)
            try:
                solutions = np.linalg.solve(kkt, rhs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                solutions = np.array([_solve_one(a, b) for a, b in zip(kkt, rhs)])
            dual_feasible = ~np.any(solutions[:, n + n_eq:] < -DUAL_TOL, axis=1)
            for index in np.flatnonzero(dual_feasible):
                members, solution = batch[index], solutions[index]
                x = solution[:n]
                lam = np.zeros(m)
                lam[list(members)] = solution[n + n_eq:]
                if not kkt_certificate(qp, x, lam, solution[n:n + n_eq] if n_eq else None):
                    continue
                candidate = (qp.objective(x), sum(1 << i for i in members), x)
                if not np.isfinite(candidate[0]):
                    overflowed = candidate[0]
                elif best is None or candidate[:2] < best[:2]:
                    best = candidate
    if best is None and overflowed is not None:
        raise NumericalOverflowError(f"QP objective is {overflowed} at a certified KKT point")
    return None if best is None else best[2]


@np.errstate(all="ignore")
def qp_solve(qp: QuadraticProgram) -> np.ndarray:
    """Exact active-set enumeration for a small dense convex QP.

    Every set of at most n - n_eq inequality constraints is tried as the working
    set (equalities are always active), sum_{k <= n - n_eq} C(m, k) candidates;
    each comes from the corresponding KKT linear system and is accepted only if
    the full KKT certificate passes. The best certified candidate is the global
    minimum for PSD H. Ties between equal objectives go to the working set with
    the least bit mask (sum of 2^i over members), so they always go to the same
    candidate.
    """
    x = _least_kkt_point(qp)
    if x is None:
        _classify_failure(qp)
        raise UnboundedProblemError("no KKT point over a non-empty feasible set")
    return x


@np.errstate(all="ignore")
def certify_solution(qp: QuadraticProgram, x: np.ndarray) -> bool:
    """Post-hoc KKT certificate for a claimed solution.

    For each working set of at most n - n_eq constraints active at x, solves the
    stationarity equation for the equality and working-set multipliers by least
    squares and checks the full certificate. A claimed optimum that fails this
    check for every working set is a defect.
    """
    x = np.asarray(x, dtype=float)
    n, m = qp.H.shape[0], qp.C.shape[0]
    n_eq = qp.C_eq.shape[0] if qp.C_eq is not None else 0
    grad = 2.0 * qp.H @ x + qp.f
    active = [i for i in range(m) if qp.C[i] @ x - qp.b[i] > -DUAL_TOL]
    sets = (s for k in range(min(len(active), n - n_eq) + 1) for s in combinations(active, k))
    for members in sets:
        basis = ([qp.C_eq.T] if n_eq else []) + [qp.C[list(members)].T]
        sol, *_ = np.linalg.lstsq(np.hstack(basis), -grad, rcond=None)
        lam = np.zeros(m)
        lam[list(members)] = sol[n_eq:]
        if kkt_certificate(qp, x, lam, sol[:n_eq] if n_eq else None):
            return True
    return False


def _classify_failure(qp: QuadraticProgram) -> None:
    """No certified KKT point exists; decide between infeasible and unbounded.

    min ||x||^2 under the same constraints is bounded below, so it has a KKT
    point exactly when the constraint set is non-empty.
    """
    n = qp.H.shape[0]
    nearest = QuadraticProgram(H=np.eye(n), f=np.zeros(n), C=qp.C, b=qp.b,
                               C_eq=qp.C_eq, b_eq=qp.b_eq)
    try:
        point = _least_kkt_point(nearest)
    except NumericalOverflowError:  # a certified point whose ||x||^2 overflows is feasible
        return
    if point is None:
        raise InfeasibleProblemError("constraint set is empty")


@np.errstate(all="ignore")
def qp_fit(design: DesignMatrix, constraints: Tuple[np.ndarray, np.ndarray]) -> FitResult:
    """Constrained least squares assembled as a QP over x = (K', alpha, beta).

    The QP objective x^T (A^T A) x - 2 y^T A x equals ||y - Ax||^2 - y^T y, so the
    minimizer matches the constrained least-squares fit. An overflowing A^T A
    fails the QP's finiteness check.
    """
    A, y = design.matrix, design.outputs
    C, b = constraints
    qp = QuadraticProgram(H=A.T @ A, f=-2.0 * A.T @ y, C=C, b=b)
    return _fit_result_from_coefficients(qp_solve(qp), design)


@overflow_as_error
@np.errstate(all="ignore")
def r_squared(model: FitResult, design: DesignMatrix) -> float:
    """1 - SS_res/SS_tot on the scale the design was built with."""
    coeffs = model.coefficients if design.matrix.shape[1] == 3 else model.coefficients[1:]
    return _r_squared(design.matrix @ coeffs, design.outputs)


@overflow_as_error
@np.errstate(all="ignore")
def predict(model: FitResult, S: float, P: float, scale: str = "log_linear") -> float:
    """Point prediction: exp(K' + a ln S + b ln P) on the log scale, affine on raw."""
    if scale not in ("log_linear", "raw_linear"):
        raise ParameterError(f"unknown scale {scale!r}")
    for name, value in (("S", S), ("P", P)):
        check_domain(name, value, "positive" if scale == "log_linear" else "finite", DomainError)
    if scale == "log_linear":
        return float(np.exp(model.intercept + model.alpha * np.log(S) + model.beta * np.log(P)))
    return float(model.intercept + model.alpha * S + model.beta * P)
