"""Least-squares and constrained fitting for the log-linearized production model.

The regression is y_i ~ K' + alpha*x1_i + beta*x2_i, either on the log scale
(log inputs and log outputs, the linearized Cobb-Douglas) or on the raw scale.
Unconstrained fits are least-squares solves through a Householder QR; fits with
linear inequality constraints become a small dense quadratic program

    min x^T H x + f^T x   s.t.  C x <= b  (and optional C_eq x = b_eq)

with H = A^T A and f = -2 A^T y, solved exactly by enumerating working sets:
every set of at most n - n_eq inequality constraints, sum_{k <= n - n_eq} C(m, k)
of them (1,351 at m = 20 and n = 3). When 2H is positive definite, the KKT
system of each working set reduces to its Schur complement, a system with one
unknown per active constraint, over quantities computed once per QP. The same
enumeration tells an infeasible QP from an unbounded one (by minimising ||x||^2
under the same constraints) and certifies a claimed solution post hoc against
the KKT conditions.

The module runs on the standard library. Matrices are tuples of row tuples
(:class:`Matrix`), and every function accepts lists, tuples or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import List, Optional, Sequence, Tuple

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

# singular values at or below RANK_RCOND times the largest count as zero in the OLS solve
RANK_RCOND = 1e-12

FEASIBILITY_TOL = 1e-10
DUAL_TOL = 1e-8

# the QP goes through the Schur complement of 2H when every pivot of its LDL^T
# factorisation exceeds SCHUR_RCOND times its largest diagonal entry
SCHUR_RCOND = 1e-8

EPS = 2.0 ** -52
JACOBI_SWEEPS = 60


class Matrix(tuple):
    """A dense matrix as a tuple of row tuples of floats, with numpy's shape and size.

    n_cols defaults to the length of the first row; a matrix without rows needs it.
    """

    def __new__(cls, rows, n_cols: Optional[int] = None):
        matrix = super().__new__(cls, rows)
        if n_cols is None:
            n_cols = len(matrix[0]) if matrix else 0
        matrix.shape = (len(matrix), n_cols)
        return matrix

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]


def _is_sequence(value) -> bool:
    return hasattr(value, "__iter__") and not isinstance(value, str)


def _numbers(name: str, value) -> List[float]:
    """The numbers in value, flattened in row order; a lone number is one entry."""
    if not _is_sequence(value):
        value = [value]
    entries = []
    for item in value:
        if _is_sequence(item):
            entries.extend(_numbers(name, item))
            continue
        try:
            entries.append(float(item))
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(f"{name} has non-numeric entries") from None
    return entries


def _check_finite(name: str, entries) -> None:
    if not all(map(math.isfinite, entries)):
        raise ParameterError(f"{name} has non-finite entries")


def _vector(name: str, value) -> Tuple[float, ...]:
    """value flattened to a tuple of floats; raise ParameterError naming it if an entry is
    NaN or infinite."""
    entries = tuple(_numbers(name, value))
    _check_finite(name, entries)
    return entries


def _matrix(name: str, value) -> Matrix:
    """value as a Matrix, a flat sequence being one row (as np.atleast_2d makes it); raise
    ParameterError naming it if an entry is NaN or infinite."""
    shape = getattr(value, "shape", None)
    rows = list(value) if _is_sequence(value) else [value]
    if not (shape is not None and len(shape) == 2) and not (rows and _is_sequence(rows[0])):
        rows = [rows]
    rows = [tuple(_numbers(name, row)) for row in rows]
    _check_finite(name, (v for row in rows for v in row))
    n_cols = shape[1] if shape is not None and len(shape) == 2 else len(rows[0])
    if any(len(row) != n_cols for row in rows):
        raise ParameterError(f"{name} rows differ in length")
    return Matrix(rows, n_cols)


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(mul, a, b))


def _columns(matrix: Sequence[Sequence[float]], n_cols: int) -> List[List[float]]:
    return [[row[j] for row in matrix] for j in range(n_cols)]


@dataclass(frozen=True)
class DesignMatrix:
    """Design rows (1, x1_i, x2_i) and the response column.

    Build via :meth:`log_scale` (logs of inputs and outputs) or :meth:`raw_scale`.
    """

    matrix: Matrix
    outputs: Tuple[float, ...]

    def __post_init__(self):
        matrix = _matrix("design matrix", self.matrix)
        outputs = _vector("design outputs", self.outputs)
        if matrix.shape[0] != len(outputs):
            raise ParameterError(
                f"row mismatch: {matrix.shape[0]} design rows vs {len(outputs)} outputs"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "outputs", outputs)

    @classmethod
    def log_scale(cls, x1: Sequence[float], x2: Sequence[float], y: Sequence[float],
                  intercept: bool = True) -> "DesignMatrix":
        logs = []
        for name, column in (("x1", x1), ("x2", x2), ("y", y)):
            values = _numbers(name, column)
            for value in values:
                check_domain(name, value, "positive", DomainError)
            logs.append([math.log(value) for value in values])
        return cls(_design_rows(logs[0], logs[1], intercept), logs[2])

    @classmethod
    def raw_scale(cls, x1: Sequence[float], x2: Sequence[float], y: Sequence[float],
                  intercept: bool = True) -> "DesignMatrix":
        return cls(_design_rows(_numbers("x1", x1), _numbers("x2", x2), intercept),
                   _numbers("y", y))


def _design_rows(x1: List[float], x2: List[float], intercept: bool) -> Matrix:
    if len(x1) != len(x2):
        raise ParameterError(f"x1 has {len(x1)} entries but x2 has {len(x2)}")
    if intercept:
        return Matrix([(1.0, a, b) for a, b in zip(x1, x2)], 3)
    return Matrix(list(zip(x1, x2)), 2)


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
    def coefficients(self) -> Tuple[float, float, float]:
        return (self.intercept, self.alpha, self.beta)


@dataclass(frozen=True)
class QuadraticProgram:
    """min x^T H x + f^T x subject to C x <= b and optionally C_eq x = b_eq."""

    H: Matrix
    f: Tuple[float, ...]
    C: Matrix
    b: Tuple[float, ...]
    C_eq: Optional[Matrix] = None
    b_eq: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        H = _matrix("QP H", self.H)
        f = _vector("QP f", self.f)
        C = _matrix("QP C", self.C)
        b = _vector("QP b", self.b)
        n = H.shape[0]
        if H.shape[1] != n:
            raise ParameterError(f"H must be square, got shape {H.shape}")
        # np.allclose(H, H.T, atol=1e-10)
        if any(abs(H[i][j] - H[j][i]) > 1e-10 + 1e-5 * abs(H[j][i])
               for i in range(n) for j in range(n)):
            raise ParameterError("H must be symmetric")
        if len(f) != n:
            raise ParameterError("f length must match H dimension")
        if C.size == 0:
            C = Matrix((), n)
        elif C.shape[1] != n:
            raise ParameterError("C column count must match H dimension")
        if C.shape[0] != len(b):
            raise ParameterError("C and b row counts differ")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "b", b)
        if self.C_eq is not None:
            C_eq = _matrix("QP C_eq", self.C_eq)
            b_eq = _vector("QP b_eq", self.b_eq)
            if C_eq.shape[1] != n or C_eq.shape[0] != len(b_eq):
                raise ParameterError("equality constraint shapes are inconsistent")
            object.__setattr__(self, "C_eq", C_eq)
            object.__setattr__(self, "b_eq", b_eq)

    def objective(self, x: Sequence[float]) -> float:
        x = tuple(map(float, x))
        return _dot(x, [_dot(row, x) for row in self.H]) + _dot(self.f, x)


def _householder_qr(columns: List[List[float]], y: Sequence[float]
                    ) -> Tuple[List[List[float]], List[float]]:
    """(columns of R, the first n entries of Q^T y) for the m x n matrix QR with these columns."""
    n = len(columns)
    columns = [list(column) for column in columns]
    y = list(y)
    for j in range(n):
        head = columns[j][j:]
        norm = math.hypot(*head)
        if norm == 0.0:
            continue
        head[0] += math.copysign(norm, head[0])
        length = math.hypot(*head)
        reflector = [v / length for v in head]
        # I - 2 u u^T with the unit vector u maps column j onto -sign(a_jj) ||a_j|| e_j
        for target in columns[j:] + [y]:
            scale = 2.0 * _dot(reflector, target[j:])
            for i, u in enumerate(reflector, j):
                target[i] -= scale * u
    return [column[:j + 1] + [0.0] * (n - j - 1) for j, column in enumerate(columns)], y[:n]


def _least_squares(columns: List[Sequence[float]], rhs: Sequence[float],
                   rcond: Optional[float] = None) -> Tuple[List[float], int]:
    """The minimum-norm least-squares solution of A x = rhs and the rank of A, given A's columns.

    One-sided Jacobi SVD of A scaled by a power of two. Singular values at or below
    rcond times the largest count as zero; rcond defaults to eps * max(rows, columns),
    as numpy.linalg.lstsq's rcond=None. A non-finite A gives NaN and rank 0.
    """
    n_cols = len(columns)
    if rcond is None:
        rcond = EPS * max(len(rhs), n_cols)
    largest = max((abs(v) for column in columns for v in column), default=0.0)
    if not math.isfinite(largest):
        return [math.nan] * n_cols, 0
    if largest == 0.0:
        return [0.0] * n_cols, 0
    exponent = max(math.frexp(largest)[1], -1000)
    U = [[math.ldexp(v, -exponent) for v in column] for column in columns]
    V = [[float(i == j) for i in range(n_cols)] for j in range(n_cols)]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p in range(n_cols):
            for q in range(p + 1, n_cols):
                up, uq = U[p], U[q]
                a, b, c = _dot(up, up), _dot(uq, uq), _dot(up, uq)
                if c == 0.0 or abs(c) <= EPS * math.sqrt(a * b):
                    continue
                rotated = True
                zeta = (b - a) / (2.0 * c)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                cos = 1.0 / math.hypot(1.0, t)
                sin = cos * t
                for M in (U, V):
                    vp, vq = M[p], M[q]
                    M[p] = [cos * s - sin * r for s, r in zip(vp, vq)]
                    M[q] = [sin * s + cos * r for s, r in zip(vp, vq)]
        if not rotated:
            break
    sigma = [math.hypot(*u) for u in U]
    cutoff = rcond * max(sigma)
    unscale = math.ldexp(1.0, -exponent)
    x = [0.0] * n_cols
    rank = 0
    for s, u, v in zip(sigma, U, V):
        if s > cutoff:
            rank += 1
            weight = _dot(u, rhs) / s / s * unscale
            x = [xi + weight * vi for xi, vi in zip(x, v)]
    return x, rank


def ols_fit(design: DesignMatrix) -> FitResult:
    """Least-squares coefficients for an (over)determined design.

    A Householder QR reduces A to R and y to Q^T y, and R's singular values (A's)
    decide the rank: those at or below RANK_RCOND times the largest count as
    zero. An overflow surfaces as a non-finite FitResult field, which raises.
    """
    A, y = design.matrix, design.outputs
    n_rows, n_cols = A.shape
    if n_rows < n_cols:
        raise SingularSystemError(
            f"underdetermined system: {n_rows} rows for {n_cols} coefficients"
        )
    R, reduced = _householder_qr(_columns(A, n_cols), y)
    x, rank = _least_squares(R, reduced, RANK_RCOND)
    if rank < n_cols:
        raise SingularSystemError(f"design matrix is rank deficient (rank {rank} of {n_cols})")
    return _fit_result_from_coefficients(x, design)


def _r_squared(predictions: Sequence[float], y: Sequence[float]) -> float:
    mean = sum(y) / len(y) if y else 0.0
    ss_tot = sum((v - mean) * (v - mean) for v in y)
    if ss_tot == 0.0:
        raise DegenerateProblemError("outputs have zero variance")
    return 1.0 - sum((v - p) * (v - p) for v, p in zip(y, predictions)) / ss_tot


def _fit_result_from_coefficients(x: Sequence[float], design: DesignMatrix) -> FitResult:
    predictions = [_dot(row, x) for row in design.matrix]
    residual = [v - p for v, p in zip(design.outputs, predictions)]
    if design.matrix.shape[1] == 3:
        intercept, alpha, beta = x
    else:
        intercept, (alpha, beta) = 0.0, x
    return FitResult(intercept=float(intercept), alpha=float(alpha), beta=float(beta),
                     r_squared=_r_squared(predictions, design.outputs),
                     residual_norm=math.hypot(*residual))


def kkt_certificate(qp: QuadraticProgram, x: Sequence[float], lam: Sequence[float],
                    mu: Optional[Sequence[float]] = None) -> bool:
    """Stationarity, primal/dual feasibility, and complementary slackness.

    Tolerances: stationarity and complementary slackness 1e-8, dual sign 1e-8,
    primal feasibility 1e-10. A non-finite x, lam or mu is rejected.
    """
    x, lam = tuple(map(float, x)), tuple(map(float, lam))
    mu = None if mu is None else tuple(map(float, mu))
    if not all(map(math.isfinite, (*x, *lam, *(mu or ())))):
        return False
    grad = [2.0 * _dot(row, x) + fi for row, fi in zip(qp.H, qp.f)]
    terms = [(qp.C, lam)] + ([(qp.C_eq, mu)] if qp.C_eq is not None and mu is not None else [])
    for rows, weights in terms:  # + C^T lam + C_eq^T mu
        grad = [g + sum(w * row[j] for row, w in zip(rows, weights)) for j, g in enumerate(grad)]
    if math.hypot(*grad) > DUAL_TOL:
        return False
    if any(v < -DUAL_TOL for v in lam):
        return False
    slack = [_dot(row, x) - bi for row, bi in zip(qp.C, qp.b)]
    if any(s > FEASIBILITY_TOL for s in slack):
        return False
    if qp.C_eq is not None and any(abs(_dot(row, x) - bi) > FEASIBILITY_TOL
                                   for row, bi in zip(qp.C_eq, qp.b_eq)):
        return False
    return not any(abs(v * s) > DUAL_TOL for v, s in zip(lam, slack))


def _eliminate(rows: List[List[float]], rhs: List[float]) -> Optional[List[float]]:
    """The solution of a square system by Gaussian elimination with partial pivoting, or
    None if a pivot is exactly zero."""
    size = len(rhs)
    a = [list(row) + [v] for row, v in zip(rows, rhs)]
    for col in range(size):
        magnitudes = [abs(row[col]) for row in a]
        pivot = max(range(col, size), key=magnitudes.__getitem__)
        if a[pivot][col] == 0.0:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        head = a[col]
        for row in a[col + 1:]:
            factor = row[col] / head[col]
            if factor:
                for c in range(col, size + 1):
                    row[c] -= factor * head[c]
    x = [0.0] * size
    for i in reversed(range(size)):
        x[i] = (a[i][size] - _dot(a[i][i + 1:size], x[i + 1:])) / a[i][i]
    return x


def _solve_square(rows: List[List[float]], rhs: List[float]) -> Optional[List[float]]:
    """rows x = rhs; a singular system by least squares, None if that one is inconsistent."""
    x = _eliminate(rows, rhs)
    if x is None:
        x, _ = _least_squares(_columns(rows, len(rhs)), rhs)
        residual = [_dot(row, x) - v for row, v in zip(rows, rhs)]
        if not math.hypot(*residual) <= 1e-8 * (1.0 + math.hypot(*rhs)):
            return None
    return x


def _ldl(A: List[List[float]]) -> Optional[Tuple[List[List[float]], List[float]]]:
    """(L, d) with unit lower-triangular L and L diag(d) L^T = A, or None unless every pivot
    d_j is positive and above SCHUR_RCOND times the largest diagonal entry of A."""
    n = len(A)
    floor = max(SCHUR_RCOND * max((A[i][i] for i in range(n)), default=0.0), 0.0)
    L = [[float(i == j) for j in range(n)] for i in range(n)]
    d = []
    for j in range(n):
        scaled = [L[j][k] * d[k] for k in range(j)]
        pivot = A[j][j] - _dot(L[j][:j], scaled)
        if not pivot > floor:
            return None
        d.append(pivot)
        for i in range(j + 1, n):
            L[i][j] = (A[i][j] - _dot(L[i][:j], scaled)) / pivot
    return L, d


def _ldl_solve(L: List[List[float]], d: List[float], rhs: Sequence[float]) -> List[float]:
    n = len(L)
    z = []
    for i in range(n):
        z.append(rhs[i] - _dot(L[i][:i], z))
    z = [v / p for v, p in zip(z, d)]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = z[i] - sum(L[k][i] * x[k] for k in range(i + 1, n))
    return x


def _kkt_solver(qp: QuadraticProgram):
    """solve(members) for qp: the KKT point (x, multipliers) of the working set that holds the
    equalities and the inequality rows `members`, or None.

    The system is [[2H, G^T], [G, 0]] (x, multipliers) = (-f, b_G), where G stacks C_eq over
    the rows `members` of C; the multipliers of the equalities come first. When 2H has an
    LDL^T factorisation (see SCHUR_RCOND), x = x0 - W^T multipliers with x0 = -(2H)^-1 f and
    the rows of W = G (2H)^-1, and the multipliers solve the Schur complement system
    (G (2H)^-1 G^T) multipliers = G x0 - b_G, each of these computed once per QP for every
    row. Otherwise the whole KKT system is solved. A singular system is solved by least
    squares, and an inconsistent one gives None.
    """
    n = qp.H.shape[0]
    n_eq = qp.C_eq.shape[0] if qp.C_eq is not None else 0
    rows = (list(qp.C_eq) if n_eq else []) + list(qp.C)
    targets = (list(qp.b_eq) if n_eq else []) + list(qp.b)
    equalities = list(range(n_eq))
    H2 = [[2.0 * h for h in row] for row in qp.H]
    factor = _ldl(H2)
    if factor is not None:
        x0 = [-v for v in _ldl_solve(*factor, qp.f)]
        W = [_ldl_solve(*factor, row) for row in rows]
        schur = [[_dot(row, w) for w in W] for row in rows]
        residual = [_dot(row, x0) - t for row, t in zip(rows, targets)]

        def solve(members):
            index = equalities + [n_eq + i for i in members]
            multipliers = _solve_square([[schur[i][j] for j in index] for i in index],
                                        [residual[i] for i in index])
            if multipliers is None:
                return None
            x = x0
            for weight, i in zip(multipliers, index):
                x = [xj - weight * wj for xj, wj in zip(x, W[i])]
            return x, multipliers
        return solve

    def solve(members):
        G = [rows[i] for i in equalities] + [rows[n_eq + i] for i in members]
        kkt = ([list(H2[j]) + [g[j] for g in G] for j in range(n)]
               + [list(g) + [0.0] * len(G) for g in G])
        solution = _solve_square(kkt, [-v for v in qp.f] + [targets[i] for i in equalities]
                                 + [targets[n_eq + i] for i in members])
        return None if solution is None else (solution[:n], solution[n:])
    return solve


def _least_kkt_point(qp: QuadraticProgram) -> Optional[Tuple[float, ...]]:
    """The certified KKT point with the least objective over all working sets, or None.

    A solution with a multiplier below -DUAL_TOL fails the certificate's dual-sign
    test on the same floats, so it is dropped before the certificate runs. Ties
    between equal objectives go to the working set with the least bit mask (sum of
    2^i); a non-finite one never wins, and when every certified point has one,
    NumericalOverflowError names it.
    """
    n, m = qp.H.shape[0], qp.C.shape[0]
    n_eq = qp.C_eq.shape[0] if qp.C_eq is not None else 0
    solve = _kkt_solver(qp)
    best = None  # (objective, bit mask, x)
    overflowed = None  # a non-finite objective at a certified point
    for k in range(min(m, n - n_eq) + 1):
        for members in combinations(range(m), k):
            solved = solve(members)
            if solved is None:
                continue
            x, multipliers = solved
            if any(v < -DUAL_TOL for v in multipliers[n_eq:]):
                continue
            lam = [0.0] * m
            for i, v in zip(members, multipliers[n_eq:]):
                lam[i] = v
            if not kkt_certificate(qp, x, lam, multipliers[:n_eq] if n_eq else None):
                continue
            candidate = (qp.objective(x), sum(1 << i for i in members), x)
            if not math.isfinite(candidate[0]):
                overflowed = candidate[0]
            elif best is None or candidate[:2] < best[:2]:
                best = candidate
    if best is None and overflowed is not None:
        raise NumericalOverflowError(f"QP objective is {overflowed} at a certified KKT point")
    return None if best is None else tuple(best[2])


def qp_solve(qp: QuadraticProgram) -> Tuple[float, ...]:
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


def certify_solution(qp: QuadraticProgram, x: Sequence[float]) -> bool:
    """Post-hoc KKT certificate for a claimed solution.

    For each working set of at most n - n_eq constraints active at x, solves the
    stationarity equation for the equality and working-set multipliers by least
    squares and checks the full certificate. A claimed optimum that fails this
    check for every working set is a defect.
    """
    x = tuple(map(float, x))
    n, m = qp.H.shape[0], qp.C.shape[0]
    n_eq = qp.C_eq.shape[0] if qp.C_eq is not None else 0
    gradient = [-(2.0 * _dot(row, x) + fi) for row, fi in zip(qp.H, qp.f)]
    active = [i for i in range(m) if _dot(qp.C[i], x) - qp.b[i] > -DUAL_TOL]
    sets = (s for k in range(min(len(active), n - n_eq) + 1) for s in combinations(active, k))
    for members in sets:
        basis = (list(qp.C_eq) if n_eq else []) + [qp.C[i] for i in members]
        solution, _ = _least_squares(basis, gradient)
        lam = [0.0] * m
        for i, v in zip(members, solution[n_eq:]):
            lam[i] = v
        if kkt_certificate(qp, x, lam, solution[:n_eq] if n_eq else None):
            return True
    return False


def _classify_failure(qp: QuadraticProgram) -> None:
    """No certified KKT point exists; decide between infeasible and unbounded.

    min ||x||^2 under the same constraints is bounded below, so it has a KKT
    point exactly when the constraint set is non-empty.
    """
    n = qp.H.shape[0]
    nearest = QuadraticProgram(H=[[float(i == j) for j in range(n)] for i in range(n)],
                               f=[0.0] * n, C=qp.C, b=qp.b, C_eq=qp.C_eq, b_eq=qp.b_eq)
    try:
        point = _least_kkt_point(nearest)
    except NumericalOverflowError:  # a certified point whose ||x||^2 overflows is feasible
        return
    if point is None:
        raise InfeasibleProblemError("constraint set is empty")


def qp_fit(design: DesignMatrix, constraints: Tuple[Sequence, Sequence[float]]) -> FitResult:
    """Constrained least squares assembled as a QP over x = (K', alpha, beta).

    The QP objective x^T (A^T A) x - 2 y^T A x equals ||y - Ax||^2 - y^T y, so the
    minimizer matches the constrained least-squares fit. An overflowing A^T A
    fails the QP's finiteness check.
    """
    A, y = design.matrix, design.outputs
    C, b = constraints
    columns = _columns(A, A.shape[1])
    qp = QuadraticProgram(H=[[_dot(u, v) for v in columns] for u in columns],
                          f=[-2.0 * _dot(u, y) for u in columns], C=C, b=b)
    return _fit_result_from_coefficients(qp_solve(qp), design)


@overflow_as_error
def r_squared(model: FitResult, design: DesignMatrix) -> float:
    """1 - SS_res/SS_tot on the scale the design was built with."""
    coeffs = model.coefficients if design.matrix.shape[1] == 3 else model.coefficients[1:]
    return _r_squared([_dot(row, coeffs) for row in design.matrix], design.outputs)


@overflow_as_error
def predict(model: FitResult, S: float, P: float, scale: str = "log_linear") -> float:
    """Point prediction: exp(K' + a ln S + b ln P) on the log scale, affine on raw."""
    if scale not in ("log_linear", "raw_linear"):
        raise ParameterError(f"unknown scale {scale!r}")
    for name, value in (("S", S), ("P", P)):
        check_domain(name, value, "positive" if scale == "log_linear" else "finite", DomainError)
    if scale == "log_linear":
        return math.exp(model.intercept + model.alpha * math.log(S) + model.beta * math.log(P))
    return float(model.intercept + model.alpha * S + model.beta * P)
