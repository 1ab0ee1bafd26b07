"""Least-squares and constrained fitting for the log-linearized production model.

The regression is y_i ~ K' + alpha*x1_i + beta*x2_i, either on the log scale
(log inputs and log outputs, the linearized Cobb-Douglas) or on the raw scale.
Unconstrained fits are least-squares solves by a one-sided Jacobi SVD of the design;
fits with linear inequality constraints become a small dense quadratic program

    min x^T H x + f^T x   s.t.  C x <= b  (and optional C_eq x = b_eq)

with H = A^T A and f = -2 A^T y, solved exactly over working sets of at most n - n_eq
inequality rows, each solved as its whole KKT system by pivoted Gaussian elimination and
one step of iterative refinement (a singular one, like every rank decision, by the Jacobi
SVD). The working sets come from a pool of rows grown by constraint generation in one
loop, whose last relaxation's winner is the answer, and from all sum_{k <= n - n_eq}
C(m, k) of them only when a relaxation has no point. The same path tells an infeasible
QP from an unbounded one (by minimising ||x||^2 under the same constraints). One walk over
working sets (_certified_working_sets) serves both the solver and the post-hoc certificate
of a claimed solution against the KKT conditions.

The module runs on the standard library. A vector argument is a sequence of
numbers and a matrix argument a sequence of such rows: lists, tuples and numpy
arrays all qualify. Matrices are stored as tuples of row tuples (:class:`Matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, combinations, repeat
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

# singular values at or below RANK_RCOND times the largest count as zero in a least-squares solve
RANK_RCOND = 1e-12

FEASIBILITY_TOL = 1e-10
DUAL_TOL = 1e-8

EPS = 2.0 ** -52
JACOBI_SWEEPS = 60


class Matrix(tuple):
    """A dense matrix as a tuple of row tuples of floats, with numpy's shape and size."""

    def __new__(cls, rows, n_cols: int):
        matrix = super().__new__(cls, rows)
        matrix.shape = (len(matrix), n_cols)
        return matrix

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]


def _vector(name: str, value) -> Tuple[float, ...]:
    """value, a sequence of numbers other than a str, as a tuple of floats; raise
    ParameterError naming it otherwise. Entries may be NaN or infinite."""
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ParameterError(f"{name} must be a sequence of numbers, got {type(value).__name__}")
    try:
        return tuple(map(float, value))
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{name} has non-numeric entries") from None


def _matrix(name: str, value) -> Matrix:
    """value, a sequence of rows that _vector accepts, as a Matrix; raise ParameterError
    naming it otherwise. The width is value.shape[1] when value has a 2-D shape (so a
    numpy array of shape (0, n) keeps n), else the first row's length."""
    shape = getattr(value, "shape", None)
    if isinstance(value, str) or not hasattr(value, "__iter__") or shape == ():
        raise ParameterError(f"{name} must be a sequence of rows, got {type(value).__name__}")
    rows = [_vector(name, row) for row in value]
    n_cols = shape[1] if shape is not None and len(shape) == 2 else len(rows[0]) if rows else 0
    if any(len(row) != n_cols for row in rows):
        raise ParameterError(f"{name} rows differ in length")
    return Matrix(rows, n_cols)


def _finite(name: str, coerce, value):
    """coerce(name, value), a vector or a Matrix; raise ParameterError naming it if an
    entry is NaN or infinite."""
    value = coerce(name, value)
    if not all(map(math.isfinite, chain.from_iterable(value) if coerce is _matrix else value)):
        raise ParameterError(f"{name} has non-finite entries")
    return value


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
        matrix = _finite("design matrix", _matrix, self.matrix)
        if matrix.shape[1] not in (2, 3):
            raise ParameterError(f"design matrix must have 2 columns (no intercept) or 3 "
                                 f"(intercept), got {matrix.shape[1]}")
        outputs = _finite("design outputs", _vector, self.outputs)
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
            values = _vector(name, column)
            for value in values:
                check_domain(name, value, "positive", DomainError)
            logs.append([math.log(value) for value in values])
        return cls(_design_rows(logs[0], logs[1], intercept), logs[2])

    @classmethod
    def raw_scale(cls, x1: Sequence[float], x2: Sequence[float], y: Sequence[float],
                  intercept: bool = True) -> "DesignMatrix":
        return cls(_design_rows(_vector("x1", x1), _vector("x2", x2), intercept),
                   _vector("y", y))


def _design_rows(x1: Sequence[float], x2: Sequence[float], intercept: bool) -> Matrix:
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
        H = _finite("QP H", _matrix, self.H)
        f = _finite("QP f", _vector, self.f)
        C = _finite("QP C", _matrix, self.C)
        b = _finite("QP b", _vector, self.b)
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
            C_eq = _finite("QP C_eq", _matrix, self.C_eq)
            b_eq = _finite("QP b_eq", _vector, self.b_eq)
            if C_eq.shape[1] != n or C_eq.shape[0] != len(b_eq):
                raise ParameterError("equality constraint shapes are inconsistent")
            object.__setattr__(self, "C_eq", C_eq)
            object.__setattr__(self, "b_eq", b_eq)

    def objective(self, x: Sequence[float]) -> float:
        x = _vector("x", x)
        return _dot(x, [_dot(row, x) for row in self.H]) + _dot(self.f, x)


def _least_squares(columns: List[Sequence[float]], rhs: Sequence[float]) -> Tuple[List[float], int]:
    """The minimum-norm least-squares solution of A x = rhs and the rank of A, given A's columns.

    One-sided Jacobi SVD of A scaled by a power of two. Singular values at or below
    RANK_RCOND times the largest count as zero. A non-finite A gives NaN and rank 0.
    """
    n_cols = len(columns)
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
    cutoff = RANK_RCOND * max(sigma)
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
    """Least-squares coefficients for an (over)determined design of full rank.

    An overflow surfaces as a non-finite FitResult field, which raises.
    """
    return _fit_result_from_coefficients(_full_rank_least_squares(design), design)


def _full_rank_least_squares(design: DesignMatrix) -> List[float]:
    """The design's least-squares coefficients, by a one-sided Jacobi SVD of the design.

    Raise SingularSystemError when the design has fewer rows than columns or its rank,
    decided on its singular values (see RANK_RCOND), is below its column count.
    """
    A, y = design.matrix, design.outputs
    n_rows, n_cols = A.shape
    if n_rows < n_cols:
        raise SingularSystemError(
            f"underdetermined system: {n_rows} rows for {n_cols} coefficients"
        )
    x, rank = _least_squares(_columns(A, n_cols), y)
    if rank < n_cols:
        raise SingularSystemError(f"design matrix is rank deficient (rank {rank} of {n_cols})")
    return x


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

    The dual sign test is absolute (lam_i >= -DUAL_TOL); every other residual must be
    _negligible against the size of its terms: the sum of their norms for 2Hx + f + C^T lam
    + C_eq^T mu (DUAL_TOL), ||C_i|| ||x|| + |b_i| for a row's C_i x - b_i (FEASIBILITY_TOL)
    and |lam_i| times that for lam_i (C_i x - b_i) (DUAL_TOL). The row size is norm-wise: a
    computed C_i x rounds on the scale ||C_i|| ||x||, even on a bound row at 0. A non-finite
    x, lam or mu, residual or product is rejected.
    """
    x, lam = _vector("x", x), _vector("lam", lam)
    mu = None if mu is None else _vector("mu", mu)
    if not all(map(math.isfinite, (*x, *lam, *(mu or ())))):
        return False
    terms = [[2.0 * _dot(row, x) for row in qp.H], qp.f]
    for rows, weights in ((qp.C, lam), (qp.C_eq, mu)):  # C^T lam, C_eq^T mu
        if rows is not None and weights is not None:
            terms.append([sum(w * row[j] for row, w in zip(rows, weights))
                          for j in range(len(qp.f))])
    stationarity = math.hypot(*map(sum, zip(*terms))), sum(math.hypot(*term) for term in terms)
    if not _negligible(*stationarity, DUAL_TOL) or any(v < -DUAL_TOL for v in lam):
        return False
    for rows, targets, weights in ((qp.C, qp.b, chain(lam, repeat(0.0))),
                                   (qp.C_eq or (), qp.b_eq or (), repeat(None))):
        for (residual, size), v in zip(_row_residuals(rows, targets, x), weights):
            excess = residual if v is None else max(residual, 0.0)  # an equality has no slack
            if not (_negligible(excess, size, FEASIBILITY_TOL)
                    and (not v or _negligible(v * residual, abs(v) * size, DUAL_TOL))):
                return False
    return True


def _row_residuals(rows: Sequence[Sequence[float]], targets: Sequence[float],
                   x: Sequence[float]) -> List[Tuple[float, float]]:
    """(C_i x - b_i, ||C_i|| ||x|| + |b_i|) per row: a residual and the size of its terms."""
    norm = math.hypot(*x)
    return [(_dot(row, x) - t, math.hypot(*row) * norm + abs(t)) for row, t in zip(rows, targets)]


def _negligible(value: float, size: float, tol: float) -> bool:
    """value is finite and |value| <= tol * max(1, size): zero up to rounding on that scale."""
    return math.isfinite(value) and abs(value) <= tol * max(1.0, size)


def _eliminate(rows: Sequence[Sequence[float]], rhs: Sequence[float]) -> Optional[List[float]]:
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
    """rows x = rhs; a singular system by least squares, None if that one is inconsistent.

    A solution by elimination takes one step of iterative refinement: the solution d of
    rows d = rhs - rows x is added to it.
    """
    x = _eliminate(rows, rhs)
    if x is not None:
        step = _eliminate(rows, [v - _dot(row, x) for row, v in zip(rows, rhs)])
        x = [a + d for a, d in zip(x, step)]
    if x is None:
        x, _ = _least_squares(_columns(rows, len(rhs)), rhs)
        norms = [math.hypot(*c) for c in zip(*_row_residuals(rows, rhs, x))]  # ||r||, ||sizes||
        if not _negligible(*norms, DUAL_TOL):
            return None
    return x


def _kkt_solver(qp: QuadraticProgram):
    """solve(members) for qp: the KKT point (x, multipliers) of the working set that holds the
    equalities and the inequality rows `members`, or None.

    The whole KKT system [[2H, G^T], [G, 0]] (x, multipliers) = (-f, b_G), where G stacks
    C_eq over the rows `members` of C, is solved by pivoted elimination; the multipliers of
    the equalities come first. A singular system is solved by least squares, and an
    inconsistent one gives None.
    """
    n = qp.H.shape[0]
    H2 = [[2.0 * h for h in row] for row in qp.H]
    minus_f = [-v for v in qp.f]

    def solve(members):
        G = [*(qp.C_eq or ()), *(qp.C[i] for i in members)]
        kkt = ([H2[j] + [g[j] for g in G] for j in range(n)]
               + [list(g) + [0.0] * len(G) for g in G])
        solution = _solve_square(kkt, minus_f + [*(qp.b_eq or ()), *(qp.b[i] for i in members)])
        return None if solution is None else (solution[:n], solution[n:])
    return solve


def _certified_working_sets(qp: QuadraticProgram, rows: Sequence[int], solve):
    """Yield (members, x) for each working set of at most n - n_eq of `rows` whose
    solve(members) = (x, multipliers), the multipliers of the equalities first, passes
    kkt_certificate; by size, then in combinations order. solve may return None.

    A multiplier below -DUAL_TOL fails the certificate's dual-sign test on the same
    floats, so its working set is dropped before the certificate runs.
    """
    n_eq = qp.C_eq.shape[0] if qp.C_eq is not None else 0
    for k in range(min(len(rows), qp.H.shape[0] - n_eq) + 1):
        for members in combinations(rows, k):
            solved = solve(members)
            if solved is None:
                continue
            x, multipliers = solved
            if any(v < -DUAL_TOL for v in multipliers[n_eq:]):
                continue
            lam = [0.0] * qp.C.shape[0]
            for i, v in zip(members, multipliers[n_eq:]):
                lam[i] = v
            if kkt_certificate(qp, x, lam, multipliers[:n_eq] if n_eq else None):
                yield members, x


def _least_kkt_point(qp: QuadraticProgram) -> Optional[Tuple[List[float], Tuple[int, ...]]]:
    """The certified KKT point with the least objective over the working sets of qp, each
    certified against every row, and the rows of C in its working set; or None.

    Ties between equal objectives go to the working set with the least bit mask (sum of
    2^i); a non-finite one never wins, and when every certified point has one,
    NumericalOverflowError names it.
    """
    best = None  # (objective, bit mask, x, members)
    overflowed = None  # a non-finite objective at a certified point
    for members, x in _certified_working_sets(qp, range(qp.C.shape[0]), _kkt_solver(qp)):
        candidate = (qp.objective(x), sum(1 << i for i in members), x, members)
        if not math.isfinite(candidate[0]):
            overflowed = candidate[0]
        elif best is None or candidate[:2] < best[:2]:
            best = candidate
    if best is None and overflowed is not None:
        raise NumericalOverflowError(f"QP objective is {overflowed} at a certified KKT point")
    return None if best is None else best[2:]


def _pooled_kkt_point(qp: QuadraticProgram) -> Optional[Tuple[List[float], Tuple[int, ...]]]:
    """_least_kkt_point(qp), found by constraint generation over a pool of rows.

    From an empty pool, kept in row order, the least KKT point of the QP relaxed to the
    pool's rows adds to the pool the row outside it that the point violates most
    (max(r, 0) / max(1, size), under the certificate's feasibility rule), or, when it
    violates none, the rows active at it. A point that meets every row and whose active
    rows are all in the pool is returned, as the certificate saw it: its working set's solve
    and certificate are the whole QP's on the same floats, and its members are mapped back
    to rows of C. Every working set is tried when a relaxation has no point although its
    rows are feasible (as for a singular H); InfeasibleProblemError is raised when they
    are not.
    """
    pool = []
    while True:
        relaxed = replace(qp, C=[qp.C[i] for i in pool], b=[qp.b[i] for i in pool])
        try:
            point = _least_kkt_point(relaxed)
        except NumericalOverflowError:  # the rows left out may still bound the objective
            point = None
        if point is None:
            _classify_failure(relaxed, _least_kkt_point)
            return _least_kkt_point(qp)
        x, members = point
        violated = {i: max(r, 0.0) / max(1.0, size)
                    for i, (r, size) in enumerate(_row_residuals(qp.C, qp.b, x))
                    if i not in pool and not _negligible(max(r, 0.0), size, FEASIBILITY_TOL)}
        grown = [max(violated, key=violated.get)] if violated else _active_rows(qp, x)
        if set(grown) <= set(pool):
            return x, tuple(pool[i] for i in members)
        pool = sorted(set(pool).union(grown))


def qp_solve(qp: QuadraticProgram) -> Tuple[float, ...]:
    """The minimiser of a small dense convex QP, by exact working-set enumeration.

    Working sets of at most n - n_eq inequality rows (equalities are always active) are
    solved as whole KKT systems, and a point counts only if the full KKT certificate
    passes; the best one is the global minimum for PSD H. The sets come from
    _pooled_kkt_point's pool of rows, or from all sum_{k <= n - n_eq} C(m, k) of them
    when a relaxation to that pool has no point. Ties between equal objectives go to the
    working set with the least bit mask (sum of 2^i over members), as over every working
    set. In the winner, each coordinate that a working-set row with one nonzero
    coefficient fixes is set to that row's exact value (never -0.0).
    """
    point = _pooled_kkt_point(qp)
    if point is None:
        _classify_failure(qp)
        raise UnboundedProblemError("no KKT point over a non-empty feasible set")
    x, members = point
    for row, target in chain(zip(qp.C_eq or (), qp.b_eq or ()),
                             ((qp.C[i], qp.b[i]) for i in members)):
        nonzero = [j for j, c in enumerate(row) if c]
        if len(nonzero) == 1:
            x[nonzero[0]] = target / row[nonzero[0]] + 0.0  # -0.0 + 0.0 is 0.0
    return tuple(x)


def _active_rows(qp: QuadraticProgram, x: Sequence[float]) -> List[int]:
    """The rows of C active at x: their slack b_i - C_i x is negligible at DUAL_TOL (sized
    as in kkt_certificate) or negative."""
    return [i for i, (residual, size) in enumerate(_row_residuals(qp.C, qp.b, x))
            if _negligible(max(-residual, 0.0), size, DUAL_TOL)]


def certify_solution(qp: QuadraticProgram, x: Sequence[float]) -> bool:
    """Post-hoc KKT certificate for a claimed solution.

    For each working set of at most n - n_eq constraints active at x (whose slack
    b_i - C_i x is negligible or negative, sized as in kkt_certificate), solves the
    stationarity equation for the equality and working-set multipliers by least
    squares and checks the full certificate. A claimed optimum that fails this
    check for every working set is a defect.
    """
    x = _vector("x", x)
    gradient = [-(2.0 * _dot(row, x) + fi) for row, fi in zip(qp.H, qp.f)]

    def solve(members):
        basis = [*(qp.C_eq or ()), *(qp.C[i] for i in members)]
        return x, _least_squares(basis, gradient)[0]
    return any(_certified_working_sets(qp, _active_rows(qp, x), solve))


def _classify_failure(qp: QuadraticProgram, least_point=_pooled_kkt_point) -> None:
    """No certified KKT point exists; decide between infeasible and unbounded.

    min ||x||^2 under the same constraints is bounded below, so least_point finds a KKT
    point of it exactly when the constraint set is non-empty.
    """
    n = qp.H.shape[0]
    nearest = replace(qp, H=[[float(i == j) for j in range(n)] for i in range(n)], f=[0.0] * n)
    try:
        point = least_point(nearest)
    except NumericalOverflowError:  # a certified point whose ||x||^2 overflows is feasible
        return
    if point is None:
        raise InfeasibleProblemError("constraint set is empty")


def qp_fit(design: DesignMatrix, constraints: Tuple[Sequence, Sequence[float]]) -> FitResult:
    """Constrained least squares assembled as a QP over x = (K', alpha, beta).

    The QP objective x^T (A^T A) x - 2 y^T A x equals ||y - Ax||^2 - y^T y, so the
    minimizer matches the constrained least-squares fit. An overflowing A^T A
    fails the QP's finiteness check; then a design that ols_fit refuses is refused, since
    constraints that hold a fit of it to one point do not make the data identify it.
    """
    A, y = design.matrix, design.outputs
    C, b = constraints
    columns = _columns(A, A.shape[1])
    qp = QuadraticProgram(H=[[_dot(u, v) for v in columns] for u in columns],
                          f=[-2.0 * _dot(u, y) for u in columns], C=C, b=b)
    _full_rank_least_squares(design)
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
