import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dcecon import fitting
from dcecon.errors import (
    DegenerateProblemError,
    DomainError,
    InfeasibleProblemError,
    NumericalOverflowError,
    ParameterError,
    SingularSystemError,
    UnboundedProblemError,
)
from dcecon.fitting import (
    DesignMatrix,
    FitResult,
    QuadraticProgram,
    _classify_failure,
    certify_solution,
    kkt_certificate,
    ols_fit,
    predict,
    qp_fit,
    qp_solve,
    r_squared,
)

# raw-scale model y = -375.07 + 4.4871*x1 + 27.409*x2 evaluated at (60, 40):
# -375.07 + 269.226 + 1096.36, exact decimal arithmetic
RAW_MODEL_PREDICTION = 990.516


def arrays(design):
    """The design's matrix and outputs as numpy arrays, for the oracles."""
    return np.array(design.matrix), np.array(design.outputs)


def synthetic_log_design(rng, n_rows, intercept_value, alpha, beta, noise=0.0):
    S = rng.uniform(2.0, 90.0, size=n_rows)
    P = rng.uniform(2.0, 90.0, size=n_rows)
    log_y = intercept_value + alpha * np.log(S) + beta * np.log(P)
    if noise:
        log_y = log_y + rng.normal(0.0, noise, size=n_rows)
    return DesignMatrix.log_scale(S, P, np.exp(log_y))


def near_collinear_design():
    """60 rows with P = S (1 +- 1e-7) and y = exp(0.6) S^0.55 P^0.6 on the log scale, the
    design of fit_collinear.csv in scripts/output_digests.py: log P - log S = +-1e-7, so
    A's condition number is 7.7e7."""
    S = [5.0 + 1.5 * i for i in range(60)]
    P = [s * (1.0 + (-1) ** i * 1e-7) for i, s in enumerate(S)]
    y = [math.exp(0.6 + 0.55 * math.log(s) + 0.6 * math.log(p)) for s, p in zip(S, P)]
    return DesignMatrix.log_scale(S, P, y)


def exact_normal_equation_solution(design):
    """The solution of A^T A x = A^T y in exact rational arithmetic over the design's floats."""
    A = [[Fraction(v) for v in row] for row in design.matrix]
    y = [Fraction(v) for v in design.outputs]
    n = len(A[0])
    system = [[sum(row[i] * row[j] for row in A) for j in range(n)]
              + [sum(row[i] * v for row, v in zip(A, y))] for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if system[i][col])
        system[col], system[pivot] = system[pivot], system[col]
        for i in range(n):
            if i != col:
                factor = system[i][col] / system[col][col]
                system[i] = [a - factor * b for a, b in zip(system[i], system[col])]
    return [system[i][n] / system[i][i] for i in range(n)]


class TestOlsFit:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(101)
        design = synthetic_log_design(rng, 4, 1.0, 2.0, 3.0)
        fit = ols_fit(design)
        assert abs(fit.intercept - 1.0) <= 1e-10
        assert abs(fit.alpha - 2.0) <= 1e-10
        assert abs(fit.beta - 3.0) <= 1e-10
        assert fit.r_squared == pytest.approx(1.0)

    def test_matches_pseudoinverse_oracle_on_noisy_data(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            design = synthetic_log_design(rng, 40, 0.5, 0.8, 1.2, noise=0.3)
            fit = ols_fit(design)
            A, y = arrays(design)
            oracle = np.linalg.pinv(A) @ y
            assert np.max(np.abs(np.array(fit.coefficients) - oracle)) <= 1e-8

    def test_residual_orthogonal_to_column_space(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            design = synthetic_log_design(rng, 30, -1.0, 1.5, 0.4, noise=0.5)
            fit = ols_fit(design)
            A, y = arrays(design)
            residual = y - A @ np.array(fit.coefficients)
            lhs = np.linalg.norm(A.T @ residual)
            rhs = np.linalg.norm(A.T @ y)
            assert lhs <= 1e-8 * rhs

    def test_two_points_underdetermined(self):
        design = DesignMatrix.log_scale([2.0, 3.0], [5.0, 7.0], [1.0, 2.0])
        with pytest.raises(SingularSystemError):
            ols_fit(design)

    def test_rank_deficient_design_rejected(self):
        S = np.array([2.0, 4.0, 8.0, 16.0])
        design = DesignMatrix.log_scale(S, S ** 2, np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(SingularSystemError):
            ols_fit(design)

    def test_log_scale_requires_positive_data(self):
        with pytest.raises(DomainError):
            DesignMatrix.log_scale([1.0, -2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_no_intercept_fit(self):
        rng = np.random.default_rng(109)
        S = rng.uniform(2, 50, size=6)
        P = rng.uniform(2, 50, size=6)
        y = np.exp(0.7 * np.log(S) + 0.2 * np.log(P))
        design = DesignMatrix.log_scale(S, P, y, intercept=False)
        fit = ols_fit(design)
        assert fit.intercept == 0.0
        assert abs(fit.alpha - 0.7) <= 1e-10
        assert abs(fit.beta - 0.2) <= 1e-10

    def test_near_collinear_design_within_the_conditioning_bound(self):
        design = near_collinear_design()
        exact = exact_normal_equation_solution(design)
        fit = ols_fit(design)
        # a backward-stable least-squares solve errs by about cond(A) * eps * ||x|| when the
        # residual is negligible, as it is here (y is exact up to rounding); the solver
        # must stay within that first-order bound (1.7e-8), which numpy's lstsq meets too
        A, _ = arrays(design)
        bound = np.linalg.cond(A) * 2.0 ** -52 * math.hypot(*map(float, exact))
        for got, want in zip(fit.coefficients, exact):
            assert abs(Fraction(got) - want) <= bound


class TestLinearAlgebraKernels:
    """The two kernels every solve in `fitting` goes through: `_least_squares` (one-sided
    Jacobi SVD) and `_eliminate` (Gaussian elimination with partial pivoting)."""

    @pytest.mark.parametrize("n_rows, n_cols", [(10, 3), (40, 2), (5, 5)])
    def test_least_squares_matches_numpy_lstsq(self, n_rows, n_cols):
        rng = np.random.default_rng(7 * n_rows + n_cols)
        A, rhs = rng.normal(size=(n_rows, n_cols)), rng.normal(size=n_rows)
        x, rank = fitting._least_squares([list(c) for c in A.T], list(rhs))
        want, _, want_rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
        assert rank == want_rank == n_cols
        np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-13)

    def test_least_squares_rank_deficient_gives_the_minimum_norm_solution(self):
        # the third column is the sum of the first two, so A has rank 2 and a line of
        # least-squares solutions; the pseudoinverse picks the one of least norm
        rng = np.random.default_rng(11)
        A = rng.normal(size=(12, 3))
        A[:, 2] = A[:, 0] + A[:, 1]
        rhs = rng.normal(size=12)
        x, rank = fitting._least_squares([list(c) for c in A.T], list(rhs))
        assert rank == 2
        np.testing.assert_allclose(x, np.linalg.pinv(A) @ rhs, rtol=1e-10, atol=1e-12)

    def test_least_squares_is_exact_under_power_of_two_scaling(self):
        # A is scaled by a power of two before the sweeps, so A * 2^k (far from overflow
        # and underflow) gives the same rotations and x * 2^-k, bit for bit
        rng = np.random.default_rng(13)
        A, rhs = rng.normal(size=(9, 3)), list(rng.normal(size=9))
        x, rank = fitting._least_squares([list(c) for c in A.T], rhs)
        for k in (-600, 600):
            scaled = [[math.ldexp(v, k) for v in c] for c in A.T]
            got, got_rank = fitting._least_squares(scaled, rhs)
            assert got_rank == rank == 3
            assert [v.hex() for v in got] == [math.ldexp(v, -k).hex() for v in x]

    def test_least_squares_of_a_zero_or_non_finite_matrix(self):
        assert fitting._least_squares([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0]) == ([0.0, 0.0], 0)
        x, rank = fitting._least_squares([[1.0, math.inf], [0.0, 1.0]], [1.0, 2.0])
        assert rank == 0 and all(math.isnan(v) for v in x)

    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_eliminate_matches_numpy_solve(self, size):
        rng = np.random.default_rng(size)
        rows = rng.normal(size=(size, size)) + size * np.eye(size)
        rhs = rng.normal(size=size)
        x = fitting._eliminate(rows.tolist(), rhs.tolist())
        np.testing.assert_allclose(x, np.linalg.solve(rows, rhs), rtol=1e-12, atol=1e-13)

    def test_eliminate_pivots_on_the_largest_entry(self):
        # without row exchanges the pivot 1e-20 wipes out the second row and x[0] comes
        # out as 0; with partial pivoting both unknowns are 1 to rounding
        x = fitting._eliminate([[1e-20, 1.0], [1.0, 1.0]], [1.0, 2.0])
        assert x == pytest.approx([1.0, 1.0], rel=1e-15)

    def test_eliminate_refuses_a_pivot_at_or_below_the_floor(self):
        # only an exactly zero pivot is refused; a pivot of 1e-12 is not
        assert fitting._eliminate([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]) is None
        assert fitting._eliminate([[1.0, 0.0], [0.0, 1e-12]], [1.0, 1e-12]) == [1.0, 1.0]

    def test_singular_square_systems_fall_back_to_least_squares(self):
        rows = [[1.0, 2.0], [2.0, 4.0]]
        # consistent: the minimum-norm solution of x + 2 y = 1
        assert fitting._solve_square(rows, [1.0, 2.0]) == pytest.approx([0.2, 0.4], rel=1e-14)
        # inconsistent: no solution
        assert fitting._solve_square(rows, [1.0, 3.0]) is None


class TestQpSolve:
    def test_active_scalar_constraint(self):
        # min (x-2)^2 subject to x <= 1
        qp = QuadraticProgram(H=[[1.0]], f=[-4.0], C=[[1.0]], b=[1.0])
        x = qp_solve(qp)
        assert x[0] == pytest.approx(1.0)
        assert certify_solution(qp, x)

    def test_inactive_constraints_give_unconstrained_optimum(self):
        # min (x-2)^2 subject to x <= 10
        qp = QuadraticProgram(H=[[1.0]], f=[-4.0], C=[[1.0]], b=[10.0])
        x = qp_solve(qp)
        assert x[0] == pytest.approx(2.0)
        assert certify_solution(qp, x)

    def test_infeasible_detected(self):
        qp = QuadraticProgram(H=[[1.0]], f=[0.0], C=[[1.0], [-1.0]], b=[-1.0, -2.0])
        with pytest.raises(InfeasibleProblemError):
            qp_solve(qp)

    def test_unbounded_detected(self):
        # min -x subject to x >= 0
        qp = QuadraticProgram(H=[[0.0]], f=[-1.0], C=[[-1.0]], b=[0.0])
        with pytest.raises(UnboundedProblemError):
            qp_solve(qp)

    def test_unbounded_detected_when_the_nearest_feasible_point_overflows(self):
        # min -x subject to x >= 1e200: ||x||^2 of the nearest feasible point is 1e400
        qp = QuadraticProgram(H=[[0.0]], f=[-1.0], C=[[-1.0]], b=[-1e200])
        with pytest.raises(UnboundedProblemError):
            qp_solve(qp)

    def test_equality_constraint_supported(self):
        # min x^2 + y^2 subject to x + y = 1
        qp = QuadraticProgram(H=np.eye(2), f=[0.0, 0.0], C=np.zeros((0, 2)), b=[],
                              C_eq=[[1.0, 1.0]], b_eq=[1.0])
        x = qp_solve(qp)
        assert np.allclose(x, [0.5, 0.5], atol=1e-9)

    def test_validation(self):
        with pytest.raises(ParameterError):
            QuadraticProgram(H=[[1.0, 2.0]], f=[0.0], C=[[1.0]], b=[0.0])
        with pytest.raises(ParameterError):
            QuadraticProgram(H=[[1.0, 0.5], [0.2, 1.0]], f=[0.0, 0.0],
                             C=np.zeros((0, 2)), b=[])

    @pytest.mark.parametrize("name", ["H", "f", "C", "b", "C_eq", "b_eq"])
    def test_non_finite_array_rejected_by_name(self, name):
        arrays = {"H": np.eye(2), "f": np.zeros(2), "C": np.eye(2), "b": np.ones(2),
                  "C_eq": np.ones((1, 2)), "b_eq": np.ones(1)}
        # an asymmetric H with an inf is named as non-finite, not as asymmetric
        arrays[name] = (np.array([[1.0, np.inf], [0.0, 1.0]]) if name == "H"
                        else np.full_like(arrays[name], np.nan))
        with pytest.raises(ParameterError, match=f"^QP {name} has non-finite entries$"):
            QuadraticProgram(**arrays)

    def test_certificate_rejects_non_finite_points(self):
        qp = QuadraticProgram(H=np.eye(2), f=np.zeros(2), C=np.zeros((0, 2)), b=[])
        assert certify_solution(qp, [0.0, 0.0])
        assert not certify_solution(qp, [np.nan, np.nan])
        assert not kkt_certificate(qp, np.array([np.inf, 0.0]), np.zeros(0))
        # NaN multipliers make every tolerance compare False, which used to pass
        qp = QuadraticProgram(H=np.eye(2), f=np.zeros(2), C=[[1.0, 0.0]], b=[1.0],
                              C_eq=[[0.0, 1.0]], b_eq=[0.0])
        zero = np.zeros(2)
        assert kkt_certificate(qp, zero, np.zeros(1), np.zeros(1))
        assert not kkt_certificate(qp, zero, np.array([np.nan]), np.zeros(1))
        assert not kkt_certificate(qp, zero, np.zeros(1), np.array([np.nan]))

    def test_certificate_of_an_overflowing_point_warns_nothing(self):
        # 2 H x overflows to inf in the stationarity test, which numpy would warn about
        qp = QuadraticProgram(H=np.eye(3) * 1e300, f=[1e300, 0, 0], C=np.eye(3), b=[1, 1, 1])
        x = np.array([1e10, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not certify_solution(qp, x)
            assert not kkt_certificate(qp, x, np.zeros(3))

    def test_overflowing_objective_at_the_optimum_is_named(self):
        # x = (-5e199, -5e199) is a certified KKT point, but x^T H x + f^T x is inf - inf
        qp = QuadraticProgram(H=np.eye(2), f=[1e200, 1e200], C=np.eye(2) * 1e200,
                              b=[1e300, 1e300])
        assert certify_solution(qp, [-5e199, -5e199])
        with pytest.raises(NumericalOverflowError,
                           match="^QP objective is nan at a certified KKT point$"):
            qp_solve(qp)
        # min x^2 - 4e154 x s.t. x <= 1e153: the objective overflows only at the
        # unconstrained minimiser 2e154, which the row left out of a relaxation excludes
        qp = QuadraticProgram(H=[[1.0]], f=[-4e154], C=[[1.0]], b=[1e153])
        assert qp_solve(qp) == (1e153,)


def mask_order_qp_solve(qp):
    """Reference for qp_solve: walk all 2^m bit masks and solve those small enough.

    Each working set goes through the same per-set KKT solve as qp_solve, and
    ties go to the first (least) mask.
    """
    n = qp.H.shape[0]
    m = qp.C.shape[0] if qp.C.size else 0
    n_eq = qp.C_eq.shape[0] if qp.C_eq is not None else 0
    solve = fitting._kkt_solver(qp)
    best_x = None
    best_value = np.inf
    for mask in range(1 << m):
        active = [i for i in range(m) if mask >> i & 1]
        if len(active) + n_eq > n:
            continue
        solved = solve(active)
        if solved is None:
            continue
        x, multipliers = solved
        lam = np.zeros(m)
        lam[active] = multipliers[n_eq:]
        mu = multipliers[:n_eq] if n_eq else None
        if kkt_certificate(qp, x, lam, mu) and qp.objective(x) < best_value:
            best_x, best_value = tuple(x), qp.objective(x)
    if best_x is not None:
        return best_x
    _classify_failure(qp)
    raise UnboundedProblemError("no KKT point over a non-empty feasible set")


QP_KINDS = ("plain", "tight", "duplicated", "equality", "infeasible", "unbounded")


def random_qp(seed):
    """A seeded small QP of kind QP_KINDS[seed % 6], feasible at x0 unless infeasible.

    Every fourth round of kinds draws up to 14 inequality rows, the others up to
    9: the reference walks 2^m masks, so the large ones dominate the test's time.
    """
    rng = np.random.default_rng(seed)
    kind = QP_KINDS[seed % len(QP_KINDS)]
    n = int(rng.choice([2, 3, 3, 3, 4]))
    m = int(rng.integers(0, 15 if seed // len(QP_KINDS) % 4 == 0 else 10))
    x0 = rng.normal(size=n)
    A = rng.normal(size=(n + 2, n))
    H = A.T @ A
    f = 3.0 * rng.normal(size=n)
    C = rng.normal(size=(m, n))
    slack = np.abs(rng.normal(size=m))
    if kind == "unbounded":
        # H is flat along d, f descends along d, and every row keeps x0 + t*d feasible
        d = rng.normal(size=n)
        H = H - np.outer(H @ d, H @ d) / (d @ H @ d)
        H = (H + H.T) / 2.0
        f = -d + (np.eye(n) - np.outer(d, d) / (d @ d)) @ f
        C = C - np.outer(C @ d + np.abs(rng.normal(size=m)), d) / (d @ d)
    if kind in ("tight", "duplicated"):
        # many rows active at x0 make degenerate vertices and ties between working sets
        slack[rng.random(m) < 0.6] = 0.0
    b = C @ x0 + slack
    C_eq = b_eq = None
    if kind == "duplicated" and m:
        repeat = rng.integers(0, m, size=int(rng.integers(1, 4)))
        C, b = np.vstack([C, C[repeat]]), np.concatenate([b, b[repeat]])
    elif kind == "equality":
        C_eq = rng.normal(size=(int(rng.integers(1, n)), n))
        b_eq = C_eq @ x0
    elif kind == "infeasible":
        row = rng.normal(size=n)
        C, b = np.vstack([C, row, -row]), np.concatenate([b, [-1.0, -1.0]])
    return QuadraticProgram(H=H, f=f, C=C, b=b, C_eq=C_eq, b_eq=b_eq)


def test_working_sets_match_mask_order_bit_for_bit():
    # the random kinds, and ill-conditioned QPs in both cond ranges with rows at zero slack
    # and repeated rows, where a pool of rows is likeliest to miss a row of the winner's set
    problems = [random_qp(seed) for seed in range(204)]
    problems += [ill_conditioned_qp(seed, exponents, degenerate=True)
                 for exponents in ((3.0, 6.0), (6.0, 9.0)) for seed in range(10)]
    outcomes = set()
    for seed, qp in enumerate(problems):
        try:
            expected = mask_order_qp_solve(qp)
        except (InfeasibleProblemError, UnboundedProblemError) as exc:
            with pytest.raises(type(exc)):
                qp_solve(qp)
            outcomes.add(type(exc))
            continue
        got = qp_solve(qp)
        assert [v.hex() for v in got] == [v.hex() for v in expected], seed
        outcomes.add(tuple)
    assert outcomes == {tuple, InfeasibleProblemError, UnboundedProblemError}


def returns_to_scale_problem(seed, m, duplicates):
    """Design X, outputs y and the block C x <= b of a constrained log-linear fit:
    alpha >= 0, beta >= 0, alpha + beta <= s and random rows.

    The rows are rounded to 4 decimals, as in a constraint CSV. The last
    `duplicates` rows repeat earlier ones, which makes the KKT matrix of every
    working set holding both copies singular.
    """
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(40), np.log(rng.uniform(1.0, 90.0, (40, 2)))])
    y = X @ [rng.uniform(0.2, 1.0), rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)]
    y = y + rng.normal(0.0, 0.05, 40)
    extra = m - 3 - duplicates
    C = np.vstack([[[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 1.0]],
                   np.round(rng.uniform(-1.0, 1.0, (extra, 3)), 4)])
    b = np.concatenate([[0.0, 0.0, round(rng.uniform(0.6, 1.0), 4)],
                        np.round(rng.uniform(0.2, 2.0, extra), 4)])
    repeat = rng.integers(0, m - duplicates, size=duplicates)
    return X, y, np.vstack([C, C[repeat]]), np.concatenate([b, b[repeat]])


def returns_to_scale_qp(seed, m, duplicates):
    X, y, C, b = returns_to_scale_problem(seed, m, duplicates)
    return QuadraticProgram(H=X.T @ X, f=-2.0 * X.T @ y, C=C, b=b)


@pytest.mark.parametrize("m, duplicates", [(12, 0), (12, 2), (14, 1), (16, 0), (16, 3),
                                           (18, 2), (20, 0)])
def test_returns_to_scale_fits_match_mask_order_bit_for_bit(monkeypatch, m, duplicates):
    least_squares_calls = []
    least_squares = fitting._least_squares
    qp = returns_to_scale_qp(100 * m + duplicates, m, duplicates)
    with monkeypatch.context() as patch:
        patch.setattr(fitting, "_least_squares",
                      lambda *args: least_squares_calls.append(1) or least_squares(*args))
        got = qp_solve(qp)
    assert [v.hex() for v in got] == [v.hex() for v in mask_order_qp_solve(qp)]
    # a working set holding both copies of a repeated row has a singular KKT system,
    # which is solved by least squares; the pool holds both copies when the row binds
    active = [(*qp.C[i], qp.b[i]) for i in fitting._active_rows(qp, got)]
    assert least_squares_calls or len(set(active)) == len(active)


def test_a_pool_that_misses_the_active_rows_of_its_point_grows_by_them(monkeypatch):
    # the relaxation to row 2 has a point that meets every row, with rows 2 and 10 active
    # (row 10 repeats the binding row 2); the pool takes row 10 and relaxes once more
    qp = returns_to_scale_qp(1202, 12, 2)
    least_kkt_point, pools = fitting._least_kkt_point, []

    def recorded(problem):
        rows, pool = list(zip(qp.C, qp.b)), []
        for row in zip(problem.C, problem.b):  # the pool is kept in row order
            pool.append(rows.index(row, pool[-1] + 1 if pool else 0))
        pools.append(pool)
        return least_kkt_point(problem)
    monkeypatch.setattr(fitting, "_least_kkt_point", recorded)
    got = qp_solve(qp)
    assert pools == [[], [2], [2, 10]]
    assert [v.hex() for v in got] == [v.hex() for v in mask_order_qp_solve(qp)]


def slsqp_constrained_fit(optimize, X, y, C, b):
    """The scipy oracle: min ||y - X x||^2 subject to C x <= b by SLSQP from the origin."""
    result = optimize.minimize(
        lambda x: np.sum((y - X @ x) ** 2), np.zeros(X.shape[1]),
        jac=lambda x: -2.0 * X.T @ (y - X @ x), method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda x: b - C @ x, "jac": lambda x: -C}],
        options={"ftol": 1e-12, "maxiter": 1000})
    assert result.success, result.message
    return result.x


def kkt_solves(monkeypatch):
    """A list that receives the members of every working set solved from here on."""
    solved = []
    kkt_solver = fitting._kkt_solver

    def counted(qp):
        solve = kkt_solver(qp)
        return lambda members: solved.append(members) or solve(members)
    monkeypatch.setattr(fitting, "_kkt_solver", counted)
    return solved


@pytest.mark.parametrize("seed, m, duplicates, working_sets", [(1, 30, 0, 15), (7, 20, 5, 41),
                                                                (1, 200, 0, 30)])
def test_constrained_fit_matches_the_scipy_oracle(monkeypatch, seed, m, duplicates,
                                                  working_sets):
    # m = 30 and m = 200 bind three random rows; the repeated block binds five rows at a
    # degenerate vertex, two of them copies of others
    optimize = pytest.importorskip("scipy.optimize")
    X, y, C, b = returns_to_scale_problem(seed, m, duplicates)
    solved = kkt_solves(monkeypatch)
    x = np.array(qp_fit(DesignMatrix(X, y), (C, b)).coefficients)
    assert len(solved) == working_sets
    qp = QuadraticProgram(H=X.T @ X, f=-2.0 * X.T @ y, C=C, b=b)
    assert certify_solution(qp, x)
    assert np.sum(C @ x - b > -1e-9) == (3 if duplicates == 0 else 5)
    oracle = slsqp_constrained_fit(optimize, X, y, C, b)
    assert np.max(np.abs(x - oracle)) <= 1e-9
    assert qp.objective(x) <= qp.objective(oracle) + 1e-9 * abs(qp.objective(oracle))


def test_infeasible_fit_is_refused_within_a_few_solves(monkeypatch):
    # alpha + beta <= -0.1 contradicts alpha >= 0 and beta >= 0: constraint generation
    # meets a relaxation without a point, whose rows have no least-norm point either
    X, y, C, b = returns_to_scale_problem(1, 200, 0)
    b[2] = -0.1
    solved = kkt_solves(monkeypatch)
    with pytest.raises(InfeasibleProblemError, match="^constraint set is empty$"):
        qp_fit(DesignMatrix(X, y), (C, b))
    assert len(solved) == 45


def test_multiplier_at_the_dual_tolerance_is_certified():
    # min x^2/2 + 1e-8 x s.t. x <= 0 and x >= 1e-11: the working set {x <= 0} gives
    # x = 0 with multiplier exactly -DUAL_TOL, which the certificate accepts (within
    # FEASIBILITY_TOL of x >= 1e-11); its objective 0 beats x = 1e-11 from {x >= 1e-11}
    qp = QuadraticProgram(H=[[0.5]], f=[1e-8], C=[[1.0], [-1.0]], b=[0.0, -1e-11])
    assert qp_solve(qp) == mask_order_qp_solve(qp) == (0.0,)


def nnls_certify_solution(qp, x, nnls):
    """Reference for certify_solution: the scipy version, lstsq with equalities, nnls without."""
    H, f, C, b = qp_arrays(qp)
    m = C.shape[0]
    grad = 2.0 * H @ x + f
    active = [i for i in range(m) if C[i] @ x - b[i] > -1e-8]
    lam = np.zeros(m)
    mu = None
    if qp.C_eq is not None:
        C_eq = np.array(qp.C_eq)
        stacked = np.hstack([C_eq.T] + ([C[active].T] if active else []))
        sol, *_ = np.linalg.lstsq(stacked, -grad, rcond=None)
        n_eq = C_eq.shape[0]
        mu = sol[:n_eq]
        if active:
            lam[active] = np.maximum(sol[n_eq:], 0.0)
    elif active:
        lam[active], _ = nnls(C[active].T, -grad)
    return kkt_certificate(qp, x, lam, mu)


def qp_arrays(qp):
    """H, f, C and b of qp as numpy arrays, C with n columns even when it has no rows."""
    n = qp.H.shape[0]
    return (np.array(qp.H), np.array(qp.f), np.array(qp.C).reshape(qp.C.shape[0], n),
            np.array(qp.b))


def test_classification_and_certificates_match_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    outcomes = set()
    for seed in range(204):
        qp = random_qp(seed)
        n = qp.H.shape[0]
        _, _, C, b = qp_arrays(qp)
        # a zero objective: status 2 exactly when the constraint set is empty
        status = optimize.linprog(np.zeros(n), A_ub=C if C.size else None,
                                  b_ub=b if C.size else None, A_eq=qp.C_eq,
                                  b_eq=qp.b_eq, bounds=[(None, None)] * n,
                                  method="highs").status
        try:
            x = qp_solve(qp)
        except (InfeasibleProblemError, UnboundedProblemError) as exc:
            assert (status == 2) == (type(exc) is InfeasibleProblemError), seed
            outcomes.add(type(exc))
            continue
        assert status == 0, seed
        x = np.array(x)
        assert certify_solution(qp, x) and nnls_certify_solution(qp, x, optimize.nnls), seed
        perturbed = x + 1e-3
        assert not certify_solution(qp, perturbed), seed
        assert not nnls_certify_solution(qp, perturbed, optimize.nnls), seed
        outcomes.add(tuple)
    assert outcomes == {tuple, InfeasibleProblemError, UnboundedProblemError}


def ill_conditioned_qp(seed, exponents=(3.0, 6.0), degenerate=False):
    """A strictly convex QP, feasible at x0, with cond(H) = 10^e for e uniform in
    `exponents`: H = Q diag(geomspace(1, 1/cond, n)) Q^T and b = C x0 + |slack|. A
    degenerate one sets about 30 % of the slacks to 0 and repeats up to three rows."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.choice([2, 3, 4])), int(rng.integers(1, 10))
    cond = 10.0 ** rng.uniform(*exponents)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    H = Q @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ Q.T
    f, C, x0 = 3.0 * rng.normal(size=n), rng.normal(size=(m, n)), rng.normal(size=n)
    slack = np.abs(rng.normal(size=m))
    if degenerate:
        slack[rng.random(m) < 0.3] = 0.0
    b = C @ x0 + slack
    if degenerate:
        repeat = rng.integers(0, m, size=int(rng.integers(1, 4)))
        C, b = np.vstack([C, C[repeat]]), np.concatenate([b, b[repeat]])
    return QuadraticProgram(H=(H + H.T) / 2.0, f=f, C=C, b=b)


def test_ill_conditioned_strictly_convex_qps_are_solved_and_certified():
    # the unconstrained minimiser lies up to cond * |f| from the origin, so the solved
    # point's row residuals carry rounding on the scale ||C_i|| ||x||, above an absolute
    # 1e-10; every one of these QPs has a unique minimiser, which qp_solve must find
    for exponents in ((3.0, 6.0), (6.0, 9.0)):
        for seed in range(100):
            qp = ill_conditioned_qp(seed, exponents)
            assert certify_solution(qp, qp_solve(qp)), (exponents, seed)


def test_a_bound_in_the_winning_working_set_fixes_its_coordinate_exactly():
    # beta >= 0 binds at the winner, whose KKT solve leaves beta = -1.7e-15; the bound
    # fixes beta = 0 / -1, written as +0.0
    qp = returns_to_scale_qp(2, 12, 2)
    x = qp_solve(qp)
    assert x[2].hex() == "0x0.0p+0"
    assert certify_solution(qp, x)
    # an equality row is in every working set: -3 alpha = -0.9 fixes alpha = -0.9 / -3
    qp = QuadraticProgram(H=qp.H, f=qp.f, C=qp.C, b=qp.b, C_eq=[[0.0, -3.0, 0.0]], b_eq=[-0.9])
    x = qp_solve(qp)
    assert x[1] == -0.9 / -3.0
    assert certify_solution(qp, x)


RTS_CONSTRAINTS = (
    np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 1.0]]),
    np.array([0.0, 0.0, 1.0]),
)


def raw_costs_with_a_bound_at_zero():
    """S, P and y of 50 rows of raw costs 1,000-9,000, y = 3 + a S + b P + noise, whose fit
    under RTS_CONSTRAINTS has alpha >= 0 and alpha + beta <= 1 active."""
    rng = random.Random(8)
    a, b = rng.uniform(-1, 3), rng.uniform(-1, 3)
    rows = []
    for _ in range(50):
        S, P = round(rng.uniform(1000, 9000)), round(rng.uniform(1000, 9000))
        rows.append((S, P, round(3 + a * S + b * P + rng.gauss(0, 900), 2)))
    return tuple(map(list, zip(*rows)))


def raw_costs_and_block(seed):
    """S, P, y, C and b of a raw-scale fit, drawn from random.Random(seed) as
    scripts/output_digests.py draws its fit_raw_large.csv: a, b uniform in -1-3; 20, 50 or
    200 rows of costs uniform in 1e4-1e6 and y = 3 + a S + b P + N(0, 1e3); then 3, 6 or 12
    constraint rows: alpha >= 0, beta >= 0, alpha + beta <= s and random rows."""
    rng = random.Random(seed)
    a, b = rng.uniform(-1, 3), rng.uniform(-1, 3)
    n = rng.choice([20, 50, 200])
    S = [rng.uniform(1e4, 1e6) for _ in range(n)]
    P = [rng.uniform(1e4, 1e6) for _ in range(n)]
    y = [3 + a * s + b * p + rng.gauss(0, 1e3) for s, p in zip(S, P)]
    m = rng.choice([3, 6, 12])
    rows = [(0.0, -1.0, 0.0, 0.0), (0.0, 0.0, -1.0, 0.0),
            (0.0, 1.0, 1.0, round(rng.uniform(0.6, 1.0), 4))]
    for _ in range(m - 3):
        c = [round(rng.uniform(-1, 1), 4) for _ in range(3)]
        rows.append((*c, round(rng.uniform(0.2, 2), 4)))
    block = np.array(rows)
    return S, P, y, block[:, :3], block[:, 3]


class TestQpFit:
    def test_equals_ols_when_constraints_inactive(self):
        rng = np.random.default_rng(113)
        for _ in range(30):
            # true elasticities sum to well under 1, so the OLS fit is feasible
            design = synthetic_log_design(rng, 25, 0.4, 0.3, 0.4, noise=0.05)
            constrained = qp_fit(design, RTS_CONSTRAINTS)
            unconstrained = ols_fit(design)
            assert np.max(np.abs(np.array(constrained.coefficients)
                                 - unconstrained.coefficients)) <= 1e-8

    def test_binding_scale_constraint_lands_on_boundary(self):
        rng = np.random.default_rng(127)
        design = synthetic_log_design(rng, 30, 0.2, 0.8, 0.7, noise=0.05)
        ols = ols_fit(design)
        assert ols.alpha + ols.beta > 1.0
        fit = qp_fit(design, RTS_CONSTRAINTS)
        assert fit.alpha + fit.beta == pytest.approx(1.0, abs=1e-9)
        assert fit.alpha >= -1e-10 and fit.beta >= -1e-10

    def test_constrained_solution_dominates_feasible_samples(self):
        rng = np.random.default_rng(131)
        design = synthetic_log_design(rng, 30, 0.2, 0.9, 0.6, noise=0.05)
        A, y = arrays(design)
        H, f = A.T @ A, -2.0 * A.T @ y
        qp = QuadraticProgram(H=H, f=f, C=RTS_CONSTRAINTS[0], b=RTS_CONSTRAINTS[1])
        x_star = qp_solve(qp)
        assert certify_solution(qp, x_star)
        # dense sweep of the feasible triangle, intercept sampled around the optimum
        alphas = rng.uniform(0.0, 1.0, size=20_000)
        betas = rng.uniform(0.0, 1.0, size=20_000) * (1.0 - alphas)
        intercepts = x_star[0] + rng.uniform(-2.0, 2.0, size=20_000)
        samples = np.column_stack([intercepts, alphas, betas])
        values = np.einsum("ij,jk,ik->i", samples, H, samples) + samples @ f
        assert values.min() >= qp.objective(x_star) - 1e-6 * (1.0 + abs(qp.objective(x_star)))

    def test_raw_scale_fit_with_a_bound_at_zero_reaches_its_kkt_point(self):
        # H = A^T A has entries near 1e9. At the optimum alpha = 0 and beta = 1, so
        # C_i x = 0 on the bound alpha >= 0, while its computed value rounds on the scale
        # ||C_i|| ||x|| (about 9e3): slackness sized by |C_i x| + |b_i| refused the point
        S, P, y = raw_costs_with_a_bound_at_zero()
        design = DesignMatrix.raw_scale(S, P, y)
        fit = qp_fit(design, RTS_CONSTRAINTS)
        intercept = float(sum(Fraction(v) - p for v, p in zip(y, P)) / len(y))  # mean(y - P)
        assert fit.intercept == pytest.approx(intercept, rel=1e-9)
        assert fit.alpha.hex() == "0x0.0p+0"
        assert fit.alpha + fit.beta == pytest.approx(1.0, abs=1e-12)
        A, y = arrays(design)
        qp = QuadraticProgram(H=A.T @ A, f=-2.0 * A.T @ y, C=RTS_CONSTRAINTS[0],
                              b=RTS_CONSTRAINTS[1])
        assert certify_solution(qp, fit.coefficients)

    @pytest.mark.parametrize("seed", [1, 2, 3, 10])
    def test_raw_scale_fit_on_costs_of_1e4_to_1e6_is_certified(self, seed):
        # cond(H) is about 5e12: elimination alone misses a row of the winning working set
        # by 1.2 to 3,200 times the certificate's feasibility tolerance, so these QPs (6-row
        # blocks at seeds 2 and 3, 12-row blocks at seeds 1 and 10) would be reported
        # unbounded; the refinement step brings the miss within the tolerance
        S, P, y, C, b = raw_costs_and_block(seed)
        design = DesignMatrix.raw_scale(S, P, y)
        x = qp_fit(design, (C, b)).coefficients
        A, y = arrays(design)
        assert certify_solution(QuadraticProgram(H=A.T @ A, f=-2.0 * A.T @ y, C=C, b=b), x)
        assert np.max(C @ x - b) <= 1e-11

    def test_design_that_ols_refuses_is_refused(self):
        # constraints can hold the fit of an unidentified design to one point, as
        # alpha + beta <= 1 does for x1 = x2; the data still do not identify it
        rng = np.random.default_rng(151)
        S, P = rng.uniform(2.0, 90.0, size=(2, 12))
        y = np.exp(0.8 + 0.9 * np.log(S) + 0.6 * np.log(P))
        with pytest.raises(SingularSystemError,
                           match=r"^design matrix is rank deficient \(rank 2 of 3\)$"):
            qp_fit(DesignMatrix.log_scale(S, S, y), RTS_CONSTRAINTS)
        with pytest.raises(SingularSystemError,
                           match="^underdetermined system: 2 rows for 3 coefficients$"):
            qp_fit(DesignMatrix.log_scale(S[:2], P[:2], y[:2]), RTS_CONSTRAINTS)

    def test_bound_at_zero_is_positive_zero(self):
        # alpha + beta <= 1 and beta >= 0 both bind, at alpha = 1 and beta = 0, which the
        # working-set solve computed as -0.0
        fit = qp_fit(near_collinear_design(), RTS_CONSTRAINTS)
        assert (fit.alpha.hex(), fit.beta.hex()) == ("0x1.0000000000000p+0", "0x0.0p+0")

    def test_unconstrained_qp_objective_identity(self):
        rng = np.random.default_rng(137)
        design = synthetic_log_design(rng, 20, 0.3, 0.4, 0.3, noise=0.1)
        A, y = arrays(design)
        qp = QuadraticProgram(H=A.T @ A, f=-2.0 * A.T @ y, C=np.zeros((0, 3)), b=[])
        x = np.array(qp_solve(qp))
        assert qp.objective(x) == pytest.approx(
            float(np.sum((y - A @ x) ** 2) - y @ y), rel=1e-9)


class TestRSquared:
    def test_perfect_fit(self):
        rng = np.random.default_rng(139)
        design = synthetic_log_design(rng, 10, 1.0, 0.5, 0.5)
        assert r_squared(ols_fit(design), design) == pytest.approx(1.0)

    def test_mean_only_model_scores_zero(self):
        rng = np.random.default_rng(149)
        design = synthetic_log_design(rng, 15, 0.3, 0.7, 0.2, noise=0.4)
        mean_model = FitResult(intercept=float(np.mean(design.outputs)), alpha=0.0,
                               beta=0.0, r_squared=0.0, residual_norm=0.0)
        assert r_squared(mean_model, design) == pytest.approx(0.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(151)
        design = synthetic_log_design(rng, 40, 0.2, 0.9, 0.3, noise=0.25)
        fit = ols_fit(design)
        A, y = arrays(design)
        predictions = A @ fit.coefficients
        ss_res = float(np.sum((y - predictions) ** 2))
        mean = float(y.mean())
        ss_tot = float(np.sum((y - mean) ** 2))
        assert abs(r_squared(fit, design) - (1.0 - ss_res / ss_tot)) <= 1e-12

    def test_zero_variance_rejected(self):
        design = DesignMatrix.raw_scale([1.0, 2.0, 3.0], [2.0, 1.0, 5.0], [4.0, 4.0, 4.0])
        model = FitResult(4.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateProblemError):
            r_squared(model, design)


class TestPredict:
    def test_raw_scale_reference_coefficients(self):
        model = FitResult(intercept=-375.07, alpha=4.4871, beta=27.409,
                          r_squared=0.998, residual_norm=0.0)
        assert abs(predict(model, 60, 40, scale="raw_linear") - RAW_MODEL_PREDICTION) <= 1e-9

    def test_log_scale_constant_model(self):
        model = FitResult(intercept=1.7, alpha=0.0, beta=0.0, r_squared=1.0, residual_norm=0.0)
        assert predict(model, 123.0, 0.5, scale="log_linear") == pytest.approx(np.exp(1.7))

    def test_log_scale_rejects_nonpositive_inputs(self):
        model = FitResult(0.0, 0.5, 0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            predict(model, -1.0, 2.0, scale="log_linear")

    def test_unknown_scale_rejected(self):
        model = FitResult(0.0, 0.5, 0.5, 1.0, 0.0)
        with pytest.raises(ParameterError):
            predict(model, 1.0, 2.0, scale="cubic")

    def test_raw_fit_predictions_average_to_training_mean(self):
        rng = np.random.default_rng(157)
        x1 = rng.uniform(1, 50, size=20)
        x2 = rng.uniform(1, 50, size=20)
        y = 3.0 + 0.5 * x1 + 1.5 * x2 + rng.normal(0, 2.0, size=20)
        design = DesignMatrix.raw_scale(x1, x2, y)
        fit = ols_fit(design)
        predictions = [predict(fit, a, b, scale="raw_linear") for a, b in zip(x1, x2)]
        assert np.mean(predictions) == pytest.approx(float(np.mean(y)))

    def test_round_trips_noiseless_training_points(self):
        rng = np.random.default_rng(163)
        S = rng.uniform(2, 60, size=8)
        P = rng.uniform(2, 60, size=8)
        y = np.exp(0.9 + 0.35 * np.log(S) + 0.55 * np.log(P))
        fit = ols_fit(DesignMatrix.log_scale(S, P, y))
        for s, p, target in zip(S, P, y):
            assert abs(predict(fit, s, p, scale="log_linear") - target) <= 1e-8 * target
