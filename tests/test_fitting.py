import warnings

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


def synthetic_log_design(rng, n_rows, intercept_value, alpha, beta, noise=0.0):
    S = rng.uniform(2.0, 90.0, size=n_rows)
    P = rng.uniform(2.0, 90.0, size=n_rows)
    log_y = intercept_value + alpha * np.log(S) + beta * np.log(P)
    if noise:
        log_y = log_y + rng.normal(0.0, noise, size=n_rows)
    return DesignMatrix.log_scale(S, P, np.exp(log_y))


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
            oracle = np.linalg.pinv(design.matrix) @ design.outputs
            assert np.max(np.abs(fit.coefficients - oracle)) <= 1e-8

    def test_residual_orthogonal_to_column_space(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            design = synthetic_log_design(rng, 30, -1.0, 1.5, 0.4, noise=0.5)
            fit = ols_fit(design)
            residual = design.outputs - design.matrix @ fit.coefficients
            lhs = np.linalg.norm(design.matrix.T @ residual)
            rhs = np.linalg.norm(design.matrix.T @ design.outputs)
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


def mask_order_qp_solve(qp):
    """Reference for qp_solve: walk all 2^m bit masks and solve those small enough."""
    n = qp.H.shape[0]
    m = qp.C.shape[0] if qp.C.size else 0
    n_eq = qp.C_eq.shape[0] if qp.C_eq is not None else 0
    best_x = None
    best_value = np.inf
    for mask in range(1 << m):
        active = [i for i in range(m) if mask >> i & 1]
        if len(active) + n_eq > n:
            continue
        rows = []
        if n_eq:
            rows.append(qp.C_eq)
        if active:
            rows.append(qp.C[active])
        n_active = n_eq + len(active)
        kkt = np.zeros((n + n_active, n + n_active))
        kkt[:n, :n] = 2.0 * qp.H
        rhs = np.concatenate([-qp.f, qp.b_eq if n_eq else np.zeros(0),
                              qp.b[active] if active else np.zeros(0)])
        if n_active:
            G = np.vstack(rows)
            kkt[:n, n:] = G.T
            kkt[n:, :n] = G
        try:
            solution = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            solution, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if np.linalg.norm(kkt @ solution - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
                continue
        x = solution[:n]
        mu = solution[n:n + n_eq] if n_eq else None
        lam = np.zeros(m)
        lam[active] = solution[n + n_eq:]
        if kkt_certificate(qp, x, lam, mu) and qp.objective(x) < best_value:
            best_x, best_value = x, qp.objective(x)
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
    outcomes = set()
    for seed in range(204):
        qp = random_qp(seed)
        try:
            expected = mask_order_qp_solve(qp)
        except (InfeasibleProblemError, UnboundedProblemError) as exc:
            with pytest.raises(type(exc)):
                qp_solve(qp)
            outcomes.add(type(exc))
            continue
        got = qp_solve(qp)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected.tolist()], seed
        outcomes.add(np.ndarray)
    assert outcomes == {np.ndarray, InfeasibleProblemError, UnboundedProblemError}


def returns_to_scale_qp(seed, m, duplicates):
    """A constrained log-linear fit: alpha >= 0, beta >= 0, alpha + beta <= s and random rows.

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
    C, b = np.vstack([C, C[repeat]]), np.concatenate([b, b[repeat]])
    return QuadraticProgram(H=X.T @ X, f=-2.0 * X.T @ y, C=C, b=b)


@pytest.mark.parametrize("m, duplicates", [(12, 0), (12, 2), (14, 1), (16, 0), (16, 3),
                                           (18, 2), (20, 0)])
def test_returns_to_scale_fits_match_mask_order_bit_for_bit(monkeypatch, m, duplicates):
    one_at_a_time = []
    solve_one = fitting._solve_one
    monkeypatch.setattr(fitting, "_solve_one",
                        lambda *args: one_at_a_time.append(1) or solve_one(*args))
    qp = returns_to_scale_qp(100 * m + duplicates, m, duplicates)
    got = qp_solve(qp)
    assert [v.hex() for v in got.tolist()] == \
        [v.hex() for v in mask_order_qp_solve(qp).tolist()]
    # a repeated row makes its stacks singular, and those are solved one set at a time
    assert bool(one_at_a_time) == bool(duplicates)


def test_multiplier_at_the_dual_tolerance_is_certified():
    # min x^2/2 + 1e-8 x s.t. x <= 0 and x >= 1e-11: the working set {x <= 0} gives
    # x = 0 with multiplier exactly -DUAL_TOL, which the certificate accepts (within
    # FEASIBILITY_TOL of x >= 1e-11); its objective 0 beats x = 1e-11 from {x >= 1e-11}
    qp = QuadraticProgram(H=[[0.5]], f=[1e-8], C=[[1.0], [-1.0]], b=[0.0, -1e-11])
    assert qp_solve(qp).tolist() == mask_order_qp_solve(qp).tolist() == [0.0]


def nnls_certify_solution(qp, x, nnls):
    """Reference for certify_solution: the scipy version, lstsq with equalities, nnls without."""
    m = qp.C.shape[0]
    grad = 2.0 * qp.H @ x + qp.f
    active = [i for i in range(m) if qp.C[i] @ x - qp.b[i] > -1e-8]
    lam = np.zeros(m)
    mu = None
    if qp.C_eq is not None:
        stacked = np.hstack([qp.C_eq.T] + ([qp.C[active].T] if active else []))
        sol, *_ = np.linalg.lstsq(stacked, -grad, rcond=None)
        n_eq = qp.C_eq.shape[0]
        mu = sol[:n_eq]
        if active:
            lam[active] = np.maximum(sol[n_eq:], 0.0)
    elif active:
        lam[active], _ = nnls(qp.C[active].T, -grad)
    return kkt_certificate(qp, x, lam, mu)


def test_classification_and_certificates_match_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    outcomes = set()
    for seed in range(204):
        qp = random_qp(seed)
        n = qp.H.shape[0]
        # a zero objective: status 2 exactly when the constraint set is empty
        status = optimize.linprog(np.zeros(n), A_ub=qp.C if qp.C.size else None,
                                  b_ub=qp.b if qp.C.size else None, A_eq=qp.C_eq,
                                  b_eq=qp.b_eq, bounds=[(None, None)] * n,
                                  method="highs").status
        try:
            x = qp_solve(qp)
        except (InfeasibleProblemError, UnboundedProblemError) as exc:
            assert (status == 2) == (type(exc) is InfeasibleProblemError), seed
            outcomes.add(type(exc))
            continue
        assert status == 0, seed
        assert certify_solution(qp, x) and nnls_certify_solution(qp, x, optimize.nnls), seed
        perturbed = x + 1e-3
        assert not certify_solution(qp, perturbed), seed
        assert not nnls_certify_solution(qp, perturbed, optimize.nnls), seed
        outcomes.add(np.ndarray)
    assert outcomes == {np.ndarray, InfeasibleProblemError, UnboundedProblemError}


RTS_CONSTRAINTS = (
    np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 1.0]]),
    np.array([0.0, 0.0, 1.0]),
)


class TestQpFit:
    def test_equals_ols_when_constraints_inactive(self):
        rng = np.random.default_rng(113)
        for _ in range(30):
            # true elasticities sum to well under 1, so the OLS fit is feasible
            design = synthetic_log_design(rng, 25, 0.4, 0.3, 0.4, noise=0.05)
            constrained = qp_fit(design, RTS_CONSTRAINTS)
            unconstrained = ols_fit(design)
            assert np.max(np.abs(constrained.coefficients
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
        A, y = design.matrix, design.outputs
        qp = QuadraticProgram(H=A.T @ A, f=-2.0 * A.T @ y,
                              C=RTS_CONSTRAINTS[0], b=RTS_CONSTRAINTS[1])
        x_star = qp_solve(qp)
        assert certify_solution(qp, x_star)
        # dense sweep of the feasible triangle, intercept sampled around the optimum
        alphas = rng.uniform(0.0, 1.0, size=20_000)
        betas = rng.uniform(0.0, 1.0, size=20_000) * (1.0 - alphas)
        intercepts = x_star[0] + rng.uniform(-2.0, 2.0, size=20_000)
        samples = np.column_stack([intercepts, alphas, betas])
        values = np.einsum("ij,jk,ik->i", samples, qp.H, samples) + samples @ qp.f
        assert values.min() >= qp.objective(x_star) - 1e-6 * (1.0 + abs(qp.objective(x_star)))

    def test_unconstrained_qp_objective_identity(self):
        rng = np.random.default_rng(137)
        design = synthetic_log_design(rng, 20, 0.3, 0.4, 0.3, noise=0.1)
        A, y = design.matrix, design.outputs
        qp = QuadraticProgram(H=A.T @ A, f=-2.0 * A.T @ y, C=np.zeros((0, 3)), b=[])
        x = qp_solve(qp)
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
        mean_model = FitResult(intercept=float(design.outputs.mean()), alpha=0.0,
                               beta=0.0, r_squared=0.0, residual_norm=0.0)
        assert r_squared(mean_model, design) == pytest.approx(0.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(151)
        design = synthetic_log_design(rng, 40, 0.2, 0.9, 0.3, noise=0.25)
        fit = ols_fit(design)
        predictions = design.matrix @ fit.coefficients
        ss_res = float(np.sum((design.outputs - predictions) ** 2))
        mean = float(design.outputs.mean())
        ss_tot = float(np.sum((design.outputs - mean) ** 2))
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
