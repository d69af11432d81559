import importlib
import math
import pkgutil
from dataclasses import replace

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import privglm
from privglm.errors import ConfigError
from privglm import estimators, links, mechanism
from privglm.estimators import (
    Dataset,
    EstimatorSettings,
    design,
    l4_shrink_rows,
    rows_inner,
    sensitivity_bound,
)
from privglm.links import LinkConstants, ModelKind, make_link_bundle, project_polytope
from privglm.mechanism import (
    MechanismParams,
    _log_gammainc,
    _gauss_legendre,
    _logistic_half,
    _logistic_terms,
    _poisson_table,
    brier_payment,
    budget_bound,
    predictions,
    preset_schedule,
    posterior_mean,
    privacy_cost,
    project_ball,
    rationality_floor,
    run_mechanism,
)
from privglm.population import (
    PopulationSpec,
    StudentTCovariates,
    SubGaussianIsotropic,
    generate_population,
)
from privglm.privacy import PrivacyParams

from payment_oracle import paid, recomputed_predictions
from rationality_oracle import rationality_fraction
from strategy_oracle import apply_strategy


def test_brier_reference_value():
    assert brier_payment(1.0, 1.0, 0.5, 0.5) == pytest.approx(0.75, abs=1e-15)
    assert brier_payment(2.0, 0.0, 0.9, -3.0) == 2.0


def test_brier_maximized_at_q_equals_p():
    qs = np.linspace(0.0, 1.0, 2001)
    for p in np.linspace(0.0, 1.0, 20):
        vals = brier_payment(1.0, 1.0, p, qs)
        assert abs(qs[int(np.argmax(vals))] - p) <= (qs[1] - qs[0]) / 2 + 1e-12


_coefficient = st.floats(0.0, 1e3)
_prediction = st.floats(-1e2, 1e2)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@given(a1=_coefficient, a2=_coefficient, p=_prediction, q1=_prediction, q2=_prediction,
       lam=st.floats(0.0, 1.0))
def test_brier_concave_with_peak_at_p_property(a1, a2, p, q1, q2, lam):
    def pay(q):
        return brier_payment(a1, a2, p, q)

    tol = 1e-12 * (a1 + a2 * (1.0 + abs(p)) * (1.0 + abs(q1) + abs(q2)) ** 2)
    q = lam * q1 + (1.0 - lam) * q2
    assert pay(q) >= lam * pay(q1) + (1.0 - lam) * pay(q2) - tol
    # a1 - a2 (p - 2pq + q^2) = a1 - a2 (p - p^2) - a2 (q - p)^2
    assert pay(p) >= max(pay(q1), pay(q2)) - tol


def test_cost_functions():
    assert privacy_cost(0.5, 0.0, 4) == pytest.approx(0.5**4)
    assert privacy_cost(0.5, 1.0, 4) == pytest.approx(2 * 0.5**4)
    assert privacy_cost(0.5, 0.0, 9) == pytest.approx(0.5**9)
    # increasing in both arguments on a grid
    eps = np.linspace(0.05, 2.0, 15)
    for g in (0.0, 0.3, 0.9):
        vals = [privacy_cost(e, g, 4) for e in eps]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    for e in (0.1, 0.5, 1.5):
        vals = [privacy_cost(e, g, 4) for g in np.linspace(0.0, 1.0, 10)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_linear_posterior_closed_form():
    mean = posterior_mean([[1.0]], [2.0], ModelKind.linear(1.0), 1.0)
    assert mean[0, 0] == pytest.approx(1.0, abs=1e-12)
    for model in (ModelKind.linear(1.0), ModelKind.logistic(), ModelKind.poisson()):
        zero = posterior_mean(np.zeros((1, 3)), [1.0], model, 2.0)
        assert np.array_equal(zero, np.zeros((1, 3)))


def test_linear_posterior_projects_the_closed_form():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((300, 3))
    y = rng.standard_normal(300) * 4.0
    tau_theta = 1.0
    s0sq = tau_theta ** 2 / 3
    coef = s0sq * y / (1.0 + s0sq * rows_inner(X, X))
    unprojected = coef[:, None] * X
    inside = np.linalg.norm(unprojected, axis=1) <= tau_theta
    assert 0 < np.sum(inside) < 300
    mean = posterior_mean(X, y, ModelKind.linear(1.0), tau_theta)
    assert np.array_equal(mean[inside], unprojected[inside])
    assert np.allclose(mean, project_ball(unprojected, tau_theta), rtol=0, atol=1e-15)


def _quad_mean_t(d, s, y, family):
    """E[t | y] by scipy's adaptive quadrature of t times the density
    e^(-d t^2/2) F_{d-1}(d (1 - t^2)) L(y | s t) on [-1, 1], where F is the
    chi-square CDF with d - 1 degrees of freedom (1 when d = 1) and L the
    logistic likelihood sigma(2 y s t) or the Poisson e^(y s t - e^(s t)).
    The interval breaks at the mode and at 10^-k on each side of it
    (k = 1..5), so that quad finds a spike as narrow as 1e-4."""
    special, integrate = pytest.importorskip("scipy.special"), pytest.importorskip("scipy.integrate")

    def log_density(t):
        out = -0.5 * d * t * t
        if d > 1:
            out = out + np.log(special.gammainc(0.5 * (d - 1), 0.5 * d * (1.0 - t * t)))
        if family == "logistic":
            return out - np.logaddexp(0.0, -2.0 * y * s * t)
        return out + y * s * t - np.exp(s * t)

    grid = np.linspace(-1.0, 1.0, 20_001)[1:-1]
    values = log_density(grid)
    top, mode = np.max(values), grid[np.argmax(values)]
    points = {mode} | {
        float(np.clip(mode + side * 10.0 ** -k, -1.0 + 1e-12, 1.0 - 1e-12))
        for k in range(1, 6) for side in (-1.0, 1.0)
    }
    tol = dict(epsabs=1e-14, epsrel=1e-13, limit=500, points=sorted(points))
    num = integrate.quad(lambda t: t * np.exp(log_density(t) - top), -1.0, 1.0, **tol)[0]
    den = integrate.quad(lambda t: np.exp(log_density(t) - top), -1.0, 1.0, **tol)[0]
    return num / den


def test_logistic_posterior_matches_quadrature():
    # logistic and Poisson posterior means against scipy.integrate.quad of the
    # 1-D density of t = x . theta / (tau_theta ||x||); the Poisson reports
    # with s sqrt(y + 1) > POISSON_SHARP take the window rule
    cases = [("logistic", ModelKind.logistic(), y, s) for y in (1.0, -1.0)
             for s in (0.3, 1.0, 3.0, 6.0, 12.0, 25.0, 50.0, 100.0)]
    cases += [("poisson", ModelKind.poisson(), y, s)
              for y in (0.0, 1.0, 3.0, 12.0, 50.0, 500.0, 5000.0)
              for s in (0.3, 1.0, 3.0, 6.0, 12.0, 25.0, 50.0)]
    sharp = 0
    for d in (1, 2, 3, 10):
        for family, model, y, s in cases:
            oracle = _quad_mean_t(d, s, y, family)
            x = np.zeros((1, d))
            x[0, 0] = s  # tau_theta = 1, so the mean is (oracle, 0, ...)
            est = posterior_mean(x, [y], model, 1.0)[0]
            assert abs(est[0] - oracle) < 1e-9, (d, family, y, s)
            assert np.all(est[1:] == 0.0)
            sharp += family == "poisson" and s * math.sqrt(y + 1.0) > mechanism.POISSON_SHARP
    assert 0 < sharp < 4 * 49


def _ball_posterior_mean(x, y, model, tau_theta, radial=80, angular=160):
    """E[theta | x, y] by brute force over the ball, in polar (d = 2) or
    spherical (d = 3) coordinates: Gauss-Legendre in the radius and in
    cos(polar angle), the trapezoid rule in the azimuth."""
    d = len(x)
    r, w_r = np.polynomial.legendre.leggauss(radial)
    r, w_r = 0.5 * tau_theta * (r + 1.0), 0.5 * tau_theta * w_r
    azimuth = np.arange(angular) * (2.0 * np.pi / angular)
    if d == 2:
        R, A = np.meshgrid(r, azimuth, indexing="ij")
        theta = np.stack([R * np.cos(A), R * np.sin(A)], axis=-1)
        volume = R * w_r[:, None]
    else:
        u, w_u = np.polynomial.legendre.leggauss(radial)
        R, U, A = np.meshgrid(r, u, azimuth, indexing="ij")
        s = np.sqrt(1.0 - U * U)
        theta = np.stack([R * s * np.cos(A), R * s * np.sin(A), R * U], axis=-1)
        volume = R * R * w_r[:, None, None] * w_u[None, :, None]
    a = theta @ x
    if model.family == "logistic":
        loglik = y * a - np.logaddexp(a, -a)
    else:
        loglik = y * a - np.exp(a)
    log_density = loglik - 0.5 * d * np.sum(theta * theta, axis=-1) / tau_theta**2
    w = np.exp(log_density - log_density.max()) * volume
    return (w.reshape(-1) @ theta.reshape(-1, d)) / w.sum()


@pytest.mark.parametrize("d", [2, 3])
def test_posterior_mean_matches_ball_integral(d):
    rng = np.random.default_rng(d)
    cases = [(ModelKind.logistic(), y) for y in (1.0, -1.0)]
    cases += [(ModelKind.poisson(), y) for y in (0.0, 2.0, 12.0)]
    for tau_theta in (1.0, 2.0):
        for model, y in cases:
            x = 1.3 * rng.standard_normal(d)
            oracle = _ball_posterior_mean(x, y, model, tau_theta)
            est = posterior_mean(x[None, :], [y], model, tau_theta)[0]
            assert np.max(np.abs(est - oracle)) < 1e-9


def test_log_gammainc_matches_scipy():
    gammainc = pytest.importorskip("scipy.special").gammainc
    for d in range(2, 12):
        a = 0.5 * (d - 1)
        z = np.linspace(1e-6, 0.5 * d, 501)
        assert np.max(np.abs(np.exp(_log_gammainc(a, z)) - gammainc(a, z))) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 5, 48, 192, 256])
def test_gauss_legendre_matches_numpy(m):
    x, w = _gauss_legendre(m)
    ref_x, ref_w = np.polynomial.legendre.leggauss(m)
    assert np.max(np.abs(x - ref_x)) < 1e-14 and np.max(np.abs(w - ref_w)) < 1e-14
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # exact for every monomial of degree up to 2m - 1
    for k in range(2 * m):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(w * x ** k) - exact) < 1e-14, k


def test_quadrature_table_is_cached_and_read_only():
    for table in (_gauss_legendre, _logistic_terms, _poisson_table):
        arrays = table(48 if table is _gauss_legendre else 3)
        assert table(48 if table is _gauss_legendre else 3)[1] is arrays[1]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
    t, _ = _logistic_terms(3)
    assert t.size == mechanism.LOGISTIC_NODES and np.all((t > 0) & (t < 1))
    assert np.array_equal(t, _logistic_half(3)[0])
    assert _poisson_table(3)[0].size == mechanism.POISSON_NODES


def _log_sum_exp_mean_t(s, y, d):
    """E[t | y, s] by the log-sum-exp loop over the whole mirrored logistic
    table, the nodes -t_k and t_k of `_logistic_half`, that the fold replaces."""
    t_half, log_half = _logistic_half(d)
    t = np.concatenate([-t_half[::-1], t_half])
    log_weight = np.concatenate([log_half[::-1], log_half])
    a = s[:, None] * t
    log_post = y[:, None] * a
    # minus log(e^a + e^-a) = -(|a| + log1p(e^(-2|a|))), without overflow
    np.abs(a, out=a)
    log_post -= a
    a *= -2.0
    log_post -= np.log1p(np.exp(a, out=a), out=a)
    log_post += log_weight
    log_post -= np.max(log_post, axis=1, keepdims=True)
    w = np.exp(log_post, out=log_post)
    return np.sum(np.multiply(w, t, out=a), axis=1) / np.sum(w, axis=1)


@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_folded_logistic_rule_matches_log_sum_exp_loop(d):
    s = np.array([0.0, 1e-8, 1e-3, 0.3, 1.0, 3.0, 50.0, 1e3])
    X = np.zeros((s.size, d))
    X[:, 0] = s
    for sign in (1.0, -1.0):
        y = np.full(s.size, sign)
        est = posterior_mean(X, y, ModelKind.logistic(), 1.0)
        oracle = _log_sum_exp_mean_t(s, y, d)
        assert np.max(np.abs(est[:, 0] - oracle)) < 1e-14
        assert np.all(est[:, 1:] == 0.0)


def test_logistic_posterior_is_antisymmetric_in_the_report():
    X = np.random.default_rng(5).standard_normal((100, 3))
    ones = np.ones(100)
    up = posterior_mean(X, ones, ModelKind.logistic(), 1.0)
    assert np.array_equal(posterior_mean(X, -ones, ModelKind.logistic(), 1.0), -up)


@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_logistic_posterior_first_order_at_tiny_norm(d):
    # E[t | y, s] = y s E_pi[t^2] + O(s^3); by isotropy E_pi[t^2] is
    # E||theta||^2 / d, with radial density r^(d-1) e^(-d r^2 / 2) on [0, 1]
    r, w = np.polynomial.legendre.leggauss(80)
    r, w = 0.5 * (r + 1.0), 0.5 * w
    radial = w * r ** (d - 1) * np.exp(-0.5 * d * r * r)
    second_moment = np.sum(radial * r * r) / np.sum(radial) / d
    s = 1e-8
    x = np.zeros((1, d))
    x[0, 0] = s
    for y in (1.0, -1.0):
        mean = posterior_mean(x, [y], ModelKind.logistic(), 1.0)
        assert mean[0, 0] == pytest.approx(y * s * second_moment, rel=1e-6)


def test_posterior_extreme_report_inside_ball():
    # the likelihood of a report of 500 peaks at x . theta = log 500, far
    # outside the ball, so the mean sits finite just inside the boundary
    mean = posterior_mean([[1.0]], [500.0], ModelKind.poisson(), 1.0)
    assert np.all(np.isfinite(mean))
    assert 0.99 < np.linalg.norm(mean) < 1.0


def _midpoint_mean_t_d3(s, y, nodes=40_001):
    """E[t | y, s] of a Poisson report at d = 3 by the midpoint rule in phi,
    t = sin(phi). At d = 3 the prior of t is e^(-3 t^2/2) (1 - e^(-3 (1 - t^2)/2)),
    the chi-square CDF with 2 degrees of freedom in closed form."""
    phi = (np.arange(nodes) + 0.5) * (math.pi / nodes) - 0.5 * math.pi
    t, c = np.sin(phi), np.cos(phi)
    log_prior = np.log(c) - 1.5 * t * t + np.log(-np.expm1(-1.5 * c * c))
    out = np.empty(s.size)
    for lo in range(0, s.size, 16):
        a = s[lo : lo + 16, None] * t
        log_post = y[lo : lo + 16, None] * a - np.exp(a) + log_prior
        w = np.exp(log_post - np.max(log_post, axis=1, keepdims=True))
        out[lo : lo + 16] = np.sum(w * t, axis=1) / np.sum(w, axis=1)
    return out


def test_poisson_posterior_of_a_wide_cell_matches_a_fine_midpoint_rule():
    # sigma = 4 covariates: a few percent of the rows take the window rule
    spec = PopulationSpec(n=1000, d=3, model=ModelKind.poisson(),
                          covariates=SubGaussianIsotropic(4.0))
    pop = generate_population(spec, np.random.default_rng(41))
    s = np.linalg.norm(pop.X, axis=1)
    sharp = s * np.sqrt(pop.y_true + 1.0) > mechanism.POISSON_SHARP
    assert 0.02 < np.mean(sharp) < 0.2
    est = posterior_mean(pop.X, pop.y_true, ModelKind.poisson(), 1.0)
    mean_t = np.sum(est * pop.X, axis=1) / s
    assert np.max(np.abs(mean_t - _midpoint_mean_t_d3(s, pop.y_true))) < 1e-8


def _linear_setup(n=400, d=2, seed=0, delta=0.3):
    model = ModelKind.linear(1.0)
    bundle = make_link_bundle(model)
    params = preset_schedule(model, "subgaussian", n, delta, d=d)
    pop = generate_population(
        PopulationSpec(n=n, d=d, model=model), np.random.default_rng([seed, 0])
    )
    reported = apply_strategy(pop, params.tau_threshold, model)
    return model, bundle, params, pop, reported


def test_run_mechanism_contracts():
    model, bundle, params, pop, reported = _linear_setup()
    out = run_mechanism(reported, params, np.random.default_rng(3))
    tau_theta = params.settings.tau_theta
    for theta in (out.theta_bar_full, out.theta_bar_g0, out.theta_bar_g1):
        assert np.linalg.norm(theta) <= tau_theta + 1e-12
    payments = paid(reported, out, params)
    assert payments.shape == (400,)
    assert math.fsum(payments[np.random.default_rng(0).permutation(400)]) == out.budget
    assert sorted(np.unique(out.group_assignment)) == [0, 1]
    assert np.sum(out.group_assignment == 0) == 200
    assert out.account == (2 * params.privacy.epsilon, pytest.approx(
        params.privacy.gamma_n + 2 * params.privacy.gamma_half))
    assert len(out.noise_norms) == 3
    assert all(norm >= 0.0 for norm in out.noise_norms)


def test_run_mechanism_deterministic():
    model, bundle, params, pop, reported = _linear_setup(seed=5)
    a = run_mechanism(reported, params, np.random.default_rng(9))
    b = run_mechanism(reported, params, np.random.default_rng(9))
    assert np.array_equal(a.theta_bar_full, b.theta_bar_full)
    assert a.budget == b.budget
    assert np.array_equal(a.group_assignment, b.group_assignment)


def test_run_mechanism_reads_each_row_once(monkeypatch):
    # the three releases come from one blocked pass: every row enters one QR
    # block, the full release stacks the half factors, and no SVD sees n rows;
    # n is one chunk of CHUNK_ROWS rows plus a partial chunk of 6
    d = 2
    n = 3 * (estimators.BLOCK_ELEMENTS // (d + 1)) + 7
    assert n == estimators.CHUNK_ROWS + 6
    model, bundle, params, pop, reported = _linear_setup(n=n, d=d)
    qr, svd, stack = np.linalg.qr, np.linalg.svd, estimators.stack_factors
    qr_rows, svd_shapes, stacking = [], [], []

    def traced_qr(a, *args, **kwargs):
        if not stacking:
            qr_rows.append(np.shape(a)[0])
        return qr(a, *args, **kwargs)

    def traced_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def traced_stack(*factors):
        stacking.append(len(factors))
        try:
            return stack(*factors)
        finally:
            stacking.pop()

    monkeypatch.setattr(np.linalg, "qr", traced_qr)
    monkeypatch.setattr(np.linalg, "svd", traced_svd)
    monkeypatch.setattr(estimators, "stack_factors", traced_stack)
    monkeypatch.setattr(mechanism, "stack_factors", traced_stack)
    out = run_mechanism(reported, params, np.random.default_rng(3))
    assert sum(qr_rows) == n
    # per half: two blocks in the full chunk, one in the partial chunk if it has rows there
    tail = out.group_assignment[estimators.CHUNK_ROWS:]
    assert len(qr_rows) == 4 + sum(np.any(tail == group) for group in (0, 1))
    assert svd_shapes == [(d, d)] * 3


def test_partition_too_small():
    model = ModelKind.linear(1.0)
    params = preset_schedule(model, "subgaussian", 5, 0.3, d=3)
    tiny = Dataset(np.random.default_rng(0).standard_normal((5, 3)), np.zeros(5))
    with pytest.raises(ConfigError, match=r"n = 5 is below 2d = 6 \(d = 3\)"):
        run_mechanism(tiny, params, np.random.default_rng(0))


def test_heavy_regime_requires_linear_model():
    params = preset_schedule(ModelKind.linear(1.0), "heavy", 400, 0.12, d=2)
    params = replace(params, bundle=make_link_bundle(ModelKind.logistic()))
    data = Dataset(np.random.default_rng(0).standard_normal((400, 2)),
                   np.where(np.random.default_rng(1).random(400) < 0.5, 1.0, -1.0))
    with pytest.raises(ConfigError, match="heavy regime is defined for the linear model only"):
        run_mechanism(data, params, np.random.default_rng(0))


def test_run_mechanism_rejects_params_of_another_n():
    # params resolved at n = 4000 would release noise at the n = 4000 bound
    # (0.097) where 400 agents need the n = 400 bound (0.234)
    model = ModelKind.linear(1.0)
    params = preset_schedule(model, "subgaussian", 4000, 0.3, d=2)
    assert params.n == 4000
    assert params.privacy.delta_n == pytest.approx(0.0975, abs=5e-4)
    assert preset_schedule(model, "subgaussian", 400, 0.3, d=2).privacy.delta_n == pytest.approx(
        0.2335, abs=5e-4)
    _, _, _, _, reported = _linear_setup(n=400)
    with pytest.raises(ConfigError, match="resolved at n = 4000 cannot run 400 agents"):
        run_mechanism(reported, params, np.random.default_rng(0))


def _recompute_payment(reported, i, out, bundle, params):
    """Agent i's payment from its own row and index and the opposite release alone."""
    opposite = out.theta_bar_g1 if out.group_assignment[i] == 0 else out.theta_bar_g0
    X = reported.X[i : i + 1]
    mean = posterior_mean(X, reported.y[i : i + 1], bundle.model, params.settings.tau_theta)
    x_pay = design(X, bundle.model, params.settings)
    p, q = predictions(x_pay, opposite, bundle), predictions(x_pay, mean, bundle)
    return brier_payment(params.a1, params.a2, p, q)[0]


def test_group_blinding_recompute_linear():
    model, bundle, params, pop, reported = _linear_setup(seed=6)
    out = run_mechanism(reported, params, np.random.default_rng(11))
    payments = paid(reported, out, params)
    rng = np.random.default_rng(1)
    for i in rng.choice(400, size=30, replace=False):
        assert _recompute_payment(reported, int(i), out, bundle, params) == payments[i]


def test_group_blinding_recompute_quadrature():
    model = ModelKind.logistic()
    bundle = make_link_bundle(model)
    params = preset_schedule(model, "subgaussian", 60, 0.3, d=2)
    pop = generate_population(
        PopulationSpec(n=60, d=2, model=model), np.random.default_rng(21)
    )
    reported = apply_strategy(pop, params.tau_threshold, model)
    out = run_mechanism(reported, params, np.random.default_rng(23))
    payments = paid(reported, out, params)
    for i in (0, 7, 31, 59):
        assert _recompute_payment(reported, i, out, bundle, params) == payments[i]


# family -> (model, regime, schedule delta, covariates)
_PROPERTY_CASES = {
    "linear": (ModelKind.linear(1.0), "subgaussian", 0.3, SubGaussianIsotropic()),
    "logistic": (ModelKind.logistic(), "subgaussian", 0.3, SubGaussianIsotropic()),
    "poisson": (ModelKind.poisson(), "subgaussian", 0.26, SubGaussianIsotropic()),
    "heavy": (ModelKind.linear(1.0), "heavy", 0.12, StudentTCovariates(5.0)),
}


def _property_case(family, n, seed):
    model, regime, delta, covariates = _PROPERTY_CASES[family]
    params = preset_schedule(model, regime, n, delta, d=2)
    spec = PopulationSpec(n=n, d=2, model=model, covariates=covariates)
    pop = generate_population(spec, np.random.default_rng([seed, 0]))
    return params, pop


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(_PROPERTY_CASES)),
    n=st.integers(40, 120),
    agent=st.integers(0, 119),
    report=st.integers(0, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_group_blinding_property(family, n, agent, report, seed):
    # changing agent i's report, with the mechanism's stream fixed, leaves the
    # payment of every other agent in i's group bit-identical
    params, pop = _property_case(family, n, seed)
    i = agent % n
    y = pop.y_true.copy()
    if family == "logistic":
        y[i] = -y[i]
    elif family == "poisson":
        y[i] = float(report)
    else:
        y[i] += report - 1.5
    truthful, deviated = Dataset(pop.X, pop.y_true), Dataset(pop.X, y)
    base = run_mechanism(truthful, params, np.random.default_rng(seed))
    moved = run_mechanism(deviated, params, np.random.default_rng(seed))
    assert np.array_equal(base.group_assignment, moved.group_assignment)
    peers = base.group_assignment == base.group_assignment[i]
    peers[i] = False
    assert np.array_equal(paid(truthful, base, params)[peers], paid(deviated, moved, params)[peers])


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(_PROPERTY_CASES)),
    n=st.integers(40, 400),
    seed=st.integers(0, 2**31 - 1),
)
def test_payment_and_budget_bounds_property(family, n, seed):
    # |p|, |q| <= m_A bounds every payment by a1 + a2 (m_A + m_A^2) and the
    # budget by budget_bound. The heavy design holds |x . theta| <= m_A by
    # construction; the sub-Gaussian bound holds on the event ||x|| <= tau1,
    # so there the covariates are projected onto that ball.
    params, pop = _property_case(family, n, seed)
    s = params.settings
    X = pop.X if s.regime == "heavy" else project_ball(pop.X, s.tau1)
    m_a = params.m_a
    data = Dataset(X, pop.y_true)
    out = run_mechanism(data, params, np.random.default_rng(seed))
    cap = params.a1 + params.a2 * (m_a + m_a * m_a)
    assert np.all(paid(data, out, params) <= cap * (1 + 1e-12))
    assert out.budget <= budget_bound(n, params.a1, params.a2, m_a) * (1 + 1e-12)


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(_PROPERTY_CASES)),
    n=st.integers(40, 400),
    seed=st.integers(0, 2**31 - 1),
)
def test_rationality_at_floor_property(family, n, seed):
    # a1 sits exactly at rationality_floor, which covers the worst Brier loss
    # a2 (m_A + 3 m_A^2) and the largest privacy cost tau F(2 eps, gamma) of a
    # below-threshold agent; on the event ||x|| <= tau1 (projected, as above)
    # every such agent has nonnegative utility
    params, pop = _property_case(family, n, seed)
    s = params.settings
    X = pop.X if s.regime == "heavy" else project_ball(pop.X, s.tau1)
    data = Dataset(X, pop.y_true)
    out = run_mechanism(data, params, np.random.default_rng(seed))
    payments = paid(data, out, params)
    frac = rationality_fraction(
        payments, out.account, pop.costs, params.cost_exponent, params.tau_threshold)
    assert frac == 1.0


def test_poisson_report_in_prior_tail_pays_every_agent():
    # one agent reports 12, which the prior finds very unlikely; every agent
    # is still paid, within the payment bound
    params, pop = _property_case("poisson", 55, 94792)
    s = params.settings
    assert pop.y_true.max() == 12.0
    data = Dataset(project_ball(pop.X, s.tau1), pop.y_true)
    out = run_mechanism(data, params, np.random.default_rng(94792))
    m_a = params.m_a
    payments = paid(data, out, params)
    assert payments.shape == (55,)
    assert np.all(np.isfinite(payments))
    assert np.all(payments <= params.a1 + params.a2 * (m_a + m_a * m_a))


def test_payment_form_spot_check():
    model, bundle, params, pop, reported = _linear_setup(seed=8)
    out = run_mechanism(reported, params, np.random.default_rng(31))
    rng = np.random.default_rng(2)
    idx = rng.choice(400, size=100, replace=False)
    p, q = recomputed_predictions(reported, idx, out, params)
    direct = brier_payment(params.a1, params.a2, p, q)
    assert np.array_equal(direct, paid(reported, out, params)[idx])


def test_heavy_mechanism_uses_shrunk_covariates():
    model = ModelKind.linear(1.0)
    bundle = make_link_bundle(model)
    params = preset_schedule(model, "heavy", 200, 0.12, d=2)
    pop = generate_population(
        PopulationSpec(n=200, d=2, model=model, covariates=StudentTCovariates(5.0)),
        np.random.default_rng(41),
    )
    reported = apply_strategy(pop, params.tau_threshold, model)
    out = run_mechanism(reported, params, np.random.default_rng(43))
    xs = l4_shrink_rows(reported.X, params.settings.tau1)
    assert not np.array_equal(xs[32], reported.X[32])  # agent 32's row shrinks, agent 5's not
    idx = np.array([5, 32])
    p, q = recomputed_predictions(reported, idx, out, params)
    assert np.array_equal(brier_payment(params.a1, params.a2, p, q), paid(reported, out, params)[idx])
    for k, i in enumerate(idx):
        opposite = out.theta_bar_g1 if out.group_assignment[i] == 0 else out.theta_bar_g0
        assert p[k] == pytest.approx(float(xs[i] @ opposite), abs=1e-15)


def test_rationality_at_floor_and_negative_control():
    model, bundle, params, pop, reported = _linear_setup(n=2000, seed=12)
    out = run_mechanism(reported, params, np.random.default_rng(51))
    frac = rationality_fraction(paid(reported, out, params), out.account, pop.costs,
                                params.cost_exponent, params.tau_threshold)
    assert frac == 1.0

    broke = replace(params, a1=0.0)
    out0 = run_mechanism(reported, broke, np.random.default_rng(51))
    frac0 = rationality_fraction(paid(reported, out0, broke), out0.account, pop.costs,
                                 broke.cost_exponent, broke.tau_threshold)
    assert frac0 < 1.0


def test_rationality_with_vanishing_cost_function():
    model, bundle, params, pop, reported = _linear_setup(seed=13)
    # agents of zero cost bear no privacy cost; payments floored by a1 stay >= 0
    out = run_mechanism(reported, params, np.random.default_rng(52))
    frac = rationality_fraction(paid(reported, out, params), out.account,
                                np.zeros_like(pop.costs), params.cost_exponent, math.inf)
    assert frac == 1.0


def test_budget_bound_formula():
    assert budget_bound(10, 0.0, 0.0, 3.0) == 0.0
    assert budget_bound(100, 0.5, 0.25, 2.0) == pytest.approx(100 * (0.5 + 0.25 * 6.0))
    assert budget_bound(200, 0.5, 0.25, 2.0) == pytest.approx(2 * budget_bound(100, 0.5, 0.25, 2.0))
    with pytest.raises(ConfigError):
        budget_bound(10, -1.0, 0.0, 1.0)


def test_realized_budget_below_bound():
    model, bundle, params, pop, reported = _linear_setup(n=600, seed=14)
    out = run_mechanism(reported, params, np.random.default_rng(61))
    assert out.budget <= budget_bound(600, params.a1, params.a2, params.m_a)


def test_schedule_values_linear():
    n = 10**4
    params = preset_schedule(ModelKind.linear(1.0), "subgaussian", n, 0.3, d=3)
    assert params.privacy.epsilon == pytest.approx(n**-0.3, rel=1e-12)
    assert params.privacy.epsilon == pytest.approx(0.0631, abs=5e-5)
    assert params.settings.tau2 == pytest.approx(n**0.05, rel=1e-12)
    assert params.settings.tau2 == pytest.approx(1.585, abs=5e-4)
    assert params.alpha == pytest.approx(n**-0.9, rel=1e-12)
    assert params.a2 == pytest.approx(n**-1.2, rel=1e-12)
    assert params.cost_exponent == 4
    # a1 sits exactly on the rationality floor
    floor = rationality_floor(
        params.a2, params.m_a, params.tau_threshold, params.cost_exponent,
        (2 * params.privacy.epsilon, params.privacy.gamma_n + 2 * params.privacy.gamma_half),
    )
    assert params.a1 == pytest.approx(floor, rel=1e-12)
    assert params.a1 >= floor - 1e-15


def test_schedule_values_heavy():
    n = 10**4
    params = preset_schedule(ModelKind.linear(1.0), "heavy", n, 0.12, d=3)
    assert params.settings.tau1 == pytest.approx((n / math.log(n)) ** 0.25, rel=1e-12)
    assert params.settings.tau1 == pytest.approx(5.74, abs=5e-3)
    assert params.settings.tau2 == pytest.approx(2.40, abs=5e-3)
    assert params.privacy.epsilon == pytest.approx(n**-0.12, rel=1e-12)
    assert params.alpha == pytest.approx(n**-0.88, rel=1e-12)
    assert params.a2 == pytest.approx(n ** (-0.5 - 9 * 0.12), rel=1e-12)
    assert params.cost_exponent == 9
    assert params.settings.regime == "heavy"


@pytest.mark.parametrize("family, regime, lo, hi, subset", [
    ("linear", "subgaussian", 0.25, 1.0 / 3.0, (-math.inf, math.inf)),
    ("logistic", "subgaussian", 0.25, 0.5, (-0.8, 0.8)),
    ("poisson", "subgaussian", 0.25, 1.0 / 3.0, (0.1, math.inf)),
    ("linear", "heavy", 1.0 / 9.0, 1.0 / 8.0, (-math.inf, math.inf)),
], ids=["linear", "logistic", "poisson", "heavy"])
def test_schedule_delta_range_and_subset(family, regime, lo, hi, subset):
    # each delta range is closed on the left, open on the right; the subsets
    # at n = 10^4 and the left endpoint (1/4 but for the heavy regime's 1/9)
    # are -1 + 2 n^-delta, 1 - 2 n^-delta (logistic) and n^-delta (Poisson),
    # and responses project onto them by clamping
    model = ModelKind(family)
    name = "heavy" if regime == "heavy" else family
    preset_schedule(model, regime, 100, lo, d=2)
    with pytest.raises(ConfigError, match=f"outside the {name} schedule range"):
        preset_schedule(model, regime, 100, hi, d=2)
    polytope = preset_schedule(model, regime, 10**4, lo, d=2).settings.polytope
    assert (polytope.lower, polytope.upper) == pytest.approx(subset, abs=1e-12)
    y = np.array([-1.0, 0.0, 1.0, 3.0])
    assert project_polytope(y, polytope) == pytest.approx(np.clip(y, *subset), abs=1e-12)


_SCHEDULES = {
    "linear": (ModelKind.linear(1.0), "subgaussian", 0.3),
    "logistic": (ModelKind.logistic(), "subgaussian", 0.3),
    "poisson": (ModelKind.poisson(), "subgaussian", 0.26),
    "heavy": (ModelKind.linear(1.0), "heavy", 0.12),
}


@pytest.mark.parametrize("name", sorted(_SCHEDULES))
def test_schedule_resolves_the_links_once(monkeypatch, name):
    # one make_link_bundle and one compute_link_constants per schedule, whichever
    # privglm module binds the names; the parameters carry what they resolved
    model, regime, delta = _SCHEDULES[name]
    modules = [importlib.import_module(f"privglm.{m.name}")
               for m in pkgutil.iter_modules(privglm.__path__)]
    calls = []
    for fn in (links.compute_link_constants, links.make_link_bundle):
        def counted(*args, _fn=fn):
            calls.append(_fn.__name__)
            return _fn(*args)

        for module in modules:
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    n, d = 10**4, 3
    params = preset_schedule(model, regime, n, delta, d=d)
    assert sorted(calls) == ["compute_link_constants", "make_link_bundle"]
    monkeypatch.undo()
    s = params.settings
    assert params.bundle == make_link_bundle(model)
    assert params.constants == links.compute_link_constants(
        params.bundle, s.polytope, s.tau1, s.tau2, s.tau_theta
    )
    if regime == "heavy":
        assert params.m_a == d ** 0.25 * s.tau1 * s.tau_theta
    else:
        assert params.m_a == params.constants.m_a


def test_schedule_delta_validation():
    preset_schedule(ModelKind.logistic(), "subgaussian", 1000, 0.45, d=2)
    with pytest.raises(ConfigError):
        preset_schedule(ModelKind.logistic(), "subgaussian", 1000, 0.6, d=2)
    with pytest.raises(ConfigError):
        preset_schedule(ModelKind.linear(1.0), "subgaussian", 1000, 0.35, d=2)
    with pytest.raises(ConfigError):
        preset_schedule(ModelKind.poisson(), "subgaussian", 1000, 0.34, d=2)
    with pytest.raises(ConfigError):
        preset_schedule(ModelKind.linear(1.0), "heavy", 1000, 0.13, d=2)
    with pytest.raises(ConfigError):
        preset_schedule(ModelKind.poisson(), "heavy", 1000, 0.12, d=2)


def test_schedule_resolves_release_sensitivities():
    # the full release's sensitivity is the regime's bound at n, each half's at n // 2
    model = ModelKind.linear(1.0)
    for regime, n, delta, c0 in (
        ("subgaussian", 500, 0.3, 1.0), ("subgaussian", 501, 0.3, 2.5), ("heavy", 777, 0.12, 0.4),
    ):
        params = preset_schedule(model, regime, n, delta, d=2, c0=c0)
        for size, got in ((n, params.privacy.delta_n), (n // 2, params.privacy.delta_half)):
            assert got == sensitivity_bound(size, 2, regime, params.constants.kappa1, c0)


def test_mechanism_params_validation():
    settings = EstimatorSettings(tau1=1.0, tau2=1.0, tau_theta=1.0)
    links = dict(bundle=make_link_bundle(ModelKind.linear(1.0)),
                 constants=LinkConstants(1.0, 1.0, 1.0, 1.0, 0.0), m_a=1.0)
    with pytest.raises(ConfigError):
        MechanismParams(
            n=100, privacy=PrivacyParams(0.5, 1.0, 1.0), settings=settings, a1=1.0, a2=1.0,
            alpha=0.0, beta=0.5, tau_threshold=1.0, cost_exponent=4, **links,
        )
    with pytest.raises(ConfigError):
        MechanismParams(
            n=100, privacy=PrivacyParams(0.5, 1.0, 1.0), settings=settings, a1=-1.0, a2=1.0,
            alpha=0.5, beta=0.5, tau_threshold=1.0, cost_exponent=4, **links,
        )


@pytest.mark.parametrize("field, value", [
    ("a1", math.inf), ("a2", math.inf), ("m_a", math.inf), ("a1", math.nan), ("m_a", math.nan),
])
def test_mechanism_params_refuse_non_finite_payment_parameters(field, value):
    params = preset_schedule(ModelKind.linear(1.0), "subgaussian", 1000, 0.3, d=2)
    with pytest.raises(ConfigError, match="payment parameters must be finite"):
        replace(params, **{field: value})


@pytest.mark.parametrize("regime, delta", [("subgaussian", 0.3), ("heavy", 0.12)])
def test_schedule_refuses_an_overflowing_rationality_floor(regime, delta):
    # tau_theta^2 = 1e308 is finite, but m_A > 1.34e154 at n = 1000, d = 3, so
    # the m_A^2 of a1 = rationality_floor overflows to inf
    with pytest.raises(ConfigError, match=r"payment parameters must be finite: a1 = inf"):
        preset_schedule(ModelKind.linear(1.0), regime, 1000, delta, d=3, tau_theta=1e154)
