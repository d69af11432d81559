import math

import numpy as np
import pytest

from privglm.errors import ConfigError, LinkDomainError, SingularGramError
from privglm.estimators import (
    _BLOCK_ELEMENTS,
    COND_CAP,
    Dataset,
    EstimatorSettings,
    check_responses,
    empirical_sensitivity,
    estimate,
    l4_shrink_rows,
    rows_inner,
    sensitivity_bound_heavy,
    sensitivity_bound_subgaussian,
    solve_factor,
    stack_factors,
    triangular_factor,
)
from privglm.links import ModelKind, PolytopeSpec, make_link_bundle, preset_polytope
from privglm.mechanism import project_ball

LIN = make_link_bundle(ModelKind.linear(1.0))


def wide_settings(tau2=1e9, regime="subgaussian", polytope=None):
    return EstimatorSettings(
        tau1=1e6,
        tau2=tau2,
        tau_theta=1e6,
        polytope=polytope or PolytopeSpec(),
        regime=regime,
    )


def normal_equations(X, z):
    """Independent oracle: solve the normal equations directly."""
    return np.linalg.solve(X.T @ X, X.T @ z)


def test_identity_design():
    data = Dataset(np.eye(2), np.array([1.0, 2.0]))
    est = estimate(data, LIN, wide_settings(tau2=10.0))
    assert np.allclose(est, [1.0, 2.0], atol=1e-14)


def test_matches_least_squares_oracle():
    rng = np.random.default_rng(42)
    for trial in range(50):
        d = 1 + trial % 5
        X = rng.standard_normal((200, d))
        y = rng.standard_normal(200) * 3
        est = estimate(Dataset(X, y), LIN, wide_settings())
        oracle = normal_equations(X, y)
        assert np.linalg.norm(est - oracle) <= 1e-10 * max(1.0, np.linalg.norm(oracle))


def test_poisson_all_zero_responses():
    rng = np.random.default_rng(3)
    n = 10**4
    X = rng.standard_normal((n, 3))
    data = Dataset(X, np.zeros(n))
    bundle = make_link_bundle(ModelKind.poisson())
    settings = EstimatorSettings(
        tau1=5.0,
        tau2=10.0,
        tau_theta=5.0,
        polytope=preset_polytope(ModelKind.poisson(), n, 0.25),
        regime="subgaussian",
    )
    est = estimate(data, bundle, settings)
    # every response projects to n^-0.25 = 0.1, so the target is log(0.1)
    oracle = normal_equations(X, np.full(n, math.log(0.1)))
    assert np.allclose(est, oracle, atol=1e-12)


def test_poisson_polytope_touching_zero_breaks_domain():
    data = Dataset(np.ones((4, 1)), np.zeros(4))
    bundle = make_link_bundle(ModelKind.poisson())
    settings = EstimatorSettings(
        tau1=1.0, tau2=5.0, tau_theta=1.0, polytope=PolytopeSpec(0.0, math.inf)
    )
    with pytest.raises(LinkDomainError):
        estimate(data, bundle, settings)


def test_singular_design_raises():
    X = np.ones((10, 2))  # duplicate columns
    with pytest.raises(SingularGramError):
        estimate(Dataset(X, np.ones(10)), LIN, wide_settings())


def _block_rows(d):
    """Rows in one block of the QR factorisation of [X | z]."""
    return _BLOCK_ELEMENTS // (d + 1)


def _factor_sizes():
    for d in (1, 3, 10):
        b = _block_rows(d)
        for m in (d, d + 1, b - 1, b, b + 1, 3 * b + 5):
            yield d, m


@pytest.mark.parametrize("d,m", list(_factor_sizes()))
def test_factor_solve_matches_lstsq(d, m):
    rng = np.random.default_rng([d, m])
    X = rng.standard_normal((m, d))
    z = X @ rng.standard_normal(d) + rng.standard_normal(m)
    oracle = np.linalg.lstsq(X, z, rcond=None)[0]
    est = solve_factor(triangular_factor(X, z))
    assert np.linalg.norm(est - oracle) <= 1e-10 * np.linalg.norm(oracle)
    # the same rows as a subset of a taller design, gathered in shuffled order
    Xt = np.vstack([X, rng.standard_normal((m, d))])
    zt = np.concatenate([z, rng.standard_normal(m)])
    rows = rng.permutation(2 * m)
    rows = rows[rows < m]
    est = solve_factor(triangular_factor(Xt, zt, rows))
    assert np.linalg.norm(est - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_stacked_half_factors_match_all_rows():
    d = 3
    m = 2 * _block_rows(d) + 11
    rng = np.random.default_rng(31)
    X = rng.standard_normal((m, d)) * [1.0, 5.0, 0.2]
    z = rng.standard_normal(m)
    half = rng.permutation(m) < m // 2
    R0, R1 = (triangular_factor(X, z, np.flatnonzero(half == g)) for g in (0, 1))
    oracle = np.linalg.lstsq(X, z, rcond=None)[0]
    for R in (stack_factors(R0, R1), triangular_factor(X, z)):
        assert R.shape == (d + 1, d + 1)
        est = solve_factor(R)
        assert np.linalg.norm(est - oracle) <= 1e-10 * np.linalg.norm(oracle)


@pytest.mark.parametrize("m", [7, 2 * _block_rows(4) + 3])
def test_factor_keeps_singular_values(m):
    # cond(R11) = cond(X): the condition cap sees the design itself
    d = 4
    rng = np.random.default_rng(m)
    X = rng.standard_normal((m, d)) * [1e3, 1.0, 1e-2, 1e-4]
    R = triangular_factor(X, rng.standard_normal(m))
    s = np.linalg.svd(R[:d, :d], compute_uv=False)
    oracle = np.linalg.svd(X, compute_uv=False)
    assert np.allclose(s, oracle, rtol=1e-12, atol=0)


def test_stacked_solve_factor_matches_per_trial():
    k, m, d = 7, 30, 3
    rng = np.random.default_rng(61)
    stack = rng.standard_normal((k, m, d + 1)) * [1e2, 1.0, 1e-2, 1.0]
    R = np.linalg.qr(stack, mode="r")
    stacked = solve_factor(R)
    assert stacked.shape == (k, d)
    for t in range(k):
        single = solve_factor(R[t])
        assert np.allclose(stacked[t], single, rtol=1e-13, atol=0)
        lstsq = np.linalg.lstsq(stack[t, :, :d], stack[t, :, d], rcond=None)[0]
        assert np.allclose(stacked[t], lstsq, rtol=1e-10, atol=0)

    # one trial with a zero column or an all-zero design, or with two
    # near-collinear columns, fails the stack
    for zero in (1, slice(None, d)):
        rank_deficient = stack.copy()
        rank_deficient[3, :, zero] = 0.0
        with pytest.raises(SingularGramError):
            solve_factor(np.linalg.qr(rank_deficient, mode="r"))
    # one trial's design shrunk in one column to cond(X) of about 1e11 passes
    # the cap, and to about 1e13 fails the stack
    for shrink, over in ((1e-7, False), (1e-9, True)):
        ill = stack.copy()
        ill[5, :, 2] *= shrink
        cond = np.linalg.cond(ill[5, :, :d])
        assert 0.01 * COND_CAP < cond < 100 * COND_CAP and (cond > COND_CAP) == over
        R = np.linalg.qr(ill, mode="r")
        if over:
            with pytest.raises(SingularGramError, match="exceeds cap"):
                solve_factor(R)
        else:
            assert solve_factor(R).shape == (k, d)


def test_rows_inner_bit_equal_to_sequential_loop():
    d = 3
    n = 2 * (_BLOCK_ELEMENTS // d) + 5  # three row blocks, the last one short
    rng = np.random.default_rng(32)
    A = rng.standard_normal((n, d))
    B = rng.standard_normal((n, d))
    v = rng.standard_normal(d)

    def loop(a_rows, b_rows):
        out = np.empty(len(a_rows))
        for i, (a, b) in enumerate(zip(a_rows, b_rows)):
            acc = a[0] * b[0]
            for j in range(1, d):
                acc = acc + a[j] * b[j]
            out[i] = acc
        return out

    assert np.array_equal(rows_inner(A, B), loop(A, B))
    assert np.array_equal(rows_inner(A, v), loop(A, [v] * n))
    # a single row broadcast against many, as the payments use it
    assert np.array_equal(rows_inner(A[:1], B), loop([A[0]] * n, B))
    assert np.array_equal(rows_inner(A[:1], B[:1]), loop(A[:1], B[:1]))
    assert np.array_equal(rows_inner(A[:7], v), loop(A[:7], [v] * 7))


def test_l4_shrink_rows_matches_power_sum():
    rng = np.random.default_rng(33)
    X = rng.standard_t(3.0, (_BLOCK_ELEMENTS // 5 + 9, 5))
    X[3] = 0.0
    norms = np.sum(X ** 4, axis=1) ** 0.25
    scale = np.where(norms > 1.3, 1.3 / np.where(norms > 0, norms, 1.0), 1.0)
    oracle = X * scale[:, None]
    assert np.allclose(l4_shrink_rows(X, 1.3), oracle, rtol=1e-14, atol=0)


def l4_oracle(x, tau1):
    nrm = np.linalg.norm(x, ord=4)
    if nrm == 0 or nrm <= tau1:
        return np.asarray(x, dtype=float)
    return np.asarray(x, dtype=float) * (tau1 / nrm)


def shrink_one(x, tau1):
    return l4_shrink_rows(np.asarray(x, dtype=float)[None, :], tau1)[0]


def test_l4_shrink_all_ones():
    x = np.ones(4)
    out = shrink_one(x, 1.0)
    # l4 norm of (1,1,1,1) is 4^(1/4); each coordinate becomes 1 / 4^(1/4)
    expected = l4_oracle(x, 1.0)
    assert np.allclose(out, expected, atol=1e-14)
    assert out[0] == pytest.approx(4.0 ** -0.25, abs=1e-14)


def test_l4_shrink_contract():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.standard_cauchy(rng.integers(1, 7))
        tau1 = float(rng.uniform(0.1, 3.0))
        out = shrink_one(x, tau1)
        assert np.linalg.norm(out, ord=4) <= tau1 + 1e-12 or np.allclose(out, x)
        assert np.allclose(out, l4_oracle(x, tau1), atol=1e-12)
        nx, no = np.linalg.norm(x), np.linalg.norm(out)
        if nx > 0 and no > 0:
            assert float(x @ out) / (nx * no) >= 1 - 1e-12
    assert np.array_equal(shrink_one(np.zeros(3), 1.0), np.zeros(3))
    small = np.array([0.1, -0.2])
    assert np.array_equal(shrink_one(small, 5.0), small)


def test_l4_shrink_rows_matches_single():
    # a row shrinks bit-identically alone, inside the batch and inside any row subset
    rng = np.random.default_rng(12)
    X = rng.standard_normal((40, 3)) * 5
    rows = l4_shrink_rows(X, 1.3)
    for i in range(40):
        assert np.array_equal(rows[i], shrink_one(X[i], 1.3))
    subset = rng.permutation(40)[:17]
    assert np.array_equal(l4_shrink_rows(X[subset], 1.3), rows[subset])


def test_heavy_estimate_matches_oracle_when_inactive():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((120, 3)) * 0.2
    y = rng.standard_normal(120)
    settings = wide_settings(tau2=1e6, regime="heavy")
    est = estimate(Dataset(X, y), LIN, settings)
    assert np.allclose(est, normal_equations(X, y), atol=1e-10)


def test_heavy_estimate_identity_design():
    data = Dataset(np.eye(2), np.array([1.0, 2.0]))
    settings = EstimatorSettings(tau1=5.0, tau2=10.0, tau_theta=10.0, regime="heavy")
    assert np.allclose(estimate(data, LIN, settings), [1.0, 2.0], atol=1e-14)


def test_heavy_estimate_shrinks_outlier():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((60, 2))
    X[0] = [500.0, -900.0]
    y = rng.standard_normal(60)
    settings = EstimatorSettings(tau1=2.0, tau2=5.0, tau_theta=10.0, regime="heavy")
    est = estimate(Dataset(X, y), LIN, settings)
    Xs = np.vstack([l4_oracle(row, 2.0) for row in X])
    oracle = normal_equations(Xs, np.clip(y, -5.0, 5.0))
    assert np.allclose(est, oracle, atol=1e-10)


def test_heavy_estimate_is_linear_estimate_on_shrunk_design():
    # the heavy regime is the sub-Gaussian linear estimator on l4-shrunk rows, bit for bit
    rng = np.random.default_rng(16)
    X = rng.standard_t(5.0, (300, 4))
    y = X @ np.array([0.3, -0.2, 0.1, 0.4]) + rng.standard_t(5.0, 300)
    heavy = EstimatorSettings(tau1=1.7, tau2=2.5, tau_theta=1.0, regime="heavy")
    sub = EstimatorSettings(tau1=1.7, tau2=2.5, tau_theta=1.0)
    shrunk = estimate(Dataset(l4_shrink_rows(X, 1.7), y), LIN, sub)
    assert np.array_equal(estimate(Dataset(X, y), LIN, heavy), shrunk)
    with pytest.raises(ConfigError):
        estimate(Dataset(X, np.sign(y)), make_link_bundle(ModelKind.logistic()), heavy)


def test_project_ball():
    theta = np.array([0.1, -0.2])
    assert np.array_equal(project_ball(theta, 1.0), theta)
    assert np.allclose(project_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], atol=1e-14)
    # rows project independently, bit-identically to one row at a time
    rows = np.random.default_rng(14).standard_normal((50, 3)) * 2
    batch = project_ball(rows, 1.0)
    assert np.array_equal(batch, np.vstack([project_ball(r, 1.0) for r in rows]))
    assert np.all(np.linalg.norm(batch, axis=1) <= 1.0 + 1e-12)


def test_project_ball_nonexpansive():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        w1 = rng.standard_normal(3) * 4
        w2 = rng.standard_normal(3) * 4
        d_proj = np.linalg.norm(project_ball(w1, 1.0) - project_ball(w2, 1.0))
        assert d_proj <= np.linalg.norm(w1 - w2) + 1e-12


def test_sensitivity_bound_subgaussian_values():
    b = sensitivity_bound_subgaussian(10**4, 4, 1.0, 1.0)
    assert b.delta_n == pytest.approx(math.sqrt(4 * math.log(10**4) / 10**4), rel=1e-12)
    assert b.delta_n == pytest.approx(0.0607, abs=5e-5)
    doubled = sensitivity_bound_subgaussian(10**4, 4, 2.0, 1.0)
    assert doubled.delta_n == pytest.approx(2 * b.delta_n, rel=1e-12)
    vals = [sensitivity_bound_subgaussian(n, 4, 1.0, 1.0).delta_n for n in range(3, 400)]
    assert all(a > b2 for a, b2 in zip(vals, vals[1:]))


def test_sensitivity_bound_heavy_values():
    b = sensitivity_bound_heavy(10**4, 1, 1.0)
    assert b.delta_n == pytest.approx((math.log(10**4) / 10**4) ** 0.125, rel=1e-12)
    assert b.delta_n == pytest.approx(0.417, abs=5e-4)
    ratio = sensitivity_bound_heavy(10**4, 16, 1.0).delta_n / b.delta_n
    assert ratio == pytest.approx(8.0, rel=1e-12)
    vals = [sensitivity_bound_heavy(n, 2, 1.0).delta_n for n in range(3, 400)]
    assert all(a > b2 for a, b2 in zip(vals, vals[1:]))


def test_empirical_sensitivity_zero_variance():
    X = np.ones((6, 1))
    y = np.full(6, 2.0)
    settings = wide_settings(tau2=10.0)

    def same(rng):
        return np.array([1.0]), 2.0

    assert empirical_sensitivity(Dataset(X, y), LIN, settings, 20, 7, same) == 0.0


def test_empirical_sensitivity_matches_enumeration():
    X = np.array([[1.0], [1.0], [1.0]])
    y = np.array([0.0, 1.0, 2.0])
    data = Dataset(X, y)
    settings = wide_settings(tau2=10.0)
    values = [0.0, 1.0, 2.0]

    base = float(np.mean(y))
    exhaustive = max(
        abs(base - float(np.mean(np.concatenate([np.delete(y, i), [v]]))))
        for i in range(3)
        for v in values
    )

    def draw(rng):
        return np.array([1.0]), float(rng.choice(values))

    est = empirical_sensitivity(data, LIN, settings, 300, 123, draw)
    assert est == pytest.approx(exhaustive, abs=1e-14)


def test_empirical_sensitivity_deterministic_given_seed():
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((30, 2)), rng.standard_normal(30))
    settings = wide_settings(tau2=5.0)

    def draw(r):
        return r.standard_normal(2), float(r.standard_normal())

    a = empirical_sensitivity(data, LIN, settings, 25, 99, draw)
    b = empirical_sensitivity(data, LIN, settings, 25, 99, draw)
    assert a == b


def test_permutation_invariance():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((80, 3))
    y = rng.standard_normal(80)
    perm = rng.permutation(80)
    s_sub = wide_settings(tau2=4.0)
    s_heavy = EstimatorSettings(tau1=1.5, tau2=2.0, tau_theta=5.0, regime="heavy")
    a = estimate(Dataset(X, y), LIN, s_sub)
    b = estimate(Dataset(X[perm], y[perm]), LIN, s_sub)
    assert np.allclose(a, b, atol=1e-12)
    a = estimate(Dataset(X, y), LIN, s_heavy)
    b = estimate(Dataset(X[perm], y[perm]), LIN, s_heavy)
    assert np.allclose(a, b, atol=1e-12)


def test_clipping_monotone_convergence():
    # signed data can cancel non-monotonically, so the monotonicity claim is
    # exercised where it is well posed: positive covariates and responses,
    # where each clipped residual shrinks pointwise as tau2 grows
    rng = np.random.default_rng(22)
    x = rng.uniform(0.5, 1.5, 200)[:, None]
    y = np.abs(rng.standard_normal(200)) * 2
    unclipped = estimate(Dataset(x, y), LIN, wide_settings())
    errs = []
    for tau2 in np.linspace(0.3, float(np.max(np.abs(y))), 12):
        est = estimate(Dataset(x, y), LIN, wide_settings(tau2=tau2))
        errs.append(float(np.linalg.norm(est - unclipped)))
    assert all(a >= b - 1e-9 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-12
    # a general signed instance still converges once tau2 clears max |y|
    X = rng.standard_normal((150, 2))
    y2 = rng.standard_normal(150) * 2
    full = estimate(Dataset(X, y2), LIN, wide_settings())
    capped = estimate(
        Dataset(X, y2), LIN, wide_settings(tau2=float(np.max(np.abs(y2))))
    )
    assert np.allclose(capped, full, atol=1e-12)


def test_scale_consistency():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((100, 3))
    y = rng.standard_normal(100)
    c = 3.7
    base = estimate(Dataset(X, y), LIN, wide_settings())
    scaled = estimate(Dataset(X, c * y), LIN, wide_settings())
    assert np.linalg.norm(scaled - c * base) < 1e-10 * np.linalg.norm(c * base)
    h = EstimatorSettings(tau1=1e6, tau2=1e9, tau_theta=1e6, regime="heavy")
    hb = estimate(Dataset(X, y), LIN, h)
    hs = estimate(Dataset(X, c * y), LIN, h)
    assert np.linalg.norm(hs - c * hb) < 1e-10 * np.linalg.norm(c * hb)


def test_dataset_validation():
    with pytest.raises(ConfigError):
        Dataset(np.ones((2, 3)), np.ones(2))  # n < d
    with pytest.raises(ConfigError):
        Dataset(np.array([[np.inf], [1.0]]), np.ones(2))
    with pytest.raises(ConfigError):
        Dataset(np.ones((3, 1)), np.ones(4))


def test_check_responses():
    check_responses(np.array([-1.0, 1.0]), ModelKind.logistic())
    with pytest.raises(ConfigError):
        check_responses(np.array([0.5, 1.0]), ModelKind.logistic())
    check_responses(np.array([0.0, 4.0]), ModelKind.poisson())
    with pytest.raises(ConfigError):
        check_responses(np.array([1.5, 1.0]), ModelKind.poisson())


def test_settings_validation():
    with pytest.raises(ConfigError):
        EstimatorSettings(tau1=1.0, tau2=1.0, tau_theta=1.0, regime="weird")
    with pytest.raises(ConfigError):
        EstimatorSettings(tau1=-1.0, tau2=1.0, tau_theta=1.0)
    # the heavy regime only clips its responses; a bounded polytope is rejected
    EstimatorSettings(tau1=1.0, tau2=1.0, tau_theta=1.0, regime="heavy")
    with pytest.raises(ConfigError):
        EstimatorSettings(
            tau1=1.0, tau2=1.0, tau_theta=1.0, polytope=PolytopeSpec(-0.5, 0.5), regime="heavy"
        )
