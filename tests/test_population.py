import math

import numpy as np
import pytest

from privglm.errors import ConfigError
from privglm.links import ModelKind
from privglm.population import (
    AdditiveNoise,
    Constant,
    PopulationSpec,
    SignFlip,
    StudentTCovariates,
    SubGaussianCov,
    SubGaussianIsotropic,
    Threshold,
    WorstOfGrid,
    _rule_values,
    apply_strategy,
    coerce_response,
    generate_population,
    replacement_sampler,
    tau_alpha_beta_bound,
)

from threshold_oracle import tau_alpha_beta_monte_carlo


def make_pop(model, n=1000, d=2, seed=0, **kw):
    spec = PopulationSpec(n=n, d=d, model=model, **kw)
    return generate_population(spec, np.random.default_rng(seed)), spec


def test_zero_noise_linear_is_exact():
    pop, _ = make_pop(ModelKind.linear(0.0), n=200, d=3, seed=1)
    assert np.array_equal(pop.y_true, pop.X @ pop.theta_star)


def test_logistic_symmetric_mean():
    pop, _ = make_pop(
        ModelKind.logistic(), n=10**5, d=2, seed=2, theta_star=np.zeros(2)
    )
    assert set(np.unique(pop.y_true)) == {-1.0, 1.0}
    assert abs(pop.y_true.mean()) < 0.02


def test_poisson_unit_mean_at_zero_parameter():
    pop, _ = make_pop(
        ModelKind.poisson(), n=10**5, d=2, seed=3, theta_star=np.zeros(2)
    )
    assert pop.y_true.mean() == pytest.approx(1.0, abs=0.02)
    assert np.all(pop.y_true >= 0)
    assert np.all(pop.y_true == np.floor(pop.y_true))


@pytest.mark.parametrize(
    "model",
    [ModelKind.linear(0.5), ModelKind.logistic(), ModelKind.poisson()],
)
def test_conditional_mean_tracks_link(model):
    from privglm.links import make_link_bundle

    pop, _ = make_pop(model, n=10**5, d=2, seed=4)
    bundle = make_link_bundle(model)
    eta = pop.X @ pop.theta_star
    edges = np.quantile(eta, np.linspace(0.05, 0.95, 10))
    for lo, hi in zip(edges, edges[1:]):
        mask = (eta >= lo) & (eta < hi)
        if mask.sum() < 500:
            continue
        observed = pop.y_true[mask].mean()
        predicted = float(np.mean(bundle.A_prime(eta[mask])))
        spread = pop.y_true[mask].std(ddof=1) / math.sqrt(mask.sum())
        assert abs(observed - predicted) < 3 * spread + 1e-3


def test_sample_costs_matches_exponential_cdf():
    c = make_pop(ModelKind.linear(1.0), n=10**6, d=1, seed=5)[0].costs
    assert np.mean(c <= 1.0) == pytest.approx(1 - math.exp(-1), abs=0.005)
    assert np.mean(c <= 0.0) == 0.0
    c2 = make_pop(ModelKind.linear(1.0), n=10**6, d=1, seed=6, cost_lambda=2.0)[0].costs
    assert c2.mean() / c.mean() == pytest.approx(0.5, rel=0.02)
    with pytest.raises(ConfigError):
        PopulationSpec(n=10, d=1, model=ModelKind.linear(1.0), cost_lambda=0.0)


def test_covariate_variance_isotropic():
    pop, _ = make_pop(
        ModelKind.linear(1.0), n=10**5, d=4, seed=8,
        covariates=SubGaussianIsotropic(sigma=1.0),
    )
    var = pop.X.var(axis=0)
    assert np.all(np.abs(var - 0.25) < 0.25 * 0.03)


def test_covariate_explicit_covariance():
    cov = np.array([[0.5, 0.2], [0.2, 0.4]])
    pop, _ = make_pop(
        ModelKind.linear(1.0), n=2 * 10**5, d=2, seed=9, covariates=SubGaussianCov(cov)
    )
    emp = np.cov(pop.X.T)
    assert np.allclose(emp, cov, atol=0.02)


def test_student_t_fourth_moments_stable():
    pop, _ = make_pop(
        ModelKind.linear(1.0), n=10**5, d=2, seed=10,
        covariates=StudentTCovariates(dof=5.0),
    )

    def median_of_means_m4(x, blocks=200):
        # dof = 5 leaves the plain mean of x^4 with infinite variance, so the
        # stability check uses the standard heavy-tail estimator
        size = len(x) // blocks
        return float(np.median([
            np.mean(x[i * size : (i + 1) * size] ** 4) for i in range(blocks)
        ]))

    halves = pop.X[:50_000, 0], pop.X[50_000:, 0]
    m4 = median_of_means_m4(halves[0]), median_of_means_m4(halves[1])
    assert np.all(np.isfinite(m4))
    assert 0.8 < m4[0] / m4[1] < 1.25
    with pytest.raises(ConfigError):
        PopulationSpec(n=10, d=2, model=ModelKind.linear(1.0),
                       covariates=StudentTCovariates(dof=4.0))


def test_theta_star_prior_truncation():
    for seed in range(30):
        pop, _ = make_pop(ModelKind.linear(1.0), n=2, d=5, seed=seed, tau_theta=0.7)
        assert np.linalg.norm(pop.theta_star) <= 0.7
    with pytest.raises(ConfigError):
        PopulationSpec(n=5, d=2, model=ModelKind.linear(1.0),
                       tau_theta=1.0, theta_star=np.array([3.0, 0.0]))


def test_tau_alpha_beta_bound_values():
    assert tau_alpha_beta_bound(0.01, 0.01, 1.0) == pytest.approx(math.log(10**4), rel=1e-12)
    assert tau_alpha_beta_bound(0.999, 0.999, 1.0) < 0.01
    assert tau_alpha_beta_bound(0.1, 0.1, 2.0) == pytest.approx(
        tau_alpha_beta_bound(0.1, 0.1, 1.0) / 2, rel=1e-12
    )
    with pytest.raises(ConfigError):
        tau_alpha_beta_bound(0.0, 0.5, 1.0)


def test_tau_monte_carlo_below_bound():
    for i, (alpha, beta, lam) in enumerate(
        [(0.05, 0.05, 1.0), (0.2, 0.1, 0.5), (0.01, 0.3, 2.0)]
    ):
        est = tau_alpha_beta_monte_carlo(
            alpha, beta, lam, n=150, trials=300, rng=np.random.default_rng(i)
        )
        assert est <= tau_alpha_beta_bound(alpha, beta, lam)


def test_tau_monte_carlo_median_case():
    est = tau_alpha_beta_monte_carlo(
        0.5, 0.99, 1.0, n=5000, trials=200, rng=np.random.default_rng(11)
    )
    assert est == pytest.approx(math.log(2.0), rel=0.05)


def test_tau_monte_carlo_single_agent():
    alpha, beta, lam = 0.3, 0.5, 1.0
    est = tau_alpha_beta_monte_carlo(
        alpha, beta, lam, n=1, trials=20_000, rng=np.random.default_rng(12)
    )
    single_quantile = math.log(1.0 / beta) / lam
    expected = max(single_quantile, math.log(1.0 / alpha) / lam)
    assert est == pytest.approx(expected, rel=0.05)
    with pytest.raises(ConfigError):
        tau_alpha_beta_monte_carlo(0.1, 0.1, 1.0, n=5, trials=10, rng=np.random.default_rng(0))


def test_threshold_strategy_edges():
    pop, _ = make_pop(ModelKind.linear(1.0), n=500, d=2, seed=13)
    data = apply_strategy(pop, Threshold(math.inf))
    assert np.array_equal(data.y, pop.y_true)
    data = apply_strategy(pop, Threshold(0.0))
    assert np.all(data.y == 0.0)


def test_threshold_fraction_at_closed_form_bound():
    pop, _ = make_pop(ModelKind.linear(1.0), n=10**4, d=2, seed=14, cost_lambda=1.0)
    tau = 9.21
    frac = np.mean(pop.costs <= tau)
    assert frac >= 0.99


def test_strategy_determinism_and_covariate_safety():
    pop, _ = make_pop(ModelKind.linear(1.0), n=300, d=2, seed=15)
    X_before = pop.X.copy()
    a = apply_strategy(pop, Threshold(1.0))
    b = apply_strategy(pop, Threshold(1.0))
    assert np.array_equal(a.y, b.y)
    # the per-agent rules of the deviation study draw only from their generator
    rule = AdditiveNoise(2.0)
    assert np.array_equal(_rule_values(rule, pop.y_true, np.random.default_rng(77)),
                          _rule_values(rule, pop.y_true, np.random.default_rng(77)))
    assert np.array_equal(a.X, X_before)
    assert np.array_equal(pop.X, X_before)


def test_coercion_per_model():
    vals = np.array([-2.3, -0.0, 0.4, 3.7])
    logi = coerce_response(vals, ModelKind.logistic())
    assert np.array_equal(logi, [-1.0, -1.0, 1.0, 1.0])
    poi = coerce_response(vals, ModelKind.poisson())
    assert np.array_equal(poi, [0.0, 0.0, 0.0, 4.0])
    lin = coerce_response(vals, ModelKind.linear(1.0))
    assert np.array_equal(lin, vals)


def test_misreport_rules():
    pop, _ = make_pop(ModelKind.linear(1.0), n=50, d=2, seed=16)
    rng = np.random.default_rng(0)
    assert np.array_equal(_rule_values(SignFlip(), pop.y_true, rng), -pop.y_true)
    assert np.all(_rule_values(Constant(1.5), pop.y_true, rng) == 1.5)
    # a grid is not a per-agent rule: the deviation study reports its best value
    with pytest.raises(ConfigError, match="unknown misreport rule"):
        _rule_values(WorstOfGrid((-5.0, 5.0)), pop.y_true, rng)
    with pytest.raises(ConfigError, match="nonempty grid"):
        WorstOfGrid(())


def test_logistic_fallback_sign_flip_stays_in_response_set():
    pop, _ = make_pop(ModelKind.logistic(), n=400, d=2, seed=17)
    # above the threshold an agent reports 0 coerced into {-1, +1}: -1
    data = apply_strategy(pop, Threshold(0.5))
    misreported = pop.costs > 0.5
    assert np.any(misreported) and np.all(data.y[misreported] == -1.0)
    assert np.array_equal(data.y[~misreported], pop.y_true[~misreported])
    # the sign-flip deviation, coerced, stays in the response set too
    flipped = coerce_response(_rule_values(SignFlip(), pop.y_true, None), ModelKind.logistic())
    assert np.array_equal(flipped, -pop.y_true)


def test_replacement_sampler_determinism():
    spec = PopulationSpec(n=10, d=2, model=ModelKind.linear(1.0))
    draw = replacement_sampler(spec, np.array([0.3, -0.1]))
    x1, y1 = draw(np.random.default_rng(9))
    x2, y2 = draw(np.random.default_rng(9))
    assert np.array_equal(x1, x2) and y1 == y2

