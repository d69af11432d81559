import math

import numpy as np
import pytest

from privglm.errors import ConfigError
from privglm.estimators import CHUNK_ROWS
from privglm.links import ModelKind
from privglm.population import (
    PopulationSpec,
    StudentTCovariates,
    SubGaussianCov,
    SubGaussianIsotropic,
    WorstOfGrid,
    _draw_costs,
    _draw_covariates,
    _draw_responses,
    _scale_rows,
    coerce_response,
    covariate_sigma,
    draw_agents,
    draw_theta_star,
    generate_population,
    replacement_sampler,
    tau_alpha_beta_bound,
)

from strategy_oracle import apply_strategy
from threshold_oracle import tau_alpha_beta_monte_carlo


def make_pop(model, n=1000, d=2, seed=0, **kw):
    spec = PopulationSpec(n=n, d=d, model=model, **kw)
    return generate_population(spec, np.random.default_rng(seed)), spec



def test_covariate_sigma_of_each_kind():
    # sigma of N(0, (sigma^2/d) I): given, or sqrt(d lambda_max); a Student-t law has none
    def sigma(cov):
        return covariate_sigma(PopulationSpec(n=1, d=3, model=ModelKind.linear(1.0), covariates=cov))

    assert sigma(SubGaussianIsotropic(2.5)) == 2.5
    assert sigma(SubGaussianCov(np.diag([0.5, 2.0, 1.0]))) == pytest.approx(math.sqrt(6.0), rel=1e-15)
    with pytest.raises(ConfigError, match="not sub-Gaussian"):
        sigma(StudentTCovariates(5.0))


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
def test_isotropic_sigma_must_be_finite_and_positive(sigma):
    with pytest.raises(ConfigError, match="subgaussian_isotropic sigma must be finite and > 0"):
        SubGaussianIsotropic(sigma)


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


def _spd(d, seed):
    A = np.random.default_rng(seed).standard_normal((d, d))
    return A @ A.T / d + np.eye(d)


@pytest.mark.parametrize("full", [False, True], ids=["eye-over-d", "full-spd"])
@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_block_scaling_is_the_one_shot_product(d, full):
    # the covariates are scaled in place, one row block at a time; the digests
    # of every Student-t and covariance cell rest on the blocks giving the bits
    # of z @ L.T, which a BLAS that splits a product's rows differently breaks
    m = 2 * CHUNK_ROWS + 7
    scale = _spd(d, d) if full else np.eye(d) / d
    L = np.linalg.cholesky(scale)
    z = np.random.default_rng(d).standard_normal((m, d))
    assert np.array_equal(_scale_rows(z.copy(), L), z @ L.T)

    spec = PopulationSpec(n=m, d=d, model=ModelKind.linear(1.0),
                          covariates=StudentTCovariates(5.0, scale if full else None))
    rng = np.random.default_rng([d, 1])
    want = rng.standard_normal((m, d)) @ L.T
    want = want * np.sqrt(5.0 / rng.chisquare(5.0, size=m))[:, None]
    assert np.array_equal(_draw_covariates(spec, np.random.default_rng([d, 1]), m), want)


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
    pop, spec = make_pop(ModelKind.linear(1.0), n=500, d=2, seed=13)
    data = apply_strategy(pop, math.inf, spec.model)
    assert np.array_equal(data.y, pop.y_true)
    data = apply_strategy(pop, 0.0, spec.model)
    assert np.all(data.y == 0.0)


def test_threshold_fraction_at_closed_form_bound():
    pop, _ = make_pop(ModelKind.linear(1.0), n=10**4, d=2, seed=14, cost_lambda=1.0)
    tau = 9.21
    frac = np.mean(pop.costs <= tau)
    assert frac >= 0.99


def test_strategy_determinism_and_covariate_safety():
    pop, spec = make_pop(ModelKind.linear(1.0), n=300, d=2, seed=15)
    X_before = pop.X.copy()
    a = apply_strategy(pop, 1.0, spec.model)
    b = apply_strategy(pop, 1.0, spec.model)
    assert np.array_equal(a.y, b.y)
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
    # a deviation is a grid of reports, of which the study reports the best
    with pytest.raises(ConfigError, match="nonempty grid"):
        WorstOfGrid(())


def test_logistic_fallback_sign_flip_stays_in_response_set():
    pop, spec = make_pop(ModelKind.logistic(), n=400, d=2, seed=17)
    # above the threshold an agent reports 0 coerced into {-1, +1}: -1
    data = apply_strategy(pop, 0.5, spec.model)
    misreported = pop.costs > 0.5
    assert np.any(misreported) and np.all(data.y[misreported] == -1.0)
    assert np.array_equal(data.y[~misreported], pop.y_true[~misreported])


MODELS = {
    "linear": ModelKind.linear(1.0), "logistic": ModelKind.logistic(),
    "poisson": ModelKind.poisson(),
}


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("d", [1, 3, 10])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_draw_agents_is_covariates_then_responses_then_costs(name, d, k):
    # group t's responses are drawn at X_t . theta_t, the eta each caller
    # computed before the draws were one function
    spec = PopulationSpec(n=2, d=d, model=MODELS[name], covariates=StudentTCovariates(5.0))
    m, rng = 1000, np.random.default_rng([d, k])
    theta = draw_theta_star(d, 1.0, rng, k)
    X, y, costs = draw_agents(spec, theta, m, np.random.default_rng(7))

    rng = np.random.default_rng(7)
    X_want = _draw_covariates(spec, rng, k * m)
    eta = np.concatenate([X_want[t * m : (t + 1) * m] @ theta[t] for t in range(k)])
    y_want = _draw_responses(spec.model, eta, rng)
    for got, want in ((X, X_want), (y, y_want), (costs, _draw_costs(spec, k * m, rng))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_replacement_sampler_rows_are_covariates_then_responses(name):
    spec = PopulationSpec(n=10, d=3, model=MODELS[name])
    theta = np.array([0.3, -0.1, 0.5])
    draw = replacement_sampler(spec, theta)
    for seed in range(5):
        x, y = draw(np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        x_want = _draw_covariates(spec, rng, 1)[0]
        y_want = _draw_responses(spec.model, np.atleast_1d(x_want @ theta), rng)[0]
        assert np.array_equal(x, x_want) and y == float(y_want)


def test_replacement_sampler_determinism():
    spec = PopulationSpec(n=10, d=2, model=ModelKind.linear(1.0))
    draw = replacement_sampler(spec, np.array([0.3, -0.1]))
    x1, y1 = draw(np.random.default_rng(9))
    x2, y2 = draw(np.random.default_rng(9))
    assert np.array_equal(x1, x2) and y1 == y2


@pytest.mark.parametrize("tau_theta", [1.35e154, 1e300, math.inf])
def test_population_refuses_a_tau_theta_whose_square_overflows(tau_theta):
    with pytest.raises(ConfigError, match="its square overflows"):
        PopulationSpec(n=10, d=2, model=ModelKind.linear(1.0), tau_theta=tau_theta)


def _theta_star_loop(d, tau_theta, rng):
    # one draw of the per-trial rejection loop that the batched draw replaces
    scale = tau_theta / math.sqrt(d)
    while True:
        theta = rng.standard_normal(d) * scale
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(theta)
        if norm <= tau_theta:
            return theta


@pytest.mark.parametrize("tau_theta", [1.0, 1e154])
@pytest.mark.parametrize("k", [1, 7, 1000])
@pytest.mark.parametrize("d", [1, 2, 3, 10, 33])
def test_batched_theta_star_draw_is_the_per_trial_loop(d, k, tau_theta):
    # the rows and the generator's final state are those of k lone draws; at
    # tau_theta = 1e154 some squared norms overflow, and d = 33 runs past the
    # unrolled part of a BLAS dot product
    rng, loop_rng = np.random.default_rng([d, k]), np.random.default_rng([d, k])
    got = draw_theta_star(d, tau_theta, rng, k)
    want = np.stack([_theta_star_loop(d, tau_theta, loop_rng) for _ in range(k)])
    assert got.shape == (k, d) and np.array_equal(got, want)
    assert rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 10])
def test_draw_theta_star_ends_at_the_largest_tau_theta(d):
    # tau_theta^2 is finite just below 1.34e154; a draw whose squared norm
    # overflows is rejected without a warning, and an accepted draw lies in the ball
    tau_theta = 1.34e154
    assert math.isfinite(tau_theta * tau_theta)
    PopulationSpec(n=10, d=d, model=ModelKind.linear(1.0), tau_theta=tau_theta)
    rng = np.random.default_rng(d)
    for _ in range(20):
        assert np.linalg.norm(draw_theta_star(d, tau_theta, rng) / tau_theta) <= 1.0 + 1e-15
