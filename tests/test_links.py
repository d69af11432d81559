import math

import numpy as np
import pytest

from privglm.errors import ConfigError
from privglm.estimators import EstimatorSettings, design, working_response
from privglm.links import (
    LinkConstants,
    ModelKind,
    PolytopeSpec,
    clip_response,
    compute_link_constants,
    make_link_bundle,
    project_polytope,
)
from privglm.mechanism import predictions

LINEAR = ModelKind.linear(1.0)
LOGISTIC = ModelKind.logistic()
POISSON = ModelKind.poisson()


def a_second(model, a):
    """A'' in closed form: 1, sech^2(a) (logistic, A = log(e^-a + e^a)) and e^a."""
    a = np.asarray(a, dtype=float)
    if model.family == "linear":
        return np.ones_like(a)
    if model.family == "logistic":
        return 1.0 / np.cosh(a) ** 2
    return np.exp(a)


def test_model_kind_scale_convention():
    with pytest.raises(ConfigError):
        ModelKind("gamma")
    with pytest.raises(ConfigError):
        ModelKind.linear(-1.0)


def test_model_kind_json_round_trip():
    for model in (ModelKind.linear(0.7), LOGISTIC, POISSON):
        assert ModelKind.from_json(model.to_json()) == model


def test_model_kind_noise_std_is_linear_only():
    # a linear model reads and echoes its noise; a logistic or Poisson model
    # has none, so a config giving one is an error that names the key
    assert ModelKind.linear(0.7).to_json() == {"model": "linear", "noise_std": 0.7}
    assert ModelKind.from_json({"model": "linear", "noise_std": 0.7}) == ModelKind.linear(0.7)
    assert ModelKind.from_json({"model": "linear"}) == ModelKind.linear(1.0)
    for family in ("logistic", "poisson"):
        assert ModelKind.from_json({"model": family}) == ModelKind(family)
        with pytest.raises(ConfigError, match="'noise_std'"):
            ModelKind.from_json({"model": family, "noise_std": 5.0})


def test_link_values_at_reference_points():
    lin = make_link_bundle(LINEAR)
    assert lin.A_prime(3.0) == 3.0
    assert make_link_bundle(LOGISTIC).A_prime(0.0) == 0.0
    assert make_link_bundle(POISSON).A_prime_inv(1.0) == 0.0


@pytest.mark.parametrize("model", [LINEAR, LOGISTIC, POISSON])
def test_inverse_consistency_on_grid(model):
    bundle = make_link_bundle(model)
    grid = np.linspace(-5.0, 5.0, 1000)
    back = bundle.A_prime_inv(bundle.A_prime(grid))
    assert np.max(np.abs(back - grid)) < 1e-10


@pytest.mark.parametrize("model", [LINEAR, LOGISTIC, POISSON])
def test_a_prime_strictly_increasing(model):
    bundle = make_link_bundle(model)
    grid = np.linspace(-8.0, 8.0, 2000)
    vals = bundle.A_prime(grid)
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("model", [LINEAR, LOGISTIC, POISSON])
def test_a_second_nonnegative(model):
    # the closed form is the derivative of the bundle's A', and A is convex
    bundle = make_link_bundle(model)
    grid = np.linspace(-30.0, 30.0, 500)
    h = 1e-5
    slope = (bundle.A_prime(grid + h) - bundle.A_prime(grid - h)) / (2 * h)
    np.testing.assert_allclose(slope, a_second(model, grid), rtol=1e-6, atol=1e-9)
    assert np.all(a_second(model, grid) >= 0)


def test_logistic_inverse_domain_error():
    bundle = make_link_bundle(LOGISTIC)
    with pytest.raises(ConfigError, match=r"logistic mean inverse requires \|y\| < 1"):
        bundle.A_prime_inv(1.0)
    with pytest.raises(ConfigError, match=r"logistic mean inverse requires \|y\| < 1"):
        bundle.A_prime_inv(np.array([0.2, -1.5]))


def test_poisson_inverse_domain_error():
    bundle = make_link_bundle(POISSON)
    with pytest.raises(ConfigError, match="poisson mean inverse requires y > 0"):
        bundle.A_prime_inv(0.0)


def test_clip_response_examples():
    assert clip_response(5.0, 2.0) == 2.0
    assert clip_response(0.0, 3.0) == 0.0
    assert clip_response(-3.5, 10.0) == -3.5


def test_clip_response_bound_property():
    rng = np.random.default_rng(31)
    y = rng.standard_cauchy(2000) * 10
    for tau2 in (0.5, 1.0, 7.3):
        clipped = clip_response(y, tau2)
        assert np.all(np.abs(clipped) <= tau2)
        # sign is preserved
        assert np.all(np.sign(clipped) == np.sign(y))


def test_clip_rejects_bad_tau():
    with pytest.raises(ConfigError):
        clip_response(1.0, 0.0)


def test_project_polytope_idempotent():
    rng = np.random.default_rng(5)
    spec = PolytopeSpec(-0.4, 1.7)
    y = rng.standard_normal(500) * 3
    once = project_polytope(y, spec)
    assert np.array_equal(project_polytope(once, spec), once)


def test_polytope_spec_validation_and_json():
    with pytest.raises(ConfigError):
        PolytopeSpec(2.0, 1.0)
    with pytest.raises(ConfigError):
        PolytopeSpec(math.nan, 1.0)
    spec = PolytopeSpec(-math.inf, 0.25)
    packed = spec.to_json()
    assert packed == {"lower": "-inf", "upper": 0.25}
    assert PolytopeSpec().to_json() == {"lower": "-inf", "upper": "inf"}


def test_linear_constants():
    bundle = make_link_bundle(LINEAR)
    c = compute_link_constants(bundle, PolytopeSpec(), tau1=3.0, tau2=2.0, tau_theta=1.0)
    assert c.kappa0 == 1.0
    assert c.kappa1 == 2.0  # identity inverse, max |a| over [-2, 2]
    assert c.kappa2 == 1.0
    assert c.m_a == 3.0
    assert c.eps_mbar == 0.0


def test_logistic_constants():
    bundle = make_link_bundle(LOGISTIC)
    c = compute_link_constants(bundle, PolytopeSpec(-0.8, 0.8), tau1=3.0, tau2=1.0, tau_theta=1.0)
    # distance from the responses +-1 to the interval endpoint
    assert c.eps_mbar == pytest.approx(0.2, abs=1e-12)
    assert c.kappa1 == pytest.approx(math.atanh(0.8), abs=1e-12)
    m = max(math.tanh(3.0), 0.8)
    assert c.kappa0 == pytest.approx(1.0 / (1.0 - m * m), rel=1e-12)
    assert c.kappa2 == 1.0
    assert c.m_a == pytest.approx(math.tanh(3.0), rel=1e-12)


def test_logistic_kappa0_is_cosh_squared_on_wide_predictor_ranges():
    # [(A')^-1]'(tanh T) = 1 / (1 - tanh(T)^2) = cosh(T)^2; the subset term is
    # 1 / (1 - 0.8^2) = 2.78, so cosh(T)^2 is the maximum from T = 1.1 on
    bundle = make_link_bundle(LOGISTIC)
    subset = PolytopeSpec(-0.8, 0.8)
    for T in np.linspace(0.05, 5.0, 34):
        m = max(math.tanh(T), 0.8)
        c = compute_link_constants(bundle, subset, tau1=T, tau2=1.0, tau_theta=1.0)
        assert c.kappa0 == pytest.approx(1.0 / (1.0 - m * m), rel=1e-9)
    # tanh(T) rounds to 1 above T = 19.06, where 1 / (1 - tanh(T)^2) divides by 0
    for T in (20.0, 100.0):
        c = compute_link_constants(bundle, subset, tau1=T / 2.0, tau2=1.0, tau_theta=2.0)
        assert c.kappa0 == pytest.approx(math.exp(2.0 * T) / 4.0, rel=1e-12)
        assert c.m_a == 1.0
    # cosh(T)^2 overflows above T = 355.6, and cosh(T) itself above T = 710.47
    for T in (400.0, 1000.0):
        with pytest.raises(ConfigError, match="link constant kappa0 = inf"):
            compute_link_constants(bundle, subset, tau1=T, tau2=1.0, tau_theta=1.0)


def test_poisson_constants():
    bundle = make_link_bundle(POISSON)
    spec = PolytopeSpec(0.1, math.inf)
    c = compute_link_constants(bundle, spec, tau1=2.0, tau2=4.0, tau_theta=1.0)
    assert c.kappa0 == pytest.approx(1.0 / min(math.exp(-2.0), 0.1), rel=1e-12)
    assert c.kappa1 == pytest.approx(max(abs(math.log(0.1)), abs(math.log(4.0))), rel=1e-12)
    assert c.kappa2 == pytest.approx(math.exp(2.0), rel=1e-12)
    assert c.m_a == pytest.approx(math.exp(2.0), rel=1e-12)
    assert c.eps_mbar == pytest.approx(0.1, abs=1e-12)  # distance from y = 0


def test_invalid_polytopes_raise():
    logi = make_link_bundle(LOGISTIC)
    with pytest.raises(ConfigError, match="pole of the inverse-mean derivative"):
        compute_link_constants(logi, PolytopeSpec(-1.0, 1.0), 3.0, 1.0, 1.0)
    poi = make_link_bundle(POISSON)
    with pytest.raises(ConfigError, match="poisson subset must stay strictly positive"):
        compute_link_constants(poi, PolytopeSpec(0.0, math.inf), 2.0, 4.0, 1.0)
    with pytest.raises(ConfigError, match="does not meet the clip range"):
        # subset entirely above the clip range
        compute_link_constants(poi, PolytopeSpec(5.0, math.inf), 2.0, 2.0, 1.0)
    lin = make_link_bundle(LINEAR)
    with pytest.raises(ConfigError, match="unbounded on the predictor range"):
        # infinite m_a (tau_theta * tau1 overflows exp for poisson)
        compute_link_constants(poi, PolytopeSpec(0.1, math.inf), 500.0, 2.0, 2.0)
    # linear never hits a pole
    compute_link_constants(lin, PolytopeSpec(-0.5, 0.5), 3.0, 2.0, 1.0)


@pytest.mark.parametrize("model", [LINEAR, LOGISTIC, POISSON])
def test_constant_dominance(model):
    bundle = make_link_bundle(model)
    tau1, tau2, tau_theta = 2.0, 3.0, 1.0
    spec = PolytopeSpec() if model.family == "linear" else (
        PolytopeSpec(-0.9, 0.9) if model.family == "logistic" else PolytopeSpec(0.05, math.inf)
    )
    c = compute_link_constants(bundle, spec, tau1, tau2, tau_theta)
    rng = np.random.default_rng(17)
    a = rng.uniform(-tau_theta * tau1, tau_theta * tau1, size=100)
    assert np.all(np.abs(a_second(model, a)) <= c.kappa2 + 1e-12)
    assert np.all(np.abs(bundle.A_prime(a)) <= c.m_a + 1e-12)


def test_link_constants_require_finite():
    with pytest.raises(ConfigError, match="link constant kappa0 = inf"):
        LinkConstants(math.inf, 1.0, 1.0, 1.0, 0.0)


def test_linear_link_results_share_no_memory_with_their_inputs():
    # the linear A' and its inverse copy nothing, so this rests on their
    # callers: `empirical_sensitivity` writes into z, and pass 2 writes into p
    bundle = make_link_bundle(LINEAR)
    rng = np.random.default_rng(7)
    X, y = rng.standard_normal((50, 3)), rng.standard_normal(50)
    for regime in ("subgaussian", "heavy"):
        settings = EstimatorSettings(tau1=1e6, tau2=1e6, tau_theta=1.0, regime=regime)
        assert not np.shares_memory(working_response(y, bundle, settings), y)
        x_pay = design(X, LINEAR, settings)
        for theta in (rng.standard_normal(3), rng.standard_normal((50, 3)), x_pay):
            p = predictions(x_pay, theta, bundle)
            assert not np.shares_memory(p, x_pay) and not np.shares_memory(p, theta)
        for d1 in (X[:, :1], X[:1, :1]):  # one column: the product is the whole reduction
            assert not np.shares_memory(predictions(d1, d1, bundle), d1)
