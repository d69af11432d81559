import numpy as np
import pytest
from scipy import stats

from privglm.errors import ConfigError, InsufficientMassError
from privglm.mechanism import release_noise
from privglm.privacy import (
    PrivacyParams,
    compose_account,
    empirical_privacy_ratio,
    sample_norm_exponential,
    sample_norm_exponential_batch,
    wilson_interval,
)


def test_params_validation():
    with pytest.raises(ConfigError):
        PrivacyParams(0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        PrivacyParams(0.5, -1.0, 1.0)
    with pytest.raises(ConfigError):
        PrivacyParams(0.5, 1.0, 1.0, gamma_n=1.5)
    with pytest.raises(ConfigError):
        PrivacyParams(0.5, 1.0, 0.0)


def test_compose_account():
    assert compose_account(PrivacyParams(0.1, 1.0, 1.0, 1e-3, 2e-3)) == (0.2, 5e-3)
    assert compose_account(PrivacyParams(0.7, 1.0, 1.0)) == (1.4, 0.0)
    e1, g1 = compose_account(PrivacyParams(0.2, 1.0, 1.0, 0.01, 0.02))
    e2, g2 = compose_account(PrivacyParams(0.4, 1.0, 1.0, 0.02, 0.04))
    assert e2 == pytest.approx(2 * e1) and g2 == pytest.approx(2 * g1)


def test_scalar_sampler_is_batch_with_one_draw():
    a = sample_norm_exponential(4, 0.3, 0.7, np.random.default_rng(5))
    b = sample_norm_exponential_batch(4, 0.3, 0.7, np.random.default_rng(5), 1)[0]
    assert np.array_equal(a.v, b)
    assert a.magnitude == pytest.approx(np.linalg.norm(a.v), abs=1e-12)


def test_sampler_moments():
    d, delta, eps = 5, 0.1, 0.5
    v = sample_norm_exponential_batch(d, delta, eps, np.random.default_rng(77), 200_000)
    mags = np.linalg.norm(v, axis=1)
    assert mags.mean() == pytest.approx(d * delta / eps, rel=0.02)
    assert (mags**2).mean() == pytest.approx(d * (d + 1) * (delta / eps) ** 2, rel=0.03)
    # E[v] = 0 within a 4 sigma band per coordinate
    band = 4 * mags.std() / np.sqrt(len(mags))
    assert np.all(np.abs(v.mean(axis=0)) < band)


def test_radial_law_matches_gamma():
    d, delta, eps = 3, 0.2, 0.4
    v = sample_norm_exponential_batch(d, delta, eps, np.random.default_rng(3), 100_000)
    mags = np.linalg.norm(v, axis=1)
    ks = stats.kstest(mags, stats.gamma(a=d, scale=delta / eps).cdf)
    assert ks.statistic < 0.01


def test_direction_isotropy():
    v = sample_norm_exponential_batch(3, 0.1, 0.5, np.random.default_rng(4), 100_000)
    unit = v / np.linalg.norm(v, axis=1)[:, None]
    assert np.linalg.norm(unit.mean(axis=0)) < 0.02


def test_release_noise_determinism_and_scale():
    params = PrivacyParams(0.5, delta_n=0.2, delta_half=0.4)
    a = release_noise(3, params, np.random.default_rng(8))
    b = release_noise(3, params, np.random.default_rng(8))
    assert all(np.array_equal(s.v, t.v) and s.magnitude == t.magnitude for s, t in zip(a, b))
    # the draws are the full release's, then each half's, in that order
    rng = np.random.default_rng(8)
    for sample, delta in zip(a, (0.2, 0.4, 0.4)):
        assert np.array_equal(sample.v, sample_norm_exponential(3, delta, 0.5, rng).v)

    tiny = PrivacyParams(0.5, delta_n=1e-12, delta_half=1e-12)
    assert all(s.magnitude < 1e-9 for s in release_noise(3, tiny, np.random.default_rng(9)))


def test_halving_epsilon_doubles_norm():
    mags = {}
    for eps in (0.5, 0.25):
        params = PrivacyParams(eps, delta_n=0.3, delta_half=0.3)
        rng = np.random.default_rng(10)
        mags[eps] = np.mean(
            [s.magnitude for _ in range(1400) for s in release_noise(4, params, rng)]
        )
    assert mags[0.25] / mags[0.5] == pytest.approx(2.0, rel=0.05)


def test_wilson_interval_contains_point_estimate():
    lo, hi = wilson_interval(50, 1000)
    assert lo < 0.05 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


class _Pair:
    """Minimal dataset stand-in for the ratio check."""

    def __init__(self, X, y):
        self.X, self.y = np.asarray(X, float), np.asarray(y, float)


def _laplace_build(center, scale):
    def build(dataset, rng, trials):
        shift = center + float(dataset.y[0])
        return (shift + rng.laplace(0.0, scale, size=trials))[:, None]

    return build


def test_identical_datasets_show_unit_ratios():
    data = _Pair(np.ones((3, 1)), np.zeros(3))
    rep = empirical_privacy_ratio(
        _laplace_build(0.0, 1.0), data, data, trials=40_000, bins=20,
        rng=np.random.default_rng(2), epsilon_bound=1.0,
    )
    assert rep.fraction_within == 1.0
    assert rep.max_abs_log_ratio < 0.2
    assert rep.passed()
    assert "falsification" in rep.note


def test_shifted_laplace_violates_small_bound():
    a = _Pair(np.ones((3, 1)), np.zeros(3))
    b = _Pair(np.ones((3, 1)), np.array([2.0, 0.0, 0.0]))
    rep = empirical_privacy_ratio(
        _laplace_build(0.0, 0.5), a, b, trials=40_000, bins=20,
        rng=np.random.default_rng(6), epsilon_bound=0.5,
    )
    # true log ratios reach 2 / 0.5 = 4, far above the claimed 0.5
    assert not rep.passed()
    assert rep.violations > 0


def test_ratio_check_input_validation():
    a = _Pair(np.ones((3, 1)), np.zeros(3))
    b = _Pair(np.ones((3, 1)), np.array([1.0, 2.0, 0.0]))
    with pytest.raises(ConfigError):
        empirical_privacy_ratio(
            _laplace_build(0.0, 1.0), a, b, trials=10_000, bins=10,
            rng=np.random.default_rng(0), epsilon_bound=1.0,
        )
    with pytest.raises(ConfigError):
        empirical_privacy_ratio(
            _laplace_build(0.0, 1.0), a, a, trials=50, bins=10,
            rng=np.random.default_rng(0), epsilon_bound=1.0,
        )


def test_insufficient_mass_raises():
    a = _Pair(np.ones((3, 1)), np.zeros(3))
    b = _Pair(np.ones((3, 1)), np.array([1000.0, 0.0, 0.0]))  # disjoint supports
    with pytest.raises(InsufficientMassError):
        empirical_privacy_ratio(
            _laplace_build(0.0, 0.5), a, b, trials=20_000, bins=20,
            rng=np.random.default_rng(1), epsilon_bound=1.0,
        )
