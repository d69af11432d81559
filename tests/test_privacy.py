import tracemalloc

import numpy as np
import pytest
from scipy import stats

from privglm.errors import ConfigError
from privglm.mechanism import release_noise
from privglm.privacy import (
    PrivacyParams,
    compose_account,
    empirical_privacy_ratio,
    merged_quantiles,
    sample_norm_exponential,
    wilson_interval,
)
from ratio_oracle import ratio_report


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


def test_sampler_moments():
    d, delta, eps = 5, 0.1, 0.5
    v = sample_norm_exponential(d, delta, eps, np.random.default_rng(77), 200_000)
    mags = np.linalg.norm(v, axis=1)
    assert mags.mean() == pytest.approx(d * delta / eps, rel=0.02)
    assert (mags**2).mean() == pytest.approx(d * (d + 1) * (delta / eps) ** 2, rel=0.03)
    # E[v] = 0 within a 4 sigma band per coordinate
    band = 4 * mags.std() / np.sqrt(len(mags))
    assert np.all(np.abs(v.mean(axis=0)) < band)


@pytest.mark.parametrize("count", [1, 7, 400_000])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sampler_out_gives_the_bits_of_a_fresh_draw(d, count):
    fresh_rng, out_rng, plain_rng = (np.random.default_rng([d, count]) for _ in range(3))
    fresh = sample_norm_exponential(d, 0.3, 0.7, fresh_rng, count)
    out = np.full((count, d), np.nan)
    assert sample_norm_exponential(d, 0.3, 0.7, out_rng, count, out=out) is out
    assert np.array_equal(out, fresh)
    assert out_rng.bit_generator.state == fresh_rng.bit_generator.state
    # the draw written out whole: radii, directions, then u * (r / |u|)
    r = plain_rng.gamma(shape=d, scale=0.3 / 0.7, size=count)
    u = plain_rng.standard_normal((count, d))
    assert np.array_equal(fresh, u * (r / np.sqrt(np.sum(u * u, axis=1)))[:, None])
    assert plain_rng.bit_generator.state == fresh_rng.bit_generator.state


def test_sampler_refuses_an_out_it_cannot_fill_in_place():
    # the radii go through a flat view of out, which a strided array would not give
    rng = np.random.default_rng(0)
    for out in (np.empty((2, 7)).T, np.empty((7, 3))):
        with pytest.raises(ValueError, match=r"C-contiguous \(7, 2\)"):
            sample_norm_exponential(2, 0.3, 0.7, rng, 7, out=out)


def test_radial_law_matches_gamma():
    d, delta, eps = 3, 0.2, 0.4
    v = sample_norm_exponential(d, delta, eps, np.random.default_rng(3), 100_000)
    mags = np.linalg.norm(v, axis=1)
    ks = stats.kstest(mags, stats.gamma(a=d, scale=delta / eps).cdf)
    assert ks.statistic < 0.01


def test_direction_isotropy():
    v = sample_norm_exponential(3, 0.1, 0.5, np.random.default_rng(4), 100_000)
    unit = v / np.linalg.norm(v, axis=1)[:, None]
    assert np.linalg.norm(unit.mean(axis=0)) < 0.02


def test_release_noise_determinism_and_scale():
    params = PrivacyParams(0.5, delta_n=0.2, delta_half=0.4)
    a = release_noise(3, params, np.random.default_rng(8))
    assert a.shape == (3, 3)
    assert np.array_equal(a, release_noise(3, params, np.random.default_rng(8)))
    # one draw at a time: the full release's, then each half's, in that order
    rng = np.random.default_rng(8)
    for row, delta in zip(a, (0.2, 0.4, 0.4)):
        assert np.array_equal(row, sample_norm_exponential(3, delta, 0.5, rng, 1)[0])

    tiny = PrivacyParams(0.5, delta_n=1e-12, delta_half=1e-12)
    assert np.all(np.linalg.norm(release_noise(3, tiny, np.random.default_rng(9)), axis=1) < 1e-9)


def test_halving_epsilon_doubles_norm():
    mags = {}
    for eps in (0.5, 0.25):
        params = PrivacyParams(eps, delta_n=0.3, delta_half=0.3)
        rng = np.random.default_rng(10)
        mags[eps] = np.mean(
            [np.linalg.norm(release_noise(4, params, rng), axis=1) for _ in range(1400)]
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
    def build(dataset, rng, out):
        shift = center + float(dataset.y[0])
        out[:, 0] = shift + rng.laplace(0.0, scale, size=len(out))

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
    with pytest.raises(ConfigError, match=r"occupied bins fall below 50 samples"):
        empirical_privacy_ratio(
            _laplace_build(0.0, 0.5), a, b, trials=20_000, bins=20,
            rng=np.random.default_rng(1), epsilon_bound=1.0,
        )


@pytest.mark.parametrize("d, bins", [(1, 2001), (1, 10**9)])
def test_more_cells_than_trials_are_refused_before_any_build(d, bins):
    # bins cells over 2000 trials: each cell would average under one sample
    # of either output, so the check could only end in the thin-bin refusal; it
    # refuses first, before it builds or allocates anything of length bins
    builds = []

    def build(dataset, rng, out):
        builds.append(len(out))
        out[:] = rng.laplace(size=out.shape)

    a = _Pair(np.ones((3, d)), np.zeros(3))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=rf"bins = {bins} cells exceed the 2000 trials"):
            empirical_privacy_ratio(build, a, a, trials=2000, bins=bins,
                                    rng=np.random.default_rng(0), epsilon_bound=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert builds == []
    assert peak < 2 ** 20


def test_two_column_datasets_are_refused_before_any_build():
    builds = []

    def build(dataset, rng, out):
        builds.append(len(out))

    a = _Pair(np.ones((3, 2)), np.zeros(3))
    with pytest.raises(ConfigError, match="one-column datasets, got 2 columns"):
        empirical_privacy_ratio(build, a, a, trials=2000, bins=10,
                                rng=np.random.default_rng(0), epsilon_bound=1.0)
    assert builds == []


def _two_atom_build(dataset, rng, out):
    # +1000 with probability 0.9 on a dataset whose first response is positive, else 0.1
    p_high = 0.9 if dataset.y[0] > 0 else 0.1
    out[:, 0] = np.where(rng.random(len(out)) < p_high, 1000.0, -1000.0)


def test_edges_collapsed_to_one_cell_raise():
    # the true log ratio is log 9, yet the pooled edges are {-1000, 1000}: one
    # cell, whose ratio is 1, so the straightforward check passes a bound of 0.1
    a = _Pair(np.ones((3, 1)), np.array([1.0, 0.0, 0.0]))
    b = _Pair(np.ones((3, 1)), np.array([-1.0, 0.0, 0.0]))
    args = (_two_atom_build, a, b, 2000, 10)
    vacuous = ratio_report(*args, np.random.default_rng(4), 0.1)
    assert vacuous.bins_total == 1 and vacuous.passed()
    with pytest.raises(ConfigError, match="collapse to a single cell"):
        empirical_privacy_ratio(*args, rng=np.random.default_rng(4), epsilon_bound=0.1)



_ARM_PAIRS = {
    # values on {0, ..., 6}: ties within each arm and across the two
    "ties": lambda rng, t: rng.integers(0, 7, (2, t)).astype(float),
    "identical": lambda rng, t: np.tile(rng.normal(size=t), (2, 1)),
    "one-constant": lambda rng, t: np.stack([np.full(t, 0.25), rng.normal(size=t)]),
    "disjoint-low-first": lambda rng, t: rng.normal(size=(2, t)) + [[0.0], [50.0]],
    "disjoint-high-first": lambda rng, t: rng.normal(size=(2, t)) + [[50.0], [0.0]],
    "nan": lambda rng, t: np.where(np.arange(t) == t // 2, np.nan, rng.normal(size=(2, t))),
}


@pytest.mark.parametrize("trials", [100, 101, 65_537])
@pytest.mark.parametrize("case", sorted(_ARM_PAIRS))
def test_d1_edges_are_the_pooled_quantiles_bit_for_bit(case, trials):
    # the d = 1 edges come from rank selection in the two sorted arms; numpy's
    # quantiles of the concatenated arms are the oracle
    arms = _ARM_PAIRS[case](np.random.default_rng(trials), trials)
    arms.sort(axis=1)
    for bins in (2, 3, 30, 997):
        q = np.linspace(0.0, 1.0, bins + 1)
        got = np.unique(merged_quantiles(arms, q))
        want = np.unique(np.quantile(np.concatenate(arms), q))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64),
                                      err_msg=f"bins={bins}")


def _five_value_build(dataset, rng, out):
    # every coordinate on {0, 1, 2, 3, 4}, drawn in place; the larger values
    # are likelier on a dataset whose first response is positive
    rng.random(out=out)
    if dataset.y[0] > 0:
        np.sqrt(out, out=out)
    np.multiply(out, 5.0, out=out)
    np.floor(out, out=out)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d, bins", [(1, 10)])
def test_releases_on_the_bin_edges_are_binned_as_the_oracle_bins_them(d, bins, seed):
    # the pooled quantile edges are release values themselves, so most samples
    # sit on an edge and count in the bin above it, sorted or not
    a = _Pair(np.ones((3, d)), np.array([1.0, 0.0, 0.0]))
    b = _Pair(np.ones((3, d)), np.array([-1.0, 0.0, 0.0]))
    args = (_five_value_build, a, b, 20_000, bins)
    report = empirical_privacy_ratio(*args, rng=np.random.default_rng(seed), epsilon_bound=1.0)
    assert report == ratio_report(*args, np.random.default_rng(seed), 1.0)
    assert report.bins_total == 4 ** d and report.bins_estimable >= 4 ** d - 1
