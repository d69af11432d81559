"""Norm-exponential noise, the privacy account, and an empirical ratio check.

The mechanisms add a vector v with density p(v) proportional to
exp(-(eps/Delta) ||v||_2). Integrating that density over spheres of radius r
picks up the surface factor r^(d-1), so the radial law is exactly
Gamma(shape = d, scale = Delta/eps) and the direction is uniform on the unit
sphere. This construction reproduces the distribution's moment identities

    E[v] = 0,   E||v||_2 = d Delta / eps,   E||v||_2^2 = d (d+1) (Delta/eps)^2.

The ratio check at the bottom of the module is a falsification test, not a
certification: sampling can refute a claimed ratio bound but can never verify
differential privacy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigError
from .estimators import row_blocks

@dataclass(frozen=True)
class PrivacyParams:
    """Per-release budget and sensitivities for the three released estimators.

    delta_n is the sensitivity of the full-data release and delta_half that
    of each half release; the schedule sets both from the regime's bound at
    n and at n // 2.
    """

    epsilon: float
    delta_n: float
    delta_half: float
    gamma_n: float = 0.0
    gamma_half: float = 0.0

    def __post_init__(self):
        for name in ("epsilon", "delta_n", "delta_half"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("gamma_n", "gamma_half"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1]")


def compose_account(params: PrivacyParams) -> Tuple[float, float]:
    """Account for the full-data release plus the two half releases.

    The halves run on disjoint data (parallel composition) and the full-data
    release composes sequentially with them, giving (2 eps, gamma_n +
    2 gamma_half).
    """
    return 2.0 * params.epsilon, params.gamma_n + 2.0 * params.gamma_half


def sample_norm_exponential(
    d: int, delta: float, epsilon: float, rng: np.random.Generator, count: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Draw `count` vectors v = r * u, r ~ Gamma(d, delta/epsilon), u uniform on the sphere.

    The vectors go to `out`, a C-contiguous (count, d) float array, when it
    is given, and to a new array otherwise; the array is returned. The radii
    are drawn into its last `count` slots and the directions one row block
    (`row_blocks`) at a time, so the draw allocates nothing else of length
    `count`. The generator serves the radii, then the directions in row
    order, as one whole draw of each would: the same bits with `out` as
    without, and the generator left in the same state.
    """
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    if count < 1:
        raise ConfigError("count must be >= 1")
    if not (delta > 0 and epsilon > 0):
        raise ConfigError("delta and epsilon must be positive")
    if out is not None and (out.shape != (count, d) or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous ({count}, {d}) array")
    v = np.empty((count, d)) if out is None else out
    # row block k writes only slots below the radii of the rows after it
    r = v.reshape(-1)[(d - 1) * count:]
    rng.standard_gamma(d, out=r)
    r *= delta / epsilon  # Generator.gamma(d, delta / epsilon), bit for bit
    for block in row_blocks(count, d):
        u = rng.standard_normal((block.stop - block.start, d))
        norms = np.sqrt(np.sum(u * u, axis=1))
        while np.any(norms == 0.0):  # probability-zero event, redrawn within its block
            bad = norms == 0.0
            u[bad] = rng.standard_normal((int(bad.sum()), d))
            norms = np.sqrt(np.sum(u * u, axis=1))
        u *= (r[block] / norms)[:, None]
        v[block] = u
    return v


# ---------------------------------------------------------------------------
# Empirical ratio check
# ---------------------------------------------------------------------------

# a bin is estimable when both histograms put at least _MIN_COUNT samples in it
_MIN_COUNT = 50
# standard normal quantile of the Wilson intervals (two-sided 99.9 %)
_Z = 3.29


def wilson_interval(k: int, n: int) -> Tuple[float, float]:
    """Wilson score interval, at _Z standard normal quantiles, for a binomial proportion."""
    if n <= 0:
        return 0.0, 1.0
    z = _Z
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class RatioReport:
    """Per-bin log-ratio statistics of two output histograms against e^bound."""

    trials: int
    bins_total: int
    bins_estimable: int
    fraction_within: float
    max_abs_log_ratio: float
    violations: int
    epsilon_bound: float
    note: str = (
        "falsification check only: sampling can refute the ratio bound "
        "but can never certify differential privacy"
    )

    def passed(self, threshold: float = 0.99) -> bool:
        return self.bins_estimable > 0 and self.fraction_within >= threshold


MechanismClosure = Callable[[object, np.random.Generator, np.ndarray], None]
"""`build(dataset, rng, out)` releases the mechanism on a one-column dataset
once per row of `out`, a C-contiguous (trials, 1) float array, and writes
each public output into its row; it returns nothing."""


def merged_quantiles(arms: np.ndarray, q: np.ndarray) -> np.ndarray:
    """numpy's `quantile(arms.ravel(), q)` of a (2, T) array whose rows ascend, bit
    for bit up to the sign of a zero.

    The pooled quantile at q interpolates numpy's "linear" rule (Hyndman and
    Fan's definition 7) between the pooled order statistics of ranks
    floor((2T - 1) q) and the rank above it, clipped to 2T - 1. Each order
    statistic is found by a bisection, vectorised over the ranks, over how
    many of the smallest pooled samples come from the first row, so nothing
    of length T is allocated. A NaN sample makes every quantile NaN, as in
    numpy's.
    """
    a, b = arms
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # NaN sorts last
        return np.full(len(q), np.nan)
    virtual = (arms.size - 1) * q
    lower = np.floor(virtual)
    gamma = virtual - lower
    rank = lower.astype(np.intp)
    left = _order_statistics(a, b, rank)
    right = _order_statistics(a, b, np.minimum(rank + 1, arms.size - 1))
    diff = right - left
    return np.where(gamma >= 0.5, right - diff * (1 - gamma), left + diff * gamma)


def _order_statistics(a: np.ndarray, b: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The pooled samples of 0-based `rank` in the ascending arrays a and b.

    The smallest k + 1 pooled samples are a[:i] and b[:k + 1 - i] for the
    least i in [max(0, k + 1 - len(b)), min(k + 1, len(a))] with i at the
    top of that range or a[i] >= b[k - i]; the test is monotone in i, so a
    bisection finds it. The sample of rank k is the larger of a[i - 1] and
    b[k - i], whichever exist.
    """
    lo = np.maximum(rank + 1 - len(b), 0)
    hi = np.minimum(rank + 1, len(a))
    while np.any(lo < hi):
        open_ = lo < hi  # a closed range keeps its bounds; its indices are only clipped
        mid = (lo + hi) // 2
        enough = a[np.minimum(mid, len(a) - 1)] >= b[np.clip(rank - mid, 0, len(b) - 1)]
        hi = np.where(open_ & enough, mid, hi)
        lo = np.where(open_ & ~enough, mid + 1, lo)
    from_a = np.where(lo > 0, a[np.maximum(lo - 1, 0)], -np.inf)
    from_b = np.where(lo <= rank, b[np.clip(rank - lo, 0, len(b) - 1)], -np.inf)
    return np.maximum(from_a, from_b)


def empirical_privacy_ratio(
    build: MechanismClosure,
    data_a,
    data_b,
    trials: int,
    bins: int,
    rng: np.random.Generator,
    epsilon_bound: float,
) -> RatioReport:
    """Histogram two output distributions and compare per-bin ratios to e^bound.

    `build` (a MechanismClosure) fills a (trials, 1) array with public
    outputs; the datasets have one column and differ in at most one row.
    Binning is by pooled-sample quantiles so occupied bins carry comparable
    mass; a bin is estimable when both histograms put at least _MIN_COUNT
    samples in it, and a bin passes when its Wilson intervals are consistent
    with the e^bound ratio in both directions. Edges that collapse to a
    single cell are a ConfigError: that cell holds every sample of both
    outputs, so its ratio is 1 whatever the release. So are more bins than
    trials, refused before `build` runs, so every allocation of the check
    stays O(trials).

    Both outputs share one pooled (2, trials) buffer, filled for data_a and
    then for data_b. Each arm is then sorted in place, the edges are order
    statistics of the two sorted arms (`merged_quantiles`) and an arm's
    count in a bin is a difference of edge searches in it, so the check
    holds the pooled buffer and nothing else of the trials' length. A sample
    equal to an interior edge counts in the bin above it.
    """
    if trials < 2 * _MIN_COUNT:
        raise ConfigError("trials too small for the estimability floor")
    if bins < 2:
        # one bin holds every sample of both outputs: its ratio is 1 whatever the release
        raise ConfigError(f"bins must be >= 2, got {bins}")
    n_diff = _rows_differing(data_a, data_b)
    if n_diff > 1:
        raise ConfigError(f"datasets differ in {n_diff} rows; at most one allowed")
    d = np.shape(data_a.X)[1]
    if d != 1:
        raise ConfigError(f"the ratio check takes one-column datasets, got {d} columns")
    if bins > trials:
        raise ConfigError(f"bins = {bins} cells exceed the {trials} trials: "
                          "a cell would average under one sample of either output")

    arms = np.empty((2, trials))
    for data, arm_rng, arm in zip((data_a, data_b), rng.spawn(2), arms):
        build(data, arm_rng, arm[:, None])
    arms.sort(axis=1)  # each arm ascending, in place

    edges = np.unique(merged_quantiles(arms, np.linspace(0.0, 1.0, bins + 1)))
    if len(edges) < 3:
        raise ConfigError(
            "the pooled quantile edges collapse to a single cell, whose ratio is 1 "
            "whatever the release"
        )
    # bin c of an arm holds its samples below interior edge c less those below edge c - 1
    below = [np.searchsorted(arm, edges[1:-1], side="left") for arm in arms]
    counts_a, counts_b = np.diff(below, axis=1, prepend=0, append=trials)

    occupied = (counts_a + counts_b) > 0
    thin = occupied & ((counts_a < _MIN_COUNT) | (counts_b < _MIN_COUNT))
    n_occ = int(occupied.sum())
    if thin.sum() > 0.20 * n_occ:
        raise ConfigError(
            f"{int(thin.sum())} of {n_occ} occupied bins fall below {_MIN_COUNT} samples"
        )
    estimable = occupied & ~thin

    log_ratio = np.log(counts_a[estimable] / counts_b[estimable])  # both >= _MIN_COUNT > 0 here
    bounds = np.array([wilson_interval(int(k), trials) for k in counts_a[estimable]])
    lo_a, hi_a = bounds[:, 0], bounds[:, 1]
    bounds = np.array([wilson_interval(int(k), trials) for k in counts_b[estimable]])
    lo_b, hi_b = bounds[:, 0], bounds[:, 1]

    ok = (np.log(np.maximum(lo_a, 1e-300)) - np.log(hi_b) <= epsilon_bound) & (
        np.log(np.maximum(lo_b, 1e-300)) - np.log(hi_a) <= epsilon_bound
    )
    n_est = int(estimable.sum())
    return RatioReport(
        trials=trials,
        bins_total=len(edges) - 1,
        bins_estimable=n_est,
        fraction_within=float(np.mean(ok)) if n_est else 0.0,
        max_abs_log_ratio=float(np.max(np.abs(log_ratio))) if n_est else 0.0,
        violations=int(np.sum(~ok)),
        epsilon_bound=epsilon_bound,
    )


def _rows_differing(data_a, data_b) -> int:
    xa, ya = np.asarray(data_a.X, dtype=float), np.asarray(data_a.y, dtype=float)
    xb, yb = np.asarray(data_b.X, dtype=float), np.asarray(data_b.y, dtype=float)
    if xa.shape != xb.shape or ya.shape != yb.shape:
        raise ConfigError("datasets must have the same shape")
    diff = np.any(xa != xb, axis=1) | (ya != yb)
    return int(diff.sum())
