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
from typing import Callable, Tuple

import numpy as np

from .errors import ConfigError, InsufficientMassError

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


@dataclass(frozen=True)
class NoiseSample:
    """One noise draw with its recomputable magnitude."""

    v: np.ndarray
    magnitude: float


def sample_norm_exponential_batch(
    d: int, delta: float, epsilon: float, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw `count` vectors v = r * u, r ~ Gamma(d, delta/epsilon), u uniform on the sphere."""
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    if count < 1:
        raise ConfigError("count must be >= 1")
    if not (delta > 0 and epsilon > 0):
        raise ConfigError("delta and epsilon must be positive")
    r = rng.gamma(shape=d, scale=delta / epsilon, size=count)
    u = rng.standard_normal((count, d))
    norms = np.sqrt(np.sum(u * u, axis=1))
    while np.any(norms == 0.0):  # probability-zero event, possible in floats
        bad = norms == 0.0
        u[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.sqrt(np.sum(u * u, axis=1))
    return u * (r / norms)[:, None]


def sample_norm_exponential(
    d: int, delta: float, epsilon: float, rng: np.random.Generator
) -> NoiseSample:
    """Draw one noise vector with the norm-exponential density."""
    v = sample_norm_exponential_batch(d, delta, epsilon, rng, 1)[0]
    return NoiseSample(v, float(np.linalg.norm(v)))


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


MechanismClosure = Callable[[object, np.random.Generator, int], np.ndarray]


def _bin_ids(samples: np.ndarray, edges_per_dim) -> np.ndarray:
    ids = np.zeros(samples.shape[0], dtype=np.int64)
    for j, edges in enumerate(edges_per_dim):
        # interior edges only; values outside land in the first/last bin
        idx = np.searchsorted(edges[1:-1], samples[:, j], side="right")
        ids = ids * (len(edges) - 1) + idx
    return ids


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

    `build(dataset, rng, trials)` must return a (trials, d) array of public
    outputs, d <= 2. The two datasets may differ in at most one row. Binning
    is by pooled-sample quantiles so occupied bins carry comparable mass; a
    bin is estimable when both histograms put at least _MIN_COUNT samples in
    it, and a bin passes when its Wilson intervals are consistent with the
    e^bound ratio in both directions.
    """
    if trials < 2 * _MIN_COUNT:
        raise ConfigError("trials too small for the estimability floor")
    n_diff = _rows_differing(data_a, data_b)
    if n_diff > 1:
        raise ConfigError(f"datasets differ in {n_diff} rows; at most one allowed")

    rng_a, rng_b = rng.spawn(2)
    out_a = np.atleast_2d(np.asarray(build(data_a, rng_a, trials), dtype=float))
    out_b = np.atleast_2d(np.asarray(build(data_b, rng_b, trials), dtype=float))
    if out_a.shape != (trials, out_a.shape[1]) or out_a.shape != out_b.shape:
        raise ConfigError("mechanism closure returned outputs of unexpected shape")
    d = out_a.shape[1]
    if d > 2:
        raise ConfigError("ratio check supports outputs of dimension <= 2")

    pooled = np.concatenate([out_a, out_b], axis=0)
    edges_per_dim = []
    for j in range(d):
        edges = np.unique(np.quantile(pooled[:, j], np.linspace(0.0, 1.0, bins + 1)))
        if len(edges) < 2:
            edges = np.array([edges[0] - 0.5, edges[0] + 0.5])
        edges_per_dim.append(edges)

    n_cells = int(np.prod([len(e) - 1 for e in edges_per_dim]))
    counts_a = np.bincount(_bin_ids(out_a, edges_per_dim), minlength=n_cells)
    counts_b = np.bincount(_bin_ids(out_b, edges_per_dim), minlength=n_cells)

    occupied = (counts_a + counts_b) > 0
    thin = occupied & ((counts_a < _MIN_COUNT) | (counts_b < _MIN_COUNT))
    n_occ = int(occupied.sum())
    if n_occ == 0:
        raise InsufficientMassError("no occupied bins")
    if thin.sum() > 0.20 * n_occ:
        raise InsufficientMassError(
            f"{int(thin.sum())} of {n_occ} occupied bins fall below {_MIN_COUNT} samples"
        )
    estimable = occupied & ~thin

    ka = counts_a[estimable].astype(float)
    kb = counts_b[estimable].astype(float)
    log_ratio = np.log(ka / kb)  # both >= _MIN_COUNT > 0 here
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
        bins_total=n_cells,
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
