"""Synthetic agent populations, the threshold strategy and the cost threshold.

An agent is a covariate vector, a true response drawn from the configured
model, and a privacy-cost coefficient with an exponential tail. The threshold
strategy reports the truth whenever the cost coefficient is at most tau and
otherwise the constant 0 coerced into the model's response set (-1 for
logistic): the paper lets such an agent report anything, and this draws
nothing at random. It never alters the covariates.

`generate_population` draws theta* (unless the spec fixes it) and then one
block of agents: covariates, responses, costs, in that order. A
`PopulationStream` is the population of a simulate cell: the same draw,
chunk by chunk, CHUNK_ROWS agents at a time, each chunk from its own
generator, reported under the threshold strategy. It is a row source for
`mechanism.run_mechanism`, which walks it twice: once for the reports, once
more for the covariates alone, which it redraws because they come first in
each chunk's stream. A materialised population is the chunk draws
concatenated (`PopulationStream.population`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Tuple, Union

import numpy as np

from .errors import ConfigError
from .estimators import CHUNK_ROWS, Dataset
from .links import LINEAR, LOGISTIC, POISSON, ModelKind


# ---------------------------------------------------------------------------
# Covariate distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubGaussianIsotropic:
    """Gaussian N(0, (sigma^2/d) I); per-direction variance sigma^2/d."""

    sigma: float = 1.0


@dataclass(frozen=True, eq=False)
class SubGaussianCov:
    """Gaussian N(0, cov) for an explicit SPD covariance."""

    cov: np.ndarray


@dataclass(frozen=True, eq=False)
class StudentTCovariates:
    """Multivariate Student-t with dof > 4 (finite fourth moments).

    `scale` is the scale matrix of the elliptical construction
    x = L z sqrt(dof / w), z ~ N(0, I), w ~ chi2(dof); it defaults to I/d to
    keep row norms comparable to the isotropic sub-Gaussian case.
    """

    dof: float = 5.0
    scale: Optional[np.ndarray] = None


CovariateSpec = Union[SubGaussianIsotropic, SubGaussianCov, StudentTCovariates]


@dataclass
class PopulationSpec:
    n: int
    d: int
    model: ModelKind
    covariates: CovariateSpec = field(default_factory=SubGaussianIsotropic)
    tau_theta: float = 1.0
    theta_star: Optional[np.ndarray] = None  # None draws from the truncated prior
    cost_lambda: float = 1.0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ConfigError("population needs n >= 1 and d >= 1")
        if not self.tau_theta > 0:
            raise ConfigError("tau_theta must be positive")
        if not self.cost_lambda > 0:
            raise ConfigError("cost_lambda must be positive")
        if isinstance(self.covariates, StudentTCovariates) and not self.covariates.dof > 4:
            raise ConfigError("Student-t covariates need dof > 4 for finite fourth moments")
        if isinstance(self.covariates, SubGaussianCov):
            _check_spd("subgaussian_cov.cov", self.covariates.cov, self.d)
        if isinstance(self.covariates, StudentTCovariates) and self.covariates.scale is not None:
            _check_spd("student_t.scale", self.covariates.scale, self.d)
        if self.theta_star is not None:
            self.theta_star = np.asarray(self.theta_star, dtype=float).ravel()
            if self.theta_star.shape[0] != self.d:
                raise ConfigError("theta_star dimension mismatch")
            if np.linalg.norm(self.theta_star) > self.tau_theta + 1e-12:
                raise ConfigError("theta_star must lie in the tau_theta ball")


def _check_spd(name: str, matrix, d: int) -> None:
    """A covariance or scale matrix must be d x d, symmetric and positive definite."""
    M = np.asarray(matrix, dtype=float)
    if M.shape != (d, d):
        raise ConfigError(f"{name} must be a {d}x{d} matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ConfigError(f"{name} has non-finite entries")
    if np.any(np.abs(M - M.T) > 1e-12 * np.max(np.abs(M))):
        raise ConfigError(f"{name} is not symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ConfigError(f"{name} is not positive definite") from None


@dataclass
class Population:
    """Struct-of-arrays view of the generated agents."""

    X: np.ndarray
    y_true: np.ndarray
    costs: np.ndarray
    theta_star: np.ndarray
    spec: PopulationSpec


def draw_theta_star(d: int, tau_theta: float, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample N(0, (tau_theta^2/d) I) truncated to the tau_theta ball."""
    scale = tau_theta / math.sqrt(d)
    while True:
        theta = rng.standard_normal(d) * scale
        if np.linalg.norm(theta) <= tau_theta:
            return theta


def _draw_covariates(spec: PopulationSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    cov = spec.covariates
    if isinstance(cov, SubGaussianIsotropic):
        return rng.standard_normal((n, spec.d)) * (cov.sigma / math.sqrt(spec.d))
    if isinstance(cov, SubGaussianCov):
        L = np.linalg.cholesky(np.asarray(cov.cov, dtype=float))
        return rng.standard_normal((n, spec.d)) @ L.T
    scale = cov.scale if cov.scale is not None else np.eye(spec.d) / spec.d
    L = np.linalg.cholesky(np.asarray(scale, dtype=float))
    z = rng.standard_normal((n, spec.d)) @ L.T
    w = rng.chisquare(cov.dof, size=n)
    return z * np.sqrt(cov.dof / w)[:, None]


def _draw_responses(
    model: ModelKind, eta: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    if model.family == LINEAR:
        return eta + model.noise_std * rng.standard_normal(eta.shape[0])
    if model.family == LOGISTIC:
        # P(y = 1) = e^eta / (e^eta + e^-eta)
        p1 = 1.0 / (1.0 + np.exp(-2.0 * eta))
        return np.where(rng.random(eta.shape[0]) < p1, 1.0, -1.0)
    return rng.poisson(np.exp(eta)).astype(float)


def _theta_star(spec: PopulationSpec, rng: np.random.Generator) -> np.ndarray:
    """The spec's theta*, or a draw from the truncated prior when it fixes none."""
    if spec.theta_star is not None:
        return spec.theta_star.copy()
    return draw_theta_star(spec.d, spec.tau_theta, rng)


def generate_population(spec: PopulationSpec, rng: np.random.Generator) -> Population:
    """Draw theta*, covariates, responses and costs; deterministic given rng state."""
    theta = _theta_star(spec, rng)
    X = _draw_covariates(spec, rng, spec.n)
    eta = X @ theta
    y = _draw_responses(spec.model, eta, rng)
    return Population(X, y, _draw_costs(spec, y.shape, rng), theta, spec)


def _draw_costs(spec: PopulationSpec, size, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Exponential(cost_lambda) cost coefficients, so P(c <= t) = 1 - exp(-cost_lambda t)."""
    return rng.exponential(1.0, size) * (1.0 / spec.cost_lambda)


ChunkRng = Callable[[int], np.random.Generator]


class PopulationStream:
    """The spec.n agents of one cell, drawn in chunks and reported under a threshold strategy.

    A row source for `mechanism.run_mechanism`. Chunk c holds agents
    [c CHUNK_ROWS, (c + 1) CHUNK_ROWS) and draws them with
    `generate_population` (theta* fixed) from population_rng(c). Chunk 0's
    generator draws theta* first, unless the spec fixes it, so a population
    of at most CHUNK_ROWS agents is exactly
    `generate_population(spec, population_rng(0))`.

    `chunks` yields each chunk's covariates and reports and keeps the costs
    in `costs`; `covariate_chunks` redraws the covariates alone from the
    start of each chunk's stream. No pass keeps more than one chunk's rows.
    """

    def __init__(self, spec: PopulationSpec, strategy: Threshold, population_rng: ChunkRng):
        self.spec, self.strategy = spec, strategy
        self.n, self.d = spec.n, spec.d
        self._population_rng = population_rng
        rng = population_rng(0)
        self.theta_star = _theta_star(spec, rng)
        self._chunk0_state = rng.bit_generator.state  # chunk 0's agents start here
        self._chunk_spec = replace(spec, theta_star=self.theta_star)
        self.costs = np.empty(spec.n)

    def _rng(self, c: int) -> np.random.Generator:
        """Chunk c's population generator, at the start of its agents' draws."""
        rng = self._population_rng(c)
        if c == 0:
            rng.bit_generator.state = self._chunk0_state
        return rng

    def _bounds(self) -> Iterator[Tuple[int, int, int]]:
        for c, lo in enumerate(range(0, self.n, CHUNK_ROWS)):
            yield c, lo, min(lo + CHUNK_ROWS, self.n)

    def _draw(self, c: int, rows: int) -> Population:
        return generate_population(replace(self._chunk_spec, n=rows), self._rng(c))

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """(covariates, reports) of each chunk; fills `costs` as it goes."""
        for c, lo, hi in self._bounds():
            pop = self._draw(c, hi - lo)
            self.costs[lo:hi] = pop.costs
            yield pop.X, _threshold_reports(pop.y_true, pop.costs, self.strategy, self.spec.model)

    def covariate_chunks(self) -> Iterator[np.ndarray]:
        """The covariates of each chunk again, redrawn without responses or costs."""
        for c, lo, hi in self._bounds():
            yield _draw_covariates(self.spec, self._rng(c), hi - lo)

    def population(self) -> Population:
        """The whole population at once: the chunk draws concatenated."""
        pops = [self._draw(c, hi - lo) for c, lo, hi in self._bounds()]
        return Population(
            np.concatenate([p.X for p in pops]),
            np.concatenate([p.y_true for p in pops]),
            np.concatenate([p.costs for p in pops]),
            self.theta_star,
            self.spec,
        )


def replacement_sampler(spec: PopulationSpec, theta_star: np.ndarray):
    """One-agent sampler used by the empirical sensitivity oracle."""
    fixed = replace(spec, n=1, theta_star=np.asarray(theta_star, dtype=float))

    def draw(rng: np.random.Generator) -> Tuple[np.ndarray, float]:
        x = _draw_covariates(fixed, rng, 1)[0]
        y = _draw_responses(fixed.model, np.atleast_1d(x @ fixed.theta_star), rng)[0]
        return x, float(y)

    return draw


# ---------------------------------------------------------------------------
# Cost threshold tau_{alpha, beta}
# ---------------------------------------------------------------------------

def tau_alpha_beta_bound(alpha: float, beta: float, lam: float) -> float:
    """Closed-form upper bound (1/lam) log(1/(alpha beta)) under exponential costs."""
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ConfigError("alpha and beta must lie in (0, 1)")
    if not lam > 0:
        raise ConfigError("lambda must be positive")
    return math.log(1.0 / (alpha * beta)) / lam


# ---------------------------------------------------------------------------
# Reporting strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    value: float = 0.0


@dataclass(frozen=True)
class SignFlip:
    pass


@dataclass(frozen=True)
class AdditiveNoise:
    scale: float = 1.0


@dataclass(frozen=True)
class WorstOfGrid:
    """A deviation study's grid of reports; the study reports the most profitable one."""

    grid: Tuple[float, ...]

    def __post_init__(self):
        if not self.grid:
            raise ConfigError("a grid rule needs a nonempty grid")


MisreportRule = Union[Constant, SignFlip, AdditiveNoise, WorstOfGrid]


@dataclass(frozen=True)
class Threshold:
    """Report the truth iff cost <= tau, else 0 coerced into the response set."""

    tau: float


def coerce_response(values: np.ndarray, model: ModelKind) -> np.ndarray:
    """Map arbitrary reals into the model's response set.

    Logistic reports snap to the nearest of {-1, +1} (ties to -1); Poisson
    reports round and clamp to nonnegative integers; linear reports pass
    through.
    """
    values = np.asarray(values, dtype=float)
    if model.family == LOGISTIC:
        return np.where(values > 0.0, 1.0, -1.0)
    if model.family == POISSON:
        return np.maximum(0.0, np.round(values))
    return values


def _rule_values(
    rule: MisreportRule, y_true: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The reports of a per-agent misreport rule; a grid is the deviation study's own."""
    if isinstance(rule, Constant):
        return np.full_like(y_true, rule.value)
    if isinstance(rule, SignFlip):
        return -y_true
    if isinstance(rule, AdditiveNoise):
        return y_true + rule.scale * rng.standard_normal(y_true.shape[0])
    raise ConfigError(f"unknown misreport rule {rule!r}")


def _threshold_reports(
    y_true: np.ndarray, costs: np.ndarray, strategy: Threshold, model: ModelKind
) -> np.ndarray:
    """Reports under the threshold strategy: the truth iff cost <= tau, else 0 coerced."""
    return np.where(costs <= strategy.tau, y_true, coerce_response(0.0, model))


def apply_strategy(pop: Population, strategy: Threshold) -> Dataset:
    """Reports under the threshold strategy; covariates pass through untouched."""
    reported = _threshold_reports(pop.y_true, pop.costs, strategy, pop.spec.model)
    return Dataset(pop.X.copy(), reported)
