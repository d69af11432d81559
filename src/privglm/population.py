"""Synthetic agent populations, the threshold strategy and the cost threshold.

An agent is a covariate vector, a true response drawn from the configured
model, and a privacy-cost coefficient with an exponential tail. The threshold
strategy reports the truth whenever the cost coefficient is at most tau and
otherwise the constant 0 coerced into the model's response set (-1 for
logistic): the paper lets such an agent report anything, and this draws
nothing at random. It never alters the covariates.

`draw_agents` is the one agent draw: k stacked groups of m agents, each
under its own theta*, as covariates, then responses, then costs.
`generate_population` draws theta* (unless the spec fixes it) and then one
group of spec.n agents; the deviation study's opposite groups and the
sensitivity oracle's replacement rows call `draw_agents` directly. A
`PopulationStream` is the population of a simulate cell: the same draw,
chunk by chunk, each chunk from its own generator, reported under the
threshold strategy (`threshold_reports`). It is a row source for
`mechanism.run_mechanism`: `chunk(c)` draws chunk c again from the start of
its stream whenever it is read, so the stream keeps no per-agent vector. A
materialised population is the chunk draws copied out of the stream's
buffer (`PopulationStream.population`).

`covariate_sigma` is the covariates' scale, the sigma of the schedule's
sub-Gaussian clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import ConfigError
from .estimators import CHUNK_ROWS, chunk_slice, row_blocks
from .links import LINEAR, LOGISTIC, POISSON, ModelKind


# ---------------------------------------------------------------------------
# Covariate distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubGaussianIsotropic:
    """Gaussian N(0, (sigma^2/d) I); per-direction variance sigma^2/d."""

    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"subgaussian_isotropic sigma must be finite and > 0, got {self.sigma}")


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
    # Cholesky factor of the covariates' covariance or scale matrix, None for
    # the isotropic law; factored once here, read by every covariate draw
    covariate_factor: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ConfigError("population needs n >= 1 and d >= 1")
        if not self.tau_theta > 0:
            raise ConfigError("tau_theta must be positive")
        tau = float(self.tau_theta)
        if not math.isfinite(tau * tau):
            # draw_theta_star accepts a draw whose squared norm is at most tau_theta^2
            raise ConfigError(
                f"tau_theta = {self.tau_theta:g} is too large: its square overflows "
                f"(tau_theta must be below about 1.34e154)"
            )
        if not self.cost_lambda > 0:
            raise ConfigError("cost_lambda must be positive")
        if isinstance(self.covariates, StudentTCovariates) and not self.covariates.dof > 4:
            raise ConfigError("Student-t covariates need dof > 4 for finite fourth moments")
        self.covariate_factor = _covariate_factor(self.covariates, self.d)
        if self.theta_star is not None:
            self.theta_star = np.asarray(self.theta_star, dtype=float)
            if self.theta_star.shape != (self.d,):
                raise ConfigError(f"theta_star must be a flat list of d = {self.d} numbers, "
                                  f"got shape {self.theta_star.shape}")
            if np.linalg.norm(self.theta_star) > self.tau_theta + 1e-12:
                raise ConfigError("theta_star must lie in the tau_theta ball")


def _check_spd(name: str, matrix, d: int) -> np.ndarray:
    """Cholesky factor of a covariance or scale matrix, which must be d x d,
    symmetric and positive definite."""
    M = np.asarray(matrix, dtype=float)
    if M.shape != (d, d):
        raise ConfigError(f"{name} must be a {d}x{d} matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ConfigError(f"{name} has non-finite entries")
    if np.any(np.abs(M - M.T) > 1e-12 * np.max(np.abs(M))):
        raise ConfigError(f"{name} is not symmetric")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ConfigError(f"{name} is not positive definite") from None


def _covariate_factor(cov: CovariateSpec, d: int) -> Optional[np.ndarray]:
    """Cholesky factor L of the law's covariance or scale matrix (I/d when a
    Student-t law gives no scale), checked; None for the isotropic law."""
    if isinstance(cov, SubGaussianIsotropic):
        return None
    if isinstance(cov, SubGaussianCov):
        return _check_spd("subgaussian_cov.cov", cov.cov, d)
    if cov.scale is None:
        return np.linalg.cholesky(np.eye(d) / d)
    return _check_spd("student_t.scale", cov.scale, d)


def covariate_sigma(spec: PopulationSpec) -> float:
    """sigma of the isotropic law N(0, (sigma^2/d) I) that dominates the covariates.

    The sub-Gaussian clip tau1 = sigma sqrt(log n) of the schedule takes it.
    For a covariance matrix S it is sqrt(d lambda_max(S)). A Student-t law
    is not sub-Gaussian, so no sigma dominates it; the heavy regime's clip
    does not read sigma.
    """
    cov = spec.covariates
    if isinstance(cov, SubGaussianIsotropic):
        return cov.sigma
    if isinstance(cov, StudentTCovariates):
        raise ConfigError(
            "Student-t covariates are not sub-Gaussian: no sigma makes the clip "
            "tau1 = sigma sqrt(log n) hold; run them in the heavy regime"
        )
    return math.sqrt(spec.d * float(np.linalg.eigvalsh(np.asarray(cov.cov, dtype=float))[-1]))


@dataclass
class Population:
    """Struct-of-arrays view of the generated agents."""

    X: np.ndarray
    y_true: np.ndarray
    costs: np.ndarray
    theta_star: np.ndarray


def draw_theta_star(d: int, tau_theta: float, rng: np.random.Generator, k: int = 1) -> np.ndarray:
    """k draws (a k x d array) of N(0, (tau_theta^2/d) I) truncated to the tau_theta ball.

    Each round draws one d-vector for every row still missing, in one
    `standard_normal` call, and accepts the draws in row order; the accepted
    draws fill the rows in that order. So the rows, and the generator's
    state after them, are those of k draws one after the other, each
    redrawing until it lands in the ball. A draw's norm is taken as
    `np.linalg.norm` takes it (the square root of its dot product with
    itself), so each draw is accepted as a lone draw would be. A draw whose
    squared norm overflows reads a norm of inf and is rejected; one is
    accepted whenever tau_theta^2 is finite, which `PopulationSpec` requires.
    """
    scale = tau_theta / math.sqrt(d)
    theta = np.empty((k, d))
    filled = 0
    while filled < k:
        draws = rng.standard_normal((k - filled, d)) * scale
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.matmul(draws[:, None, :], draws[:, :, None])[:, 0, 0])
        accepted = draws[norms <= tau_theta]
        theta[filled : filled + len(accepted)] = accepted
        filled += len(accepted)
    return theta


def _scale_rows(z: np.ndarray, L: np.ndarray) -> np.ndarray:
    """z @ L.T written into z, one row block (`row_blocks`) at a time.

    A row of a matrix product does not depend on the other rows, so the
    blocks give the bits of the one-shot product while holding one block's
    copy instead of a second n x d array.
    """
    for block in row_blocks(*z.shape):
        z[block] = z[block] @ L.T
    return z


def _draw_covariates(
    spec: PopulationSpec, rng: np.random.Generator, n: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """n covariate rows, in `out` if given; every scaling is applied in place to the drawn normals.

    A draw into `out` gives the bits of a fresh draw and leaves rng where a
    fresh draw leaves it.
    """
    cov = spec.covariates
    z = rng.standard_normal((n, spec.d), out=out)
    if isinstance(cov, SubGaussianIsotropic):
        z *= cov.sigma / math.sqrt(spec.d)
        return z
    _scale_rows(z, spec.covariate_factor)
    if isinstance(cov, SubGaussianCov):
        return z
    w = rng.chisquare(cov.dof, size=n)
    np.divide(cov.dof, w, out=w)
    z *= np.sqrt(w, out=w)[:, None]
    return z


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
    return draw_theta_star(spec.d, spec.tau_theta, rng)[0]


def _draw_costs(spec: PopulationSpec, size, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Exponential(cost_lambda) cost coefficients, so P(c <= t) = 1 - exp(-cost_lambda t)."""
    return rng.exponential(1.0, size) * (1.0 / spec.cost_lambda)


def draw_agents(
    spec: PopulationSpec, theta_star: np.ndarray, m: int, rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covariates (in `out` if given), true responses and costs of k stacked groups of m agents.

    theta_star is k x d (a d-vector is one group); group t is rows
    [t m, (t + 1) m) and draws its responses under theta_star[t]. The draws
    come in this order: every group's covariates, then their responses, then
    their costs. spec.n is not read.
    """
    theta = np.atleast_2d(theta_star)
    k, d = theta.shape
    X = _draw_covariates(spec, rng, k * m, out)
    eta = np.matmul(X.reshape(k, m, d), theta[:, :, None]).ravel()
    y = _draw_responses(spec.model, eta, rng)
    return X, y, _draw_costs(spec, k * m, rng)


def generate_population(spec: PopulationSpec, rng: np.random.Generator) -> Population:
    """Draw theta*, then spec.n agents; deterministic given rng state."""
    theta = _theta_star(spec, rng)
    return Population(*draw_agents(spec, theta, spec.n, rng), theta)


ChunkRng = Callable[[int], np.random.Generator]


class PopulationStream:
    """A cell's spec.n agents, drawn in chunks and reported under the threshold strategy at tau.

    A row source for `mechanism.run_mechanism`: `chunk(c)` draws the agents
    `estimators.chunk_slice(n, c)` with `draw_agents` from
    population_rng(c). Chunk 0's generator draws theta* first, unless the
    spec fixes it, so a population of at most CHUNK_ROWS agents is exactly
    `generate_population(spec, population_rng(0))`.

    Each read of a chunk draws it again from the start of its stream, so
    any two reads give the same agents bit for bit, in any order. The stream
    keeps no per-agent vector: every chunk's covariates are drawn into one
    buffer of at most CHUNK_ROWS rows.
    """

    def __init__(self, spec: PopulationSpec, tau: float, population_rng: ChunkRng):
        self.spec, self.tau = spec, tau
        self.n, self.d = spec.n, spec.d
        self._population_rng = population_rng
        rng = population_rng(0)
        self.theta_star = _theta_star(spec, rng)
        self._chunk0_state = rng.bit_generator.state  # chunk 0's agents start here
        self._buffer = np.empty((chunk_slice(spec.n, 0).stop, spec.d))  # chunk 0 is the largest

    def _draw(self, c: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Chunk c's `draw_agents` draw, from the start of its stream, into the buffer."""
        rows = chunk_slice(self.n, c)
        size = rows.stop - rows.start
        rng = self._population_rng(c)
        if c == 0:
            rng.bit_generator.state = self._chunk0_state
        return draw_agents(self.spec, self.theta_star, size, rng, self._buffer[:size])

    def chunk(self, c: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(covariates, reports, costs) of chunk c.

        The covariates are the buffer, which the next chunk's draw
        overwrites, so the caller may write into them until it draws again.
        """
        X, y, costs = self._draw(c)
        return X, threshold_reports(y, costs, self.tau, self.spec.model), costs

    def population(self) -> Population:
        """The whole population at once: the chunk draws, copied out of the buffer."""
        X, y, costs = np.empty((self.n, self.d)), np.empty(self.n), np.empty(self.n)
        for c in range(-(-self.n // CHUNK_ROWS)):
            rows = chunk_slice(self.n, c)
            X[rows], y[rows], costs[rows] = self._draw(c)
        return Population(X, y, costs, self.theta_star)


def replacement_sampler(spec: PopulationSpec, theta_star: np.ndarray):
    """One-agent sampler used by the empirical sensitivity oracle: a `draw_agents` row."""
    theta = np.asarray(theta_star, dtype=float)

    def draw(rng: np.random.Generator) -> Tuple[np.ndarray, float]:
        X, y, _ = draw_agents(spec, theta, 1, rng)
        return X[0], float(y[0])

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
class WorstOfGrid:
    """A deviation study's grid of reports; the study reports the most profitable one."""

    grid: Tuple[float, ...]

    def __post_init__(self):
        if not self.grid:
            raise ConfigError("a grid rule needs a nonempty grid")


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


def threshold_reports(
    y_true: np.ndarray, costs: np.ndarray, tau: float, model: ModelKind
) -> np.ndarray:
    """Reports under the threshold strategy: the truth iff cost <= tau, else 0 coerced."""
    return np.where(costs <= tau, y_true, coerce_response(0.0, model))
