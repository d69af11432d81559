"""Closed-form estimator, its covariate and response maps, and sensitivity bounds.

One estimator serves both regimes. It composes four pieces:

    design             the covariates: the reported rows (sub-Gaussian) or
                       the rows l4-shrunk at tau1 (heavy-tailed)
    working_response   z = (A')^-1(project(clip(y)))
    triangular_factor  R, the (d+1) x (d+1) triangular factor of [X | z]
    solve_factor       theta_hat = R11^-1 r, the least-squares solution,
                       with R11 = R[:d, :d] and r = R[:d, d]

The heavy regime is the linear model (A' the identity, no polytope) on the
shrunk design. R is built one row block at a time, and `stack_factors`
combines the factors of disjoint row sets (TSQR), so the full-data factor
comes from the two half factors without another pass over the rows. R11 has
the singular values of X: its SVD carries a condition-number cap, so a
degenerate design raises instead of silently amplifying noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .errors import ConfigError, SingularGramError
from .links import (
    LINEAR,
    LinkBundle,
    ModelKind,
    PolytopeSpec,
    clip_response,
    compute_link_constants,
    project_polytope,
)

SUBGAUSSIAN = "subgaussian"
HEAVY = "heavy"
REGIMES = (SUBGAUSSIAN, HEAVY)

# terms of one row block of the QR factorisation and of the row reductions;
# a block of an operand (512 KiB) stays in a core's L2 cache
_BLOCK_ELEMENTS = 2 ** 16

# largest design condition number the solver accepts
COND_CAP = 1e12

# agents per chunk of a mechanism run: a run holds one chunk's rows at a time
CHUNK_ROWS = 2 ** 16


def check_rows(X: np.ndarray, y: np.ndarray) -> None:
    """Covariate rows and responses must align and be finite."""
    if y.shape[0] != X.shape[0]:
        raise ConfigError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ConfigError("dataset contains non-finite entries")


@dataclass
class Dataset:
    """Design matrix X (rows are covariates) and response vector y.

    A row source for `mechanism.run_mechanism`: `chunks` and
    `covariate_chunks` slice the rows in chunks of CHUNK_ROWS.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        n, d = self.X.shape
        check_rows(self.X, self.y)
        if not (n >= d >= 1):
            raise ConfigError(f"need n >= d >= 1, got n = {n}, d = {d}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """(covariates, responses) of each chunk of CHUNK_ROWS rows, as views."""
        for lo in range(0, self.n, CHUNK_ROWS):
            yield self.X[lo : lo + CHUNK_ROWS], self.y[lo : lo + CHUNK_ROWS]

    def covariate_chunks(self) -> Iterator[np.ndarray]:
        """The covariates of the same chunks."""
        for X, _ in self.chunks():
            yield X


def check_responses(y: np.ndarray, model: ModelKind) -> None:
    """Validate responses against the model's response set."""
    if model.family == "logistic":
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ConfigError("logistic responses must lie in {-1, +1}")
    elif model.family == "poisson":
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise ConfigError("poisson responses must be nonnegative integers")


@dataclass(frozen=True)
class EstimatorSettings:
    """Preprocessing thresholds and regime selector.

    tau1 caps the covariate l4 norm (heavy regime only), tau2 caps |y| and
    tau_theta is the radius of the parameter ball. The heavy regime takes
    the unbounded polytope: its responses are only clipped.
    """

    tau1: float
    tau2: float
    tau_theta: float
    polytope: PolytopeSpec = field(default_factory=PolytopeSpec)
    regime: str = SUBGAUSSIAN

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}")
        if not (self.tau1 > 0 and self.tau2 > 0 and self.tau_theta > 0):
            raise ConfigError("tau1, tau2, tau_theta must be positive")
        if self.regime == HEAVY and self.polytope != PolytopeSpec():
            raise ConfigError("heavy regime takes the unbounded polytope")


def check_regime(model: ModelKind, regime: str) -> None:
    """The heavy regime is defined for the linear model only."""
    if regime == HEAVY and model.family != LINEAR:
        raise ConfigError("heavy regime is defined for the linear model only")


def design(X: np.ndarray, model: ModelKind, settings: EstimatorSettings) -> np.ndarray:
    """Covariates the estimator solves on and the payment predicts with.

    The reported rows themselves in the sub-Gaussian regime; in the heavy
    regime, the rows l4-shrunk at tau1.
    """
    check_regime(model, settings.regime)
    return l4_shrink_rows(X, settings.tau1) if settings.regime == HEAVY else X


def working_response(y: np.ndarray, bundle: LinkBundle, settings: EstimatorSettings) -> np.ndarray:
    """(A')^-1(project(clip(y))): the response the least-squares solve fits."""
    y_clip = clip_response(y, settings.tau2)
    return bundle.A_prime_inv(project_polytope(y_clip, settings.polytope))


def stack_factors(*factors: np.ndarray) -> np.ndarray:
    """Triangular factor of the union of the row sets behind `factors` (TSQR).

    [Q1 R1; Q2 R2] = diag(Q1, Q2) [R1; R2], so the R of the stacked factors
    is an R of the stacked rows.
    """
    return np.linalg.qr(np.vstack(factors), mode="r")


def triangular_factor(
    X: np.ndarray, z: np.ndarray, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Upper-triangular R of the QR factorisation of [X | z], or of its `rows`.

    Each row block of at most _BLOCK_ELEMENTS terms is gathered straight
    from X and z, in the column-major order LAPACK takes, and factored on
    its own; `stack_factors` combines the block factors. R has d + 1
    columns and min(m, d + 1) rows for m rows.
    """
    d = X.shape[1]
    m = X.shape[0] if rows is None else len(rows)
    step = max(d + 1, _BLOCK_ELEMENTS // (d + 1))
    factors = []
    for lo in range(0, m, step):
        take = slice(lo, lo + step) if rows is None else rows[lo : lo + step]
        block = np.empty((d + 1, min(step, m - lo)))
        block[:d] = X[take].T
        block[d] = z[take]
        factors.append(np.linalg.qr(block.T, mode="r"))
    return factors[0] if len(factors) == 1 else stack_factors(*factors)


def solve_factor(R: np.ndarray) -> np.ndarray:
    """Least-squares solution from the factor R of [X | z]; raise if cond(X) > COND_CAP.

    X = Q R11 with R11 = R[:d, :d], so R11 has the singular values of X and
    the solution is R11^-1 R[:d, d], taken through the SVD of R11. R may
    also be a stack (..., rows, d + 1) of factors: each gets its own SVD,
    and one rank-deficient or over-cap factor raises for the whole stack.
    """
    d = R.shape[-1] - 1
    u, s, vt = np.linalg.svd(R[..., :d, :d], full_matrices=False)
    if not (s[..., -1].min() > 0.0 and np.isfinite(s[..., 0]).all()):
        raise SingularGramError("design matrix is rank deficient")
    cond = (s[..., 0] / s[..., -1]).max()
    if cond > COND_CAP:
        raise SingularGramError(
            f"design condition number {cond:.3e} exceeds cap {COND_CAP:.3e}"
        )
    ut_z = (np.swapaxes(u, -1, -2) @ R[..., :d, d, None]) / s[..., None]
    return (np.swapaxes(vt, -1, -2) @ ut_z)[..., 0]


def estimate(data: Dataset, bundle: LinkBundle, settings: EstimatorSettings) -> np.ndarray:
    """Closed-form estimate on raw reports.

    solve_factor(triangular_factor(design(X), working_response(y))); the
    mechanism and the audit oracles compose the same pieces themselves, so
    they map the rows once and factor row subsets of them.
    """
    return solve_factor(
        triangular_factor(
            design(data.X, bundle.model, settings), working_response(data.y, bundle, settings)
        )
    )


def rows_inner(A: np.ndarray, B) -> np.ndarray:
    """Row inner products accumulated column by column in a fixed order.

    The sequential order makes a single row and the same row inside a batch
    reduce bit-identically, which the payment-recompute contract relies on.
    B may be a matrix of matching shape, a single row that broadcasts
    against the rows of A (or A a single row against the rows of B), or a
    d-vector. Inputs taller than one row block reduce block by block, each
    block in the same column order, so the bits do not change.
    """
    A = np.asarray(A, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, d = max(A.shape[0], B.shape[0]), A.shape[1]
    step = max(1, _BLOCK_ELEMENTS // d)
    if n <= step:
        acc = A[:, 0] * B[:, 0]
        for j in range(1, d):
            acc = acc + A[:, j] * B[:, j]
        return acc
    out = np.empty(n)
    term = np.empty(step)
    for lo in range(0, n, step):
        a = A[lo : lo + step] if A.shape[0] > 1 else A
        b = B[lo : lo + step] if B.shape[0] > 1 else B
        acc = out[lo : lo + step]
        t = term[: acc.shape[0]]
        np.multiply(a[:, 0], b[:, 0], out=acc)
        for j in range(1, d):
            acc += np.multiply(a[:, j], b[:, j], out=t)
    return out


def l4_shrink_rows(X: np.ndarray, tau1: float) -> np.ndarray:
    """Row-wise l4 shrinkage: cap each row's l4 norm at tau1, keep directions.

    A zero row stays zero. Each row reduces on its own, so a row shrinks
    bit-identically alone and inside a batch.
    """
    if not tau1 > 0:
        raise ConfigError("tau1 must be positive")
    X = np.ascontiguousarray(X, dtype=float)
    X4 = X * X  # two squarings: X ** 4 calls libm pow for every element
    X4 *= X4
    norms = rows_inner(X4, np.ones(X.shape[1])) ** 0.25
    scale = np.ones_like(norms)
    over = norms > tau1
    scale[over] = tau1 / norms[over]
    return X * scale[:, None]


@dataclass(frozen=True)
class SensitivityBound:
    """One-replacement l2 sensitivity bound at one sample size."""

    delta_n: float


def sensitivity_bound_subgaussian(
    n: int, d: int, kappa1: float, c0: float = 1.0
) -> SensitivityBound:
    """C0 * kappa1 * sqrt(d log n / n)."""
    if n < 2:
        raise ConfigError("sensitivity bound requires n >= 2")
    delta = c0 * kappa1 * math.sqrt(d * math.log(n) / n)
    return SensitivityBound(delta)


def sensitivity_bound_heavy(n: int, d: int, c0: float = 1.0) -> SensitivityBound:
    """C0 * d^(3/4) * (log n / n)^(1/8)."""
    if n < 2:
        raise ConfigError("sensitivity bound requires n >= 2")
    delta = c0 * d ** 0.75 * (math.log(n) / n) ** 0.125
    return SensitivityBound(delta)


def sensitivity_bound(
    n: int, d: int, bundle: LinkBundle, settings: EstimatorSettings, c0: float = 1.0
) -> SensitivityBound:
    """The regime's one-replacement sensitivity bound at size n."""
    if settings.regime == HEAVY:
        return sensitivity_bound_heavy(n, d, c0)
    kappa1 = compute_link_constants(
        bundle, settings.polytope, settings.tau1, settings.tau2, settings.tau_theta
    ).kappa1
    return sensitivity_bound_subgaussian(n, d, kappa1, c0)


# factor by which a calibrated bound exceeds the observed worst case
_C0_MARGIN = 1.5


def calibrate_c0(empirical_max: float, shape_delta: float) -> float:
    """C0 that places the bound _C0_MARGIN times above an observed worst case.

    Data-dependent scaling breaks the privacy accounting, so anything run
    with a calibrated C0 must be flagged non-private in reports.
    """
    if not shape_delta > 0:
        raise ConfigError("shape_delta must be positive")
    return _C0_MARGIN * empirical_max / shape_delta


ReplacementSampler = Callable[[np.random.Generator], Tuple[np.ndarray, float]]


def empirical_sensitivity(
    data: Dataset,
    bundle: LinkBundle,
    settings: EstimatorSettings,
    trials: int,
    seed,
    draw_replacement: ReplacementSampler,
) -> float:
    """Largest observed one-replacement shift of the estimator.

    Each trial replaces one uniformly chosen row with a fresh draw from
    `draw_replacement` and re-runs the estimator; trial t derives its
    randomness from (seed..., t), so results do not depend on execution
    order. `seed` may be an int or a tuple of ints. `design` and
    `working_response` work row by row, so mapping the base rows once and
    each replacement on its own gives the rows of the replaced dataset.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    entropy = [int(v) for v in (seed if isinstance(seed, (tuple, list)) else (seed,))]
    # the rows are mapped once, into arrays of our own: a trial overwrites
    # one row with its mapped replacement, solves, and puts the row back
    X = np.array(design(data.X, bundle.model, settings))
    z = working_response(data.y, bundle, settings)
    base = solve_factor(triangular_factor(X, z))
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng(entropy + [t])
        i = int(rng.integers(data.n))
        x_new, y_new = draw_replacement(rng)
        x_new, y_new = np.asarray(x_new, dtype=float), float(y_new)
        if not (np.all(np.isfinite(x_new)) and math.isfinite(y_new)):
            raise ConfigError("replacement row contains non-finite entries")
        x_i, z_i = X[i].copy(), z[i]
        X[i] = design(x_new[None, :], bundle.model, settings)[0]
        z[i] = working_response(np.array([y_new]), bundle, settings)[0]
        shifted = solve_factor(triangular_factor(X, z))
        X[i], z[i] = x_i, z_i
        worst = max(worst, float(np.linalg.norm(base - shifted)))
    return worst
