"""Closed-form estimator, its covariate and response maps, and its sensitivity bound.

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

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .errors import ConfigError, SingularGramError
from .links import (
    LINEAR,
    LOGISTIC,
    POISSON,
    LinkBundle,
    ModelKind,
    PolytopeSpec,
    clip_response,
    project_polytope,
)

SUBGAUSSIAN = "subgaussian"
HEAVY = "heavy"
REGIMES = (SUBGAUSSIAN, HEAVY)

# terms of one row block of the QR factorisation and of the row reductions;
# a block of an operand (512 KiB) stays in a core's L2 cache
BLOCK_ELEMENTS = 2 ** 16

# largest design condition number the solver accepts
COND_CAP = 1e12

# agents per chunk of a mechanism run: a run holds one chunk's rows at a time
CHUNK_ROWS = 2 ** 16


def chunk_slice(n: int, c: int) -> slice:
    """The agents of chunk c of n: CHUNK_ROWS of them, fewer in the last chunk."""
    lo = c * CHUNK_ROWS
    return slice(lo, min(lo + CHUNK_ROWS, n))


def row_blocks(rows: int, width: int = 1) -> Iterator[slice]:
    """Slices of range(rows) into row blocks of at most BLOCK_ELEMENTS terms.

    A row has `width` terms, so a block has at most BLOCK_ELEMENTS // width
    rows, and at least one; only the last block may be shorter.
    """
    step = max(1, BLOCK_ELEMENTS // width)
    for lo in range(0, rows, step):
        yield slice(lo, min(lo + step, rows))


def check_rows(X: np.ndarray, y: np.ndarray) -> None:
    """Covariate rows and responses must align and be finite."""
    if y.shape[0] != X.shape[0]:
        raise ConfigError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ConfigError("dataset contains non-finite entries")


@dataclass
class Dataset:
    """Design matrix X (rows are covariates) and response vector y.

    The rows `estimate`, `empirical_sensitivity` and the privacy ratio check
    solve on.
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


def check_responses(y: np.ndarray, model: ModelKind) -> None:
    """Validate responses against the model's response set."""
    if model.family == LOGISTIC:
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ConfigError("logistic responses must lie in {-1, +1}")
    elif model.family == POISSON:
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
    is an R of the stacked rows. The factors may carry the same leading
    stack axes (..., rows, d + 1); each stack entry is combined on its own.
    A lone factor is returned as it is.
    """
    if len(factors) == 1:
        return factors[0]
    return np.linalg.qr(np.concatenate(factors, axis=-2), mode="r")


def triangular_factor(
    X: np.ndarray, z: np.ndarray, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Upper-triangular R of the QR factorisation of [X | z], or of its `rows`.

    Each row block of at most BLOCK_ELEMENTS terms is gathered straight
    from X and z, in the column-major order LAPACK takes, and factored on
    its own; `stack_factors` combines the block factors. R has d + 1
    columns and min(m, d + 1) rows for m rows. A block has at least d + 1
    rows, so each block's R is square; that floor is why the blocks are not
    `row_blocks`, whose floor of one row would change the bits at d >= 256.

    X (..., m, d) and z (..., m) may carry leading stack axes: each stack
    entry is blocked as a lone [X | z] would be, and its R is the lone R
    bit for bit, because every block keeps its rows. `rows` index the m axis.
    """
    *stack, m, d = X.shape
    if rows is not None:
        m = len(rows)
    step = max(d + 1, BLOCK_ELEMENTS // (d + 1))
    factors = []
    for lo in range(0, m, step):
        if rows is None:
            X_rows, z_rows = X[..., lo : lo + step, :], z[..., lo : lo + step]
        else:  # np.take gathers rows about twice as fast as an index array does
            take = rows[lo : lo + step]
            X_rows, z_rows = np.take(X, take, axis=-2), np.take(z, take, axis=-1)
        block = np.empty((*stack, d + 1, z_rows.shape[-1]))
        block[..., :d, :] = np.swapaxes(X_rows, -1, -2)
        block[..., d, :] = z_rows
        del X_rows, z_rows  # a gathered copy is dead here, and qr copies block again
        factors.append(np.linalg.qr(np.swapaxes(block, -1, -2), mode="r"))
    return stack_factors(*factors)


def solve_factor(R: np.ndarray) -> np.ndarray:
    """Least-squares solution from the factor R of [X | z]; raise if cond(X) > COND_CAP.

    X = Q R11 with R11 = R[:d, :d], so R11 has the singular values of X and
    the solution is R11^-1 R[:d, d], taken through the SVD of R11. R may
    also be a stack (..., rows, d + 1) of factors: each gets its own SVD,
    and one rank-deficient or over-cap factor raises for the whole stack. A
    factor of fewer than d rows (a design of fewer than d rows) raises too.
    """
    d = R.shape[-1] - 1
    if R.shape[-2] < d:
        raise SingularGramError(
            f"a design of {R.shape[-2]} rows cannot determine d = {d} coefficients"
        )
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
    d-vector. For d > 1 a temporary of the output's length sits beside the
    output, so callers pass one row block (`row_blocks`) at a time.
    """
    A = np.asarray(A, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    acc = A[:, 0] * B[:, 0]
    for j in range(1, A.shape[1]):
        acc += A[:, j] * B[:, j]
    return acc


def l4_shrink_rows(X: np.ndarray, tau1: float) -> np.ndarray:
    """Row-wise l4 shrinkage: cap each row's l4 norm at tau1, keep directions.

    A zero row stays zero. Each row reduces on its own, so a row shrinks
    bit-identically alone and inside a batch. The norms are taken one row
    block (`row_blocks`) at a time. When no row shrinks the result is X
    itself (as a contiguous float array), so a caller that writes into the
    result copies it first; otherwise it is a copy of X with the shrunk rows
    scaled.
    """
    if not tau1 > 0:
        raise ConfigError("tau1 must be positive")
    X = np.ascontiguousarray(X, dtype=float)
    ones = np.ones(X.shape[1])
    norms = np.empty(X.shape[0])
    for block in row_blocks(*X.shape):
        X4 = X[block] * X[block]  # two squarings: X ** 4 calls libm pow
        X4 *= X4
        norms[block] = rows_inner(X4, ones) ** 0.25
    over = norms > tau1
    if not over.any():
        return X
    out = X.copy()
    out[over] *= (tau1 / norms[over])[:, None]
    return out


def sensitivity_bound(n: int, d: int, regime: str, kappa1: float, c0: float = 1.0) -> float:
    """The regime's one-replacement l2 sensitivity bound at size n.

    heavy         C0 d^(3/4) (log n / n)^(1/8)
    sub-Gaussian  C0 kappa1 sqrt(d log n / n), kappa1 the link constant

    kappa1 is a number: the schedule's `MechanismParams.constants.kappa1`.
    """
    if n < 2:
        raise ConfigError("sensitivity bound requires n >= 2")
    if regime == HEAVY:
        return c0 * d ** 0.75 * (math.log(n) / n) ** 0.125
    return c0 * kappa1 * math.sqrt(d * math.log(n) / n)


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
    the replacements on their own gives the rows of the replaced datasets.

    The trials are solved in blocks (`row_blocks`, a trial counted as the
    n (d + 1) terms of its mapped rows). Each trial of a block writes its
    mapped replacement into its own copy of the mapped rows, and the block
    takes one stacked `triangular_factor` and one stacked `solve_factor`;
    the copies are made once, one per trial of the first block, and get
    their base rows back after each block. The blocks are taken one at a
    time, so a run holds nothing per trial beyond its block.
    The stacked factor keeps each trial's row blocks, so every shift has
    the bits of a lone re-solve. A rank-deficient or over-cap trial raises
    for its block.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    entropy = [int(v) for v in (seed if isinstance(seed, (tuple, list)) else (seed,))]
    X = design(data.X, bundle.model, settings)
    z = working_response(data.y, bundle, settings)
    base = solve_factor(triangular_factor(X, z))
    n, d = X.shape
    blocks = row_blocks(trials, n * (d + 1))
    first = next(blocks)
    # one copy of the mapped rows per trial of the first, largest block: a
    # block writes its replacements into the copies and puts the base rows back
    copies = first.stop - first.start
    Xs, zs = np.repeat(X[None], copies, axis=0), np.repeat(z[None], copies, axis=0)
    worst = 0.0
    for block in itertools.chain([first], blocks):
        b = block.stop - block.start
        rows, x_new, y_new = np.empty(b, dtype=np.intp), np.empty((b, d)), np.empty(b)
        for k, t in enumerate(range(block.start, block.stop)):
            rng = np.random.default_rng(entropy + [t])
            rows[k] = rng.integers(n)
            x_new[k], y_new[k] = draw_replacement(rng)
        if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(y_new))):
            raise ConfigError("replacement row contains non-finite entries")
        trial = np.arange(b)
        Xs[trial, rows] = design(x_new, bundle.model, settings)
        zs[trial, rows] = working_response(y_new, bundle, settings)
        for shifted in solve_factor(triangular_factor(Xs[:b], zs[:b])):
            worst = max(worst, float(np.linalg.norm(base - shifted)))
        Xs[trial, rows], zs[trial, rows] = X[rows], z[rows]
    return worst
