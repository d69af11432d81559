"""End-to-end private estimation mechanisms with peer-prediction payments.

One run partitions the reported agents into two groups, releases three
privatized ball-projected estimators (full data plus each half), and pays
every agent a rescaled Brier score comparing two predictions of their
response: one from the opposite group's private estimator and one from the
posterior mean given the agent's own report. Payments of agents in one group
never touch that group's own estimator, which is what makes the released
output jointly private per agent.

Both regimes run the same mechanism. The estimators module maps the reports:
`design` gives the covariates (l4-shrunk rows in the heavy regime) and
`working_response` the response the solve fits. The posterior means take
the raw covariates: a closed form for the linear model, and for the logistic
and Poisson models Gauss-Legendre rules of fixed size in phi, where
sin(phi) = x . theta / (tau_theta ||x||), so a payment uses no random draw
beyond the release and no knob sets its accuracy. For a logistic report of
+-1 the rule folds exactly into a sum of tanh terms over 192 nodes; a
Poisson row takes a 256-node table, or, when its posterior is sharp, two
48-node panels on a window around its mode. Against adaptive quadrature at
d = 1, 2, 3 and 10 the largest error is 1e-14 (logistic, s = tau_theta ||x||
<= 100) and 1e-12 (Poisson, s <= 50 and y <= 5000); see `posterior_mean`.

`run_mechanism` walks a row source (a `Dataset`, or the harness's
`population.PopulationStream`) in chunks of CHUNK_ROWS agents, twice. The
first pass releases: it maps each chunk in place and takes each group's
triangular factor of the chunk's rows; the release stacks each group's
chunk factors (TSQR), gets the full-data factor by stacking the two halves,
solves all three, adds noise and projects. The second pass pays: it walks
the chunks again and, one row block at a time, takes the posterior means
from the raw rows, maps the block, predicts q from the means and p from the
opposite group's release, pays the Brier score and counts the truthful and
rational agents (`rationality_counts`). Each block's payments are summed
into the budget as they are paid, by `math.fsum`, which rounds the exact sum
once, so the budget has the bits of one sum over every payment. A cell keeps
1 byte per agent: the int8 partition. While the partition is drawn, the
shuffled index beside it takes the bytes of the narrowest unsigned type that
holds n - 1 (4 from n = 65,537 to 2^32). Of the rows it keeps one chunk at a time, and
nothing beside it: the posterior means, the design of pass 2, p, q, the
payments and the counts go one row block (`row_blocks`) at a time.

Each step has one implementation in this module: `partition`,
`release_noise` (the three noises, drawn in the order full, half 0, half 1),
`project_ball`, `posterior_mean`, `predictions` and `brier_payment`.
`run_mechanism` composes all of them. The harness composes the same pieces
twice more: the deviation study releases, per trial, only the half that pays
its tagged agent (one noise vector at the half sensitivity), and the privacy
check releases one estimator many times.

`preset_schedule` is the one source of a run's parameters. It resolves every
one of them at the n it is given, the release sensitivities included: the
regime's bound at n for the full-data release and at n // 2 for each half.
The parameters carry the model's link bundle, its constants and m_A, so a
run cannot pair one model's parameters with another model's links.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError
from .estimators import (
    HEAVY,
    EstimatorSettings,
    check_regime,
    check_responses,
    check_rows,
    design,
    row_blocks,
    rows_inner,
    sensitivity_bound,
    solve_factor,
    stack_factors,
    triangular_factor,
    working_response,
)
from .links import (
    LINEAR,
    LOGISTIC,
    POISSON,
    LinkBundle,
    LinkConstants,
    ModelKind,
    PolytopeSpec,
    compute_link_constants,
    make_link_bundle,
)
from .population import tau_alpha_beta_bound
from .privacy import PrivacyParams, compose_account, sample_norm_exponential

# Gauss-Legendre sizes of the logistic and Poisson posterior means (`posterior_mean`)
LOGISTIC_NODES = 192  # on phi in (0, pi/2), mirrored
POISSON_NODES = 256  # on phi in (-pi/2, pi/2), for rows with s sqrt(y + 1) <= POISSON_SHARP
POISSON_SHARP = 20.0
WINDOW_SCAN = 48  # cells of each of the two scans that find a sharp Poisson row's window
WINDOW_DROP = 50.0  # a scan keeps the cells whose log posterior is within this of its maximum
WINDOW_PANEL = 48  # nodes on each side of the mode in that window

# the three releases, in the order their noise is drawn; half g is release 1 + g
RELEASES = ("full", "half0", "half1")


# ---------------------------------------------------------------------------
# Payment rule and privacy cost
# ---------------------------------------------------------------------------

def brier_payment(a1: float, a2: float, p, q):
    """Rescaled Brier score a1 - a2 (p - 2 p q + q^2); concave in q, peak at q = p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = a1 - a2 * (p - 2.0 * p * q + q * q)
    if out.ndim == 0:
        return float(out)
    return out


def privacy_cost(epsilon: float, gamma: float, exponent: int) -> float:
    """Upper envelope (1 + gamma) eps^k of the per-unit privacy cost; the schedule's k is 4 or 9."""
    return (1.0 + gamma) * epsilon ** exponent


# ---------------------------------------------------------------------------
# Parameters and outcome
# ---------------------------------------------------------------------------

@dataclass
class MechanismParams:
    """Every knob of one mechanism run, resolved at one n by `preset_schedule`.

    `n` is the population size the knobs were resolved at; `run_mechanism`
    refuses reports of any other size. `tau_threshold` is the cost threshold
    of the strategy the schedule assumes, and `cost_exponent` the k of the
    privacy cost (1 + gamma) eps^k. `bundle` is the model's links, `constants`
    their worst-case magnitudes at the schedule's subset and clip levels,
    and `m_a` bounds every prediction |p| and |q| of the payment rule. No
    knob sets the posterior means: they are the linear closed form, or
    Gauss-Legendre rules of fixed size whose error is at most 1e-12 for
    s = tau_theta ||x|| <= 50 (`posterior_mean`).
    """

    n: int
    privacy: PrivacyParams
    settings: EstimatorSettings
    a1: float
    a2: float
    alpha: float
    beta: float
    tau_threshold: float
    cost_exponent: int
    bundle: LinkBundle
    constants: LinkConstants
    m_a: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
            raise ConfigError("alpha and beta must lie in (0, 1)")
        if not all(math.isfinite(v) for v in (self.a1, self.a2, self.m_a)):
            # a1 takes m_A^2, which overflows once m_A is above about 1.34e154
            raise ConfigError(
                f"payment parameters must be finite: a1 = {self.a1}, a2 = {self.a2}, "
                f"m_A = {self.m_a}"
            )
        if self.a1 < 0 or self.a2 < 0:
            raise ConfigError("payment parameters must be nonnegative")


@dataclass
class MechanismOutcome:
    theta_bar_full: np.ndarray
    theta_bar_g0: np.ndarray
    theta_bar_g1: np.ndarray
    group_assignment: np.ndarray
    budget: float  # the sum of the payments, which the outcome does not keep
    account: Tuple[float, float]
    noise_norms: Tuple[float, float, float]  # each release's noise norm, in RELEASES order
    # counted while paying, when the row source has costs (`rationality_counts`)
    truthful_frac: Optional[float] = None
    rationality_frac: Optional[float] = None


# ---------------------------------------------------------------------------
# Release: partition, sensitivities, noise, projection
# ---------------------------------------------------------------------------

def check_size(n: int, d: int) -> None:
    """Each half of the partition of n agents needs at least d rows."""
    if n < 2 * d:
        raise ConfigError(
            f"n = {n} is below 2d = {2 * d} (d = {d}): a group of the partition would "
            f"have fewer rows than d"
        )


def partition(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random equal split: group 1 is the last n - n // 2 entries of a permutation.

    The permutation shuffles an index of the narrowest unsigned type that holds
    n - 1. `rng.shuffle` draws the same swaps whatever the dtype, so it is the
    permutation `rng.permutation(n)` gives, with the generator left in the same
    state, at 1, 2 or 4 bytes per agent instead of 8 for n up to 2^32.
    """
    perm = np.arange(n, dtype=np.min_scalar_type(n - 1))
    rng.shuffle(perm)
    assign = np.zeros(n, dtype=np.int8)
    assign[perm[n // 2 :]] = 1
    return assign


def opposite_release(group):
    """Index in RELEASES of the half release that pays the agents of `group`.

    `group` may also be an array of group indices.
    """
    return 2 - group


def release_noise(d: int, privacy: PrivacyParams, rng: np.random.Generator) -> np.ndarray:
    """Noise of the three releases, one row each, drawn one by one in the order of RELEASES."""
    return np.concatenate([
        sample_norm_exponential(d, delta, privacy.epsilon, rng, 1)
        for delta in (privacy.delta_n, privacy.delta_half, privacy.delta_half)
    ])


def project_ball(
    theta: np.ndarray, tau_theta: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Euclidean projection of each row of theta onto the ball of radius tau_theta.

    theta may also be a single vector. Norms go through `rows_inner`, one
    row block (`row_blocks`) at a time, so a row projects bit-identically
    alone and inside a batch. A row whose squared norm overflows is
    projected as the row divided by its largest |entry|, so it lands on the
    sphere, not at 0. The projection goes to a copy of theta, or to `out`,
    a float array of theta's shape that may be theta itself.
    """
    if out is None:
        out = np.array(theta, dtype=float)
    elif out is not theta:
        out[...] = theta
    rows = np.atleast_2d(out)
    for block in row_blocks(*rows.shape):
        part = rows[block]
        with np.errstate(over="ignore"):
            norms = np.sqrt(rows_inner(part, part))
        over = norms > tau_theta
        huge = np.isinf(norms)
        if huge.any():
            # the row over its largest |entry|: the same direction, a norm in [1, sqrt(d)]
            big = np.max(np.abs(part[huge]), axis=1)
            unit = part[huge] / big[:, None]
            radius = np.minimum(big, tau_theta / np.sqrt(rows_inner(unit, unit)))
            part[huge] = unit * radius[:, None]
            over &= ~huge
        part[over] *= (tau_theta / norms[over])[:, None]
    return out


# ---------------------------------------------------------------------------
# Payment: posterior means and the Brier rule
# ---------------------------------------------------------------------------

def _log_gammainc(a: float, z: np.ndarray) -> np.ndarray:
    """log P(a, z) of the regularised lower incomplete gamma, for a > 0, z > 0.

    Power series P(a, z) = z^a e^-z / Gamma(a + 1) * sum_k z^k / ((a+1)...(a+k)).
    Its terms shrink once k > z - a, so it converges quickly for the arguments
    z <= d/2 the prior weights need.
    """
    term = np.ones_like(z)
    total = np.ones_like(z)
    k = 0
    while np.any(term > 1e-17 * total):
        k += 1
        term = term * z / (a + k)
        total = total + term
    return a * np.log(z) - z - math.lgamma(a + 1.0) + np.log(total)


def _legendre(m: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P_m'(x), by the recurrence (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1)."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, m):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, m * (x * p1 - p0) / (x * x - 1.0)


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the m-node Gauss-Legendre rule on (-1, 1).

    Newton's method on P_m from the guesses cos(pi (i - 1/4) / (m + 1/2)),
    then mirrored so that the rule is exactly symmetric. It integrates every
    polynomial of degree up to 2m - 1 exactly. Returned read-only.
    """
    x = -np.cos(math.pi * (np.arange(1, m + 1) - 0.25) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre(m, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    x = 0.5 * (x - x[::-1])
    dp = _legendre(m, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return _read_only(x, 0.5 * (w + w[::-1]))


def _log_prior(d: int, phi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """t = sin(phi) and the log prior density of phi, up to a constant, at each phi.

    The prior of t is e^(-d t^2/2) F(d (1 - t^2)) on [-1, 1], with F the
    chi-square CDF with d - 1 degrees of freedom (1 when d = 1), and
    log cos(phi) is the Jacobian. As a function of phi the density is
    cos(phi)^d times a function analytic on [-pi/2, pi/2], so Gauss-Legendre
    in phi converges geometrically whatever d is.
    """
    t, c = np.sin(phi), np.cos(phi)
    log_prior = np.log(c) - 0.5 * d * t * t
    if d > 1:
        log_prior += _log_gammainc(0.5 * (d - 1), 0.5 * d * c * c)
    return t, log_prior


def _logistic_half(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes t_k in (0, 1) of the logistic rule and their log prior weights.

    The LOGISTIC_NODES Gauss-Legendre nodes on phi in (0, pi/2); mirrored
    to -t_k they make the symmetric rule on (-pi/2, pi/2) that the fold
    sums. A panel edge sits at t = 0, where tanh(s t) turns when s is large.
    """
    x, w = _gauss_legendre(LOGISTIC_NODES)
    t, log_prior = _log_prior(d, 0.25 * math.pi * (x + 1.0))
    return t, log_prior + np.log(w)


@functools.lru_cache(maxsize=64)
def _logistic_terms(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes t_k of `_logistic_half` and the coefficients c_k of the folded
    logistic rule E[t | y, s] = y sum_k c_k tanh(s t_k).

    With pi_k the prior weight of node t_k, c_k = t_k pi_k / sum_j pi_j.
    Returned read-only.
    """
    t, log_weight = _logistic_half(d)
    prior = np.exp(log_weight - np.max(log_weight))
    return _read_only(t, t * prior / np.sum(prior))


@functools.lru_cache(maxsize=64)
def _poisson_table(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes t_k of the POISSON_NODES Gauss-Legendre rule on phi in (-pi/2, pi/2)
    and their log prior weights. Returned read-only."""
    x, w = _gauss_legendre(POISSON_NODES)
    t, log_prior = _log_prior(d, 0.5 * math.pi * x)
    return _read_only(t, log_prior + np.log(w))


def _poisson_log_post(
    s: np.ndarray, y: np.ndarray, t: np.ndarray, log_prior: np.ndarray
) -> np.ndarray:
    """y s t - e^(s t) + log_prior at the nodes t, one row per report (s, y).

    t and log_prior are one row of nodes for every report, or one row each.
    """
    a = s[:, None] * t
    log_post = y[:, None] * a
    log_post -= np.exp(a, out=a)
    log_post += log_prior
    return log_post


def _weighted_mean(t: np.ndarray, log_post: np.ndarray) -> np.ndarray:
    """sum_k t_k w_k / sum_k w_k for each row, with w = e^(log_post - row max); overwrites log_post."""
    log_post -= np.max(log_post, axis=1, keepdims=True)
    w = np.exp(log_post, out=log_post)
    return np.sum(w * t, axis=1) / np.sum(w, axis=1)


def _poisson_window_mean(s: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """E[t | y, s] of sharp Poisson rows, each on its own window in phi.

    The posterior is unimodal in phi. Each of two scans puts WINDOW_SCAN
    equal cells on the current window (first (-pi/2, pi/2)), keeps the cells
    whose midpoint's log posterior lies within WINDOW_DROP of the scan's
    maximum, and widens that span by one cell on each side; the cell of the
    mode is kept, so the mode stays inside. Two Gauss-Legendre panels of
    WINDOW_PANEL nodes then integrate the last window, one on each side of
    its scan's highest midpoint, with the prior evaluated at each node. A
    panel edge at the mode puts the nodes where the posterior is sharpest: a
    single 96-node rule on the same window misses by up to 4e-8 (d = 1,
    s = 50, y = 1), the two panels by 1e-12.
    """
    lo = np.full(s.size, -0.5 * math.pi)
    width = np.full(s.size, math.pi)
    mid = (np.arange(WINDOW_SCAN) + 0.5) / WINDOW_SCAN
    for _ in range(2):
        log_post = _poisson_log_post(s, y, *_log_prior(d, lo[:, None] + width[:, None] * mid))
        keep = log_post >= np.max(log_post, axis=1, keepdims=True) - WINDOW_DROP
        first = np.maximum(np.argmax(keep, axis=1) - 1, 0)
        stop = np.minimum(WINDOW_SCAN + 1 - np.argmax(keep[:, ::-1], axis=1), WINDOW_SCAN)
        cell = width / WINDOW_SCAN
        mode = lo + (np.argmax(log_post, axis=1) + 0.5) * cell
        lo, width = lo + first * cell, (stop - first) * cell
    x, w = _gauss_legendre(WINDOW_PANEL)
    u, log_w = 0.5 * (x + 1.0), np.log(w)
    left, right = mode - lo, lo + width - mode
    phi = np.hstack([lo[:, None] + left[:, None] * u, mode[:, None] + right[:, None] * u])
    t, log_prior = _log_prior(d, phi)
    log_prior += np.hstack([np.log(left)[:, None] + log_w, np.log(right)[:, None] + log_w])
    return _weighted_mean(t, _poisson_log_post(s, y, t, log_prior))


def posterior_mean(X: np.ndarray, y: np.ndarray, model: ModelKind, tau_theta: float) -> np.ndarray:
    """Posterior mean of theta given each reported pair (X[k], y[k]).

    The two families use two priors. The linear model keeps its conjugate
    closed form under the untruncated prior N(0, (tau_theta^2/d) I) and then
    projects the mean onto the ball; it does not use the generator's prior,
    which truncates that Gaussian to the ball, and its q = x . mean is
    larger than under the truncated prior: on agents drawn as the generator
    draws them, the median ratio is 1.97 at d = 2, 1.77 at d = 3 and 1.41
    at d = 10. A quadrature would cost n x nodes likelihood terms, about
    10^8 at n = 10^6.

    The logistic and Poisson means use the generator's prior. Their
    likelihoods depend on theta only through x . theta, and the prior's part
    orthogonal to x is symmetric, so the mean is x tau_theta E[t | y] / ||x||
    with t = x . theta / (tau_theta ||x||),
    and 0 when x = 0. Whatever x is, t has prior density e^(-d t^2/2)
    F(d (1 - t^2)) on [-1, 1], with F the chi-square CDF with d - 1 degrees
    of freedom (F = 1 when d = 1). E[t | y] is a Gauss-Legendre rule in phi,
    t = sin(phi), whose tables are built once per d; with s = tau_theta ||x||:

    - A logistic report y is +1 or -1, and its likelihood is sigma(2 y s t).
      The prior is symmetric in t and sigma(u) + sigma(-u) = 1, so the mean
      folds exactly into E[t | y] = y sum_k c_k tanh(s t_k) over
      LOGISTIC_NODES nodes on phi in (0, pi/2) (`_logistic_terms`). Its
      error is at most 1e-14 for s <= 100 and about 2e-9 at s = 10^4.
    - A Poisson row with s sqrt(y + 1) <= POISSON_SHARP weighs the
      POISSON_NODES nodes on (-pi/2, pi/2) by their log posterior; its error
      is at most 1e-12. A sharper row integrates its own window in phi
      (`_poisson_window_mean`); for s <= 50 and y <= 5000 its error is at
      most 1e-12 too.

    The errors are against adaptive quadrature at d = 1, 2, 3 and 10. Each
    step is row-wise, one row block (`row_blocks`) at a time, so one row
    gives the same bits alone and inside a batch.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    d = X.shape[1]
    norm2 = rows_inner(X, X)
    if model.family == LINEAR:
        s0sq = tau_theta ** 2 / d
        denom = model.noise_std ** 2 + s0sq * norm2
        scale = np.divide(s0sq * y, denom, out=np.zeros_like(denom), where=denom > 0)
        # the ball projection of the row scale * x, applied to the scale
        norms = np.abs(scale) * np.sqrt(norm2)
        over = norms > tau_theta
        scale[over] *= tau_theta / norms[over]
        return scale[:, None] * X

    norms = np.sqrt(norm2)
    s = tau_theta * norms
    mean_t = np.empty(X.shape[0])
    if model.family == LOGISTIC:
        t, coef = _logistic_terms(d)
        # an eighth of a full block: the loop allocates each block's buffer
        # before it frees the last, and two full 512 KiB ones raised a
        # glm-posterior cell's peak RSS by 1 MB; this size is no slower
        for block in row_blocks(X.shape[0], 8 * LOGISTIC_NODES):
            a = s[block, None] * t
            np.tanh(a, out=a)
            a *= coef
            mean_t[block] = y[block] * np.sum(a, axis=1)
    else:  # Poisson
        sharp = s * np.sqrt(y + 1.0) > POISSON_SHARP
        broad = np.flatnonzero(~sharp)
        t, log_weight = _poisson_table(d)
        for block in row_blocks(broad.size, 3 * POISSON_NODES):
            rows = broad[block]
            mean_t[rows] = _weighted_mean(t, _poisson_log_post(s[rows], y[rows], t, log_weight))
        sharp = np.flatnonzero(sharp)
        for block in row_blocks(sharp.size, 8 * WINDOW_PANEL):
            rows = sharp[block]
            mean_t[rows] = _poisson_window_mean(s[rows], y[rows], d)
    scale = np.divide(tau_theta * mean_t, norms, out=np.zeros_like(norms), where=norms > 0)
    return scale[:, None] * X


def predictions(x_pay: np.ndarray, theta: np.ndarray, bundle: LinkBundle) -> np.ndarray:
    """A'(x_pay . theta) for each row: the response the payment rule predicts.

    p takes theta = the opposite group's release, q the posterior mean given
    the agent's own report. theta may be one row per row of x_pay, or a
    single row of either side broadcasts against the rows of the other.
    """
    return bundle.A_prime(rows_inner(x_pay, theta))


# ---------------------------------------------------------------------------
# The mechanism
# ---------------------------------------------------------------------------

def run_mechanism(
    reported,
    params: MechanismParams,
    rng: np.random.Generator,
) -> MechanismOutcome:
    """Execute one full mechanism run on the reports of a row source.

    `reported` has `n`, `d` and `chunks()`, which yields (covariates,
    reports, costs or None) of consecutive agents and yields the same
    agents again on a second walk (`Dataset` slices its rows in chunks of
    CHUNK_ROWS and has no costs). Steps, in order: random equal partition;
    pass 1, per chunk: the design written over the chunk's rows, the working
    response, and each group's triangular factor of them; the release: each
    group's chunk factors stacked, three least-squares solves (all rows,
    from the two stacked halves; group 0; group 1), three independent noise
    draws (full, group 0, group 1) at the schedule's sensitivities and ball
    projections; pass 2, per row block of each chunk: the posterior means
    from the raw rows, the design, q = A'(x_design . posterior mean),
    p = A'(x_design . opposite group's release), the Brier payment and,
    given costs, the counts of `rationality_counts` at the schedule's
    tau_threshold and cost_exponent. The links are the parameters' own
    (`params.bundle`).

    Pass 1 writes into the chunks `chunks()` yields, so a row source yields
    arrays of the mechanism's own (`Dataset` yields copies); pass 2 only
    reads them. The budget is summed block by block as pass 2 pays; no
    payment outlives its block. The outcome's `truthful_frac` and
    `rationality_frac` are None when the row source has no costs.
    """
    settings = params.settings
    n, d = reported.n, reported.d
    if n != params.n:
        raise ConfigError(f"parameters resolved at n = {params.n} cannot run {n} agents")
    check_size(n, d)

    assign = partition(n, rng)
    factors = ([], [])
    lo = 0
    for X, y, costs in reported.chunks():
        hi = lo + X.shape[0]
        _first_pass(X, y, assign[lo:hi], factors, params)
        has_costs = costs is not None
        del X, y, costs  # the next chunk is drawn with this one dropped
        lo = hi

    halves = [stack_factors(*found) for found in factors]
    thetas = np.stack([solve_factor(R) for R in (stack_factors(*halves), *halves)])
    noise = release_noise(d, params.privacy, rng)
    bars = project_ball(thetas + noise, settings.tau_theta)

    account = compose_account(params.privacy)
    unit = privacy_cost(*account, params.cost_exponent)
    counts = [0, 0]
    paid = _second_pass(reported, assign, bars, params, unit, counts)
    # each block's memoryview hands fsum Python floats, not numpy scalars; fsum
    # rounds the exact sum once, so block by block it gives the bits of one sum
    budget = math.fsum(itertools.chain.from_iterable(paid))
    truthful, rational = counts

    return MechanismOutcome(
        theta_bar_full=bars[0],
        theta_bar_g0=bars[1],
        theta_bar_g1=bars[2],
        group_assignment=assign,
        budget=budget,
        account=account,
        noise_norms=tuple(float(np.linalg.norm(v)) for v in noise),
        truthful_frac=truthful / n if has_costs else None,
        rationality_frac=(rational / truthful if truthful else 1.0) if has_costs else None,
    )


def _first_pass(X, y, assign, factors, params: MechanismParams) -> None:
    """One chunk of pass 1: map X in place, append each group's triangular factor.

    `design` maps one row block (`row_blocks`) at a time and the mapped rows
    overwrite it in X; it works row by row, so the bits do not depend on the
    blocks. The factors then take the whole mapped chunk, because per-block
    factors would change the TSQR bits.
    """
    settings, bundle, model = params.settings, params.bundle, params.bundle.model
    check_rows(X, y)
    check_responses(y, model)
    for block in row_blocks(*X.shape):
        # design refuses a heavy non-linear cell here, before working_response
        X[block] = design(X[block], model, settings)
    z = working_response(y, bundle, settings)
    for group, found in enumerate(factors):
        rows = np.flatnonzero(assign == group)
        if rows.size:
            found.append(triangular_factor(X, z, rows))


def _second_pass(reported, assign, bars, params: MechanismParams, unit: float, counts):
    """Pass 2: pay each row block of each chunk and yield a memoryview of its payments.

    Per block: the posterior means from the raw rows, the design, q and p
    (`predictions`) and the Brier payment. Given costs, the block's
    `rationality_counts` at `unit`, the per-unit privacy cost, are added to
    counts = [truthful, rational] before the block is yielded.
    """
    settings, bundle, model = params.settings, params.bundle, params.bundle.model
    lo = 0
    for X, y, costs in reported.chunks():
        for block in row_blocks(*X.shape):
            means = posterior_mean(X[block], y[block], model, settings.tau_theta)
            x_pay = design(X[block], model, settings)
            q = predictions(x_pay, means, bundle)
            # each row's p against the release that pays its group
            groups = assign[lo + block.start : lo + block.stop]
            p = predictions(x_pay, bars[opposite_release(groups)], bundle)
            pay = brier_payment(params.a1, params.a2, p, q)
            if costs is not None:
                t, r = rationality_counts(pay, costs[block], unit, params.tau_threshold)
                counts[0] += t
                counts[1] += r
            yield memoryview(pay)
        lo += X.shape[0]
        del X, y, costs  # the next chunk is drawn with this one dropped


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def rationality_counts(
    payments: np.ndarray, costs: np.ndarray, unit: float, tau: float
) -> Tuple[int, int]:
    """The agents with cost c <= tau, and those of them whose utility is nonnegative.

    The utility is payment - c unit, with `unit` the per-unit privacy cost
    (1 + gamma) eps^k of the run's account. `run_mechanism` applies it to
    each row block it pays. The counts are Python ints, so the fractions
    taken from them are Python floats.
    """
    mask = costs <= tau
    truthful = int(np.count_nonzero(mask))
    mask &= payments >= costs * unit
    return truthful, int(np.count_nonzero(mask))


def budget_bound(n: int, a1: float, a2: float, m_a: float) -> float:
    """Worst-case total payment n (a1 + a2 (M_A + M_A^2))."""
    if n < 0 or a1 < 0 or a2 < 0 or m_a < 0:
        raise ConfigError("budget bound inputs must be nonnegative")
    return n * (a1 + a2 * (m_a + m_a * m_a))


def rationality_floor(
    a2: float, m_a: float, tau_threshold: float, cost_exponent: int,
    account: Tuple[float, float],
) -> float:
    """Smallest a1 making below-threshold participation individually rational.

    m_a bounds every prediction |p| and |q| the payment rule can make, and
    `account` is the run's total (epsilon, gamma) (`privacy.compose_account`).
    """
    cost = privacy_cost(*account, cost_exponent)
    return a2 * (m_a + 3.0 * m_a * m_a) + tau_threshold * cost


# ---------------------------------------------------------------------------
# Parameter schedules
# ---------------------------------------------------------------------------

# delta range of each schedule, closed on the left: the worked logistic and
# Poisson subsets sit exactly at delta = 1/4
_DELTA_RANGE = {
    LINEAR: (0.25, 1.0 / 3.0),
    LOGISTIC: (0.25, 0.5),
    POISSON: (0.25, 1.0 / 3.0),
    HEAVY: (1.0 / 9.0, 1.0 / 8.0),
}


def preset_schedule(
    model: ModelKind,
    regime: str,
    n: int,
    delta: float,
    d: int,
    *,
    cost_lambda: float = 1.0,
    tau_theta: float = 1.0,
    sigma: float = 1.0,
    c0: float = 1.0,
) -> MechanismParams:
    """Fill every mechanism knob from the per-model parameter schedules at size n.

    The schedules are linear, logistic and Poisson (sub-Gaussian regime) and
    heavy. Every value is a function of n, delta and the population: the
    exponents follow the schedule, every hidden Theta(.) constant is 1, and
    `sigma` is the covariates' scale (`population.covariate_sigma`), which
    sets the sub-Gaussian clip tau1 = sigma sqrt(log n). The response subset
    is [-1 + 2 n^-delta, 1 - 2 n^-delta] (logistic), [n^-delta, inf)
    (Poisson), else the whole line. beta = 1/n, as is gamma_n. a1 is set
    exactly to the individual-rationality floor, with the threshold taken
    from the closed-form bound (1/lambda) log(1/(alpha beta)). The release
    sensitivities are the regime's bound, scaled by c0, at n (the full-data
    release) and at n // 2 (each half release). With n >= 4 and delta in
    the schedule's range, alpha, beta, gamma_n and gamma_half all lie below 1.
    The link bundle and its constants are resolved once, in every schedule.
    """
    if n < 4:
        raise ConfigError("schedule requires n >= 4")
    check_regime(model, regime)
    schedule = HEAVY if regime == HEAVY else model.family
    lo, hi = _DELTA_RANGE[schedule]
    if not (lo <= delta < hi):
        raise ConfigError(f"delta = {delta} outside the {schedule} schedule range [{lo}, {hi})")
    log_n = math.log(n)
    polytope = PolytopeSpec()
    if schedule == HEAVY:
        tau1 = (n / log_n) ** 0.25
        tau2 = (n / log_n) ** 0.125
        epsilon = n ** (-delta)
        alpha = n ** (-1.0 + delta)
        a2 = n ** (-0.5 - 9.0 * delta)
        cost_exponent = 9
    else:
        tau1 = sigma * math.sqrt(log_n)
        if schedule == LINEAR:
            tau2 = n ** ((1.0 - 3.0 * delta) / 2.0)
            epsilon = n ** (-delta)
            a2 = n ** (-4.0 * delta)
        elif schedule == LOGISTIC:
            tau2 = 1.0
            epsilon = n ** (-delta)
            a2 = n ** (-4.0 * delta)
            edge = 2.0 * n ** (-delta)
            if edge >= 1.0:
                raise ConfigError(f"n = {n} too small for logistic subset at delta = {delta}")
            polytope = PolytopeSpec(-1.0 + edge, 1.0 - edge)
        else:
            tau2 = n ** 0.25
            epsilon = n ** (-3.0 * delta)
            a2 = n ** (-6.0 * delta)
            polytope = PolytopeSpec(n ** (-delta), math.inf)
        alpha = n ** (-3.0 * delta)
        cost_exponent = 4

    beta = n ** (-1.0)
    # the o(1) failure probability of each release's privacy claim
    gamma_n = n ** (-1.0)
    gamma_half = (n // 2) ** (-1.0)

    settings = EstimatorSettings(
        tau1=tau1, tau2=tau2, tau_theta=tau_theta, polytope=polytope, regime=regime
    )
    tau_thr = tau_alpha_beta_bound(alpha, beta, cost_lambda)
    bundle = make_link_bundle(model)
    constants = compute_link_constants(bundle, polytope, tau1, tau2, tau_theta)
    # the heavy design is l4-shrunk and A' is the identity, so
    # |x . theta| <= ||x||_2 tau_theta <= d^(1/4) ||x||_4 tau_theta <= d^(1/4) tau1 tau_theta
    m_a = d ** 0.25 * tau1 * tau_theta if schedule == HEAVY else constants.m_a
    delta_n = sensitivity_bound(n, d, regime, constants.kappa1, c0)
    delta_half = sensitivity_bound(n // 2, d, regime, constants.kappa1, c0)
    privacy = PrivacyParams(epsilon, delta_n, delta_half, gamma_n, gamma_half)

    return MechanismParams(
        n=n,
        privacy=privacy,
        settings=settings,
        a1=rationality_floor(a2, m_a, tau_thr, cost_exponent, compose_account(privacy)),
        a2=a2,
        alpha=alpha,
        beta=beta,
        tau_threshold=tau_thr,
        cost_exponent=cost_exponent,
        bundle=bundle,
        constants=constants,
        m_a=m_a,
    )
