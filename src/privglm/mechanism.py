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
the raw covariates: a closed form for the linear model, a deterministic 1-D
quadrature for the logistic and Poisson models, so a payment uses no random
draw beyond the release. For a logistic report of +-1 that quadrature folds
exactly into a sum of tanh terms over its positive nodes.

`run_mechanism` walks a row source (a `Dataset`, or the harness's
`population.PopulationStream`) in chunks of CHUNK_ROWS agents, twice. The
first pass maps each chunk, takes each group's triangular factor of the
chunk's rows and the agents' posterior predictions q. The release stacks
each group's chunk factors (TSQR), gets the full-data factor by stacking the
two halves, solves all three, adds noise and projects. The second pass maps
each chunk's covariates again and pays each agent against the opposite
group's release. Between the passes the run keeps per-agent vectors only.

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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
    LinkBundle,
    ModelKind,
    PolytopeSpec,
    check_preset_delta,
    compute_link_constants,
    make_link_bundle,
    preset_polytope,
)
from .population import tau_alpha_beta_bound
from .privacy import PrivacyParams, compose_account, sample_norm_exponential

MIN_POSTERIOR_SAMPLES = 1000
# terms of one row block of the (agents x nodes) posterior table
_BLOCK_ELEMENTS = 2 ** 15

# the three releases, in the order their noise is drawn; half g is release 1 + g
RELEASES = ("full", "half0", "half1")


# ---------------------------------------------------------------------------
# Payment rule and cost functions
# ---------------------------------------------------------------------------

def brier_payment(a1: float, a2: float, p, q):
    """Rescaled Brier score a1 - a2 (p - 2 p q + q^2); concave in q, peak at q = p."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = a1 - a2 * (p - 2.0 * p * q + q * q)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CostFunction:
    """Upper envelope F(eps, gamma) of the per-unit privacy cost.

    quartic    (1 + gamma) eps^4   (sub-Gaussian schedules)
    nonic      (1 + gamma) eps^9   (heavy-tailed schedule)
    """

    kind: str = "quartic"

    def __post_init__(self):
        if self.kind not in ("quartic", "nonic"):
            raise ConfigError(f"unknown cost function kind {self.kind!r}")

    def __call__(self, epsilon: float, gamma: float) -> float:
        if self.kind == "quartic":
            return (1.0 + gamma) * epsilon ** 4
        return (1.0 + gamma) * epsilon ** 9


# ---------------------------------------------------------------------------
# Parameters and outcome
# ---------------------------------------------------------------------------

@dataclass
class MechanismParams:
    """Every knob of one mechanism run, resolved at one n by `preset_schedule`.

    `n` is the population size the knobs were resolved at; `run_mechanism`
    refuses reports of any other size. `tau_threshold` is the cost threshold
    of the strategy the schedule assumes. `posterior_samples` is the number
    of quadrature nodes behind each logistic or Poisson posterior mean; it is
    checked here, once, against the floor of 1000.
    """

    n: int
    privacy: PrivacyParams
    settings: EstimatorSettings
    a1: float
    a2: float
    alpha: float
    beta: float
    tau_threshold: float
    cost_fn: CostFunction = field(default_factory=CostFunction)
    posterior_samples: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
            raise ConfigError("alpha and beta must lie in (0, 1)")
        if self.a1 < 0 or self.a2 < 0:
            raise ConfigError("payment parameters must be nonnegative")
        if self.posterior_samples < MIN_POSTERIOR_SAMPLES:
            raise ConfigError(f"posterior_samples must be >= {MIN_POSTERIOR_SAMPLES}")


@dataclass
class MechanismOutcome:
    theta_bar_full: np.ndarray
    theta_bar_g0: np.ndarray
    theta_bar_g1: np.ndarray
    payments: np.ndarray
    group_assignment: np.ndarray
    budget: float
    account: Tuple[float, float]
    noise_norms: Tuple[float, float, float]  # each release's noise norm, in RELEASES order
    p: np.ndarray
    q: np.ndarray


# ---------------------------------------------------------------------------
# Release: partition, sensitivities, noise, projection
# ---------------------------------------------------------------------------

def partition(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random equal split: group 1 is the last n - n // 2 entries of a permutation."""
    perm = rng.permutation(n)
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


def project_ball(theta: np.ndarray, tau_theta: float) -> np.ndarray:
    """Euclidean projection of each row of theta onto the ball of radius tau_theta.

    theta may also be a single vector. Norms go through `rows_inner`, so a
    row projects bit-identically alone and inside a batch.
    """
    out = np.atleast_2d(np.array(theta, dtype=float))
    norms = np.sqrt(rows_inner(out, out))
    over = norms > tau_theta
    out[over] *= (tau_theta / norms[over])[:, None]
    return out.reshape(np.shape(theta))


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


@functools.lru_cache(maxsize=64)
def _quadrature(d: int, nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes t = sin(phi) of the midpoint rule in phi and their log prior weights.

    They depend only on (d, nodes), so they are computed once per pair and
    returned read-only.
    """
    phi = (np.arange(nodes) + 0.5) * (math.pi / nodes) - 0.5 * math.pi
    t, c = np.sin(phi), np.cos(phi)
    log_prior = np.log(c) - 0.5 * d * t * t  # log cos(phi) is the Jacobian
    if d > 1:
        log_prior += _log_gammainc(0.5 * (d - 1), 0.5 * d * c * c)
    t.flags.writeable = False
    log_prior.flags.writeable = False
    return t, log_prior


@functools.lru_cache(maxsize=64)
def _logistic_terms(d: int, nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Positive nodes t_k of `_quadrature(d, nodes)` and the coefficients c_k
    of the folded logistic rule E[t | y, s] = y sum_k c_k tanh(s t_k).

    With pi_k = exp(log_prior_k - max log_prior), c_k = t_k pi_k / Z, where Z
    is the prior weight of the positive nodes plus half that of the middle
    node of an odd count. Returned read-only, like `_quadrature`.
    """
    t, log_prior = _quadrature(d, nodes)
    prior = np.exp(log_prior - np.max(log_prior))
    upper = slice(nodes - nodes // 2, None)
    total = np.sum(prior[upper])
    if nodes % 2:
        total += 0.5 * prior[nodes // 2]
    coef = t[upper] * prior[upper] / total
    coef.flags.writeable = False
    return t[upper], coef


def posterior_mean(
    X: np.ndarray, y: np.ndarray, model: ModelKind, tau_theta: float, nodes: int
) -> np.ndarray:
    """Posterior mean of theta given each reported pair (X[k], y[k]).

    The prior is the generator's, N(0, (tau_theta^2/d) I) truncated to the
    ball. The linear model keeps its conjugate closed form, computed with the
    untruncated prior and then ball-projected: a quadrature would cost
    n x nodes likelihood terms, 10^9 at n = 10^6.

    The logistic and Poisson likelihoods depend on theta only through
    x . theta, and the prior's part orthogonal to x is symmetric, so the
    mean is x tau_theta E[t | y] / ||x|| with t = x . theta / (tau_theta ||x||),
    and 0 when x = 0. Whatever x is, t has prior density e^(-d t^2/2)
    F(d (1 - t^2)) on [-1, 1], with F the chi-square CDF with d - 1 degrees
    of freedom (F = 1 when d = 1). E[t | y] is the midpoint rule in phi,
    t = sin(phi), over `nodes` nodes, taken in row blocks of at most
    _BLOCK_ELEMENTS terms. Every step is row-wise, so one row gives the same
    bits alone and inside a batch.

    A logistic report y is +1 or -1, and its likelihood is sigma(2 y s t)
    with s = tau_theta ||x||. The nodes and the prior are symmetric in t and
    sigma(u) + sigma(-u) = 1, so the rule folds exactly into the node pairs
    +-t_k: E[t | y] = y sum_{t_k > 0} c_k tanh(s t_k), with constant
    coefficients c_k (see `_logistic_terms`). The Poisson rule weighs every
    node by its log posterior.
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
    mean_t = np.empty(X.shape[0])
    if model.family == LOGISTIC:
        t, coef = _logistic_terms(d, nodes)
        step = max(1, 2 * _BLOCK_ELEMENTS // nodes)  # a row has nodes // 2 terms
        for lo in range(0, X.shape[0], step):
            a = (tau_theta * norms[lo : lo + step])[:, None] * t
            np.tanh(a, out=a)
            a *= coef
            mean_t[lo : lo + step] = y[lo : lo + step] * np.sum(a, axis=1)
    else:  # Poisson
        t, log_prior = _quadrature(d, nodes)
        step = max(1, _BLOCK_ELEMENTS // nodes)
        # in place, so one block holds two buffers of its size at a time
        for lo in range(0, X.shape[0], step):
            a = (tau_theta * norms[lo : lo + step])[:, None] * t
            log_post = y[lo : lo + step, None] * a
            log_post -= np.exp(a, out=a)
            log_post += log_prior
            log_post -= np.max(log_post, axis=1, keepdims=True)
            w = np.exp(log_post, out=log_post)
            mean_t[lo : lo + step] = np.sum(np.multiply(w, t, out=a), axis=1) / np.sum(w, axis=1)
    scale = np.divide(tau_theta * mean_t, norms, out=np.zeros_like(norms), where=norms > 0)
    return scale[:, None] * X


def predictions(x_pay: np.ndarray, theta: np.ndarray, bundle: LinkBundle) -> np.ndarray:
    """A'(x_pay . theta) for each row: the response the payment rule predicts.

    p takes theta = the opposite group's release, q the posterior mean given
    the agent's own report. A single row of either side broadcasts against
    the rows of the other.
    """
    return bundle.A_prime(rows_inner(x_pay, theta))


# ---------------------------------------------------------------------------
# The mechanism
# ---------------------------------------------------------------------------

def run_mechanism(
    reported,
    bundle: LinkBundle,
    params: MechanismParams,
    rng: np.random.Generator,
) -> MechanismOutcome:
    """Execute one full mechanism run on the reports of a row source.

    `reported` has `n`, `d`, `chunks()` yielding (covariates, reports) of
    consecutive agents and `covariate_chunks()` yielding the same covariates
    again, chunk by chunk (`Dataset` slices its rows in chunks of
    CHUNK_ROWS). Steps, in order: random equal partition; pass 1, per chunk:
    the design and the working response, each group's triangular factor of
    them, and q = A'(x_design . posterior mean); the release: each group's
    chunk factors stacked, three least-squares solves (all rows, from the two
    stacked halves; group 0; group 1), three independent noise draws (full,
    group 0, group 1) at the schedule's sensitivities and ball projections;
    pass 2, per chunk: p = A'(x_design . opposite group's release) and the
    Brier payment.
    """
    settings, model = params.settings, bundle.model
    n, d = reported.n, reported.d
    if n != params.n:
        raise ConfigError(f"parameters resolved at n = {params.n} cannot run {n} agents")
    if n < 2 * d:
        raise ConfigError(f"n = {n} leaves a group smaller than d = {d}")

    assign = partition(n, rng)
    factors = ([], [])
    q = np.empty(n)
    lo = 0
    for X, y in reported.chunks():
        check_rows(X, y)
        check_responses(y, model)
        hi = lo + X.shape[0]
        x_pay = design(X, model, settings)
        z = working_response(y, bundle, settings)
        for group, found in enumerate(factors):
            rows = np.flatnonzero(assign[lo:hi] == group)
            if rows.size:
                found.append(triangular_factor(x_pay, z, rows))
        means = posterior_mean(X, y, model, settings.tau_theta, params.posterior_samples)
        q[lo:hi] = predictions(x_pay, means, bundle)
        lo = hi

    halves = [found[0] if len(found) == 1 else stack_factors(*found) for found in factors]
    thetas = np.stack([solve_factor(R) for R in (stack_factors(*halves), *halves)])
    noise = release_noise(d, params.privacy, rng)
    bars = project_ball(thetas + noise, settings.tau_theta)

    p, pay = np.empty(n), np.empty(n)
    lo = 0
    for X in reported.covariate_chunks():
        hi = lo + X.shape[0]
        opposite = bars[opposite_release(assign[lo:hi])]
        p[lo:hi] = predictions(design(X, model, settings), opposite, bundle)
        pay[lo:hi] = brier_payment(params.a1, params.a2, p[lo:hi], q[lo:hi])
        lo = hi

    return MechanismOutcome(
        theta_bar_full=bars[0],
        theta_bar_g0=bars[1],
        theta_bar_g1=bars[2],
        payments=pay,
        group_assignment=assign,
        budget=math.fsum(pay),
        account=compose_account(params.privacy),
        noise_norms=tuple(float(np.linalg.norm(v)) for v in noise),
        p=p,
        q=q,
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def rationality_check(
    outcome: MechanismOutcome, costs: np.ndarray, cost_fn: CostFunction, tau: float
) -> float:
    """Fraction of below-threshold agents whose realized utility is nonnegative."""
    costs = np.asarray(costs, dtype=float)
    if costs.shape[0] != outcome.payments.shape[0]:
        raise ConfigError("costs and payments must align by agent index")
    eps_tot, gamma_tot = outcome.account
    below = costs <= tau
    if not np.any(below):
        return 1.0
    # utility payment - cost F(account) >= 0, compared without a utility vector
    rational = outcome.payments >= costs * cost_fn(eps_tot, gamma_tot)
    return float(np.mean(rational[below]))


def budget_bound(n: int, a1: float, a2: float, m_a: float) -> float:
    """Worst-case total payment n (a1 + a2 (M_A + M_A^2))."""
    if n < 0 or a1 < 0 or a2 < 0 or m_a < 0:
        raise ConfigError("budget bound inputs must be nonnegative")
    return n * (a1 + a2 * (m_a + m_a * m_a))


def prediction_bound(model: ModelKind, settings: EstimatorSettings, d: int) -> float:
    """The regime's m_A: a bound on every prediction |p| and |q| of the payment rule.

    In the heavy regime the design is l4-shrunk and A' is the identity, so
    |x . theta| <= ||x||_2 tau_theta <= d^(1/4) ||x||_4 tau_theta
    <= d^(1/4) tau1 tau_theta. Otherwise it is the link constant m_A.
    """
    if settings.regime == HEAVY:
        return d ** 0.25 * settings.tau1 * settings.tau_theta
    return compute_link_constants(
        make_link_bundle(model), settings.polytope, settings.tau1, settings.tau2,
        settings.tau_theta,
    ).m_a


def rationality_floor(
    a2: float, m_a: float, tau_threshold: float, cost_fn: CostFunction,
    epsilon: float, gamma_total: float,
) -> float:
    """Smallest a1 making below-threshold participation individually rational.

    m_a bounds every prediction |p| and |q| the payment rule can make.
    """
    return a2 * (m_a + 3.0 * m_a * m_a) + tau_threshold * cost_fn(2.0 * epsilon, gamma_total)


# ---------------------------------------------------------------------------
# Parameter schedules
# ---------------------------------------------------------------------------

_HEAVY_DELTA = (1.0 / 9.0, 1.0 / 8.0)

_SCALE_KEYS = ("tau1", "tau2", "epsilon", "alpha", "a2")


def preset_schedule(
    model: ModelKind,
    regime: str,
    n: int,
    delta: float,
    d: int,
    *,
    c: float = 1.0,
    cost_lambda: float = 1.0,
    tau_theta: float = 1.0,
    sigma: float = 1.0,
    c0: float = 1.0,
    posterior_samples: int = 10_000,
    scale: Optional[dict] = None,
) -> MechanismParams:
    """Fill every mechanism knob from the per-model parameter schedules at size n.

    The exponents follow the per-model schedules; every hidden Theta(.)
    constant defaults to 1 and can be overridden through `scale`, a dict of
    multipliers for tau1, tau2, epsilon, alpha and a2. a1 is set exactly to
    the individual-rationality floor, with the threshold taken from the
    closed-form bound (1/lambda) log(1/(alpha beta)). The release
    sensitivities are the regime's bound, scaled by c0, at n (the full-data
    release) and at n // 2 (each half release).
    """
    if n < 4:
        raise ConfigError("schedule requires n >= 4")
    mult = {k: 1.0 for k in _SCALE_KEYS}
    if scale:
        unknown = set(scale) - set(_SCALE_KEYS)
        if unknown:
            raise ConfigError(f"unknown scale overrides {sorted(unknown)}")
        mult.update({k: float(v) for k, v in scale.items()})

    check_regime(model, regime)
    log_n = math.log(n)
    if regime == HEAVY:
        lo, hi = _HEAVY_DELTA
        if not (lo <= delta < hi):
            raise ConfigError(f"delta = {delta} outside the heavy schedule range [{lo}, {hi})")
        polytope = PolytopeSpec()
        tau1 = mult["tau1"] * (n / log_n) ** 0.25
        tau2 = mult["tau2"] * (n / log_n) ** 0.125
        epsilon = mult["epsilon"] * n ** (-delta)
        alpha = mult["alpha"] * n ** (-1.0 + delta)
        a2 = mult["a2"] * n ** (-0.5 - 9.0 * delta)
        cost_fn = CostFunction("nonic")
    else:
        check_preset_delta(model.family, delta)
        polytope = preset_polytope(model, n, delta)
        tau1 = mult["tau1"] * sigma * math.sqrt(log_n)
        if model.family == LINEAR:
            tau2 = mult["tau2"] * n ** ((1.0 - 3.0 * delta) / 2.0)
            epsilon = mult["epsilon"] * n ** (-delta)
            a2 = mult["a2"] * n ** (-4.0 * delta)
        elif model.family == LOGISTIC:
            tau2 = mult["tau2"] * 1.0
            epsilon = mult["epsilon"] * n ** (-delta)
            a2 = mult["a2"] * n ** (-4.0 * delta)
        else:
            tau2 = mult["tau2"] * n ** 0.25
            epsilon = mult["epsilon"] * n ** (-3.0 * delta)
            a2 = mult["a2"] * n ** (-6.0 * delta)
        alpha = mult["alpha"] * n ** (-3.0 * delta)
        cost_fn = CostFunction("quartic")

    beta = n ** (-c)
    alpha = min(alpha, 1.0 - 1e-12)
    beta = min(beta, 1.0 - 1e-12)
    # the o(1) failure probability of each release's privacy claim
    gamma_n = min(1.0, n ** -1.0)
    gamma_half = min(1.0, (n // 2) ** -1.0)
    gamma_total = gamma_n + 2.0 * gamma_half

    settings = EstimatorSettings(
        tau1=tau1, tau2=tau2, tau_theta=tau_theta, polytope=polytope, regime=regime
    )
    tau_thr = tau_alpha_beta_bound(alpha, beta, cost_lambda)
    m_a = prediction_bound(model, settings, d)
    a1 = rationality_floor(a2, m_a, tau_thr, cost_fn, epsilon, gamma_total)
    bundle = make_link_bundle(model)
    delta_n = sensitivity_bound(n, d, bundle, settings, c0)
    delta_half = sensitivity_bound(n // 2, d, bundle, settings, c0)

    return MechanismParams(
        n=n,
        privacy=PrivacyParams(epsilon, delta_n, delta_half, gamma_n, gamma_half),
        settings=settings,
        a1=a1,
        a2=a2,
        alpha=alpha,
        beta=beta,
        tau_threshold=tau_thr,
        cost_fn=cost_fn,
        posterior_samples=posterior_samples,
    )
