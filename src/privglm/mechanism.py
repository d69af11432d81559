"""End-to-end private estimation mechanisms with peer-prediction payments.

One run partitions the reported agents into two groups, releases three
privatized ball-projected estimators (full data plus each half), and pays
every agent a rescaled Brier score comparing two predictions of their
response: one from the opposite group's private estimator and one from the
posterior mean given the agent's own report. Payments of agents in one group
never touch that group's own estimator, which is what makes the released
output jointly private per agent.

Both regimes run the same mechanism. The estimators module maps the reports
once: `design` gives the covariates (l4-shrunk rows in the heavy regime) and
`working_response` the response the solve fits. `run_mechanism` solves on
row subsets of that one design for the full set and each half, and pays each
group with its rows of the same design. The posterior means take the raw
covariates.

Each step has one implementation in this module: `partition`,
`resolve_privacy`, `release_noise` (the three noises, drawn in the order
full, half 0, half 1), `project_ball`, `posterior_mean` and `payments`.
`run_mechanism` composes all of them. The harness composes the same pieces
twice more: the deviation study releases only the half that pays its tagged
agent, and the privacy check releases one estimator many times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DegenerateWeightsError, PartitionTooSmallError
from .estimators import (
    HEAVY,
    Dataset,
    EstimatorSettings,
    check_regime,
    check_responses,
    design,
    rows_inner,
    sensitivity_bound,
    solve_least_squares,
    working_response,
)
from .links import (
    LINEAR,
    LOGISTIC,
    POISSON,
    LinkBundle,
    ModelKind,
    PolytopeSpec,
    check_preset_delta,
    compute_link_constants,
    make_link_bundle,
    preset_polytope,
)
from .population import tau_alpha_beta_bound
from .privacy import NoiseSample, PrivacyParams, compose_account, sample_norm_exponential

_ESS_FLOOR = 50.0
MIN_POSTERIOR_SAMPLES = 1000

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

    quartic    (1 + gamma) eps^4
    nonic      (1 + gamma) eps^9
    quadratic  eps^2
    power      (1 + gamma) eps^exponent
    """

    kind: str = "quartic"
    exponent: float = 4.0

    def __post_init__(self):
        if self.kind not in ("quartic", "nonic", "quadratic", "power"):
            raise ConfigError(f"unknown cost function kind {self.kind!r}")
        if self.kind == "power" and not self.exponent > 0:
            raise ConfigError("power cost function needs a positive exponent")

    def __call__(self, epsilon: float, gamma: float) -> float:
        if self.kind == "quartic":
            return (1.0 + gamma) * epsilon ** 4
        if self.kind == "nonic":
            return (1.0 + gamma) * epsilon ** 9
        if self.kind == "quadratic":
            return epsilon ** 2
        return (1.0 + gamma) * epsilon ** self.exponent


# ---------------------------------------------------------------------------
# Parameters and outcome
# ---------------------------------------------------------------------------

@dataclass
class MechanismParams:
    """Every knob of one mechanism run.

    The sensitivities inside `privacy` may be unresolved (None); the run then
    fills them from the regime's bound formula at the dataset's actual n,
    using the sensitivity constant c0. `posterior_samples` is the number of
    prior draws behind each importance-sampled (logistic or Poisson)
    posterior mean; it is checked here, once, against the floor of 1000.
    """

    privacy: PrivacyParams
    settings: EstimatorSettings
    a1: float
    a2: float
    alpha: float
    beta: float
    cost_fn: CostFunction = field(default_factory=CostFunction)
    posterior_samples: int = 10_000
    seed: int = 0
    c0: float = 1.0
    tau_threshold: Optional[float] = None
    c0_calibrated: bool = False  # data-dependent c0 voids the privacy accounting

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
    privacy: PrivacyParams
    noise_audit: Tuple[Tuple[str, float], ...]  # (release, noise magnitude)
    p: np.ndarray
    q: np.ndarray
    posterior_seed: int


# ---------------------------------------------------------------------------
# Release: partition, sensitivities, noise, projection
# ---------------------------------------------------------------------------

def partition(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random equal split: group 1 is the last n - n // 2 entries of a permutation."""
    perm = rng.permutation(n)
    assign = np.zeros(n, dtype=np.int8)
    assign[perm[n // 2 :]] = 1
    return assign


def opposite_release(group: int) -> int:
    """Index in RELEASES of the half release that pays the agents of `group`."""
    return 2 - group


def resolve_privacy(
    params: MechanismParams, n: int, d: int, bundle: LinkBundle
) -> PrivacyParams:
    """Fill unresolved sensitivities from the regime's bound formula at size n."""
    pp = params.privacy

    def bound(m: int) -> float:
        return sensitivity_bound(m, d, bundle, params.settings, params.c0).delta_n

    return replace(
        pp,
        delta_n=pp.delta_n if pp.delta_n is not None else bound(n),
        delta_half=pp.delta_half if pp.delta_half is not None else bound(n // 2),
    )


def release_noise(
    d: int, privacy: PrivacyParams, rng: np.random.Generator
) -> Tuple[NoiseSample, NoiseSample, NoiseSample]:
    """Noise of the three releases, drawn in the order of RELEASES."""
    if privacy.delta_n is None or privacy.delta_half is None:
        raise ConfigError("release sensitivities have not been resolved")
    return tuple(
        sample_norm_exponential(d, delta, privacy.epsilon, rng)
        for delta in (privacy.delta_n, privacy.delta_half, privacy.delta_half)
    )


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

def _linear_posterior_means(
    X: np.ndarray, y: np.ndarray, noise_std: float, tau_theta: float
) -> np.ndarray:
    # conjugate mean for one observation under the N(0, (tau_theta^2/d) I) prior
    d = X.shape[1]
    s0sq = tau_theta ** 2 / d
    sig2 = noise_std ** 2
    denom = sig2 + s0sq * rows_inner(X, X)
    coef = np.divide(s0sq * y, denom, out=np.zeros_like(denom), where=denom > 0)
    return project_ball(coef[:, None] * X, tau_theta)


def _draw_truncated_prior(
    d: int, tau_theta: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    scale = tau_theta / math.sqrt(d)
    out = np.empty((count, d))
    have = 0
    while have < count:
        batch = rng.standard_normal((max(16, int(1.4 * (count - have))), d)) * scale
        keep = batch[np.sum(batch * batch, axis=1) <= tau_theta ** 2]
        take = min(count - have, keep.shape[0])
        out[have : have + take] = keep[:take]
        have += take
    return out


def _is_posterior_mean(
    x: np.ndarray,
    y_report: float,
    model: ModelKind,
    tau_theta: float,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    thetas = _draw_truncated_prior(x.shape[0], tau_theta, samples, rng)
    a = thetas @ x
    if model.family == LOGISTIC:
        loglik = y_report * a - (np.abs(a) + np.log1p(np.exp(-2.0 * np.abs(a))))
    elif model.family == POISSON:
        loglik = y_report * a - np.exp(a)
    else:
        raise ConfigError("importance sampling is for the logistic and poisson models")
    w = np.exp(loglik - np.max(loglik))
    sw = float(np.sum(w))
    ess = sw * sw / float(np.sum(w * w))
    if ess < _ESS_FLOOR:
        raise DegenerateWeightsError(
            f"effective sample size {ess:.1f} below {_ESS_FLOOR:.0f}; "
            f"report {y_report!r} is extreme for the prior"
        )
    return (w @ thetas) / sw


def posterior_mean(
    X: np.ndarray,
    y: np.ndarray,
    model: ModelKind,
    tau_theta: float,
    samples: int,
    seed_prefix: Sequence[int],
    rows: Sequence[int],
) -> np.ndarray:
    """Posterior mean of theta given each reported pair (X[k], y[k]).

    The prior is the same truncated Gaussian the generator uses. The linear
    model has a conjugate closed form (computed with the untruncated prior,
    then ball-projected); the discrete models use self-normalized importance
    sampling over `samples` prior draws. Row k draws from the stream seeded
    by seed_prefix + [rows[k]], so one agent's mean can be recomputed from
    that agent's row and index alone.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if model.family == LINEAR:
        return _linear_posterior_means(X, y, model.noise_std, tau_theta)
    means = np.empty_like(X)
    for k, row in enumerate(rows):
        rng = np.random.default_rng([*seed_prefix, int(row)])
        means[k] = _is_posterior_mean(X[k], float(y[k]), model, tau_theta, samples, rng)
    return project_ball(means, tau_theta)


def payments(
    x_pay: np.ndarray,
    theta_bar_opposite: np.ndarray,
    means: np.ndarray,
    bundle: LinkBundle,
    params: MechanismParams,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brier payments of agents whose design rows are `x_pay`.

    p = A'(x_pay . theta_bar_opposite) predicts each response from the
    opposite group's release, q = A'(x_pay . mean) from the posterior mean
    given the agent's own report. A single row of x_pay broadcasts against
    several rows of `means`. Returns (payments, p, q).
    """
    p = bundle.A_prime(rows_inner(x_pay, theta_bar_opposite))
    q = bundle.A_prime(rows_inner(x_pay, means))
    return brier_payment(params.a1, params.a2, p, q), p, q


# ---------------------------------------------------------------------------
# The mechanism
# ---------------------------------------------------------------------------

def run_mechanism(
    reported: Dataset,
    bundle: LinkBundle,
    params: MechanismParams,
    rng: Optional[np.random.Generator] = None,
) -> MechanismOutcome:
    """Execute one full mechanism run on the reported dataset.

    Steps, in order: the design and the working response of all n reports;
    random equal partition; three least-squares solves on rows of them (all,
    group 0, group 1); sensitivity resolution; three independent noise
    draws (full, group 0, group 1); ball projections; per-agent Brier
    payments against the opposite group's private estimator.
    """
    if rng is None:
        rng = np.random.default_rng(params.seed)
    settings = params.settings
    n, d = reported.n, reported.d
    if n < 2 * d:
        raise PartitionTooSmallError(f"n = {n} leaves a group smaller than d = {d}")
    check_responses(reported, bundle.model)
    X = design(reported.X, bundle.model, settings)
    z = working_response(reported.y, bundle, settings)

    assign = partition(n, rng)
    groups = [np.flatnonzero(assign == group) for group in (0, 1)]
    thetas = np.stack([solve_least_squares(X, z, settings.cond_cap)] + [
        solve_least_squares(X[rows], z[rows], settings.cond_cap) for rows in groups
    ])
    resolved = resolve_privacy(params, n, d, bundle)
    noise = release_noise(d, resolved, rng)
    bars = project_ball(thetas + np.stack([s.v for s in noise]), settings.tau_theta)
    posterior_seed = int(rng.integers(2 ** 62))

    # group by group: one opposite release per call, and only half-size row copies
    pay, p, q = np.empty(n), np.empty(n), np.empty(n)
    for group, rows in enumerate(groups):
        means = posterior_mean(
            reported.X[rows], reported.y[rows], bundle.model, settings.tau_theta,
            params.posterior_samples, [posterior_seed], rows,
        )
        pay[rows], p[rows], q[rows] = payments(
            X[rows], bars[opposite_release(group)], means, bundle, params
        )

    return MechanismOutcome(
        theta_bar_full=bars[0],
        theta_bar_g0=bars[1],
        theta_bar_g1=bars[2],
        payments=pay,
        group_assignment=assign,
        budget=math.fsum(pay),
        account=compose_account(resolved),
        privacy=resolved,
        noise_audit=tuple((which, s.magnitude) for which, s in zip(RELEASES, noise)),
        p=p,
        q=q,
        posterior_seed=posterior_seed,
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def outcome_to_json(outcome: MechanismOutcome) -> dict:
    """Plain-dict form of one run for report files."""
    return {
        "theta_bar_full": [float(v) for v in outcome.theta_bar_full],
        "theta_bar_g0": [float(v) for v in outcome.theta_bar_g0],
        "theta_bar_g1": [float(v) for v in outcome.theta_bar_g1],
        "payments": [float(v) for v in outcome.payments],
        "group_assignment": [int(v) for v in outcome.group_assignment],
        "budget": outcome.budget,
        "account": {"epsilon_total": outcome.account[0], "gamma_total": outcome.account[1]},
        "privacy": {
            "epsilon": outcome.privacy.epsilon,
            "delta_n": outcome.privacy.delta_n,
            "delta_half": outcome.privacy.delta_half,
            "gamma_n": outcome.privacy.gamma_n,
            "gamma_half": outcome.privacy.gamma_half,
        },
        "noise_audit": [
            {"which": which, "magnitude": magnitude} for which, magnitude in outcome.noise_audit
        ],
        "posterior_seed": outcome.posterior_seed,
    }


def payments_to_csv(
    outcome: MechanismOutcome, costs: np.ndarray, cost_fn: CostFunction, path
) -> None:
    """Per-agent payment table: agent_index, group, payment, cost, utility."""
    import csv
    from pathlib import Path

    costs = np.asarray(costs, dtype=float)
    if costs.shape[0] != outcome.payments.shape[0]:
        raise ConfigError("costs and payments must align by agent index")
    eps_tot, gamma_tot = outcome.account
    unit_cost = cost_fn(eps_tot, gamma_tot)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("agent_index", "group", "payment", "cost", "utility"))
        for i in range(costs.shape[0]):
            pay = float(outcome.payments[i])
            writer.writerow(
                (
                    i,
                    int(outcome.group_assignment[i]),
                    repr(pay),
                    repr(float(costs[i])),
                    repr(pay - float(costs[i]) * unit_cost),
                )
            )


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
    utility = outcome.payments[below] - costs[below] * cost_fn(eps_tot, gamma_tot)
    return float(np.mean(utility >= 0.0))


def budget_bound(n: int, a1: float, a2: float, m_a: float) -> float:
    """Worst-case total payment n (a1 + a2 (M_A + M_A^2))."""
    if n < 0 or a1 < 0 or a2 < 0 or m_a < 0:
        raise ConfigError("budget bound inputs must be nonnegative")
    return n * (a1 + a2 * (m_a + m_a * m_a))


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
    c0_calibrated: bool = False,
    gamma_c1: float = 1.0,
    gamma_exponent: float = 1.0,
    posterior_samples: int = 10_000,
    seed: int = 0,
    scale: Optional[dict] = None,
) -> MechanismParams:
    """Fill every mechanism knob from the per-model parameter schedules.

    The exponents follow the per-model schedules; every hidden Theta(.)
    constant defaults to 1 and can be overridden through `scale`, a dict of
    multipliers for tau1, tau2, epsilon, alpha and a2. a1 is set exactly to
    the individual-rationality floor, with the threshold taken from the
    closed-form bound (1/lambda) log(1/(alpha beta)).
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
        # largest |x . theta| over l4-shrunk x and the ball: ||x||_2 <= d^(1/4) ||x||_4
        m_a = d ** 0.25 * tau1 * tau_theta
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
        m_a = compute_link_constants(
            make_link_bundle(model), polytope, tau1, tau2, tau_theta
        ).m_a

    beta = n ** (-c)
    alpha = min(alpha, 1.0 - 1e-12)
    beta = min(beta, 1.0 - 1e-12)
    gamma_n = min(1.0, gamma_c1 * n ** (-gamma_exponent))
    gamma_half = min(1.0, gamma_c1 * (n // 2) ** (-gamma_exponent))
    gamma_total = gamma_n + 2.0 * gamma_half

    settings = EstimatorSettings(
        tau1=tau1, tau2=tau2, tau_theta=tau_theta, polytope=polytope, regime=regime
    )
    tau_thr = tau_alpha_beta_bound(alpha, beta, cost_lambda)
    a1 = rationality_floor(a2, m_a, tau_thr, cost_fn, epsilon, gamma_total)

    return MechanismParams(
        privacy=PrivacyParams(epsilon, None, None, gamma_n, gamma_half),
        settings=settings,
        a1=a1,
        a2=a2,
        alpha=alpha,
        beta=beta,
        cost_fn=cost_fn,
        posterior_samples=posterior_samples,
        seed=seed,
        c0=c0,
        tau_threshold=tau_thr,
        c0_calibrated=c0_calibrated,
    )
