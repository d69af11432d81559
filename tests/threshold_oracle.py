"""Monte Carlo oracle for the cost threshold tau_{alpha, beta}.

Criterion 10 and the population tests check the closed-form bound
`population.tau_alpha_beta_bound` against this bisection over simulated
cost vectors; no verb or cell uses it.
"""

import math

import numpy as np

from privglm.errors import ConfigError


class NonConvergenceError(RuntimeError):
    """A bracketing or bisection search failed to converge within its iteration cap."""


# doublings allowed to bracket the population threshold, and bisection steps
_BRACKET_ITERS = 60
_BISECT_ITERS = 60


def tau_alpha_beta_monte_carlo(
    alpha: float,
    beta: float,
    lam: float,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of the two-part threshold.

    The population part is the smallest tau such that, across `trials`
    simulated cost vectors, at least a 1-beta fraction have >= (1-alpha) n
    coordinates below tau; costs are drawn once (common random numbers) so
    the bisected function is monotone. The per-agent part is the closed-form
    exponential quantile (1/lam) log(1/alpha); the estimate is the max.
    """
    if trials < 100:
        raise ConfigError("trials must be >= 100")
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ConfigError("alpha and beta must lie in (0, 1)")
    costs = rng.exponential(1.0 / lam, size=(trials, n))
    need = (1.0 - alpha) * n

    def satisfied(tau: float) -> bool:
        frac = np.mean(np.sum(costs <= tau, axis=1) >= need - 1e-9)
        return frac >= 1.0 - beta

    hi = 1.0 / lam
    it = 0
    while not satisfied(hi):
        hi *= 2.0
        it += 1
        if it > _BRACKET_ITERS:
            raise NonConvergenceError("failed to bracket the population threshold")
    lo = 0.0
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    tau1 = hi
    tau2 = math.log(1.0 / alpha) / lam
    return max(tau1, tau2)
