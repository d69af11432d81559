"""Rationality of a finished mechanism run, counted in plain numpy.

The mechanism, streaming and acceptance tests check a run's payments
(`payment_oracle.paid`), and the `rationality_frac` a cell counts while it
pays, against this fraction over the agents' costs; it shares no code with
`mechanism.rationality_counts`. No verb or cell uses it.
"""

import numpy as np


def rationality_fraction(
    payments: np.ndarray, account, costs: np.ndarray, cost_exponent: int, tau: float
) -> float:
    """Fraction of the agents with cost <= tau whose payment covers cost x unit; 1.0 if none.

    The unit is the per-unit privacy cost (1 + gamma) eps^k of the run's
    (epsilon, gamma) `account`.
    """
    epsilon, gamma = account
    unit = (1.0 + gamma) * epsilon ** cost_exponent
    costs = np.asarray(costs, dtype=float)
    below = costs <= tau
    if not below.any():
        return 1.0
    return float(np.mean(payments[below] >= costs[below] * unit))
