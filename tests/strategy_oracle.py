"""The threshold strategy applied to a materialised population, as a row source.

The mechanism, streaming and acceptance tests run `run_mechanism` on these
reports and compare it with a cell's `PopulationStream`, which reports its
agents chunk by chunk; no verb or cell uses this helper.
"""

import numpy as np

from privglm.estimators import chunk_slice
from privglm.links import ModelKind
from privglm.population import Population, coerce_response


class Reports:
    """Covariates X, reports y and costs, read by `run_mechanism` through `chunk(c)`."""

    def __init__(self, X, y, costs):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.costs = np.asarray(costs, dtype=float)
        self.n, self.d = self.X.shape

    def chunk(self, c):
        """Chunk c's covariates and reports, as copies a run may write into, and its costs."""
        rows = chunk_slice(self.n, c)
        return self.X[rows].copy(), self.y[rows].copy(), self.costs[rows]


def apply_strategy(pop: Population, tau: float, model: ModelKind) -> Reports:
    """Reports under the threshold strategy, with the population's costs.

    An agent reports the truth iff its cost is at most tau, else 0 coerced
    into the model's response set. The covariates pass through untouched.
    """
    silent = coerce_response(0.0, model)
    return Reports(pop.X, np.where(pop.costs <= tau, pop.y_true, silent), pop.costs)
