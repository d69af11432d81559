"""The threshold strategy applied to a materialised population.

The mechanism, streaming and acceptance tests run `run_mechanism` on a
`Dataset` of these reports and compare it with a cell's `PopulationStream`,
which reports its agents chunk by chunk; no verb or cell uses this helper.
"""

import numpy as np

from privglm.estimators import Dataset
from privglm.links import ModelKind
from privglm.population import Population, coerce_response


def apply_strategy(pop: Population, tau: float, model: ModelKind) -> Dataset:
    """Reports under the threshold strategy; covariates pass through untouched.

    An agent reports the truth iff its cost is at most tau, else 0 coerced
    into the model's response set.
    """
    silent = coerce_response(0.0, model)
    return Dataset(pop.X.copy(), np.where(pop.costs <= tau, pop.y_true, silent))
