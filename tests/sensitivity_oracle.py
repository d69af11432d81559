"""The one-replacement sensitivity oracle as one re-solve per trial.

Each trial overwrites one row of the mapped design with its mapped
replacement, factors the whole design again with `triangular_factor`,
solves, and puts the row back. `estimators.empirical_sensitivity` solves
its trials in stacked blocks instead; the estimator tests require it to
return this value bit for bit. No verb or cell uses this helper.
"""

import math

import numpy as np

from privglm.errors import ConfigError
from privglm.estimators import design, solve_factor, triangular_factor, working_response


def empirical_sensitivity(data, bundle, settings, trials, seed, draw_replacement) -> float:
    """Largest observed one-replacement shift of the estimator, one trial at a time."""
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
