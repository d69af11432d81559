"""Every agent's payment in a finished mechanism run, recomputed in one batch.

A run keeps no per-agent payment: pass 2 sums each row block's payments
into the budget and drops them. The mechanism, streaming and acceptance
tests recompute the payments here, from the materialised reports and the
outcome's releases and partition (`groups`), with the mechanism's own
posterior means, design, predictions and Brier rule applied to all rows at
once. Each of those steps is row-wise, so a row's payment has the same
bits alone, in this batch and in the mechanism's row block; `paid` ties the
batch to the run by its budget, bit for bit. No verb or cell uses this
helper.
"""

import math

import numpy as np

from privglm.estimators import design
from privglm.mechanism import (
    MechanismOutcome,
    MechanismParams,
    Partition,
    brier_payment,
    posterior_mean,
    predictions,
)

from strategy_oracle import Reports


def groups(part: Partition) -> np.ndarray:
    """Every agent's group: the partition's chunk labels, concatenated."""
    return np.concatenate([part.labels(c) for c in range(len(part.ones))])


def recomputed_predictions(reported: Reports, idx, out: MechanismOutcome, params: MechanismParams):
    """p and q of agents idx: their design rows against the opposite release and
    against the posterior mean given their own reports."""
    bundle = params.bundle
    X = reported.X[idx]
    x_pay = design(X, bundle.model, params.settings)
    halves = np.stack([out.theta_bar_g0, out.theta_bar_g1])
    opposite = halves[1 - groups(out.group_assignment)[idx]]
    means = posterior_mean(X, reported.y[idx], bundle.model, params.settings.tau_theta)
    return predictions(x_pay, opposite, bundle), predictions(x_pay, means, bundle)


def paid(reported: Reports, out: MechanismOutcome, params: MechanismParams) -> np.ndarray:
    """Every agent's payment in the run `out` of `reported` under `params`.

    Asserts that their exact sum is the run's budget, so the payments are
    the ones the run paid and none was skipped or paid twice.
    """
    p, q = recomputed_predictions(reported, slice(None), out, params)
    payments = brier_payment(params.a1, params.a2, p, q)
    assert math.fsum(payments) == out.budget
    return payments
