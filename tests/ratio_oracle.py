"""The histogram ratio check in its straightforward form.

Each arm's outputs go to an array of their own, the pooled quantiles of the
two `concatenate`d give the edges, and one `bincount` over each unsorted
arm's bin ids gives its histogram. The privacy tests require
`privacy.empirical_privacy_ratio`, which pools both arms in one buffer,
sorts them in place and selects the quantiles by rank, to return this report
field for field. It shares only `RatioReport`, `wilson_interval` and the two
rng streams' derivation with the package; no verb or cell uses it.
"""

import numpy as np

from privglm.privacy import RatioReport, wilson_interval

MIN_COUNT = 50


def ratio_report(build, data_a, data_b, trials, bins, rng, epsilon_bound) -> RatioReport:
    """The report of the ratio check on outputs the closure `build` writes."""
    rng_a, rng_b = rng.spawn(2)
    out_a, out_b = np.empty((trials, 1)), np.empty((trials, 1))
    build(data_a, rng_a, out_a)
    build(data_b, rng_b, out_b)
    out_a, out_b = out_a[:, 0], out_b[:, 0]

    pooled = np.concatenate([out_a, out_b])
    edges = np.unique(np.quantile(pooled, np.linspace(0.0, 1.0, bins + 1)))
    if len(edges) < 2:
        edges = np.array([edges[0] - 0.5, edges[0] + 0.5])
    n_cells = len(edges) - 1
    # interior edges only; values outside land in the first/last bin
    counts_a = np.bincount(np.searchsorted(edges[1:-1], out_a, side="right"), minlength=n_cells)
    counts_b = np.bincount(np.searchsorted(edges[1:-1], out_b, side="right"), minlength=n_cells)

    occupied = (counts_a + counts_b) > 0
    estimable = occupied & (counts_a >= MIN_COUNT) & (counts_b >= MIN_COUNT)
    log_ratio = np.log(counts_a[estimable] / counts_b[estimable])
    lo_a, hi_a = np.array([wilson_interval(int(k), trials) for k in counts_a[estimable]]).T
    lo_b, hi_b = np.array([wilson_interval(int(k), trials) for k in counts_b[estimable]]).T
    ok = (np.log(np.maximum(lo_a, 1e-300)) - np.log(hi_b) <= epsilon_bound) & (
        np.log(np.maximum(lo_b, 1e-300)) - np.log(hi_a) <= epsilon_bound
    )
    n_est = int(estimable.sum())
    return RatioReport(
        trials=trials,
        bins_total=n_cells,
        bins_estimable=n_est,
        fraction_within=float(np.mean(ok)) if n_est else 0.0,
        max_abs_log_ratio=float(np.max(np.abs(log_ratio))) if n_est else 0.0,
        violations=int(np.sum(~ok)),
        epsilon_bound=epsilon_bound,
    )
