"""A simulate cell streams its population in chunks of CHUNK_ROWS agents.

Oracles: a cell of one chunk is the materialised composition
generate_population -> apply_strategy -> run_mechanism, bit for bit; a cell
of several chunks, the last one partial, gives the releases and payments of
`run_mechanism` on its own materialised population; and the memory a cell
traces grows by its per-agent vectors only.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from privglm import harness
from privglm.errors import ConfigError
from privglm.estimators import CHUNK_ROWS, Dataset, empirical_sensitivity
from privglm.harness import (
    ARM_MECHANISM,
    ARM_POPULATION,
    ARM_SENSITIVITY,
    ARM_STRATEGY,
    ExperimentConfig,
    ScheduleSpec,
    cell_population,
    cell_rng,
    params_for,
)
from privglm.links import ModelKind, make_link_bundle
from privglm.mechanism import preset_schedule, rationality_check, run_mechanism
from privglm.population import (
    PopulationSpec,
    StudentTCovariates,
    Threshold,
    apply_strategy,
    generate_population,
    replacement_sampler,
)

CELLS = {
    # name: (model, regime, delta, covariates)
    "linear": (ModelKind.linear(1.0), "subgaussian", 0.3, None),
    "heavy": (ModelKind.linear(1.0), "heavy", 0.12, StudentTCovariates(5.0)),
    "logistic": (ModelKind.logistic(), "subgaussian", 0.3, None),
}


def cell_config(name, d, n, **kw):
    model, regime, delta, covariates = CELLS[name]
    spec = PopulationSpec(n=2, d=d, model=model)
    if covariates is not None:
        spec = replace(spec, covariates=covariates)
    defaults = dict(
        population=spec, regime=regime, sweep=[n], repeats=1,
        schedule=ScheduleSpec(delta=delta), metrics=("accuracy", "budget", "rationality"),
        master_seed=2718, posterior_samples=1000,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize("fixed_theta", [False, True], ids=["drawn-theta", "fixed-theta"])
@pytest.mark.parametrize("name", sorted(CELLS))
def test_one_chunk_cell_is_the_materialised_composition(name, fixed_theta):
    n, repeat = 700, 2
    config = cell_config(name, 3, n, metrics=("accuracy", "budget", "rationality", "sensitivity"),
                         sensitivity_trials=3)
    if fixed_theta:
        config = replace(config, population=replace(config.population,
                                                    theta_star=[0.2, -0.1, 0.3]))
    row, _ = harness._run_cell(config, n, repeat)

    ms = config.master_seed
    params = params_for(config, n)
    bundle = make_link_bundle(config.population.model)
    tau = params.tau_threshold
    spec = replace(config.population, n=n)
    pop = generate_population(spec, cell_rng(ms, n, repeat, ARM_POPULATION))
    reported = apply_strategy(pop, Threshold(tau), cell_rng(ms, n, repeat, ARM_STRATEGY))
    out = run_mechanism(reported, bundle, params, cell_rng(ms, n, repeat, ARM_MECHANISM))
    diff = out.theta_bar_full - pop.theta_star
    assert not row.failed
    assert row.theta_bar == [float(v) for v in out.theta_bar_full]
    assert row.mse == float(diff @ diff)
    assert row.budget == out.budget
    assert row.truthful_frac == float(np.mean(pop.costs <= tau))
    assert row.rationality_frac == rationality_check(out, pop.costs, params.cost_fn, tau)
    assert row.delta_empirical == empirical_sensitivity(
        Dataset(pop.X, pop.y_true), bundle, params.settings, 3,
        (ms, n, repeat, ARM_SENSITIVITY), replacement_sampler(spec, pop.theta_star),
    )

    stream = cell_population(config, n, repeat, tau)
    whole = stream.population()
    for got, want in ((whole.X, pop.X), (whole.y_true, pop.y_true), (whole.costs, pop.costs),
                      (stream.theta_star, pop.theta_star)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_streamed_cell_equals_run_on_materialised_population(name):
    n, d = 3 * CHUNK_ROWS + 5, 3  # the last chunk holds 5 agents, fewer than 2d
    config = cell_config(name, d, n)
    ms = config.master_seed
    params = params_for(config, n)
    bundle = make_link_bundle(config.population.model)
    tau = params.tau_threshold

    stream = cell_population(config, n, 0, tau)
    streamed = run_mechanism(stream, bundle, params, cell_rng(ms, n, 0, ARM_MECHANISM))
    pop = stream.population()
    # the threshold strategy's constant fallback draws nothing from its generator
    reported = apply_strategy(pop, Threshold(tau), np.random.default_rng(0))
    whole = run_mechanism(reported, bundle, params, cell_rng(ms, n, 0, ARM_MECHANISM))

    for field in ("theta_bar_full", "theta_bar_g0", "theta_bar_g1", "payments", "p", "q"):
        assert np.array_equal(getattr(streamed, field), getattr(whole, field)), field
    assert streamed.budget == whole.budget
    assert np.array_equal(stream.costs, pop.costs)
    # the chunks are draws of their own: chunk 1 is not chunk 0 again
    assert not np.array_equal(pop.X[:5], pop.X[CHUNK_ROWS : CHUNK_ROWS + 5])


def test_streamed_cell_row_reads_the_stream():
    n = 2 * CHUNK_ROWS + 1  # a last chunk of one agent
    config = cell_config("linear", 2, n)
    row, _ = harness._run_cell(config, n, 0)
    params = params_for(config, n)
    stream = cell_population(config, n, 0, params.tau_threshold)
    out = run_mechanism(stream, make_link_bundle(config.population.model), params,
                        cell_rng(config.master_seed, n, 0, ARM_MECHANISM))
    assert row.theta_bar == [float(v) for v in out.theta_bar_full]
    assert row.budget == out.budget
    assert row.truthful_frac == float(np.mean(stream.costs <= params.tau_threshold))


def test_run_mechanism_checks_the_responses_of_every_chunk():
    n = CHUNK_ROWS + 3
    model = ModelKind.logistic()
    params = preset_schedule(model, "subgaussian", n, 0.3, d=2, posterior_samples=1000)
    y = np.ones(n)
    y[-1] = 0.5  # the last agent of the partial second chunk
    data = Dataset(np.random.default_rng(0).standard_normal((n, 2)), y)
    with pytest.raises(ConfigError, match="logistic responses must lie in"):
        run_mechanism(data, make_link_bundle(model), params, np.random.default_rng(1))


def _traced_peak(config, n) -> int:
    tracemalloc.start()
    try:
        row, _ = harness._run_cell(config, n, 0)
        assert not row.failed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cell_memory_grows_by_per_agent_vectors_only():
    # a cell keeps per-agent vectors (partition, costs, p, q, payments) and
    # one chunk of rows; a materialised n x d population would cost d * 8
    # bytes per agent for each copy of the covariates
    small, large = 2 * CHUNK_ROWS, 8 * CHUNK_ROWS
    config = cell_config("heavy", 4, large)
    grown = _traced_peak(config, large) - _traced_peak(config, small)
    assert grown / (large - small) <= 64
