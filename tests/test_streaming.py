"""A simulate cell streams its population in chunks of CHUNK_ROWS agents.

Oracles: a cell of one chunk is the materialised composition
generate_population -> apply_strategy -> run_mechanism, bit for bit; a cell
of several chunks, the last one partial, gives the releases and payments of
`run_mechanism` on its own materialised population; the `sensitivity` verb
runs the oracle on the materialised population of cell (n, 0); two walks
of a stream yield the same agents, and a row source needs only `n`, `d`
and `chunks()`; and the memory a cell traces grows by its per-agent
vectors only.
"""

import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from privglm import harness
from privglm.cli import main as cli_main
from privglm.errors import ConfigError
from privglm.estimators import CHUNK_ROWS, Dataset, empirical_sensitivity, l4_shrink_rows
from privglm.harness import (
    ARM_MECHANISM,
    ARM_POPULATION,
    ARM_SENSITIVITY,
    ExperimentConfig,
    ScheduleSpec,
    cell_population,
    cell_rng,
    config_to_json,
    params_for,
)
from privglm.links import ModelKind, make_link_bundle
from privglm.mechanism import preset_schedule, run_mechanism
from privglm.population import (
    PopulationSpec,
    PopulationStream,
    StudentTCovariates,
    SubGaussianCov,
    SubGaussianIsotropic,
    _draw_covariates,
    draw_agents,
    generate_population,
    replacement_sampler,
)

from rationality_oracle import rationality_fraction
from strategy_oracle import apply_strategy

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
        master_seed=2718,
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
    row = harness._run_cell(config, n, repeat)

    ms = config.master_seed
    params = params_for(config, n)
    bundle = make_link_bundle(config.population.model)
    tau = params.tau_threshold
    spec = replace(config.population, n=n)
    pop = generate_population(spec, cell_rng(ms, n, repeat, ARM_POPULATION))
    reported = apply_strategy(pop, tau, config.population.model)
    out = run_mechanism(reported, bundle, params, cell_rng(ms, n, repeat, ARM_MECHANISM))
    diff = out.theta_bar_full - pop.theta_star
    assert not row.failed
    assert row.theta_bar == [float(v) for v in out.theta_bar_full]
    assert row.noise_norms == list(out.noise_norms)
    assert row.mse == float(diff @ diff)
    assert row.budget == out.budget
    assert row.truthful_frac == float(np.mean(pop.costs <= tau))
    assert row.rationality_frac == rationality_fraction(out, pop.costs, params.cost_exponent, tau)
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
    reported = apply_strategy(pop, tau, config.population.model)
    whole = run_mechanism(reported, bundle, params, cell_rng(ms, n, 0, ARM_MECHANISM))

    for field in ("theta_bar_full", "theta_bar_g0", "theta_bar_g1", "payments"):
        assert np.array_equal(getattr(streamed, field), getattr(whole, field)), field
    assert streamed.budget == whole.budget
    assert np.array_equal(stream.population().costs, pop.costs)
    # the chunks are draws of their own: chunk 1 is not chunk 0 again
    assert not np.array_equal(pop.X[:5], pop.X[CHUNK_ROWS : CHUNK_ROWS + 5])


def test_streamed_cell_row_reads_the_stream():
    n = 2 * CHUNK_ROWS + 1  # a last chunk of one agent
    config = cell_config("linear", 2, n)
    row = harness._run_cell(config, n, 0)
    params = params_for(config, n)
    stream = cell_population(config, n, 0, params.tau_threshold)
    out = run_mechanism(stream, make_link_bundle(config.population.model), params,
                        cell_rng(config.master_seed, n, 0, ARM_MECHANISM))
    assert row.theta_bar == [float(v) for v in out.theta_bar_full]
    assert row.budget == out.budget
    assert row.truthful_frac == float(np.mean(stream.population().costs <= params.tau_threshold))


@pytest.mark.parametrize("name", sorted(CELLS))
def test_streamed_cell_counts_across_chunks(name):
    # a streamed cell counts its truthful and rational agents while it pays,
    # on costs redrawn chunk by chunk; the counts are those of the
    # materialised population, whose last chunk holds 5 agents
    n, d = 3 * CHUNK_ROWS + 5, 3
    config = cell_config(name, d, n)
    row = harness._run_cell(config, n, 0)
    params = params_for(config, n)
    tau = params.tau_threshold
    pop = cell_population(config, n, 0, tau).population()
    reported = apply_strategy(pop, tau, config.population.model)
    out = run_mechanism(reported, make_link_bundle(config.population.model), params,
                        cell_rng(config.master_seed, n, 0, ARM_MECHANISM))
    assert out.truthful_frac is None and out.rationality_frac is None  # a Dataset has no costs
    assert row.truthful_frac == float(np.mean(pop.costs <= tau))
    assert row.rationality_frac == rationality_fraction(out, pop.costs, params.cost_exponent, tau)


LAWS = {
    "isotropic": SubGaussianIsotropic(1.5),
    "cov": SubGaussianCov(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])),
    "student-t": StudentTCovariates(5.0),
}


@pytest.mark.parametrize("law", sorted(LAWS))
def test_covariates_drawn_into_a_buffer_are_a_fresh_draw(law):
    # a draw into `out` leaves the bits and the generator's state of a draw
    # without it, so the draw after it matches too
    spec = PopulationSpec(n=2, d=3, model=ModelKind.linear(1.0), covariates=LAWS[law])
    m = 1001
    fresh, into = np.random.default_rng(31), np.random.default_rng(31)
    want = _draw_covariates(spec, fresh, m)
    buffer = np.empty((m + 3, 3))
    got = _draw_covariates(spec, into, m, buffer[:m])
    assert np.shares_memory(got, buffer)
    assert np.array_equal(got, want)
    assert np.array_equal(into.standard_normal(4), fresh.standard_normal(4))


@pytest.mark.parametrize("law", sorted(LAWS))
def test_stream_population_is_copied_out_of_the_shared_buffer(law):
    n = 2 * CHUNK_ROWS + 7
    spec = PopulationSpec(n=n, d=3, model=ModelKind.logistic(), covariates=LAWS[law])

    def chunk_rng(c):
        return np.random.default_rng([41, c])

    stream = PopulationStream(spec, 0.8, chunk_rng)
    chunk_X = [X for X, _, _ in stream.chunks()]
    assert all(np.shares_memory(X, chunk_X[0]) for X in chunk_X)  # one buffer for every chunk
    whole = stream.population()
    assert not np.shares_memory(whole.X, chunk_X[0])

    first = generate_population(replace(spec, n=CHUNK_ROWS), chunk_rng(0))
    draws = [(first.X, first.y_true, first.costs)] + [
        draw_agents(spec, whole.theta_star, rows, chunk_rng(c))
        for c, rows in ((1, CHUNK_ROWS), (2, 7))
    ]
    for got, parts in zip((whole.X, whole.y_true, whole.costs), zip(*draws)):
        assert np.array_equal(got, np.concatenate(parts))
    assert np.array_equal(whole.theta_star, first.theta_star)


@pytest.mark.parametrize("law", sorted(LAWS))
def test_stream_walks_yield_the_same_agents(law):
    # run_mechanism walks a row source twice: the second walk redraws every
    # chunk, covariates, reports and costs, bit for bit
    n = 2 * CHUNK_ROWS + 7
    spec = PopulationSpec(n=n, d=3, model=ModelKind.logistic(), covariates=LAWS[law])
    stream = PopulationStream(spec, 0.8, lambda c: np.random.default_rng([43, c]))
    first = [(X.copy(), y, costs) for X, y, costs in stream.chunks()]  # X is the shared buffer
    assert [X.shape[0] for X, _, _ in first] == [CHUNK_ROWS, CHUNK_ROWS, 7]
    assert any(np.any(costs > 0.8) for _, _, costs in first)  # some reports are not the truth
    for want, got in zip(first, stream.chunks(), strict=True):
        for w, g in zip(want, got):
            assert np.array_equal(w, g)


class _BareRows:
    """A row source with only what run_mechanism reads: n, d and chunks()."""

    def __init__(self, X, y, costs=None):
        self.X, self.y, self.costs = X, y, costs
        self.n, self.d = X.shape

    def chunks(self):
        for lo in range(0, self.n, CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            costs = None if self.costs is None else self.costs[rows]
            yield self.X[rows].copy(), self.y[rows].copy(), costs


def test_run_mechanism_reads_only_the_chunks_of_a_row_source():
    n, d = CHUNK_ROWS + 5, 2
    model = ModelKind.linear(1.0)
    params = preset_schedule(model, "subgaussian", n, 0.3, d=d)
    bundle = make_link_bundle(model)
    pop = generate_population(PopulationSpec(n=n, d=d, model=model), np.random.default_rng(6))
    bare = run_mechanism(_BareRows(pop.X, pop.y_true), bundle, params, np.random.default_rng(7))
    data = run_mechanism(Dataset(pop.X, pop.y_true), bundle, params, np.random.default_rng(7))
    for field in fields(data):
        got, want = getattr(bare, field.name), getattr(data, field.name)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want, field


def test_run_mechanism_counts_the_costs_of_a_row_source():
    # with a1 = 0, below the rationality floor, some truthful agents lose; the
    # counts, taken row block by row block across two chunks, give the
    # oracle's fractions, as Python floats
    n, d = CHUNK_ROWS + 5, 2
    model = ModelKind.linear(1.0)
    params = replace(preset_schedule(model, "subgaussian", n, 0.3, d=d), a1=0.0)
    tau = params.tau_threshold
    pop = generate_population(PopulationSpec(n=n, d=d, model=model), np.random.default_rng(8))
    reported = apply_strategy(pop, tau, model)
    out = run_mechanism(_BareRows(reported.X, reported.y, pop.costs), make_link_bundle(model),
                        params, np.random.default_rng(9))
    assert type(out.truthful_frac) is float and type(out.rationality_frac) is float
    assert out.truthful_frac == float(np.mean(pop.costs <= tau))
    assert out.rationality_frac == rationality_fraction(out, pop.costs, params.cost_exponent, tau)
    assert 0.0 < out.rationality_frac < 1.0


def _sensitivity_verb(tmp_path, capsys, config, n, trials) -> float:
    """The `sensitivity` verb's empirical_max for the config at n."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_json(config)))
    argv = ["sensitivity", "--config", str(path), "--n", str(n), "--trials", str(trials)]
    assert cli_main(argv) == 0
    return json.loads(capsys.readouterr().out)["empirical_max"]


def _oracle(config, n, pop, trials) -> float:
    """The oracle on pop, keyed as cell (n, 0) keys it: (master_seed, n, 0, ARM_SENSITIVITY)."""
    params = params_for(config, n)
    return empirical_sensitivity(
        Dataset(pop.X, pop.y_true), make_link_bundle(config.population.model), params.settings,
        trials, (config.master_seed, n, 0, ARM_SENSITIVITY),
        replacement_sampler(config.population, pop.theta_star),
    )


def test_sensitivity_verb_draws_the_cell_population(tmp_path, capsys):
    # above CHUNK_ROWS the verb's agents are those of cell (n, 0): chunk 1
    # draws from its own key rather than continuing chunk 0's stream
    n, trials = CHUNK_ROWS + 4, 2
    config = cell_config("linear", 2, n)
    tau = params_for(config, n).tau_threshold
    pop = cell_population(config, n, 0, tau).population()
    assert _sensitivity_verb(tmp_path, capsys, config, n, trials) == _oracle(config, n, pop, trials)

    one_stream = generate_population(
        replace(config.population, n=n), cell_rng(config.master_seed, n, 0, ARM_POPULATION)
    )
    assert np.array_equal(one_stream.X[:CHUNK_ROWS], pop.X[:CHUNK_ROWS])
    assert not np.array_equal(one_stream.X[CHUNK_ROWS:], pop.X[CHUNK_ROWS:])


@pytest.mark.parametrize("name", sorted(CELLS))
def test_sensitivity_verb_keeps_its_one_chunk_draw(tmp_path, capsys, name):
    # at n <= CHUNK_ROWS the cell's population is one generate_population draw
    n, trials = 400, 5
    config = cell_config(name, 2, n)
    pop = generate_population(
        replace(config.population, n=n), cell_rng(config.master_seed, n, 0, ARM_POPULATION)
    )
    assert _sensitivity_verb(tmp_path, capsys, config, n, trials) == _oracle(config, n, pop, trials)


def test_run_mechanism_checks_the_responses_of_every_chunk():
    n = CHUNK_ROWS + 3
    model = ModelKind.logistic()
    params = preset_schedule(model, "subgaussian", n, 0.3, d=2)
    y = np.ones(n)
    y[-1] = 0.5  # the last agent of the partial second chunk
    data = Dataset(np.random.default_rng(0).standard_normal((n, 2)), y)
    with pytest.raises(ConfigError, match="logistic responses must lie in"):
        run_mechanism(data, make_link_bundle(model), params, np.random.default_rng(1))


def _traced_peak(config, n) -> int:
    tracemalloc.start()
    try:
        row = harness._run_cell(config, n, 0)
        assert not row.failed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# bytes per agent of the vectors a cell keeps: the int8 partition and the payments
PER_AGENT_BYTES = 1 + 8


def test_cell_memory_grows_by_per_agent_vectors_only():
    # a cell keeps its per-agent vectors and one chunk of rows at a time; a
    # materialised n x d population would cost d * 8 bytes per agent for each
    # copy of the covariates, and a second chunk alive another chunk buffer;
    # pass 1 maps each chunk in place and pass 2 maps and pays row block by
    # row block, so no shrunk copy or chunk-sized temporary joins the chunk
    d = 4
    small, large = 2 * CHUNK_ROWS, 8 * CHUNK_ROWS
    chunk_buffer = CHUNK_ROWS * d * 8
    for name in ("heavy", "linear"):
        config = cell_config(name, d, large)
        peak = _traced_peak(config, large)
        grown = peak - _traced_peak(config, small)
        assert grown / (large - small) <= PER_AGENT_BYTES + 3, name
        assert peak - PER_AGENT_BYTES * large <= 3 * chunk_buffer, name


def test_run_mechanism_leaves_the_dataset_untouched():
    # pass 1 writes each chunk's l4-shrunk rows over its raw rows; a Dataset
    # hands it copies, so the caller's arrays keep their raw rows
    n, d = 3000, 3
    model = ModelKind.linear(1.0)
    params = preset_schedule(model, "heavy", n, 0.12, d=d)
    rng = np.random.default_rng(8)
    X = rng.standard_t(2.0, size=(n, d)) * 3.0
    y = X @ np.full(d, 0.3) + rng.standard_normal(n)
    assert not np.array_equal(l4_shrink_rows(X, params.settings.tau1), X)  # some rows shrink
    data = Dataset(X, y)
    X_before, y_before = data.X.copy(), data.y.copy()
    run_mechanism(data, make_link_bundle(model), params, np.random.default_rng(9))
    assert np.array_equal(data.X, X_before)
    assert np.array_equal(data.y, y_before)
