import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import privglm
from privglm import estimators, harness
from privglm.cli import main as cli_main
from privglm.errors import ConfigError, SingularGramError
from privglm.estimators import Dataset, estimate
from privglm.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ScheduleSpec,
    canonical_privacy_check,
    config_to_json,
    emit_report,
    estimate_deviation_gain,
    fit_rate,
    parse_rule,
    private_release_closure,
    report_to_dict,
    run_experiment,
    sensitivity_study,
)
from privglm.links import ModelKind, make_link_bundle
from privglm.mechanism import (
    brier_payment,
    budget_bound,
    partition,
    prediction_bound,
    preset_schedule,
    rationality_floor,
    release_noise,
)
from privglm.population import (
    PopulationSpec,
    StudentTCovariates,
    SubGaussianCov,
    SubGaussianIsotropic,
    WorstOfGrid,
    covariate_sigma,
)
from privglm.privacy import empirical_privacy_ratio


def linear_config(**kw):
    defaults = dict(
        population=PopulationSpec(n=2, d=2, model=ModelKind.linear(1.0)),
        regime="subgaussian",
        sweep=[200],
        repeats=1,
        schedule=ScheduleSpec(delta=0.3),
        metrics=("accuracy", "budget", "rationality"),
        master_seed=404,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_fit_rate_exact_power_law():
    xs = np.array([10.0, 100.0, 1000.0, 10000.0])
    fit = fit_rate(xs, xs**-0.5)
    assert fit.slope == pytest.approx(-0.5, abs=1e-10)
    assert fit.ci_low == pytest.approx(-0.5, abs=1e-8)
    assert fit.points == 4


def test_fit_rate_constant_and_errors():
    xs = [10.0, 100.0, 1000.0]
    assert fit_rate(xs, [2.0, 2.0, 2.0]).slope == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ConfigError):
        fit_rate(xs, [1.0, -1.0, 2.0])
    with pytest.raises(ConfigError):
        fit_rate([10.0, 100.0], [1.0, 2.0])


def test_run_experiment_row_count_and_metrics():
    report = run_experiment(linear_config())
    assert len(report.rows) == 1
    row = report.rows[0]
    assert (row.n, row.repeat, row.model, row.regime) == (200, 0, "linear", "subgaussian")
    assert row.mse is not None and row.mse >= 0
    assert row.budget is not None
    assert row.rationality_frac is not None
    assert row.truthful_frac is not None and row.truthful_frac > 0.9
    assert not row.failed
    # every released estimator stays inside the parameter ball
    assert np.linalg.norm(row.theta_bar) <= 1.0 + 1e-12


def test_privacy_ratio_metric_attaches_check():
    config = linear_config(metrics=("accuracy", "privacy_ratio"))
    report = run_experiment(config)
    assert report.privacy_check is not None
    assert report.privacy_check["fraction_within"] >= 0.99
    assert "falsification" in report.privacy_check["note"]


def test_reports_are_byte_identical(tmp_path):
    config = linear_config(sweep=[150, 300], repeats=2)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    emit_report(run_experiment(config), out1, "csv")
    emit_report(run_experiment(config), out2, "csv")
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "report_long.csv").read_bytes() == (out2 / "report_long.csv").read_bytes()


def test_threads_do_not_change_results(tmp_path):
    config = linear_config(sweep=[150, 300], repeats=2)
    serial = run_experiment(config, threads=1)
    parallel = run_experiment(config, threads=4)
    assert report_to_dict(serial) == report_to_dict(parallel)


def test_csv_schema(tmp_path):
    report = run_experiment(linear_config())
    paths = emit_report(report, tmp_path, "csv")
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header.split(",") == list(CSV_COLUMNS)
    assert len(CSV_COLUMNS) == 13
    assert any(p.name == "report_long.csv" for p in paths)
    # every value of a numeric column is a number, not a numpy repr such as np.float64(1.0)
    with (tmp_path / "report.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["truthful_frac"] and rows[0]["rationality_frac"]
    for col in set(CSV_COLUMNS) - {"model", "regime"}:
        if rows[0][col]:
            float(rows[0][col])


def test_empty_sweep_header_only(tmp_path):
    report = run_experiment(linear_config(sweep=[]))
    emit_report(report, tmp_path, "csv")
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 1


def test_json_round_trip(tmp_path):
    config = linear_config(sweep=[150, 300], repeats=2, fmt="json")
    report = run_experiment(config)
    emit_report(report, tmp_path, "json")
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded == report_to_dict(report)
    assert loaded["config"]["sweep"] == [150, 300]
    assert loaded["config"]["schedule"]["delta"] == 0.3
    assert config_to_json(ExperimentConfig.from_json(loaded["config"])) == loaded["config"]


def test_failed_cells_are_recorded(tmp_path, capsys):
    # a positive-definite covariance whose second direction has scale 1e-13:
    # every design's condition number (about 1e13) exceeds the solver's cap
    payload = {
        "population": {"d": 2, "model": "linear",
                       "covariates": {"kind": "subgaussian_cov", "cov": [[1, 0], [0, 1e-26]]}},
        "schedule": {"delta": 0.3},
        "sweep": [100],
        "repeats": 2,
        "master_seed": 404,
        "format": "json",
    }
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", _write_config(tmp_path, payload),
                     "--out", str(out)]) == 3
    assert "every cell failed numerically" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 2
    for row in report["rows"]:
        assert row["failed"] and "exceeds cap" in row["error"]
        assert row["mse"] is None and row["noise_norms"] is None
    assert "mse" not in report["fits"]


def test_every_defaulted_config_field_is_settable(tmp_path):
    # a config that moves every key off its default must move every field
    # with a default: a field no config can set is a knob only code reaches
    payload = {
        "population": {"d": 2, "model": "linear"},
        "regime": "heavy",
        "schedule": {"delta": 0.12},
        "sweep": [100],
        "repeats": 2,
        "metrics": ["accuracy"],
        "out_dir": str(tmp_path / "out"),
        "format": "json",
        "master_seed": 9,
        "deviation": {"rule": "truthful", "trials": 7},
        "sensitivity_trials": 5,
        "posterior_samples": 2000,
    }
    assert set(payload) == set(harness._CONFIG_KEYS)
    config = ExperimentConfig.from_json(payload)
    for f in dataclasses.fields(ExperimentConfig):
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            continue
        default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
        assert getattr(config, f.name) != default, f"no config key moves {f.name!r}"


def test_config_validation():
    with pytest.raises(ConfigError):
        linear_config(sweep=[200, 100])
    with pytest.raises(ConfigError):
        linear_config(repeats=0)
    with pytest.raises(ConfigError):
        linear_config(metrics=("accuracy", "bogus"))
    with pytest.raises(ConfigError):
        linear_config(schedule=None)
    with pytest.raises(ConfigError):
        linear_config(fmt="xml")


def test_config_from_json(tmp_path):
    payload = {
        "population": {"d": 2, "model": "linear", "noise_std": 1.0,
                        "covariates": {"kind": "subgaussian_isotropic", "sigma": 1.0}},
        "regime": "subgaussian",
        "schedule": {"delta": 0.3},
        "sweep": [100, 200],
        "repeats": 2,
        "metrics": ["accuracy", "budget"],
        "master_seed": 7,
        "deviation": {"rule": "grid:0,1.5", "trials": 10},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    config = ExperimentConfig.from_json(path)
    assert config.sweep == [100, 200]
    assert config.population.model.family == "linear"
    assert config.deviation_rule == WorstOfGrid((0.0, 1.5))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)


def test_parse_rule_forms():
    assert parse_rule("truthful") is None
    assert parse_rule("grid:0,1,2") == WorstOfGrid((0.0, 1.0, 2.0))
    assert parse_rule("grid:-1.5") == WorstOfGrid((-1.5,))
    with pytest.raises(ConfigError, match="a rule is truthful or grid:a,b,c"):
        parse_rule("nonsense")


def test_default_rule_is_the_report_zero():
    # a config that names no rule studies the one report 0
    config = ExperimentConfig.from_json({
        "population": {"d": 2, "model": "linear"}, "schedule": {"delta": 0.3}, "sweep": [100],
    })
    assert config.deviation_rule == WorstOfGrid((0.0,))
    assert config_to_json(config)["deviation"]["rule"] == "grid:0.0"
    assert linear_config().deviation_rule == WorstOfGrid((0.0,))


@pytest.mark.parametrize("rule", [
    None, WorstOfGrid((-2.5,)), WorstOfGrid((-1.0, 0.0, 1e-7, 2.5)),
], ids=["truthful", "grid-one", "grid"])
def test_config_echo_reads_back(rule):
    # a report's config echo is a config: reading it back echoes it identically
    config = linear_config(
        population=PopulationSpec(
            n=2, d=2, model=ModelKind.linear(0.5), covariates=StudentTCovariates(6.0),
            theta_star=[0.1, -0.2], cost_lambda=2.0,
        ),
        regime="heavy",
        schedule=ScheduleSpec(delta=0.12),
        deviation_rule=rule,
    )
    echoed = config_to_json(config)
    back = ExperimentConfig.from_json(echoed)
    assert back.deviation_rule == rule
    assert config_to_json(back) == echoed



@pytest.mark.parametrize("covariates", [
    {"kind": "subgaussian_cov", "cov": [[2.0, 0.6, 0.0], [0.6, 1.0, 0.2], [0.0, 0.2, 0.5]]},
], ids=["subgaussian_cov"])
def test_tau1_takes_sigma_from_the_covariates(covariates):
    # tau1 = sigma sqrt(log n), with sigma = sqrt(d lambda_max) of the covariance
    config = ExperimentConfig.from_json({
        "population": {"d": 3, "model": "linear", "covariates": covariates},
        "schedule": {"delta": 0.3},
        "sweep": [1000],
    })
    matrix = np.asarray(covariates["cov"])
    sigma = math.sqrt(3 * np.linalg.eigvalsh(matrix)[-1])
    assert covariate_sigma(config.population) == pytest.approx(sigma, rel=1e-14)
    tau1 = harness.params_for(config, 1000).settings.tau1
    assert tau1 == pytest.approx(sigma * math.sqrt(math.log(1000)), rel=1e-14)


def test_poisson_cells_hold_at_the_covariates_sigma():
    # covariates of sigma 4 get the clip tau1 = 4 sqrt(log n), so every
    # prediction stays within the m_A that a1 and the budget bound assume
    config = ExperimentConfig(
        population=PopulationSpec(
            n=2, d=2, model=ModelKind.poisson(), covariates=SubGaussianIsotropic(4.0),
        ),
        regime="subgaussian",
        sweep=[2000, 8000],
        repeats=3,
        schedule=ScheduleSpec(delta=0.26),
        master_seed=5,
    )
    report = run_experiment(config)
    assert len(report.rows) == 6 and report.failed_cells == 0
    for row in report.rows:
        params = harness.params_for(config, row.n)
        m_a = prediction_bound(config.population.model, params.settings, 2)
        assert row.rationality_frac == 1.0
        assert row.budget <= budget_bound(row.n, params.a1, params.a2, m_a)

def test_truthful_deviation_gain_is_zero():
    config = linear_config()
    est = estimate_deviation_gain(config, None, 12, n=200)
    assert est.eta_hat == 0.0
    assert est.std_error == 0.0
    assert est.eta_sup == 0.0
    assert est.deviant_rule == "truthful"


def test_deviation_gain_deterministic():
    config = linear_config()
    a = estimate_deviation_gain(config, WorstOfGrid((0.0,)), 10, n=200, seed_tag=3)
    b = estimate_deviation_gain(config, WorstOfGrid((0.0,)), 10, n=200, seed_tag=3)
    assert a.eta_hat == b.eta_hat and a.std_error == b.std_error


def test_zero_a2_removes_payment_component():
    # constant payments make every paired payment difference zero, whatever p and q
    rng = np.random.default_rng(12)
    mean, std_error = harness._gain_moments(rng.standard_normal(15), rng.standard_normal(4), 0.0)
    assert mean.shape == std_error.shape == (3,)
    assert np.all(mean == 0.0) and np.all(std_error == 0.0)


def test_deviation_gain_shrinks_with_n():
    config = linear_config()
    rule = WorstOfGrid((-2.0, -1.0, 0.0, 1.0, 2.0))
    wins = 0
    for rep in range(10):
        small = estimate_deviation_gain(config, rule, 20, n=400, seed_tag=rep)
        large = estimate_deviation_gain(config, rule, 20, n=3200, seed_tag=rep)
        wins += large.eta_hat < small.eta_hat
    assert wins >= 9


def test_deviation_metric_in_rows():
    config = linear_config(
        metrics=("accuracy", "deviation_gain"), deviation_trials=5,
        deviation_rule=WorstOfGrid((0.0,)),
    )
    report = run_experiment(config)
    assert report.rows[0].eta_hat is not None


_STUDIES = {
    "linear": (ModelKind.linear(1.0), 0.3, WorstOfGrid((-2.0, -1.0, 0.0, 1.0, 2.0))),
    "logistic": (ModelKind.logistic(), 0.3, WorstOfGrid((-1.0, 1.0))),
    "poisson": (ModelKind.poisson(), 0.26, WorstOfGrid((0.0, 1.0, 2.0, 3.0))),
}


def _study_config(family, **kw):
    model, delta, _ = _STUDIES[family]
    return linear_config(
        population=PopulationSpec(n=2, d=2, model=model), schedule=ScheduleSpec(delta=delta),
        **kw,
    )


@pytest.mark.parametrize("family", sorted(_STUDIES))
def test_deviation_closed_form_matches_paired_gains(monkeypatch, family):
    # the study's p_t, paid explicitly per trial and report by the Brier rule
    seen = {}
    closed_form = harness._gain_moments

    def spy(p, q, a2):
        seen.update(p=p.copy(), q=q.copy(), out=closed_form(p, q, a2))
        return seen["out"]

    monkeypatch.setattr(harness, "_gain_moments", spy)
    config = _study_config(family)
    params = harness.params_for(config, 300)
    trials = 25
    est = estimate_deviation_gain(config, _STUDIES[family][2], trials, n=300, seed_tag=4)
    p, q = seen["p"], seen["q"]
    assert p.shape == (trials,) and np.all(np.isfinite(p))
    pay = brier_payment(params.a1, params.a2, p[:, None], q[None, :])
    gains = pay[:, 1:] - pay[:, :1]
    mean, se = seen["out"]
    assert np.allclose(mean, gains.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(se, gains.std(axis=0, ddof=1) / np.sqrt(trials), rtol=0, atol=1e-12)
    best = int(np.argmax(mean))
    assert est.std_error == se[best]
    assert est.eta_hat - mean[best] >= 0.0  # the privacy-cost saving


def test_deviation_study_factors_only_the_opposite_groups(monkeypatch):
    # one stacked QR per block over m = n / 2 rows per trial, and no population redraw
    factored = []
    qr = np.linalg.qr

    def counting_qr(a, *args, **kw):
        factored.append(np.shape(a))
        return qr(a, *args, **kw)

    draws = []
    generate = harness.generate_population

    def counting_generate(spec, rng):
        draws.append(spec.n)
        return generate(spec, rng)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(harness, "generate_population", counting_generate)
    trials, n = 60, 2000  # 21 trials to a block of at most 2^16 terms
    estimate_deviation_gain(linear_config(), WorstOfGrid((0.0,)), trials, n=n)
    assert all(len(shape) == 3 and shape[1:] == (n // 2, 3) for shape in factored)
    assert sum(shape[0] * shape[1] for shape in factored) == trials * (n // 2)
    assert 1 < len(factored) < trials
    assert draws == [1]  # the tagged agent's type only

    # odd n: each trial factors the group of n // 2 or n - n // 2 agents opposite agent 0
    factored.clear()
    estimate_deviation_gain(linear_config(), WorstOfGrid((0.0,)), trials, n=n + 1)
    sizes = {shape[1] for shape in factored}
    assert sizes == {n // 2, n // 2 + 1}
    rows = sum(shape[0] * shape[1] for shape in factored)
    assert trials * (n // 2) < rows < trials * (n // 2 + 1)


@pytest.mark.parametrize("family", sorted(_STUDIES))
def test_eta_sup_bounds_eta_hat_and_matches_dense_grid(family):
    config = _study_config(family)
    rule = _STUDIES[family][2]
    a2 = harness.params_for(config, 300).a2
    # linear: reports 0.01 apart, and dq/dr < 1, so the grid misses the peak
    # a2 (p - q)^2 by at most a2 0.005^2; the other report spaces are exhausted
    dense, slack = {
        "linear": (WorstOfGrid(tuple(np.linspace(-60.0, 60.0, 12_001))), a2 * 0.005 ** 2),
        "logistic": (WorstOfGrid((-1.0, 1.0)), 0.0),
        "poisson": (WorstOfGrid(tuple(float(r) for r in range(400))), 0.0),
    }[family]
    for seed_tag in range(3):
        est = estimate_deviation_gain(config, rule, 20, n=300, seed_tag=seed_tag)
        assert est.eta_sup >= est.eta_hat
        # the same trials (the draws do not depend on the rule), maximised by brute force
        brute = estimate_deviation_gain(config, dense, 20, n=300, seed_tag=seed_tag)
        assert est.eta_sup - slack - 1e-15 <= brute.eta_hat <= est.eta_sup
        truthful = estimate_deviation_gain(config, None, 20, n=300, seed_tag=seed_tag)
        assert truthful.eta_sup == 0.0 and truthful.eta_hat == 0.0


@pytest.mark.parametrize("regime, covariates, extra", [
    ("subgaussian", SubGaussianCov(np.array([[0.6, 0.2], [0.2, 0.4]])), {}),
    ("heavy", StudentTCovariates(5.0), {"theta_star": np.array([0.3, -0.4])}),
], ids=["subgaussian-cov", "heavy-fixed-theta"])
def test_deviation_study_on_every_population_kind(regime, covariates, extra):
    config = linear_config(
        population=PopulationSpec(n=2, d=2, model=ModelKind.linear(1.0), covariates=covariates,
                                  **extra),
        regime=regime,
        schedule=ScheduleSpec(delta=0.12 if regime == "heavy" else 0.3),
    )
    rule = WorstOfGrid((-2.0, 0.0, 2.0))
    for n in (301, 2000):  # one block and several; odd n mixes both group sizes
        est = estimate_deviation_gain(config, rule, 30, n=n, seed_tag=2)
        assert np.isfinite([est.eta_hat, est.std_error, est.eta_sup]).all()
        assert est.eta_sup >= max(est.eta_hat, 0.0) and est.std_error > 0.0


def test_sensitivity_metric_in_rows():
    config = linear_config(metrics=("accuracy", "sensitivity"), sensitivity_trials=5)
    report = run_experiment(config)
    assert report.rows[0].delta_empirical is not None and report.rows[0].delta_empirical >= 0


_CELLS = {
    # name: population, regime, delta, rule
    "linear": ({"model": "linear"}, "subgaussian", 0.3, "grid:-1,0,1"),
    "heavy": ({"model": "linear", "covariates": {"kind": "student_t", "dof": 5.0}}, "heavy", 0.12,
              "grid:-1,0,1"),
    "logistic": ({"model": "logistic"}, "subgaussian", 0.3, "grid:-1,1"),
    "poisson": ({"model": "poisson"}, "subgaussian", 0.26, "grid:0,1,2"),
}


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_study_verbs_reproduce_the_cell_of_repeat_zero(tmp_path, capsys, name):
    # the verbs print row (n, 0) of a report that ran both studies, and the
    # studies at repeat 1 give row (n, 1): one key per study and cell
    population, regime, delta, rule = _CELLS[name]
    n = 150
    cfg = _write_config(tmp_path, {
        "population": {"d": 2, **population},
        "regime": regime,
        "schedule": {"delta": delta},
        "sweep": [n],
        "repeats": 2,
        "metrics": ["accuracy", "sensitivity", "deviation_gain"],
        "deviation": {"rule": rule, "trials": 6},
        "sensitivity_trials": 4,
        "master_seed": 11,
        "format": "json",
    })
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    capsys.readouterr()
    assert [(r["n"], r["repeat"]) for r in rows] == [(n, 0), (n, 1)]
    assert rows[0]["delta_empirical"] != rows[1]["delta_empirical"]

    assert cli_main(["deviate", "--config", cfg, "--n", str(n)]) == 0
    assert json.loads(capsys.readouterr().out)["eta_hat"] == rows[0]["eta_hat"]
    assert cli_main(["sensitivity", "--config", cfg, "--n", str(n)]) == 0
    assert json.loads(capsys.readouterr().out)["empirical_max"] == rows[0]["delta_empirical"]

    config = ExperimentConfig.from_json(cfg)
    est = estimate_deviation_gain(config, config.deviation_rule, config.deviation_trials, n=n,
                                  seed_tag=1)
    assert est.eta_hat == rows[1]["eta_hat"]
    assert sensitivity_study(config, n, 1, config.sensitivity_trials) == rows[1]["delta_empirical"]


@pytest.mark.parametrize("model", [ModelKind.linear(1.0), ModelKind.logistic()],
                         ids=["linear", "logistic"])
def test_noise_norms_are_the_norms_of_the_redrawn_release_noise(tmp_path, model):
    config = linear_config(population=PopulationSpec(n=2, d=2, model=model),
                           sweep=[150, 300], repeats=2)
    report = run_experiment(config)
    for row in report.rows:
        # the cell's mechanism generator draws the partition, then the three noises
        rng = harness.cell_rng(config.master_seed, row.n, row.repeat, harness.ARM_MECHANISM)
        partition(row.n, rng)
        noise = release_noise(2, harness.params_for(config, row.n).privacy, rng)
        assert row.noise_norms == [float(np.linalg.norm(v)) for v in noise]
    # the JSON rows carry them
    emit_report(report, tmp_path, "json")
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert [r["noise_norms"] for r in rows] == [r.noise_norms for r in report.rows]


def test_canonical_privacy_check_smoke():
    honest = canonical_privacy_check(trials=20_000, bins=20, corruption=1.0, seed=5)
    assert honest.passed()
    corrupted = canonical_privacy_check(trials=20_000, bins=20, corruption=10.0, seed=5)
    assert not corrupted.passed()


def _neighbour_pair(family, d, n=60):
    """Datasets that differ in row 0's response, from one end of its range to the other."""
    model, delta = {
        "linear": (ModelKind.linear(1.0), 0.3),
        "logistic": (ModelKind.logistic(), 0.3),
        "poisson": (ModelKind.poisson(), 0.26),
    }[family]
    settings = preset_schedule(model, "subgaussian", n, delta, d=d).settings
    rng = np.random.default_rng([d, n])
    X = np.ones((n, 1)) if d == 1 else np.column_stack([np.ones(n), rng.choice([-1.0, 1.0], n)])
    if family == "logistic":
        y, lo, hi = rng.choice([-1.0, 1.0], n), -1.0, 1.0
    elif family == "poisson":
        y, lo, hi = rng.integers(0, 3, n).astype(float), 0.0, 4.0
    else:
        y, lo, hi = rng.standard_normal(n), -settings.tau2, settings.tau2
    y_a, y_b = y.copy(), y.copy()
    y_a[0], y_b[0] = hi, lo
    return make_link_bundle(model), settings, Dataset(X, y_a), Dataset(X, y_b)


@pytest.mark.parametrize("family", ["linear", "logistic", "poisson"])
@pytest.mark.parametrize("d, bins", [(1, 30), (2, 8)])
def test_ratio_check_on_shared_release(family, d, bins):
    # the claimed sensitivity is twice the realized one-row estimator gap
    bundle, settings, data_a, data_b = _neighbour_pair(family, d)
    gap = float(np.linalg.norm(estimate(data_a, bundle, settings) - estimate(data_b, bundle, settings)))
    epsilon = 0.5
    verdicts = []
    for corruption in (1.0, 10.0):
        build = private_release_closure(bundle, settings, epsilon, 2.0 * gap, corruption)
        report = empirical_privacy_ratio(
            build, data_a, data_b, 100_000, bins, np.random.default_rng([7, d]),
            epsilon_bound=2.0 * epsilon,
        )
        verdicts.append(report.passed())
    assert verdicts == [True, False]


def run_cli(*args):
    # the child imports privglm from where this process found it
    path = [str(Path(privglm.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-m", "privglm.cli", *args], capture_output=True, text=True, env=env
    )


def _schedule(tmp_path, capsys, payload, *flags):
    """The JSON that `schedule` prints for a config of `payload`."""
    assert cli_main(["schedule", "--config", _write_config(tmp_path, payload), *flags]) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_schedule_verb(tmp_path):
    payload = {
        "population": {"d": 3, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [10_000],
    }
    proc = run_cli("schedule", "--config", _write_config(tmp_path, payload))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["n"] == 10_000
    assert out["epsilon"] == pytest.approx(10000**-0.3, rel=1e-9)
    assert "kappa0" in out["constants"]


@pytest.mark.parametrize("model, regime, delta, m_a", [
    ("linear", "heavy", 0.12, 10 ** 0.25 * (10_000 / np.log(10_000)) ** 0.25),
    ("logistic", "subgaussian", 0.3, None),
], ids=["heavy", "subgaussian"])
def test_cli_schedule_a1_is_floor_at_printed_m_a(tmp_path, capsys, model, regime, delta, m_a):
    payload = {
        "population": {"d": 10, "model": model},
        "regime": regime,
        "schedule": {"delta": delta},
        "sweep": [10_000],
    }
    out = _schedule(tmp_path, capsys, payload)
    printed = out["constants"]["m_a"]
    if m_a is not None:
        assert printed == pytest.approx(m_a, rel=1e-12)
    floor = rationality_floor(
        out["a2"], printed, out["tau_threshold"], out["cost_exponent"],
        out["epsilon"], out["gamma_n"] + 2 * out["gamma_half"],
    )
    assert out["a1"] == pytest.approx(floor, rel=1e-12)
    assert out["cost_exponent"] == (9 if regime == "heavy" else 4)


# the keys `schedule` prints, each a field of MechanismParams or of its parts
_PRINTED_PARAMS = (
    "n", "epsilon", "delta_n", "delta_half", "gamma_n", "gamma_half", "tau1", "tau2",
    "tau_theta", "regime", "alpha", "beta", "a1", "a2", "tau_threshold", "cost_exponent",
)


def _assert_schedule_is_params_for(out, config, n):
    params = harness.params_for(config, n)
    want = {**vars(params), **vars(params.privacy), **vars(params.settings)}
    for key in _PRINTED_PARAMS:
        assert out[key] == want[key], key
    assert out["polytope"] == params.settings.polytope.to_json()


@pytest.mark.parametrize("flags, n", [((), 1000), (("--n", "2000"), 2000)], ids=["sweep", "flag"])
def test_cli_schedule_prints_the_cell_parameters(tmp_path, capsys, flags, n):
    # a Poisson config with sigma 4 covariates runs tau1 = 4 sqrt(log n); the
    # schedule reads it from the config, not from a sigma of its own
    payload = {
        "population": {"d": 3, "model": "poisson",
                       "covariates": {"kind": "subgaussian_isotropic", "sigma": 4.0}},
        "schedule": {"delta": 0.26},
        "sweep": [1000, 2000],
    }
    out = _schedule(tmp_path, capsys, payload, *flags)
    _assert_schedule_is_params_for(out, ExperimentConfig.from_json(payload), n)
    assert out["tau1"] == pytest.approx(4.0 * math.sqrt(math.log(n)), rel=1e-14)
    if n == 1000:
        assert out["a1"] == pytest.approx(84_847.45, rel=1e-6)


def test_cli_schedule_takes_sigma_from_a_covariance(tmp_path, capsys):
    cov = [[2.0, 0.6, 0.0], [0.6, 1.0, 0.2], [0.0, 0.2, 0.5]]
    payload = {
        "population": {"d": 3, "model": "linear",
                       "covariates": {"kind": "subgaussian_cov", "cov": cov}},
        "schedule": {"delta": 0.3},
        "sweep": [1000],
    }
    out = _schedule(tmp_path, capsys, payload)
    _assert_schedule_is_params_for(out, ExperimentConfig.from_json(payload), 1000)
    sigma = math.sqrt(3 * np.linalg.eigvalsh(np.asarray(cov))[-1])
    assert out["tau1"] == pytest.approx(sigma * math.sqrt(math.log(1000)), rel=1e-14)


def test_cli_schedule_prints_the_release_sensitivities(tmp_path, capsys):
    # heavy regime: delta = c0 d^(3/4) (log n / n)^(1/8), at n and at n // 2;
    # c0 = 0.5 halves both
    payload = {
        "population": {"d": 4, "model": "linear",
                       "covariates": {"kind": "student_t", "dof": 5.0}},
        "regime": "heavy",
        "schedule": {"delta": 0.12},
        "sweep": [5001],
    }
    full = _schedule(tmp_path, capsys, payload)
    _assert_schedule_is_params_for(full, ExperimentConfig.from_json(payload), 5001)
    for key, n in (("delta_n", 5001), ("delta_half", 2500)):
        assert full[key] == pytest.approx(4 ** 0.75 * (math.log(n) / n) ** 0.125, rel=1e-14)
    half = _schedule(tmp_path, capsys, payload | {"schedule": {"delta": 0.12, "c0": 0.5}})
    for key in ("delta_n", "delta_half"):
        assert half[key] == pytest.approx(0.5 * full[key], rel=1e-15)


def test_cli_schedule_rejects_bad_delta(tmp_path):
    payload = {
        "population": {"d": 1, "model": "linear"},
        "schedule": {"delta": 0.4},
        "sweep": [1000],
    }
    proc = run_cli("schedule", "--config", _write_config(tmp_path, payload))
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_cli_simulate_and_exit_codes(tmp_path):
    payload = {
        "population": {"d": 2, "model": "linear", "noise_std": 1.0},
        "regime": "subgaussian",
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "repeats": 1,
        "metrics": ["accuracy", "budget"],
        "master_seed": 3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.csv").exists()

    proc = run_cli("simulate", "--config", str(tmp_path / "nope.json"))
    assert proc.returncode == 2


def test_cli_rejects_sweep_point_below_2d(tmp_path, capsys):
    payload = {
        "population": {"d": 3, "model": "linear", "noise_std": 1.0},
        "schedule": {"delta": 0.3},
        "sweep": [4, 200],
        "repeats": 1,
        "master_seed": 3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "n = 4" in err and "d = 3" in err
    assert not (tmp_path / "out").exists()


def test_cli_output_directory_created_only_on_write(tmp_path, capsys):
    payload = {
        "population": {"d": 2, "model": "linear", "noise_std": 1.0},
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "repeats": 1,
        "master_seed": 3,
        "out_dir": str(tmp_path / "from_json"),
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    # an --out override leaves the JSON's directory uncreated
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert not (tmp_path / "from_json").exists()
    # an out_dir whose parent is a regular file is a config error
    (tmp_path / "plain").write_text("")
    cfg.write_text(json.dumps(payload | {"out_dir": str(tmp_path / "plain" / "out")}))
    assert cli_main(["simulate", "--config", str(cfg)]) == 2
    assert "cannot write the report" in capsys.readouterr().err


def _write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("typo, key", [
    ({"repeat": 30}, "repeat"),
    ({"metircs": ["accuracy"]}, "metircs"),
    ({"population": {"d": 2, "model": "linear", "nosie_std": 2.0}}, "nosie_std"),
    ({"population": {"d": 2, "model": "linear",
                     "covariates": {"kind": "subgaussian_isotropic", "sigm": 2.0}}}, "sigm"),
    ({"deviation": {"rule": "truthful", "trails": 5}}, "trails"),
    ({"population": {"d": 2, "n": 500, "model": "linear"}}, "n"),
    ({"population": {"d": 2, "model": "linear", "cost_correlated": True}}, "cost_correlated"),
    ({"report_mode": "debug"}, "report_mode"),
    ({"audit_log": "audit.jsonl"}, "audit_log"),
    ({"schedule": {"delta": 0.3, "gamma_c1": 2.0}}, "gamma_c1"),
    ({"schedule": {"delta": 0.3, "gamma_exponent": 0.5}}, "gamma_exponent"),
    ({"schedule": {"delta": 0.3, "c": 1.0}}, "c"),
    ({"schedule": {"delta": 0.3, "sigma": 4.0}}, "sigma"),
    ({"schedule": {"delta": 0.3, "scale": {"tau2": 3.0}}}, "scale"),
])
def test_cli_rejects_unknown_config_keys(tmp_path, capsys, typo, key):
    payload = {
        "population": {"d": 2, "model": "linear", "noise_std": 1.0},
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "repeats": 1,
        "master_seed": 3,
    }
    cfg = _write_config(tmp_path, payload | typo)
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize("family, delta", [("logistic", 0.3), ("poisson", 0.26)])
@pytest.mark.parametrize("verb", ["simulate", "schedule"])
def test_cli_rejects_noise_std_of_a_glm(tmp_path, capsys, verb, family, delta):
    # a logistic or Poisson population once accepted noise_std and dropped it
    payload = {
        "population": {"d": 2, "model": family},
        "schedule": {"delta": delta},
        "sweep": [120],
        "master_seed": 3,
    }
    out = tmp_path / "out"

    def run(population):
        argv = [verb, "--config", _write_config(tmp_path, payload | {"population": population})]
        return cli_main(argv + (["--out", str(out)] if verb == "simulate" else []))

    assert run(payload["population"]) == 0
    capsys.readouterr()
    shutil.rmtree(out, ignore_errors=True)
    assert run(payload["population"] | {"noise_std": 5.0}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'noise_std'" in err
    assert not out.exists()


@pytest.mark.parametrize("change, key, value", [
    ({"population": {"d": 2.7, "model": "linear"}}, "d", "2.7"),
    ({"sweep": [100.9, 200.2]}, "sweep", "100.9"),
    ({"repeats": 1.5}, "repeats", "1.5"),
    ({"master_seed": 3.9}, "master_seed", "3.9"),
    ({"deviation": {"trials": 2.5}}, "trials", "2.5"),
    ({"sensitivity_trials": True}, "sensitivity_trials", "True"),
    ({"posterior_samples": "2000"}, "posterior_samples", "'2000'"),
], ids=["d", "sweep", "repeats", "master_seed", "deviation-trials", "bool", "string"])
def test_cli_rejects_malformed_integers(tmp_path, capsys, change, key, value):
    # each of these once ran, truncated: d 2, sweep [100, 200], repeats 1, ...
    payload = {
        "population": {"d": 2, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "master_seed": 3,
    }
    out = tmp_path / "out"
    argv = ["simulate", "--config", _write_config(tmp_path, payload | change), "--out", str(out)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"key {key!r}: {value} is not an integer" in err
    assert not out.exists()


@pytest.mark.parametrize("change, message", [
    ({"metrics": {"accuracy": 1, "rationality": 2}}, "key 'metrics': {'accuracy': 1, "),
    ({"metrics": "budget"}, "key 'metrics': 'budget' is not an array"),
    ({"metrics": ["budget", 3]}, "key 'metrics': 3 is not a str"),
    ({"sweep": {}}, "key 'sweep': {} is not an array"),
    ({"sweep": "120"}, "key 'sweep': '120' is not an array"),
    ({"sweep": [], "regime": "heavyy"}, "unknown regime 'heavyy'"),
    ({"population": {"d": 1, "model": "linear", "theta_star": True}},
     "key 'theta_star': True is not an array"),
    ({"population": {"d": 2, "model": "linear", "theta_star": [0.5, True]}},
     "key 'theta_star': True is not a finite number"),
    ({"population": {"d": 2, "model": "linear",
                     "covariates": {"kind": "subgaussian_cov", "cov": {"0": [1, 0]}}}},
     "key 'cov': {'0': [1, 0]} is not an array"),
    ({"population": {"d": 2, "model": "linear",
                     "covariates": {"kind": "student_t", "dof": 5.0, "scale": 1.0}},
      "regime": "heavy", "schedule": {"delta": 0.12}},
     "key 'scale': 1.0 is not an array"),
], ids=["metrics-object", "metrics-string", "metrics-number", "sweep-object", "sweep-string",
        "regime", "theta-star-bool", "theta-star-entry", "cov-object", "scale-number"])
def test_cli_rejects_malformed_lists_and_unknown_regimes(tmp_path, capsys, change, message):
    # each fails naming its key; an object's keys or a string's letters once
    # read as the list, a boolean as theta* = [1.0], and an unknown regime
    # with an empty sweep wrote a header-only report
    payload = {
        "population": {"d": 2, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "master_seed": 3,
    }
    out = tmp_path / "out"
    argv = ["simulate", "--config", _write_config(tmp_path, payload | change), "--out", str(out)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_config_reads_an_integral_float_as_an_integer():
    config = ExperimentConfig.from_json({
        "population": {"d": 2.0, "model": "linear"}, "schedule": {"delta": 0.3},
        "sweep": [1e3, 1e6], "posterior_samples": 1e4,
    })
    assert config.sweep == [1000, 1_000_000] and config.population.d == 2
    assert type(config.posterior_samples) is int and config.posterior_samples == 10_000


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_rejects_threads_below_one(tmp_path, capsys, threads):
    payload = {"population": {"d": 2, "model": "linear"}, "schedule": {"delta": 0.3},
               "sweep": [120]}
    out = tmp_path / "out"
    argv = ["simulate", "--config", _write_config(tmp_path, payload), "--out", str(out),
            "--threads", threads]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"config error: --threads must be >= 1, got {threads}\n"
    assert not out.exists()


@pytest.mark.parametrize("verb", ["deviate", "sensitivity"])
@pytest.mark.parametrize("flag", [["--threads", "2"], ["--format", "json"]])
def test_study_verbs_take_no_threads_or_format(tmp_path, capsys, verb, flag):
    payload = {"population": {"d": 2, "model": "linear"}, "schedule": {"delta": 0.3},
               "sweep": [120]}
    argv = [verb, "--config", _write_config(tmp_path, payload), "--trials", "2", *flag]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_takes_threads_and_format(tmp_path, capsys):
    payload = {"population": {"d": 2, "model": "linear"}, "schedule": {"delta": 0.3},
               "sweep": [120]}
    out = tmp_path / "out"
    argv = ["simulate", "--config", _write_config(tmp_path, payload), "--out", str(out),
            "--threads", "2", "--format", "json"]
    assert cli_main(argv) == 0
    assert (out / "report.json").exists() and not (out / "report.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--bins", "0"], "bins must be >= 2, got 0"),
    (["--bins", "1"], "bins must be >= 2, got 1"),
    (["--bins", "-3"], "bins must be >= 2, got -3"),
    (["--corruption", "0"], "corruption must be finite and > 0, got 0.0"),
    (["--corruption", "-1"], "corruption must be finite and > 0, got -1.0"),
    (["--corruption", "inf"], "corruption must be finite and > 0, got inf"),
    (["--corruption", "nan"], "corruption must be finite and > 0, got nan"),
], ids=["bins-0", "bins-1", "bins-negative", "corruption-0", "corruption-negative",
        "corruption-inf", "corruption-nan"])
def test_privacy_check_rejects_vacuous_flags(capsys, flags, message):
    # one bin holds every sample, so --bins 0 once passed a 10x corrupted release
    argv = ["privacy-check", "--trials", "2000", "--corruption", "10", *flags]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_posterior_samples_changes_no_report_row(tmp_path):
    # the key is read and echoed, but the posterior means have no node count;
    # sigma 4 puts a few of the Poisson rows on the windowed rule
    for family, delta, covariates in (
        ("logistic", 0.3, {"kind": "subgaussian_isotropic", "sigma": 1.0}),
        ("poisson", 0.26, {"kind": "subgaussian_isotropic", "sigma": 4.0}),
    ):
        rows = []
        for samples in (1000, 10_000):
            payload = {"population": {"d": 3, "model": family, "covariates": covariates},
                       "schedule": {"delta": delta}, "sweep": [400], "master_seed": 3,
                       "format": "json", "posterior_samples": samples}
            out = tmp_path / f"{family}{samples}"
            assert cli_main(["simulate", "--config", _write_config(tmp_path, payload),
                             "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["config"]["posterior_samples"] == samples
            rows.append(json.dumps(report["rows"]))
        assert rows[0] == rows[1], family


@pytest.mark.parametrize("covariates, message", [
    ({"kind": "subgaussian_cov", "cov": [[1.0, 1.0], [1.0, 1.0]]}, "not positive definite"),
    ({"kind": "subgaussian_cov", "cov": [[1.0, 0.5], [0.0, 1.0]]}, "not symmetric"),
    ({"kind": "subgaussian_cov", "cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
     "must be a 2x2 matrix"),
    ({"kind": "student_t", "dof": 5.0, "scale": [[1.0, 2.0], [2.0, 1.0]]}, "not positive definite"),
    ({"kind": "student_t", "dof": 5.0}, "Student-t covariates are not sub-Gaussian"),
    ({"sigma": 2.0}, "unknown covariate kind None"),
], ids=["singular", "non-symmetric", "wrong-shape", "student-t-indefinite",
        "student-t-subgaussian", "no-kind"])
def test_cli_rejects_invalid_covariance(tmp_path, capsys, covariates, message):
    payload = {
        "population": {"d": 2, "model": "linear", "covariates": covariates},
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "repeats": 1,
        "master_seed": 3,
    }
    cfg = _write_config(tmp_path, payload)
    out = str(tmp_path / "out")
    for argv in (["simulate", "--config", cfg, "--out", out],
                 ["deviate", "--config", cfg, "--trials", "3"],
                 ["sensitivity", "--config", cfg, "--trials", "3"]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb, where", [
    ("simulate", "config"), ("simulate", "flag"), ("deviate", "config"), ("deviate", "flag"),
    ("privacy-check", "flag"),
])
def test_cli_rejects_negative_seed(tmp_path, capsys, verb, where):
    payload = {
        "population": {"d": 2, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "repeats": 1,
        "master_seed": -1 if where == "config" else 3,
    }
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, payload)
    argv = {
        "simulate": ["simulate", "--config", cfg, "--out", str(out)],
        "deviate": ["deviate", "--config", cfg, "--trials", "3"],
        "privacy-check": ["privacy-check", "--trials", "200", "--bins", "2"],
    }[verb]
    if where == "flag":
        argv += ["--seed", "-3"]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed must be nonnegative" in err
    assert not out.exists()


@pytest.mark.parametrize("verb, where", [
    ("deviate", harness), ("sensitivity", estimators),
])
def test_cli_numerical_failure_exits_3(tmp_path, capsys, monkeypatch, verb, where):
    def singular(R):
        raise SingularGramError("design matrix is rank deficient")

    monkeypatch.setattr(where, "solve_factor", singular)
    payload = {
        "population": {"d": 2, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "repeats": 1,
        "master_seed": 3,
    }
    assert cli_main([verb, "--config", _write_config(tmp_path, payload), "--trials", "3"]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: design matrix is rank deficient\n"


@pytest.mark.parametrize("argv, population, message", [
    (["simulate", "--config", None], {"model": "logistic", "tau_theta": 10.0},
     "logistic subset touches the pole of the inverse-mean derivative"),
    (["schedule", "--config", None], {"model": "poisson", "tau_theta": 400.0},
     "poisson inverse-mean derivative unbounded on the predictor range"),
    (["privacy-check", "--trials", "120"], {"model": "linear"},
     "occupied bins fall below 50 samples"),
], ids=["simulate-polytope", "schedule-polytope", "privacy-check-mass"])
def test_cli_config_caused_failure_exits_2(tmp_path, capsys, argv, population, message):
    payload = {
        "population": {"d": 2, **population},
        "schedule": {"delta": 0.3 if population["model"] == "logistic" else 0.26},
        "sweep": [1000],
    }
    argv = [_write_config(tmp_path, payload) if a is None else a for a in argv]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and err.count("\n") == 1


def _deviate_argv(tmp_path, rule, where):
    """`deviate` with `rule` as its --rule text or as the config's deviation.rule."""
    payload = {
        "population": {"d": 2, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [400],
        "master_seed": 3,
    }
    argv = ["deviate", "--trials", "3", "--n", "400", "--config"]
    if where == "config":
        return argv + [_write_config(tmp_path, payload | {"deviation": {"rule": rule}})]
    return argv + [_write_config(tmp_path, payload), "--rule", rule]


@pytest.mark.parametrize("rule, where, message", [
    ("grid:", "flag", "rule value '' is not a number"),
    ("grid:abc", "flag", "rule value 'abc' is not a number"),
    ("grid:nan", "flag", "rule value 'nan' is not finite"),
    ("grid:1,inf", "flag", "rule value 'inf' is not finite"),
    ("grid:0,nan", "config", "rule value 'nan' is not finite"),
    ("grid:0,x", "config", "rule value 'x' is not a number"),
], ids=["empty-grid", "grid-text", "grid-nan", "grid-inf", "config-nan", "config-text"])
def test_cli_rejects_bad_rule_numbers(tmp_path, capsys, rule, where, message):
    # a non-finite rule value would print "eta_hat": NaN, which is not JSON
    assert cli_main(_deviate_argv(tmp_path, rule, where)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("rule", [
    "constant:1", "signflip", "noise:0.3", {"kind": "grid", "grid": [0, 1]}, None,
], ids=["constant", "signflip", "noise", "json-object", "null"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_cli_rejects_removed_rule_forms(tmp_path, capsys, rule, where):
    # a rule is written truthful or grid:a,b,c, and nothing else
    text = rule if isinstance(rule, str) or where == "config" else json.dumps(rule)
    assert cli_main(_deviate_argv(tmp_path, text, where)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse rule")
    assert "a rule is truthful or grid:a,b,c" in err and err.count("\n") == 1


@pytest.mark.parametrize("verb, key, trials", [
    ("deviate", {"deviation": {"trials": 7}}, 7), ("sensitivity", {"sensitivity_trials": 5}, 5),
])
def test_cli_trials_default_to_the_config(tmp_path, capsys, verb, key, trials):
    # without --trials a verb runs the config's trial count, as without --rule or --n
    payload = {
        "population": {"d": 2, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "master_seed": 3,
    }
    assert cli_main([verb, "--config", _write_config(tmp_path, payload | key)]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == trials


@pytest.mark.parametrize("counts", [
    {"deviation": {"trials": 0}}, {"sensitivity_trials": -4},
    {"deviation": {"trials": 0}, "sensitivity_trials": -4},
], ids=["deviation", "sensitivity", "both"])
def test_cli_rejects_trial_counts_below_one(tmp_path, capsys, counts):
    # refused when the config is read, whatever the metrics ask for
    payload = {
        "population": {"d": 2, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [200],
        "metrics": ["accuracy"],
        "master_seed": 3,
    }
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", _write_config(tmp_path, payload | counts),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: trials must be >= 1") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("n", [0, 5])
def test_sensitivity_verb_checks_n_as_deviate_does(tmp_path, capsys, n):
    # --n 0 is a size, not an absent flag, and n below 2d has no estimator
    payload = {
        "population": {"d": 3, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [100],
    }
    cfg = _write_config(tmp_path, payload)
    errors = []
    for argv in (["deviate", "--trials", "3"], ["sensitivity", "--trials", "3"], ["schedule"]):
        assert cli_main([*argv, "--config", cfg, "--n", str(n)]) == 2
        errors.append(capsys.readouterr().err)
    assert set(errors) == {
        f"config error: n = {n} is below 2d = 6 (d = 3): a group of the partition "
        f"would have fewer rows than d\n"
    }


@pytest.mark.parametrize("verb", ["deviate", "sensitivity", "schedule"])
def test_study_verbs_need_n_or_a_sweep_point(tmp_path, capsys, verb):
    payload = {"population": {"d": 2, "model": "linear"}, "schedule": {"delta": 0.3}}
    assert cli_main([verb, "--config", _write_config(tmp_path, payload)]) == 2
    assert capsys.readouterr().err == "config error: give --n or a non-empty sweep\n"


def test_deviation_study_rejects_n_below_2d(tmp_path, capsys):
    # at n = 6 and d = 5 the opposite group has 3 rows: no estimator solves on it
    payload = {
        "population": {"d": 5, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [100],
    }
    cfg = _write_config(tmp_path, payload)
    assert cli_main(["deviate", "--config", cfg, "--n", "6", "--trials", "3"]) == 2
    err = capsys.readouterr().err
    # the message a sweep point below 2d gets
    assert cli_main(["simulate", "--config", _write_config(tmp_path, payload | {"sweep": [6]}),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == err
    assert err == ("config error: n = 6 is below 2d = 10 (d = 5): a group of the partition "
                   "would have fewer rows than d\n")


def test_readme_config_block_reads_back():
    # the README's config example is a valid config, and its echo gives back
    # every key it shows (out_dir is never echoed; the rule's numbers come
    # back as repr of floats)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config schema")[1].split("```json")[1].split("```")[0]
    shown = json.loads("\n".join(line.split("//")[0] for line in block.splitlines()))
    echoed = config_to_json(ExperimentConfig.from_json(shown))
    assert set(shown) == set(harness._CONFIG_KEYS)

    def compare(want, got, where):
        for key, value in want.items():
            if where + key == "out_dir":
                continue
            assert key in got, f"{where}{key} is not echoed"
            if isinstance(value, dict) and isinstance(got[key], dict):
                compare(value, got[key], f"{where}{key}.")
            elif where + key == "deviation.rule":
                assert parse_rule(got[key]) == parse_rule(value)
            else:
                assert got[key] == value, f"{where}{key}: shown {value!r}, echoed {got[key]!r}"

    compare(shown, echoed, "")


def test_cli_deviate_and_privacy_check(tmp_path):
    payload = {
        "population": {"d": 2, "model": "linear", "noise_std": 1.0},
        "regime": "subgaussian",
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "repeats": 1,
        "master_seed": 3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    proc = run_cli("deviate", "--config", str(cfg), "--rule", "truthful", "--trials", "5")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["eta_hat"] == 0.0

    proc = run_cli("privacy-check", "--trials", "20000", "--bins", "15")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True

    proc = run_cli("sensitivity", "--config", str(cfg), "--trials", "10", "--n", "150")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["empirical_max"] <= payload["formula_delta"] * 10
    assert "c0_calibrated_suggestion" in payload
