import dataclasses
import json
import os
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
)
from privglm.links import ModelKind, make_link_bundle
from privglm.mechanism import (
    CostFunction,
    brier_payment,
    partition,
    preset_schedule,
    rationality_floor,
    release_noise,
)
from privglm.population import (
    AdditiveNoise,
    Constant,
    PopulationSpec,
    SignFlip,
    StudentTCovariates,
    SubGaussianCov,
    WorstOfGrid,
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
        "deviation": {"rule": {"kind": "constant", "value": 0.0}, "trials": 10},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    config = ExperimentConfig.from_json(path)
    assert config.sweep == [100, 200]
    assert config.population.model.family == "linear"
    assert isinstance(config.deviation_rule, Constant)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)


def test_parse_rule_forms():
    assert parse_rule("truthful") is None
    assert parse_rule("signflip") == SignFlip()
    assert parse_rule("constant:1.5") == Constant(1.5)
    assert parse_rule("noise:0.3") == AdditiveNoise(0.3)
    assert parse_rule("grid:0,1,2") == WorstOfGrid((0.0, 1.0, 2.0))
    assert parse_rule({"kind": "grid", "grid": [0, 1]}) == WorstOfGrid((0.0, 1.0))
    with pytest.raises(ConfigError):
        parse_rule("nonsense")


@pytest.mark.parametrize("rule", [
    None, Constant(0.0), Constant(-2.5), SignFlip(), AdditiveNoise(0.3),
    WorstOfGrid((-1.0, 0.0, 1e-7, 2.5)),
], ids=["truthful", "constant", "constant-negative", "signflip", "noise", "grid"])
def test_config_echo_reads_back(rule):
    # a report's config echo is a config: reading it back echoes it identically
    config = linear_config(
        population=PopulationSpec(
            n=2, d=2, model=ModelKind.linear(0.5), covariates=StudentTCovariates(6.0),
            theta_star=[0.1, -0.2], cost_lambda=2.0,
        ),
        deviation_rule=rule,
    )
    echoed = config_to_json(config)
    back = ExperimentConfig.from_json(echoed)
    assert back.deviation_rule == rule
    assert config_to_json(back) == echoed


def test_truthful_deviation_gain_is_zero():
    config = linear_config()
    est = estimate_deviation_gain(config, None, 12, n=200)
    assert est.eta_hat == 0.0
    assert est.std_error == 0.0
    assert est.eta_sup == 0.0
    assert est.deviant_rule == "truthful"


def test_deviation_gain_deterministic():
    config = linear_config()
    a = estimate_deviation_gain(config, Constant(0.0), 10, n=200, seed_tag=3)
    b = estimate_deviation_gain(config, Constant(0.0), 10, n=200, seed_tag=3)
    assert a.eta_hat == b.eta_hat and a.std_error == b.std_error


def test_zero_a2_removes_payment_component():
    # constant payments make the paired payment difference identically zero,
    # leaving only the (constant) privacy-cost saving
    config = linear_config(schedule=ScheduleSpec(delta=0.3, scale={"a2": 0.0}))
    assert harness.params_for(config, 200).a2 == 0.0
    est = estimate_deviation_gain(config, Constant(0.0), 15, n=200)
    assert est.std_error < 1e-15  # numerical noise only: every paired gain is 0
    assert est.eta_hat >= 0.0


def test_deviation_gain_shrinks_with_n():
    config = linear_config(posterior_samples=2000)
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
        deviation_rule=Constant(0.0), posterior_samples=2000,
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
        posterior_samples=2000, **kw,
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
    estimate_deviation_gain(linear_config(), Constant(0.0), trials, n=n)
    assert all(len(shape) == 3 and shape[1:] == (n // 2, 3) for shape in factored)
    assert sum(shape[0] * shape[1] for shape in factored) == trials * (n // 2)
    assert 1 < len(factored) < trials
    assert draws == [1]  # the tagged agent's type only

    # odd n: each trial factors the group of n // 2 or n - n // 2 agents opposite agent 0
    factored.clear()
    estimate_deviation_gain(linear_config(), Constant(0.0), trials, n=n + 1)
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


@pytest.mark.parametrize("model", [ModelKind.linear(1.0), ModelKind.logistic()],
                         ids=["linear", "logistic"])
def test_noise_norms_are_the_norms_of_the_redrawn_release_noise(tmp_path, model):
    config = linear_config(population=PopulationSpec(n=2, d=2, model=model),
                           sweep=[150, 300], repeats=2, posterior_samples=2000)
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


def test_cli_schedule_verb():
    proc = run_cli("schedule", "--model", "linear", "--n", "10000", "--delta", "0.3", "--d", "3")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["epsilon"] == pytest.approx(10000**-0.3, rel=1e-9)
    assert "kappa0" in out["constants"]


@pytest.mark.parametrize("model, regime, delta, m_a", [
    ("linear", "heavy", 0.12, 10 ** 0.25 * (10_000 / np.log(10_000)) ** 0.25),
    ("logistic", "subgaussian", 0.3, None),
], ids=["heavy", "subgaussian"])
def test_cli_schedule_a1_is_floor_at_printed_m_a(capsys, model, regime, delta, m_a):
    argv = ["schedule", "--model", model, "--regime", regime, "--n", "10000",
            "--delta", str(delta), "--d", "10"]
    assert cli_main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    printed = out["constants"]["m_a"]
    if m_a is not None:
        assert printed == pytest.approx(m_a, rel=1e-12)
    floor = rationality_floor(
        out["a2"], printed, out["tau_threshold"], CostFunction(out["cost_fn"]),
        out["epsilon"], out["gamma_n"] + 2 * out["gamma_half"],
    )
    assert out["a1"] == pytest.approx(floor, rel=1e-12)


def test_cli_schedule_rejects_bad_delta():
    proc = run_cli("schedule", "--model", "linear", "--n", "1000", "--delta", "0.4")
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


def test_cli_rejects_posterior_samples_below_floor(tmp_path, capsys):
    payload = {
        "population": {"d": 2, "model": "logistic"},
        "schedule": {"delta": 0.3},
        "sweep": [200],
        "repeats": 1,
        "master_seed": 3,
        "posterior_samples": 500,
    }
    cfg = _write_config(tmp_path, payload)
    assert cli_main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert cli_main(["deviate", "--config", cfg, "--trials", "3"]) == 2
    assert "posterior_samples must be >= 1000" in capsys.readouterr().err


@pytest.mark.parametrize("covariates, message", [
    ({"kind": "subgaussian_cov", "cov": [[1.0, 1.0], [1.0, 1.0]]}, "not positive definite"),
    ({"kind": "subgaussian_cov", "cov": [[1.0, 0.5], [0.0, 1.0]]}, "not symmetric"),
    ({"kind": "subgaussian_cov", "cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
     "must be a 2x2 matrix"),
    ({"kind": "student_t", "dof": 5.0, "scale": [[1.0, 2.0], [2.0, 1.0]]}, "not positive definite"),
], ids=["singular", "non-symmetric", "wrong-shape", "student-t-indefinite"])
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


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--config", None],
     "logistic subset touches the pole of the inverse-mean derivative"),
    (["schedule", "--model", "poisson", "--n", "1000", "--delta", "0.26", "--tau-theta", "400"],
     "poisson inverse-mean derivative unbounded on the predictor range"),
    (["privacy-check", "--trials", "120"], "occupied bins fall below 50 samples"),
], ids=["simulate-polytope", "schedule-polytope", "privacy-check-mass"])
def test_cli_config_caused_failure_exits_2(tmp_path, capsys, argv, message):
    payload = {
        "population": {"d": 2, "model": "logistic", "tau_theta": 10.0},
        "schedule": {"delta": 0.3},
        "sweep": [1000],
    }
    argv = [_write_config(tmp_path, payload) if a is None else a for a in argv]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("rule, message", [
    ("grid:", "rule value '' is not a number"),
    ("constant:abc", "rule value 'abc' is not a number"),
    ("constant:nan", "rule value 'nan' is not finite"),
    ("grid:1,inf", "rule value 'inf' is not finite"),
    ({"kind": "noise", "scale": float("nan")}, "rule value nan is not finite"),
    ({"kind": "grid", "grid": [0.0, "x"]}, "rule value 'x' is not a number"),
], ids=["empty-grid", "constant-text", "constant-nan", "grid-inf", "config-nan", "config-text"])
def test_cli_rejects_bad_rule_numbers(tmp_path, capsys, rule, message):
    # a non-finite rule value would print "eta_hat": NaN, which is not JSON
    payload = {
        "population": {"d": 2, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [400],
        "master_seed": 3,
    }
    argv = ["deviate", "--trials", "3", "--n", "400", "--config"]
    if isinstance(rule, dict):
        argv += [_write_config(tmp_path, payload | {"deviation": {"rule": rule}})]
    else:
        argv += [_write_config(tmp_path, payload), "--rule", rule]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


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
    # every key it shows (out_dir is never echoed; the rule comes back in its
    # CLI text form)
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
        "posterior_samples": 2000,
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
