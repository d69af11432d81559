"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check is deterministic given the seeds pinned here. Where a
criterion needs a calibrated sensitivity constant, the pilot runs inside the
test on its own seeds and the resulting c0 is printed; calibrated constants
are data-dependent and void the privacy accounting, which the harness flags
in report footers.
"""

import math

import numpy as np
import pytest

from privglm.estimators import (
    Dataset,
    calibrate_c0,
    empirical_sensitivity,
    estimate,
    sensitivity_bound_heavy,
    sensitivity_bound_subgaussian,
)
from privglm.harness import (
    ExperimentConfig,
    ScheduleSpec,
    canonical_privacy_check,
    estimate_deviation_gain,
    fit_rate,
    run_experiment,
)
from privglm.links import ModelKind, PolytopeSpec, compute_link_constants, make_link_bundle
from privglm.mechanism import (
    brier_payment,
    budget_bound,
    preset_schedule,
    run_mechanism,
)
from privglm.population import (
    PopulationSpec,
    StudentTCovariates,
    SubGaussianIsotropic,
    WorstOfGrid,
    generate_population,
    replacement_sampler,
    tau_alpha_beta_bound,
)
from privglm.privacy import sample_norm_exponential

from rationality_oracle import rationality_fraction
from strategy_oracle import apply_strategy
from threshold_oracle import tau_alpha_beta_monte_carlo

LINEAR = ModelKind.linear(1.0)


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# shared pilots and sweeps (computed once)
# ---------------------------------------------------------------------------

def _empirical_max(regime: str, n: int, seed: int, trials: int = 40, d: int = 3) -> float:
    model = LINEAR
    bundle = make_link_bundle(model)
    delta = 0.12 if regime == "heavy" else 0.3
    params = preset_schedule(model, regime, n, delta, d=d)
    cov = StudentTCovariates(5.0) if regime == "heavy" else SubGaussianIsotropic(1.0)
    spec = PopulationSpec(n=n, d=d, model=model, covariates=cov)
    pop = generate_population(spec, np.random.default_rng([seed, n]))
    return empirical_sensitivity(
        Dataset(pop.X, pop.y_true), bundle, params.settings, trials,
        (seed, n), replacement_sampler(spec, pop.theta_star),
    )


def _shape(regime: str, n: int, d: int = 3) -> float:
    if regime == "heavy":
        return sensitivity_bound_heavy(n, d, 1.0)
    params = preset_schedule(LINEAR, "subgaussian", n, 0.3, d=d)
    bundle = make_link_bundle(LINEAR)
    constants = compute_link_constants(
        bundle, params.settings.polytope, params.settings.tau1,
        params.settings.tau2, params.settings.tau_theta,
    )
    return sensitivity_bound_subgaussian(n, d, constants.kappa1, 1.0)


def _pilot_c0(regime: str, n: int, pilots: int = 12, seed0: int = 10_000) -> float:
    worst = max(_empirical_max(regime, n, seed0 + i) for i in range(pilots))
    return calibrate_c0(worst, _shape(regime, n))


@pytest.fixture(scope="module")
def linear_sweep():
    """Linear-model schedule sweep shared by criteria 5 and 8."""
    c0 = _pilot_c0("subgaussian", 32_000)
    config = ExperimentConfig(
        population=PopulationSpec(n=2, d=3, model=LINEAR),
        regime="subgaussian",
        sweep=[500, 2000, 8000, 32_000],
        repeats=20,
        schedule=ScheduleSpec(delta=0.3, c0=c0, c0_calibrated=True),
        metrics=("accuracy", "budget", "rationality"),
        master_seed=2024,
    )
    return config, run_experiment(config), c0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_noise_moments():
    ok = True
    details = []
    for d, delta, eps in ((3, 0.05, 0.2), (5, 0.1, 0.5), (10, 0.02, 1.0)):
        v = sample_norm_exponential(d, delta, eps, np.random.default_rng([1, d]), 10**6)
        mags = np.linalg.norm(v, axis=1)
        m1, m2 = float(mags.mean()), float((mags**2).mean())
        t1 = d * delta / eps
        t2 = d * (d + 1) * (delta / eps) ** 2
        ok &= abs(m1 / t1 - 1) < 0.02 and abs(m2 / t2 - 1) < 0.03
        details.append(f"d={d}: {abs(m1/t1-1)*100:.2f}%/{abs(m2/t2-1)*100:.2f}%")
    assert _verdict("1 noise moments", ok, "; ".join(details))


def test_criterion_02_least_squares_oracle():
    rng = np.random.default_rng(2)
    bundle = make_link_bundle(LINEAR)
    worst = 0.0
    for trial in range(50):
        d = 1 + trial % 5
        X = rng.standard_normal((200, d))
        y = rng.standard_normal(200) * 2.5
        from privglm.estimators import EstimatorSettings

        settings = EstimatorSettings(
            tau1=1e6, tau2=float(np.max(np.abs(y))) + 1.0, tau_theta=1e6,
            polytope=PolytopeSpec(),
        )
        est = estimate(Dataset(X, y), bundle, settings)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        worst = max(worst, float(np.linalg.norm(est - oracle) / np.linalg.norm(oracle)))
    assert _verdict("2 least-squares oracle", worst <= 1e-10, f"worst rel err {worst:.2e}")


def test_criterion_03_brier_optimality():
    qs = np.linspace(0.0, 1.0, 4001)
    step = qs[1] - qs[0]
    ok = True
    for p in np.linspace(0.0, 1.0, 100):
        vals = brier_payment(1.0, 0.7, p, qs)
        ok &= abs(qs[int(np.argmax(vals))] - p) <= step / 2 + 1e-12
    assert _verdict("3 brier argmax at q=p", ok)


def test_criterion_04_sensitivity_dominance():
    results = []
    for regime in ("subgaussian", "heavy"):
        c0 = _pilot_c0(regime, 2000, pilots=20)
        bound = c0 * _shape(regime, 2000)
        hits = sum(_empirical_max(regime, 2000, seed) <= bound for seed in range(100))
        results.append((regime, hits, c0))
    ok = all(hits >= 99 for _, hits, _ in results)
    detail = "; ".join(f"{r}: {h}/100 (c0={c:.4f})" for r, h, c in results)
    assert _verdict("4 sensitivity dominance", ok, detail)


def test_criterion_05_accuracy_rate_shape(linear_sweep):
    config, report, c0 = linear_sweep
    mse = {n: float(np.mean([r.mse for r in report.rows if r.n == n])) for n in config.sweep}
    monotone = all(mse[a] > mse[b] for a, b in zip(config.sweep, config.sweep[1:]))
    slope_lin = report.fits["mse"].slope
    ok_linear = monotone and slope_lin < -0.15

    heavy_c0 = _pilot_c0("heavy", 32_000)
    heavy_config = ExperimentConfig(
        population=PopulationSpec(
            n=2, d=3, model=LINEAR, covariates=StudentTCovariates(5.0)
        ),
        regime="heavy",
        sweep=[500, 2000, 8000, 32_000],
        repeats=20,
        schedule=ScheduleSpec(delta=0.12, c0=heavy_c0, c0_calibrated=True),
        metrics=("accuracy",),
        master_seed=2024,
    )
    heavy_report = run_experiment(heavy_config)
    heavy_mse = {
        n: float(np.mean([r.mse for r in heavy_report.rows if r.n == n]))
        for n in heavy_config.sweep
    }
    heavy_monotone = all(
        heavy_mse[a] > heavy_mse[b] for a, b in zip(heavy_config.sweep, heavy_config.sweep[1:])
    )
    # the heavy band is stated for the norm-error shape (log n / n)^(1/4),
    # so the fit runs on root-mean-squared error
    heavy_fit = fit_rate(heavy_config.sweep, [math.sqrt(heavy_mse[n]) for n in heavy_config.sweep])
    ok_heavy = heavy_monotone and -0.45 <= heavy_fit.slope <= -0.10

    detail = (
        f"linear slope {slope_lin:.3f} (monotone={monotone}, c0={c0:.4f}); "
        f"heavy rms slope {heavy_fit.slope:.3f} (monotone={heavy_monotone}, c0={heavy_c0:.5f})"
    )
    assert _verdict("5 accuracy rate shape", ok_linear and ok_heavy, detail)


def test_criterion_06_truthfulness_trend():
    presets = (
        ("linear", LINEAR, 0.3, WorstOfGrid((-2.0, -1.0, 0.0, 1.0, 2.0)), 40),
        ("logistic", ModelKind.logistic(), 0.3, WorstOfGrid((-1.0, 1.0)), 40),
        ("poisson", ModelKind.poisson(), 0.26, WorstOfGrid((0.0, 1.0, 2.0, 3.0)), 80),
    )
    ok = True
    details = []
    for name, model, delta, rule, trials in presets:
        config = ExperimentConfig(
            population=PopulationSpec(n=2, d=2, model=model),
            regime="subgaussian",
            sweep=[400],
            repeats=1,
            schedule=ScheduleSpec(delta=delta),
            master_seed=77,
        )
        wins = 0
        for rep in range(100):
            small = estimate_deviation_gain(config, rule, trials, n=400, seed_tag=1000 + rep)
            large = estimate_deviation_gain(config, rule, trials, n=3200, seed_tag=1000 + rep)
            wins += large.eta_hat < small.eta_hat
        ok &= wins >= 90
        details.append(f"{name}: {wins}/100")
    assert _verdict("6 truthfulness trend", ok, "; ".join(details))


def test_criterion_07_rationality():
    model = LINEAR
    bundle = make_link_bundle(model)
    perfect = 0
    for seed in range(100):
        params = preset_schedule(model, "subgaussian", 2000, 0.3, d=3)
        spec = PopulationSpec(n=2000, d=3, model=model)
        pop = generate_population(spec, np.random.default_rng([seed, 1]))
        reported = apply_strategy(pop, params.tau_threshold, model)
        outcome = run_mechanism(reported, bundle, params, np.random.default_rng([seed, 3]))
        frac = rationality_fraction(outcome, pop.costs, params.cost_exponent, params.tau_threshold)
        perfect += frac == 1.0
    assert _verdict("7 rationality at the a1 floor", perfect >= 99, f"{perfect}/100 runs all-rational")


def test_criterion_08_budget_bound(linear_sweep):
    config, report, _ = linear_sweep
    bundle = make_link_bundle(LINEAR)
    ok_bound = True
    for n in config.sweep:
        params = preset_schedule(LINEAR, "subgaussian", n, 0.3, d=3)
        constants = compute_link_constants(
            bundle, params.settings.polytope, params.settings.tau1,
            params.settings.tau2, params.settings.tau_theta,
        )
        cap = budget_bound(n, params.a1, params.a2, constants.m_a)
        for row in report.rows:
            if row.n == n and not row.failed:
                ok_bound &= row.budget <= cap
    means = {n: float(np.mean([r.budget for r in report.rows if r.n == n])) for n in config.sweep}
    decreasing = all(means[a] > means[b] for a, b in zip(config.sweep, config.sweep[1:]))
    detail = "budgets " + " > ".join(f"{means[n]:.2f}" for n in config.sweep)
    assert _verdict("8 budget bound and decay", ok_bound and decreasing, detail)


def test_criterion_09_privacy_falsification():
    honest = canonical_privacy_check(
        epsilon=0.5, trials=100_000, bins=30, corruption=1.0, seed=11
    )
    corrupted = canonical_privacy_check(
        epsilon=0.5, trials=100_000, bins=30, corruption=10.0, seed=11
    )
    ok = honest.passed(0.99) and not corrupted.passed(0.99)
    detail = (
        f"honest within-bound fraction {honest.fraction_within:.3f} "
        f"(max |log ratio| {honest.max_abs_log_ratio:.2f}); "
        f"corrupted fraction {corrupted.fraction_within:.3f} "
        f"(max |log ratio| {corrupted.max_abs_log_ratio:.2f})"
    )
    assert _verdict("9 privacy falsification", ok, detail)


def test_criterion_10_threshold_bound():
    rng = np.random.default_rng(99)
    triples = [
        (float(rng.uniform(0.01, 0.3)), float(rng.uniform(0.01, 0.3)), float(rng.uniform(0.5, 3.0)))
        for _ in range(20)
    ]
    hits = 0
    for i, (alpha, beta, lam) in enumerate(triples):
        estimate = tau_alpha_beta_monte_carlo(
            alpha, beta, lam, n=200, trials=400, rng=np.random.default_rng([5, i])
        )
        hits += estimate <= tau_alpha_beta_bound(alpha, beta, lam)
    assert _verdict("10 threshold bound", hits == 20, f"{hits}/20 triples")
