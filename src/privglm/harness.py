"""Experiment runner: seeded sweeps, metric collection, deviation-gain studies,
log-log rate fits and report emission.

Every cell of a sweep derives its random streams from the tuple
(master_seed, n, repeat, arm) through numpy's SeedSequence, so any cell can be
re-run in isolation and results do not depend on execution order or thread
count. A cell's population is a `PopulationStream` of chunks of CHUNK_ROWS
agents: chunk 0 draws from the cell's own population generator, chunk
c >= 1 from (master_seed, n, repeat, arm, c).
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, SingularGramError
from .estimators import (
    _BLOCK_ELEMENTS,
    Dataset,
    EstimatorSettings,
    design,
    empirical_sensitivity,
    estimate,
    rows_inner,
    solve_factor,
    working_response,
)
from .links import LINEAR, LOGISTIC, ModelKind, PolytopeSpec, make_link_bundle
from .mechanism import (
    MechanismParams,
    predictions,
    preset_schedule,
    posterior_mean,
    project_ball,
    rationality_check,
    run_mechanism,
)
from .population import (
    AdditiveNoise,
    Constant,
    MisreportRule,
    PopulationSpec,
    PopulationStream,
    SignFlip,
    StudentTCovariates,
    SubGaussianCov,
    SubGaussianIsotropic,
    Threshold,
    WorstOfGrid,
    _draw_costs,
    _draw_covariates,
    _draw_responses,
    _rule_values,
    _threshold_reports,
    coerce_response,
    draw_theta_star,
    generate_population,
    replacement_sampler,
)
from .privacy import (
    RatioReport,
    compose_account,
    empirical_privacy_ratio,
    sample_norm_exponential,
)

METRICS = ("accuracy", "sensitivity", "deviation_gain", "rationality", "budget", "privacy_ratio")

# arm 1 is unused: the threshold strategy draws nothing
ARM_POPULATION, ARM_MECHANISM, ARM_SENSITIVITY, ARM_DEVIATION = 0, 2, 3, 4

CSV_COLUMNS = (
    "n",
    "repeat",
    "model",
    "regime",
    "mse",
    "budget",
    "truthful_frac",
    "rationality_frac",
    "eta_hat",
    "delta_empirical",
    "epsilon_total",
    "gamma_total",
    "seed",
)


_CONFIG_KEYS = (
    "population", "regime", "schedule", "sweep", "repeats", "metrics", "out_dir", "format",
    "master_seed", "deviation", "sensitivity_trials", "posterior_samples",
)
_POPULATION_KEYS = (
    "d", "model", "noise_std", "covariates", "tau_theta", "theta_star", "cost_lambda",
)
_COVARIATE_KEYS = {
    "subgaussian_isotropic": ("kind", "sigma"),
    "subgaussian_cov": ("kind", "cov"),
    "student_t": ("kind", "dof", "scale"),
}
_DEVIATION_KEYS = ("rule", "trials")


def _check_keys(obj: dict, known, where: str) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}")


def cell_rng(master_seed: int, n: int, repeat: int, arm: int, *extra) -> np.random.Generator:
    return np.random.default_rng([master_seed, n, repeat, arm, *extra])


def _chunk_rngs(master_seed: int, n: int, repeat: int, arm: int):
    """Chunk c's generator of one arm: the cell's own for c = 0, keyed by c after."""
    return lambda c: cell_rng(master_seed, n, repeat, arm, *((c,) if c else ()))


def _check_size(n: int, d: int) -> None:
    """Each half of the partition of n agents needs at least d rows."""
    if n < 2 * d:
        raise ConfigError(
            f"n = {n} is below 2d = {2 * d} (d = {d}): a group of the partition would "
            f"have fewer rows than d"
        )


def _check_seed(seed: int) -> None:
    """Seeds key numpy's SeedSequence, which takes nonnegative integers only."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


@dataclass
class ScheduleSpec:
    """Reference to a per-model parameter schedule plus its free constants."""

    delta: float
    c: float = 1.0
    c0: float = 1.0
    c0_calibrated: bool = False
    sigma: float = 1.0
    scale: Optional[dict] = None


@dataclass
class ExperimentConfig:
    population: PopulationSpec  # template; n is replaced by each sweep point
    regime: str
    sweep: Sequence[int]
    repeats: int
    schedule: ScheduleSpec
    metrics: Tuple[str, ...] = ("accuracy", "budget", "rationality")
    out_dir: Optional[str] = None
    fmt: str = "csv"
    master_seed: int = 0
    deviation_rule: Optional[MisreportRule] = field(default_factory=Constant)
    deviation_trials: int = 100
    sensitivity_trials: int = 40
    posterior_samples: int = 10_000

    def __post_init__(self):
        self.sweep = [int(v) for v in self.sweep]
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if not self.sweep:
            pass  # an empty sweep produces a header-only report
        elif any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ConfigError("sweep must be strictly increasing")
        else:
            _check_size(self.sweep[0], self.population.d)
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise ConfigError(f"unknown metrics {sorted(unknown)}")
        if self.schedule is None:
            raise ConfigError("a schedule is required")
        _check_seed(self.master_seed)
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown report format {self.fmt!r}")

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        if isinstance(obj, (str, Path)):
            try:
                obj = json.loads(Path(obj).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}")
        try:
            _check_keys(obj, _CONFIG_KEYS, "config")
            pop = _population_from_json(obj["population"])
            sched = obj.get("schedule")
            schedule = ScheduleSpec(**sched) if sched is not None else None
            dev = obj.get("deviation", {})
            _check_keys(dev, _DEVIATION_KEYS, "deviation")
            rule = dev.get("rule", {"kind": "constant", "value": 0.0})
            return cls(
                population=pop,
                regime=obj.get("regime", "subgaussian"),
                sweep=obj.get("sweep", []),
                repeats=int(obj.get("repeats", 1)),
                schedule=schedule,
                metrics=tuple(obj.get("metrics", ("accuracy", "budget", "rationality"))),
                out_dir=obj.get("out_dir"),
                fmt=obj.get("format", "csv"),
                master_seed=int(obj.get("master_seed", 0)),
                deviation_rule=parse_rule(rule) if rule != "truthful" else None,
                deviation_trials=int(dev.get("trials", 100)),
                sensitivity_trials=int(obj.get("sensitivity_trials", 40)),
                posterior_samples=int(obj.get("posterior_samples", 10_000)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad experiment config: {exc}")


def _population_from_json(obj: dict) -> PopulationSpec:
    _check_keys(obj, _POPULATION_KEYS, "population")
    model = ModelKind.from_json(obj)
    cov = obj.get("covariates", {"kind": "subgaussian_isotropic"})
    kind = cov.get("kind", "subgaussian_isotropic")
    if kind in _COVARIATE_KEYS:
        _check_keys(cov, _COVARIATE_KEYS[kind], f"{kind} covariates")
    if kind == "subgaussian_isotropic":
        covariates = SubGaussianIsotropic(float(cov.get("sigma", 1.0)))
    elif kind == "subgaussian_cov":
        covariates = SubGaussianCov(np.asarray(cov["cov"], dtype=float))
    elif kind == "student_t":
        scale = cov.get("scale")
        covariates = StudentTCovariates(
            float(cov.get("dof", 5.0)),
            np.asarray(scale, dtype=float) if scale is not None else None,
        )
    else:
        raise ConfigError(f"unknown covariate kind {kind!r}")
    theta = obj.get("theta_star")
    return PopulationSpec(
        n=2,  # a placeholder: every run replaces it with its sweep point
        d=int(obj["d"]),
        model=model,
        covariates=covariates,
        tau_theta=float(obj.get("tau_theta", 1.0)),
        theta_star=np.asarray(theta, dtype=float) if theta is not None else None,
        cost_lambda=float(obj.get("cost_lambda", 1.0)),
    )


def parse_rule(obj) -> Optional[MisreportRule]:
    """Parse a misreport rule from JSON ({"kind": ...}) or CLI text (kind:arg)."""
    if obj is None:
        return None
    if isinstance(obj, str):
        text = obj.strip().lower()
        if text == "truthful":
            return None
        if text == "signflip":
            return SignFlip()
        if ":" in text:
            kind, arg = text.split(":", 1)
            if kind == "constant":
                return Constant(_rule_number(arg))
            if kind == "noise":
                return AdditiveNoise(_rule_number(arg))
            if kind == "grid":
                return WorstOfGrid(tuple(_rule_number(v) for v in arg.split(",")))
        raise ConfigError(f"cannot parse rule {obj!r}")
    return _rule_from_dict(obj)


def _rule_from_dict(obj: dict) -> MisreportRule:
    kind = obj.get("kind")
    if kind == "constant":
        return Constant(_rule_number(obj.get("value", 0.0)))
    if kind == "signflip":
        return SignFlip()
    if kind == "noise":
        return AdditiveNoise(_rule_number(obj.get("scale", 1.0)))
    if kind == "grid":
        return WorstOfGrid(tuple(_rule_number(v) for v in obj["grid"]))
    raise ConfigError(f"unknown rule {obj!r}")


def _rule_number(value) -> float:
    """A rule's number as a float; unparsable or non-finite values are a ConfigError."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"rule value {value!r} is not a number") from None
    if not math.isfinite(out):
        raise ConfigError(f"rule value {value!r} is not finite")
    return out


def rule_name(rule: Optional[MisreportRule]) -> str:
    """The CLI text form of a rule, which `parse_rule` reads back."""
    if rule is None:
        return "truthful"
    if isinstance(rule, Constant):
        return f"constant:{float(rule.value)!r}"
    if isinstance(rule, SignFlip):
        return "signflip"
    if isinstance(rule, AdditiveNoise):
        return f"noise:{float(rule.scale)!r}"
    return "grid:" + ",".join(repr(float(v)) for v in rule.grid)


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    n: int
    repeat: int
    model: str
    regime: str
    mse: Optional[float]
    budget: Optional[float]
    truthful_frac: Optional[float]
    rationality_frac: Optional[float]
    eta_hat: Optional[float]
    delta_empirical: Optional[float]
    epsilon_total: Optional[float]
    gamma_total: Optional[float]
    seed: int
    failed: bool = False
    error: Optional[str] = None
    theta_bar: Optional[list] = None
    noise_norms: Optional[list] = None  # each release's noise norm, in RELEASES order


@dataclass
class RateFit:
    slope: float
    intercept: float
    ci_low: float
    ci_high: float
    points: int


@dataclass
class ExperimentReport:
    rows: list
    fits: dict
    master_seed: int
    footer: str
    config: Optional[dict] = None
    privacy_check: Optional[dict] = None  # canonical falsification result, on request

    @property
    def failed_cells(self) -> int:
        return sum(1 for r in self.rows if r.failed)


def _covariates_to_json(cov) -> dict:
    if isinstance(cov, SubGaussianIsotropic):
        return {"kind": "subgaussian_isotropic", "sigma": cov.sigma}
    if isinstance(cov, SubGaussianCov):
        return {"kind": "subgaussian_cov", "cov": [[float(v) for v in row] for row in cov.cov]}
    return {
        "kind": "student_t",
        "dof": cov.dof,
        "scale": None if cov.scale is None else [[float(v) for v in row] for row in cov.scale],
    }


def config_to_json(config: ExperimentConfig) -> dict:
    """Snapshot of the experiment config embedded in JSON reports."""
    pop = config.population
    out = {
        "population": {
            "d": pop.d,
            **pop.model.to_json(),
            "covariates": _covariates_to_json(pop.covariates),
            "tau_theta": pop.tau_theta,
            "theta_star": None if pop.theta_star is None else [float(v) for v in pop.theta_star],
            "cost_lambda": pop.cost_lambda,
        },
        "regime": config.regime,
        "sweep": list(config.sweep),
        "repeats": config.repeats,
        "metrics": list(config.metrics),
        "master_seed": config.master_seed,
        "format": config.fmt,
        "posterior_samples": config.posterior_samples,
        "deviation": {"rule": rule_name(config.deviation_rule), "trials": config.deviation_trials},
        "sensitivity_trials": config.sensitivity_trials,
    }
    out["schedule"] = asdict(config.schedule)
    return out


def params_for(config: ExperimentConfig, n: int) -> MechanismParams:
    s = config.schedule
    return preset_schedule(
        config.population.model,
        config.regime,
        n,
        s.delta,
        config.population.d,
        c=s.c,
        cost_lambda=config.population.cost_lambda,
        tau_theta=config.population.tau_theta,
        sigma=s.sigma,
        c0=s.c0,
        posterior_samples=config.posterior_samples,
        scale=s.scale,
    )


def _cell_seed(master_seed: int, n: int, repeat: int) -> int:
    return int(np.random.SeedSequence([master_seed, n, repeat]).generate_state(1)[0])


def cell_population(config: ExperimentConfig, n: int, repeat: int, tau: float) -> PopulationStream:
    """The population of cell (n, repeat), reporting under the threshold strategy at tau."""
    return PopulationStream(
        replace(config.population, n=n), Threshold(tau),
        _chunk_rngs(config.master_seed, n, repeat, ARM_POPULATION),
    )


def _run_cell(config: ExperimentConfig, n: int, repeat: int) -> CellResult:
    ms = config.master_seed
    seed_tag = _cell_seed(ms, n, repeat)
    model = config.population.model
    try:
        params = params_for(config, n)
        bundle = make_link_bundle(model)
        tau = params.tau_threshold
        stream = cell_population(config, n, repeat, tau)
        outcome = run_mechanism(stream, bundle, params, cell_rng(ms, n, repeat, ARM_MECHANISM))
        rationality = None
        if "rationality" in config.metrics:
            rationality = rationality_check(outcome, stream.costs, params.cost_fn, tau)
        eta = None
        if "deviation_gain" in config.metrics:
            est = estimate_deviation_gain(
                config, config.deviation_rule, config.deviation_trials, n=n,
                seed_tag=repeat + 1,
            )
            eta = est.eta_hat
        delta_emp = None
        if "sensitivity" in config.metrics:
            pop = stream.population()
            delta_emp = empirical_sensitivity(
                Dataset(pop.X, pop.y_true),
                bundle,
                params.settings,
                config.sensitivity_trials,
                (ms, n, repeat, ARM_SENSITIVITY),
                replacement_sampler(stream.spec, pop.theta_star),
            )
    except SingularGramError as exc:
        return CellResult(
            n, repeat, model.family, config.regime,
            None, None, None, None, None, None, None, None,
            seed_tag, failed=True, error=str(exc),
        )

    diff = outcome.theta_bar_full - stream.theta_star
    mse = float(diff @ diff)
    truthful = float(np.mean(stream.costs <= tau))
    eps_tot, gamma_tot = outcome.account
    return CellResult(
        n,
        repeat,
        model.family,
        config.regime,
        mse,
        outcome.budget,
        truthful,
        rationality,
        eta,
        delta_emp,
        eps_tot,
        gamma_tot,
        seed_tag,
        theta_bar=[float(v) for v in outcome.theta_bar_full],
        noise_norms=list(outcome.noise_norms),
    )


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Run every (n, repeat) cell; failures abort the cell, never the run."""
    cells = [(n, r) for n in config.sweep for r in range(config.repeats)]
    if threads > 1 and cells:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda c: _run_cell(config, *c), cells))
    else:
        results = [_run_cell(config, n, r) for n, r in cells]

    rows = [results[i] for i in sorted(range(len(cells)), key=lambda i: cells[i])]

    fits = {}
    for metric in ("mse", "budget"):
        xs, ys = [], []
        for n in config.sweep:
            vals = [getattr(r, metric) for r in rows if r.n == n and not r.failed]
            if vals:
                xs.append(n)
                ys.append(float(np.mean(vals)))
        if len(xs) >= 3 and all(v > 0 for v in ys):
            fits[metric] = fit_rate(xs, ys)

    privacy_check = None
    if "privacy_ratio" in config.metrics:
        # the canonical crafted d = 1 falsification instance; not a per-cell metric
        privacy_check = asdict(canonical_privacy_check(seed=config.master_seed))

    footer = (
        "rate-shape bands are deliberately wide: the schedule's hidden Theta(.) "
        "constants are unknown"
    )
    if config.schedule.c0_calibrated:
        footer += "; c0 was calibrated on data, so the privacy accounting is NOT valid"
    return ExperimentReport(
        rows=rows,
        fits=fits,
        master_seed=config.master_seed,
        footer=footer,
        config=config_to_json(config),
        privacy_check=privacy_check,
    )


# ---------------------------------------------------------------------------
# Deviation gain
# ---------------------------------------------------------------------------

@dataclass
class DeviationGainEstimate:
    eta_hat: float
    std_error: float
    deviant_rule: str
    trials: int
    eta_sup: float  # sup of the mean paired gain over the whole report space, plus the saving


def estimate_deviation_gain(
    config: ExperimentConfig,
    deviant_rule: Optional[MisreportRule],
    trials: int,
    n: Optional[int] = None,
    seed_tag: int = 0,
) -> DeviationGainEstimate:
    """Paired Monte-Carlo estimate of the tagged agent's gain from deviating.

    The equilibrium notion conditions on the deviating agent's own type, so
    one study fixes the tagged agent's (x, y, cost) (drawn once from the
    population spec, independent of n so studies at different sizes share the
    type) and redraws everyone else per trial under the threshold strategy.
    The tagged agent's payment depends only on the opposite group's private
    estimator, which their report cannot touch, so both reporting arms share
    every random stream and differ in nothing but the prediction q_r of the
    agent's own report r.

    The agents are exchangeable, so given agent 0's group the opposite group
    is m i.i.d. agents, m = n - n // 2 when agent 0 is in group 0 (probability
    (n // 2) / n) and n // 2 otherwise. A trial therefore draws its theta*
    (unless the spec fixes it) and only those m agents with their costs and
    threshold-strategy reports, factors their mapped rows, and adds one noise
    vector at the half sensitivity: the one half release that pays agent 0.
    Trials are taken in blocks of at most _BLOCK_ELEMENTS factored terms,
    block k keyed (master_seed, n, seed_tag, ARM_DEVIATION, k): one stacked
    QR and one stacked `solve_factor` per block, so every trial keeps its own
    rank and condition check.

    The Brier payment is linear in p, so a trial needs only the scalar
    p_t = A'(x_pay . theta_bar_opp,t). The paired gain of report r over the
    truth is a2 (q_r - q_0)(2 p_t - q_r - q_0); its mean over the trials is
    the same expression at the mean of p and its standard error is
    a2 * 2 |q_r - q_0| * sd(p) / sqrt(trials).

    `WorstOfGrid` estimates the sup-gain the equilibrium statement bounds: it
    reports the most profitable grid value (mean paired gain maximized over
    the grid; the grid should contain the truthful report so the payment part
    is nonnegative by construction). Any other rule measures that fixed
    deviation. A genuine misreport also saves the agent's privacy cost, at
    most cost * F(total account) per the cost model; the truthful control
    (rule None) shares account and report, so its gain is identically zero.
    `eta_sup` is the supremum of the mean paired gain over the model's whole
    report space plus that saving (see `_sup_gain`); it is 0 for the control.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    nn = int(n) if n is not None else (config.sweep[0] if config.sweep else None)
    if nn is None:
        raise ConfigError("no sweep point to run the deviation study at")
    _check_size(nn, config.population.d)
    ms = config.master_seed
    model = config.population.model
    bundle = make_link_bundle(model)
    params = params_for(config, nn)
    settings = params.settings
    spec_n = replace(config.population, n=nn)
    privacy = params.privacy
    eps_tot, gamma_tot = compose_account(privacy)

    # the tagged agent's type; keyed without n so paired studies share it
    type_pop = generate_population(
        replace(spec_n, n=1), np.random.default_rng([ms, seed_tag, ARM_DEVIATION])
    )
    y0 = float(type_pop.y_true[0])
    cost0 = float(type_pop.costs[0])
    x_pay = design(type_pop.X[:1], model, settings)

    if deviant_rule is None:
        reports = [y0]  # the control repeats the truthful prediction
    elif isinstance(deviant_rule, WorstOfGrid):
        reports = [
            float(v) for v in coerce_response(np.asarray(deviant_rule.grid, float), model)
        ]
    else:
        raw = _rule_values(
            deviant_rule,
            np.asarray([y0]),
            np.random.default_rng([ms, seed_tag, ARM_DEVIATION, 2]),
        )
        reports = [float(coerce_response(raw, model)[0])]

    def predict(r) -> np.ndarray:
        """q = A'(x_pay . posterior mean) for each report in r."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        means = posterior_mean(
            np.repeat(type_pop.X[:1], r.shape[0], axis=0), r, model,
            settings.tau_theta, params.posterior_samples,
        )
        return predictions(x_pay, means, bundle)

    # q[0] predicts from the truthful report, q[1 + j] from reports[j]
    q = predict([y0, *reports])

    d = spec_n.d
    strategy = Threshold(params.tau_threshold)
    per_block = max(1, _BLOCK_ELEMENTS // ((nn - nn // 2) * (d + 1)))
    p = np.empty(trials)
    for block, lo in enumerate(range(0, trials, per_block)):
        b = min(per_block, trials - lo)
        rng = np.random.default_rng([ms, nn, seed_tag, ARM_DEVIATION, block])
        sizes = np.where(rng.random(b) < (nn // 2) / nn, nn - nn // 2, nn // 2)
        if spec_n.theta_star is None:
            theta_star = np.stack([draw_theta_star(d, spec_n.tau_theta, rng) for _ in range(b)])
        else:
            theta_star = np.broadcast_to(spec_n.theta_star, (b, d))
        theta_opp = np.empty((b, d))
        for m in np.unique(sizes):
            trial = np.flatnonzero(sizes == m)
            theta_opp[trial] = _solve_opposite_groups(
                spec_n, theta_star[trial], int(m), strategy, bundle, settings, rng
            )
        noise = sample_norm_exponential(d, privacy.delta_half, privacy.epsilon, rng, b)
        theta_bar = project_ball(theta_opp + noise, settings.tau_theta)
        p[lo : lo + b] = predictions(x_pay, theta_bar, bundle)

    mean_gains, std_errors = _gain_moments(p, q, params.a2)
    best = int(np.argmax(mean_gains))
    saving = 0.0 if deviant_rule is None else cost0 * params.cost_fn(eps_tot, gamma_tot)
    eta_sup = 0.0
    if deviant_rule is not None:
        eta_sup = saving + _sup_gain(model, predict, x_pay, type_pop.X[0], settings.tau_theta,
                                     float(np.mean(p)), q, params.a2)
    return DeviationGainEstimate(
        float(mean_gains[best] + saving), float(std_errors[best]), rule_name(deviant_rule),
        trials, eta_sup,
    )


def _solve_opposite_groups(spec, theta_star, m, strategy, bundle, settings, rng) -> np.ndarray:
    """Unprojected estimators of len(theta_star) independent groups of m agents.

    Group t draws m agents under theta_star[t] and reports under `strategy`;
    its rows are mapped as the mechanism maps them and factored with the
    other groups' in one stacked QR.
    """
    k, d = theta_star.shape
    model = spec.model
    X = _draw_covariates(spec, rng, k * m)
    y = _draw_responses(model, np.matmul(X.reshape(k, m, d), theta_star[:, :, None]).ravel(), rng)
    costs = _draw_costs(spec, k * m, rng)
    reported = _threshold_reports(y, costs, strategy, model)
    stack = np.empty((k, m, d + 1))
    stack[..., :d] = design(X, model, settings).reshape(k, m, d)
    stack[..., d] = working_response(reported, bundle, settings).reshape(k, m)
    return solve_factor(np.linalg.qr(stack, mode="r"))


def _gain_moments(p: np.ndarray, q: np.ndarray, a2: float) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the trials p of the paired gain of each q[1:] over q[0].

    The gain a2 (q_r - q_0)(2 p - q_r - q_0) is linear in p, so its mean is
    the same expression at mean(p) and its sd is a2 * 2 |q_r - q_0| sd(p).
    """
    dq = q[1:] - q[0]
    mean = a2 * dq * (2.0 * np.mean(p) - q[1:] - q[0])
    sd_p = float(np.std(p, ddof=1)) if p.shape[0] > 1 else 0.0
    return mean, a2 * 2.0 * np.abs(dq) * sd_p / math.sqrt(p.shape[0])


def _sup_gain(model, predict, x_pay, x0, tau_theta, p_bar, q, a2) -> float:
    """Supremum over the model's report space of the mean paired gain a2 (q - q0)(2 p_bar - q - q0).

    The gain is concave in q with its peak a2 (p_bar - q0)^2 at q = p_bar,
    and q(r) is nondecreasing in r, so the supremum is at the prediction
    nearest p_bar. Linear: q = x_pay . mean is continuous, and the mean, a
    multiple of x0, reaches the ball's edge, so q spans +-tau_theta x_pay . x0 / ||x0||;
    that edge is computed, not attained, so the studied predictions q[1:]
    join the candidates and a report at the edge cannot round above it.
    Poisson: the two integers whose q(r) bracket p_bar, found by doubling
    and bisection. Logistic: the report space is {-1, +1}.
    """
    q0 = q[0]
    if model.family == LINEAR:
        norm = float(np.linalg.norm(x0))
        reach = tau_theta * float(rows_inner(x_pay, x0)[0]) / norm if norm > 0 else 0.0
        candidates = np.append(q[1:], min(max(p_bar, -reach), reach))
    elif model.family == LOGISTIC:
        candidates = predict([-1.0, 1.0])
    else:
        candidates = predict(_poisson_bracket(predict, p_bar))
    return float(np.max(a2 * (candidates - q0) * (2.0 * p_bar - candidates - q0)))


_POISSON_SEARCH_LIMIT = 2 ** 52  # the largest count the doubling search tries


def _poisson_bracket(predict, p_bar: float) -> list:
    """Integers lo < hi with q(lo) < p_bar <= q(hi), or the end of the search."""
    if predict(0)[0] >= p_bar:
        return [0]
    lo, hi = 0, 1
    while predict(hi)[0] < p_bar:
        if hi >= _POISSON_SEARCH_LIMIT:
            return [hi]
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predict(mid)[0] < p_bar:
            lo = mid
        else:
            hi = mid
    return [lo, hi]


# ---------------------------------------------------------------------------
# Rate fits
# ---------------------------------------------------------------------------

def fit_rate(xs, ys) -> RateFit:
    """OLS of log y on log x with a normal-theory (approximate) 95% CI."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape[0] < 3 or xs.shape != ys.shape:
        raise ConfigError("rate fit needs at least 3 aligned points")
    if np.any(ys <= 0) or np.any(xs <= 0):
        raise ConfigError("rate fit needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    mx = float(np.mean(lx))
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0:
        raise ConfigError("rate fit needs distinct x values")
    slope = float(np.sum((lx - mx) * (ly - np.mean(ly))) / sxx)
    intercept = float(np.mean(ly) - slope * mx)
    resid = ly - (intercept + slope * lx)
    m = xs.shape[0]
    s2 = float(np.sum(resid ** 2) / (m - 2)) if m > 2 else 0.0
    se = math.sqrt(s2 / sxx)
    return RateFit(slope, intercept, slope - 1.96 * se, slope + 1.96 * se, m)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_report(report: ExperimentReport, out_dir, fmt: str = "csv"):
    """Write the report into out_dir, creating it; CSV mode also writes a
    plot-ready long-format table. An output path that cannot be written is a
    config error."""
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if fmt == "json":
            main = out / "report.json"
            main.write_text(json.dumps(report_to_dict(report), indent=2))
            return [main]
        main = out / "report.csv"
        with main.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in report.rows:
                writer.writerow([_csv_value(getattr(row, col)) for col in CSV_COLUMNS])
        long = out / "report_long.csv"
        with long.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("n", "repeat", "metric", "value"))
            for row in report.rows:
                for col in CSV_COLUMNS[4:12]:
                    val = getattr(row, col)
                    if val is not None:
                        writer.writerow((row.n, row.repeat, col, repr(float(val))))
        return [main, long]
    except OSError as exc:
        raise ConfigError(f"cannot write the report to {out}: {exc}")


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "master_seed": report.master_seed,
        "footer": report.footer,
        "config": report.config,
        "privacy_check": report.privacy_check,
        "fits": {k: asdict(v) for k, v in report.fits.items()},
        "rows": [asdict(r) for r in report.rows],
    }


# ---------------------------------------------------------------------------
# Canonical privacy falsification check
# ---------------------------------------------------------------------------

def private_release_closure(bundle, settings, epsilon: float, delta: float, corruption: float = 1.0):
    """One estimator released `trials` times with the mechanism's own steps:
    estimate, norm-exponential noise at sensitivity `delta`, ball projection.

    `corruption` divides the noise scale; anything above 1 deliberately breaks
    the privacy claim and serves as a negative control.
    """

    def build(dataset, rng: np.random.Generator, trials: int) -> np.ndarray:
        theta = estimate(dataset, bundle, settings)
        v = sample_norm_exponential(dataset.d, delta / corruption, epsilon, rng, trials)
        v += theta  # in place: at 4e5 trials each extra trials x d buffer shows in peak RSS
        return project_ball(v, settings.tau_theta)

    return build


def canonical_privacy_check(
    epsilon: float = 0.5,
    trials: int = 100_000,
    bins: int = 30,
    corruption: float = 1.0,
    seed: int = 0,
) -> RatioReport:
    """Ratio falsification test on a crafted d = 1 linear neighbor pair.

    The pair differs in one response by the full clip width, the design is
    all-ones, and the claimed sensitivity is set to twice the realized
    one-row estimator gap, so the honest mechanism's worst log-ratio sits at
    epsilon/2 while a corruption of 10 pushes it to 5 epsilon.
    """
    _check_seed(seed)
    n, tau2 = 60, 2.0
    X = np.ones((n, 1))
    y_a = np.zeros(n)
    y_a[0] = tau2
    y_b = y_a.copy()
    y_b[0] = -tau2
    data_a, data_b = Dataset(X, y_a), Dataset(X, y_b)
    bundle = make_link_bundle(ModelKind.linear(1.0))
    settings = EstimatorSettings(
        tau1=10.0, tau2=tau2, tau_theta=1e3, polytope=PolytopeSpec(), regime="subgaussian"
    )
    gap = 2.0 * tau2 / n  # exact one-row estimator shift for this pair
    delta = 2.0 * gap
    build = private_release_closure(bundle, settings, epsilon, delta, corruption)
    return empirical_privacy_ratio(
        build,
        data_a,
        data_b,
        trials,
        bins,
        np.random.default_rng([seed]),
        epsilon_bound=2.0 * epsilon,
    )
