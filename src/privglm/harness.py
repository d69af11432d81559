"""Experiment runner: seeded sweeps, metric collection, deviation-gain studies,
log-log rate fits and report emission.

Every cell of a sweep derives its random streams from the tuple
(master_seed, n, repeat, arm) through numpy's SeedSequence, so any cell can be
re-run in isolation and results do not depend on execution order or thread
count. A cell's population is a `PopulationStream` of chunks of CHUNK_ROWS
agents: chunk 0 draws from the cell's own population generator, chunk
c >= 1 from (master_seed, n, repeat, arm, c). The studies are keyed by the
cell too, so the `deviate` and `sensitivity` verbs, which run cell (n, 0)'s
studies, print that cell's `eta_hat` and `delta_empirical`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, SingularGramError
from .estimators import (
    REGIMES,
    SUBGAUSSIAN,
    Dataset,
    EstimatorSettings,
    design,
    empirical_sensitivity,
    estimate,
    row_blocks,
    rows_inner,
    solve_factor,
    triangular_factor,
    working_response,
)
from .links import LINEAR, LOGISTIC, ModelKind, PolytopeSpec, make_link_bundle
from .mechanism import (
    MechanismParams,
    check_size,
    predictions,
    preset_schedule,
    posterior_mean,
    privacy_cost,
    project_ball,
    run_mechanism,
)
from .population import (
    CovariateSpec,
    PopulationSpec,
    PopulationStream,
    StudentTCovariates,
    SubGaussianCov,
    SubGaussianIsotropic,
    WorstOfGrid,
    coerce_response,
    covariate_sigma,
    draw_agents,
    draw_theta_star,
    generate_population,
    replacement_sampler,
    threshold_reports,
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


def cell_rng(master_seed: int, n: int, repeat: int, arm: int, *extra) -> np.random.Generator:
    return np.random.default_rng([master_seed, n, repeat, arm, *extra])


def _chunk_rngs(master_seed: int, n: int, repeat: int, arm: int):
    """Chunk c's generator of one arm: the cell's own for c = 0, keyed by c after."""
    return lambda c: cell_rng(master_seed, n, repeat, arm, *((c,) if c else ()))


def _check_seed(seed: int) -> None:
    """Seeds key numpy's SeedSequence, which takes nonnegative integers only."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


@dataclass
class ScheduleSpec:
    """The schedule's exponent delta and the sensitivity constant c0.

    Every other schedule value is a function of n and the population.
    """

    delta: float
    c0: float = 1.0
    c0_calibrated: bool = False


@dataclass
class ExperimentConfig:
    """One experiment; a config that leaves a key out runs its field's default."""

    population: PopulationSpec  # template; n is replaced by each sweep point
    schedule: ScheduleSpec
    regime: str = SUBGAUSSIAN
    sweep: Sequence[int] = ()
    repeats: int = 1
    metrics: Tuple[str, ...] = ("accuracy", "budget", "rationality")
    out_dir: Optional[str] = None
    fmt: str = "csv"
    master_seed: int = 0
    deviation_rule: Optional[WorstOfGrid] = WorstOfGrid((0.0,))  # None: the truthful control
    deviation_trials: int = 100
    sensitivity_trials: int = 40
    # read and echoed only: no rule has a node count since the posterior means
    # became fixed Gauss-Legendre tables; benchmark configs still write the key
    posterior_samples: int = 10_000

    def __post_init__(self):
        self.sweep = [int(v) for v in self.sweep]
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}: a regime is one of {list(REGIMES)}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ConfigError("sweep must be strictly increasing")
        for n in self.sweep:
            check_size(n, self.population.d)
        if min(self.deviation_trials, self.sensitivity_trials) < 1:
            raise ConfigError(f"trials must be >= 1, got deviation.trials {self.deviation_trials}"
                              f" and sensitivity_trials {self.sensitivity_trials}")
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise ConfigError(f"unknown metrics {sorted(unknown)}")
        if self.schedule is None:
            raise ConfigError("a schedule is required")
        _check_seed(self.master_seed)
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown report format {self.fmt!r}")
        if self.regime == SUBGAUSSIAN:
            covariate_sigma(self.population)  # Student-t covariates have none: a ConfigError

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        """Read a config object or file; only the keys it gives reach `_CONFIG_KEYS`' readers."""
        if isinstance(obj, (str, Path)):
            try:
                obj = json.loads(Path(obj).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}")
        fields = _fields(obj, _CONFIG_KEYS, "config")
        fields.update(fields.pop("deviation", {}))
        try:
            return cls(**fields)
        except TypeError as exc:
            raise ConfigError(f"bad experiment config: {exc}") from None


def parse_rule(text) -> Optional[WorstOfGrid]:
    """Read a deviation rule: `truthful` (the control, None) or `grid:a,b,c`."""
    if text == "truthful":
        return None
    if isinstance(text, str) and text.startswith("grid:"):
        return WorstOfGrid(tuple(_rule_number(v) for v in text[len("grid:"):].split(",")))
    raise ConfigError(f"cannot parse rule {text!r}: a rule is truthful or grid:a,b,c")


def _rule_number(value) -> float:
    """A rule's number as a float; unparsable or non-finite values are a ConfigError."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"rule value {value!r} is not a number") from None
    if not math.isfinite(out):
        raise ConfigError(f"rule value {value!r} is not finite")
    return out


def rule_name(rule: Optional[WorstOfGrid]) -> str:
    """The text form of a rule, which `parse_rule` reads back."""
    if rule is None:
        return "truthful"
    return "grid:" + ",".join(repr(float(v)) for v in rule.grid)


# ---------------------------------------------------------------------------
# Config reading: one table per section maps each JSON key to the keyword
# its value fills and the reader of that value
# ---------------------------------------------------------------------------

def _integer(value) -> int:
    """A JSON integer; a number with no fractional part, such as 1e6, counts."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _typed(kind: type):
    def read(value):
        if not isinstance(value, kind):
            raise ValueError(f"{value!r} is not a {kind.__name__}")
        return value
    return read


def _list(value) -> list:
    """A JSON array; an object, a string or a scalar is not one."""
    if not isinstance(value, list):
        raise ValueError(f"{value!r} is not an array")
    return value


def _array(value) -> Optional[np.ndarray]:
    """null, or a JSON array of finite numbers or of such arrays, of one shape."""
    if value is None:
        return None
    return np.asarray([_array(v) if isinstance(v, list) else _number(v) for v in _list(value)],
                      dtype=float)


def _fields(obj, table: dict, where: str) -> dict:
    """Keywords for the keys `obj` gives, each read by its (keyword, reader) in `table`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"the {where} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}")
    out = {}
    for key, value in obj.items():
        name, read = table[key]
        try:
            out[name] = read(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where} key {key!r}: {exc}") from None
    return out


def _covariates(obj) -> CovariateSpec:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in _COVARIATE_KEYS:
        raise ConfigError(f"unknown covariate kind {kind!r}")
    law, table = _COVARIATE_KEYS[kind]
    return law(**_fields({k: v for k, v in obj.items() if k != "kind"}, table, f"{kind} covariates"))


def _population(obj) -> PopulationSpec:
    fields = _fields(obj, _POPULATION_KEYS, "population")
    model = ModelKind.from_json({k: fields.pop(k) for k in ("model", "noise_std") if k in fields})
    return PopulationSpec(n=2, model=model, **fields)  # each run sets n to its sweep point


_POPULATION_KEYS = {
    "d": ("d", _integer),
    "model": ("model", _typed(str)),  # model and noise_std go to ModelKind.from_json
    "noise_std": ("noise_std", _number),
    "covariates": ("covariates", _covariates),
    "tau_theta": ("tau_theta", _number),
    "theta_star": ("theta_star", _array),
    "cost_lambda": ("cost_lambda", _number),
}
# each kind's law, and the keys beside "kind"
_COVARIATE_KEYS = {
    "subgaussian_isotropic": (SubGaussianIsotropic, {"sigma": ("sigma", _number)}),
    "subgaussian_cov": (SubGaussianCov, {"cov": ("cov", _array)}),
    "student_t": (StudentTCovariates, {"dof": ("dof", _number), "scale": ("scale", _array)}),
}
_SCHEDULE_KEYS = {
    "delta": ("delta", _number),
    "c0": ("c0", _number),
    "c0_calibrated": ("c0_calibrated", _typed(bool)),
}
_DEVIATION_KEYS = {
    "rule": ("deviation_rule", parse_rule),
    "trials": ("deviation_trials", _integer),
}
# from_json merges the fields "deviation" reads into the others
_CONFIG_KEYS = {
    "population": ("population", _population),
    "regime": ("regime", _typed(str)),
    "schedule": ("schedule", lambda obj: ScheduleSpec(**_fields(obj, _SCHEDULE_KEYS, "schedule"))),
    "sweep": ("sweep", lambda values: [_integer(v) for v in _list(values)]),
    "repeats": ("repeats", _integer),
    "metrics": ("metrics", lambda values: tuple(_typed(str)(v) for v in _list(values))),
    "out_dir": ("out_dir", _typed(str)),
    "format": ("fmt", _typed(str)),
    "master_seed": ("master_seed", _integer),
    "deviation": ("deviation", lambda obj: _fields(obj, _DEVIATION_KEYS, "deviation")),
    "sensitivity_trials": ("sensitivity_trials", _integer),
    "posterior_samples": ("posterior_samples", _integer),
}


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
    """The mechanism parameters of the config at n; sigma is the covariates' own.

    Only the sub-Gaussian clip reads sigma, and Student-t covariates have none.
    """
    pop = config.population
    return preset_schedule(
        pop.model,
        config.regime,
        n,
        config.schedule.delta,
        pop.d,
        cost_lambda=pop.cost_lambda,
        tau_theta=pop.tau_theta,
        sigma=covariate_sigma(pop) if config.regime == SUBGAUSSIAN else 1.0,
        c0=config.schedule.c0,
    )


def _cell_seed(master_seed: int, n: int, repeat: int) -> int:
    return int(np.random.SeedSequence([master_seed, n, repeat]).generate_state(1)[0])


def cell_population(config: ExperimentConfig, n: int, repeat: int, tau: float) -> PopulationStream:
    """The population of cell (n, repeat), reporting under the threshold strategy at tau."""
    return PopulationStream(
        replace(config.population, n=n), tau,
        _chunk_rngs(config.master_seed, n, repeat, ARM_POPULATION),
    )


def sensitivity_study(config: ExperimentConfig, n: int, repeat: int, trials: int) -> float:
    """`empirical_sensitivity` on cell (n, repeat)'s population, materialised from its chunks.

    A trial's replacement row is a `draw_agents` row under the cell's theta*;
    the trials are keyed (master_seed, n, repeat, ARM_SENSITIVITY).
    """
    params = params_for(config, n)
    pop = cell_population(config, n, repeat, params.tau_threshold).population()
    return empirical_sensitivity(Dataset(pop.X, pop.y_true), params.bundle, params.settings, trials,
                                 (config.master_seed, n, repeat, ARM_SENSITIVITY),
                                 replacement_sampler(config.population, pop.theta_star))


def _run_cell(config: ExperimentConfig, n: int, repeat: int) -> CellResult:
    ms = config.master_seed
    seed = _cell_seed(ms, n, repeat)
    model = config.population.model
    try:
        params = params_for(config, n)
        stream = cell_population(config, n, repeat, params.tau_threshold)
        outcome = run_mechanism(stream, params, cell_rng(ms, n, repeat, ARM_MECHANISM))
        rationality = outcome.rationality_frac if "rationality" in config.metrics else None
        eta = None
        if "deviation_gain" in config.metrics:
            est = estimate_deviation_gain(
                config, config.deviation_rule, config.deviation_trials, n=n, seed_tag=repeat
            )
            eta = est.eta_hat
        delta_emp = None
        if "sensitivity" in config.metrics:
            delta_emp = sensitivity_study(config, n, repeat, config.sensitivity_trials)
    except SingularGramError as exc:
        return CellResult(
            n, repeat, model.family, config.regime,
            None, None, None, None, None, None, None, None,
            seed, failed=True, error=str(exc),
        )

    diff = outcome.theta_bar_full - stream.theta_star
    mse = float(diff @ diff)
    eps_tot, gamma_tot = outcome.account
    return CellResult(
        n,
        repeat,
        model.family,
        config.regime,
        mse,
        outcome.budget,
        outcome.truthful_frac,
        rationality,
        eta,
        delta_emp,
        eps_tot,
        gamma_tot,
        seed,
        theta_bar=[float(v) for v in outcome.theta_bar_full],
        noise_norms=list(outcome.noise_norms),
    )


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Run every (n, repeat) cell; failures abort the cell, never the run."""
    # a strictly increasing sweep gives the cells in (n, repeat) order; both branches keep it
    cells = [(n, r) for n in config.sweep for r in range(config.repeats)]
    if threads > 1 and cells:
        # imported here: concurrent.futures pulls in logging, and most runs use one thread
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda c: _run_cell(config, *c), cells))
    else:
        rows = [_run_cell(config, n, r) for n, r in cells]

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
    deviant_rule: Optional[WorstOfGrid],
    trials: int,
    n: int,
    seed_tag: int = 0,
) -> DeviationGainEstimate:
    """Paired Monte-Carlo estimate of the tagged agent's gain from deviating.

    `seed_tag` is the repeat of the cell whose study this is: cell
    (n, repeat) runs it at seed_tag = repeat, and the `deviate` verb at 0.

    The equilibrium notion conditions on the deviating agent's own type, so
    one study fixes the tagged agent's (x, y, cost) (drawn once from the
    population spec, keyed (master_seed, seed_tag, ARM_DEVIATION) without n
    so studies at different sizes share the type) and redraws everyone else
    per trial under the threshold strategy. The tagged agent's payment
    depends only on the opposite group's private estimator, which their
    report cannot touch, so both reporting arms share every random stream and
    differ in nothing but the prediction q_r of the agent's own report r.

    The agents are exchangeable, so given agent 0's group the opposite group
    is m i.i.d. agents, m = n - n // 2 when agent 0 is in group 0 (probability
    (n // 2) / n) and n // 2 otherwise. A trial therefore draws its theta*
    (unless the spec fixes it) and only those m agents with their costs and
    threshold-strategy reports, factors their mapped rows, and adds one noise
    vector at the half sensitivity: the one half release that pays agent 0.
    Trials are taken in row blocks (`row_blocks`), a trial counted as the
    (n - n // 2)(d + 1) terms of its larger factored group, and block k is
    keyed (master_seed, n, seed_tag, ARM_DEVIATION, k): one batched theta*
    draw (`draw_theta_star`), one stacked `triangular_factor` and one stacked
    `solve_factor` per block, so every trial keeps its own rank and condition check.

    The Brier payment is linear in p, so a trial needs only the scalar
    p_t = A'(x_pay . theta_bar_opp,t). The paired gain of report r over the
    truth is a2 (q_r - q_0)(2 p_t - q_r - q_0); its mean over the trials is
    the same expression at the mean of p and its standard error is
    a2 * 2 |q_r - q_0| * sd(p) / sqrt(trials).

    `WorstOfGrid` estimates the sup-gain the equilibrium statement bounds: it
    reports the most profitable grid value (mean paired gain maximized over
    the grid; the grid should contain the truthful report so the payment part
    is nonnegative by construction). A genuine misreport also saves the
    agent's privacy cost, at most cost * (1 + gamma) eps^k of the total account;
    the truthful control (rule None) shares account and report, so its gain
    is identically zero.
    `eta_sup` is the supremum of the mean paired gain over the model's whole
    report space plus that saving (see `_sup_gain`); it is 0 for the control.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    ms = config.master_seed
    model = config.population.model
    params = params_for(config, n)
    settings, bundle = params.settings, params.bundle
    spec_n = replace(config.population, n=n)
    privacy = params.privacy
    eps_tot, gamma_tot = compose_account(privacy)

    # the tagged agent's type; keyed without n so paired studies share it
    type_pop = generate_population(
        replace(spec_n, n=1), np.random.default_rng([ms, seed_tag, ARM_DEVIATION])
    )
    y0 = float(type_pop.y_true[0])
    cost0 = float(type_pop.costs[0])
    x_pay = design(type_pop.X[:1], model, settings)

    # the control repeats the truthful report, which is in the response set already
    grid = (y0,) if deviant_rule is None else deviant_rule.grid
    reports = [float(v) for v in coerce_response(np.asarray(grid, float), model)]

    def predict(r) -> np.ndarray:
        """q = A'(x_pay . posterior mean) for each report in r."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        means = posterior_mean(
            np.repeat(type_pop.X[:1], r.shape[0], axis=0), r, model, settings.tau_theta
        )
        return predictions(x_pay, means, bundle)

    # q[0] predicts from the truthful report, q[1 + j] from reports[j]
    q = predict([y0, *reports])

    d = spec_n.d
    p = np.empty(trials)
    for k, block in enumerate(row_blocks(trials, (n - n // 2) * (d + 1))):
        b = block.stop - block.start
        rng = cell_rng(ms, n, seed_tag, ARM_DEVIATION, k)
        sizes = np.where(rng.random(b) < (n // 2) / n, n - n // 2, n // 2)
        if spec_n.theta_star is None:
            theta_star = draw_theta_star(d, spec_n.tau_theta, rng, b)
        else:
            theta_star = np.broadcast_to(spec_n.theta_star, (b, d))
        theta_opp = np.empty((b, d))
        for m in np.unique(sizes):
            trial = np.flatnonzero(sizes == m)
            theta_opp[trial] = _solve_opposite_groups(
                spec_n, theta_star[trial], int(m), params.tau_threshold, bundle, settings, rng
            )
        noise = sample_norm_exponential(d, privacy.delta_half, privacy.epsilon, rng, b)
        theta_bar = project_ball(theta_opp + noise, settings.tau_theta)
        p[block] = predictions(x_pay, theta_bar, bundle)

    mean_gains, std_errors = _gain_moments(p, q, params.a2)
    best = int(np.argmax(mean_gains))
    saving = 0.0 if deviant_rule is None else (
        cost0 * privacy_cost(eps_tot, gamma_tot, params.cost_exponent)
    )
    eta_sup = 0.0
    if deviant_rule is not None:
        eta_sup = saving + _sup_gain(model, predict, x_pay, type_pop.X[0], settings.tau_theta,
                                     float(np.mean(p)), q, params.a2)
    return DeviationGainEstimate(
        float(mean_gains[best] + saving), float(std_errors[best]), rule_name(deviant_rule),
        trials, eta_sup,
    )


def _solve_opposite_groups(spec, theta_star, m, tau, bundle, settings, rng) -> np.ndarray:
    """Unprojected estimators of len(theta_star) independent groups of m agents.

    Group t draws m agents under theta_star[t] (`draw_agents`) and reports
    under the threshold strategy at tau; its rows are mapped as the
    mechanism maps them and factored with the other groups' by `triangular_factor`.
    """
    k, d = theta_star.shape
    X, y, costs = draw_agents(spec, theta_star, m, rng)
    reported = threshold_reports(y, costs, tau, spec.model)
    return solve_factor(triangular_factor(
        design(X, spec.model, settings).reshape(k, m, d),
        working_response(reported, bundle, settings).reshape(k, m),
    ))


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
    """A MechanismClosure: one estimator released once per row of the buffer
    it is given, with the mechanism's own steps: estimate, norm-exponential
    noise at sensitivity `delta`, ball projection, each in that buffer.

    `corruption` divides the noise scale; anything above 1 deliberately breaks
    the privacy claim and serves as a negative control.
    """

    def build(dataset, rng: np.random.Generator, out: np.ndarray) -> None:
        # all in `out`: at 4e5 trials each extra trials buffer shows in peak RSS
        theta = estimate(dataset, bundle, settings)
        sample_norm_exponential(dataset.d, delta / corruption, epsilon, rng, len(out), out=out)
        out += theta
        project_ball(out, settings.tau_theta, out=out)

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
    # an infinite epsilon releases the estimate without noise: two point masses
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon}")
    if not (math.isfinite(corruption) and corruption > 0):
        raise ConfigError(f"corruption must be finite and > 0, got {corruption}")
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
