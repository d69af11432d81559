"""The three benchmark workloads: configs written from the seed, the verb
calls of one pass, and the checks on every call's output.

A workload is a list of `Call`s. Each call is one `privglm` command line,
run in process through `privglm.cli.main`, together with the check that its
printed output and report files are correct. The program sees only the
config files written here and the command-line arguments; the seed reaches
it through the `master_seed` of each config and the `--seed` of
`privacy-check`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from privglm.harness import ExperimentConfig, config_to_json
from privglm.links import ModelKind, compute_link_constants, make_link_bundle
from privglm.mechanism import budget_bound, preset_schedule

# One call's observed result: exit code, captured stdout, report files.
Check = Callable[[int, str, Optional[Path]], List[str]]


@dataclass
class Call:
    label: str
    argv: List[str]
    out_dir: Optional[Path]  # where the call writes reports, if anywhere
    agents: int  # agents the call draws into populations
    check: Check


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _json_stdout(rc: int, stdout: str, problems: List[str]) -> Optional[dict]:
    if rc != 0:
        problems.append(f"exit code {rc}")
        return None
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


class ConfigWriter:
    """Writes experiment configs and proves that the program parsed each one
    as written: the package ignores unknown keys, so a typo in a key would
    otherwise run silently with a default."""

    def __init__(self, work_dir: Path, seed: int, workload: str):
        self.work_dir = work_dir
        self.rng = random.Random(f"privglm-bench/{workload}/{seed}")

    def write(self, name: str, *, model: str, d: int, delta: float, sweep: List[int],
              regime: str = "subgaussian", covariates: Optional[dict] = None,
              posterior_samples: int = 10_000) -> Path:
        population = {"d": d, "model": model}
        if covariates is not None:
            population["covariates"] = covariates
        out_dir = self.work_dir / "out" / name
        asked = {
            "population": population,
            "regime": regime,
            "schedule": {"delta": delta},
            "sweep": sweep,
            "repeats": 1,
            "metrics": ["accuracy", "budget", "rationality"],
            "posterior_samples": posterior_samples,
            "master_seed": self.rng.randrange(2 ** 31),
            "format": "json",
            "out_dir": str(out_dir),
        }
        path = self.work_dir / f"{name}.json"
        path.write_text(json.dumps(asked, indent=2))
        echoed = config_to_json(ExperimentConfig.from_json(path))
        problems = config_mismatches(asked, echoed)
        if problems:
            raise ValueError(f"config {path.name} did not parse as written: {problems}")
        return path


def config_mismatches(asked: dict, echoed: dict, prefix: str = "") -> List[str]:
    """Differences between a written config and the program's echo of it.

    `out_dir` is the only key the echo leaves out; every other key written
    must come back with the value written. The echo may add defaults.
    """
    problems = []
    for key, want in asked.items():
        name = prefix + key
        if key == "out_dir":
            continue
        if key not in echoed:
            problems.append(f"key {name!r} was ignored")
        elif isinstance(want, dict) and isinstance(echoed[key], dict):
            problems += config_mismatches(want, echoed[key], name + ".")
        elif echoed[key] != want:
            problems.append(f"{name}: asked {want!r}, ran {echoed[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _check_simulate(config_path: Path) -> Check:
    asked = json.loads(config_path.read_text())

    def check(rc: int, stdout: str, out_dir: Optional[Path]) -> List[str]:
        problems: List[str] = []
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads((out_dir / "report.json").read_text())
        problems += config_mismatches(asked, report["config"])
        rows = report["rows"]
        if len(rows) != len(asked["sweep"]) * asked["repeats"]:
            problems.append(f"{len(rows)} rows for {len(asked['sweep'])} x {asked['repeats']} cells")
        pop = asked["population"]
        model = ModelKind.from_json(pop)
        for row in rows:
            tag = f"n={row['n']} repeat={row['repeat']}"
            if row["failed"]:
                problems.append(f"{tag}: cell failed: {row['error']}")
                continue
            if not (_finite(row["mse"]) and _finite(row["budget"])):
                problems.append(f"{tag}: mse {row['mse']!r} or budget {row['budget']!r} not finite")
                continue
            params = preset_schedule(model, asked["regime"], row["n"],
                                     asked["schedule"]["delta"], pop["d"])
            s = params.settings
            if asked["regime"] == "heavy":
                # largest |x_pay . theta| with l4-shrunk covariates
                m_a = pop["d"] ** 0.25 * s.tau1 * s.tau_theta
            else:
                m_a = compute_link_constants(
                    make_link_bundle(model), s.polytope, s.tau1, s.tau2, s.tau_theta
                ).m_a
            cap = budget_bound(row["n"], params.a1, params.a2, m_a)
            if not row["budget"] <= cap:
                problems.append(f"{tag}: budget {row['budget']} above bound {cap}")
            if not math.isclose(row["epsilon_total"], 2.0 * params.privacy.epsilon, rel_tol=1e-12):
                problems.append(f"{tag}: epsilon_total {row['epsilon_total']} is not "
                                f"2 x schedule epsilon {params.privacy.epsilon}")
        return problems

    return check


def _check_deviate(trials: int, truthful: bool) -> Check:
    def check(rc: int, stdout: str, out_dir: Optional[Path]) -> List[str]:
        problems: List[str] = []
        est = _json_stdout(rc, stdout, problems)
        if est is None:
            return problems
        if est["trials"] != trials:
            problems.append(f"ran {est['trials']} trials, asked {trials}")
        if not (_finite(est["eta_hat"]) and _finite(est["std_error"])):
            problems.append(f"eta_hat {est['eta_hat']!r} or std_error not finite")
        if truthful and est["eta_hat"] != 0.0:
            problems.append(f"truthful control has eta_hat {est['eta_hat']!r}, not exactly 0")
        if truthful != (est["deviant_rule"] == "truthful"):
            problems.append(f"ran rule {est['deviant_rule']!r}")
        return problems

    return check


def _check_sensitivity(n: int, trials: int) -> Check:
    def check(rc: int, stdout: str, out_dir: Optional[Path]) -> List[str]:
        problems: List[str] = []
        out = _json_stdout(rc, stdout, problems)
        if out is None:
            return problems
        if (out["n"], out["trials"]) != (n, trials):
            problems.append(f"ran n={out['n']} trials={out['trials']}, asked n={n} trials={trials}")
        for key in ("empirical_max", "formula_delta"):
            if not (_finite(out[key]) and out[key] > 0):
                problems.append(f"{key} {out[key]!r} is not a positive number")
        return problems

    return check


def _check_privacy(trials: int, want_ok: bool) -> Check:
    # `ok`, not the exit code, carries the verdict: the verb exits 0 either way
    def check(rc: int, stdout: str, out_dir: Optional[Path]) -> List[str]:
        problems: List[str] = []
        out = _json_stdout(rc, stdout, problems)
        if out is None:
            return problems
        if out["trials"] != trials:
            problems.append(f"ran {out['trials']} trials, asked {trials}")
        if out["ok"] is not want_ok:
            problems.append(f"ok is {out['ok']!r}, expected {want_ok!r}")
        return problems

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _simulate(w: ConfigWriter, name: str, **kw) -> Call:
    path = w.write(name, **kw)
    out_dir = w.work_dir / "out" / name
    agents = sum(kw["sweep"])  # one repeat per sweep point
    return Call(f"simulate-{name}", ["simulate", "--config", str(path), "--threads", "1",
                                     "--out", str(out_dir)],
                out_dir, agents, _check_simulate(path))


def _glm_posterior(w: ConfigWriter) -> List[Call]:
    # d=3 so the importance sampler's per-agent loop dominates
    return [
        _simulate(w, "logistic", model="logistic", d=3, delta=0.3, sweep=[1000, 2000]),
        _simulate(w, "poisson", model="poisson", d=3, delta=0.26, sweep=[1000, 2000]),
    ]


def _linear_1m(w: ConfigWriter) -> List[Call]:
    return [
        _simulate(w, "linear", model="linear", d=10, delta=0.3, sweep=[1_000_000]),
        _simulate(w, "heavy", model="linear", d=10, delta=0.12, sweep=[1_000_000],
                  regime="heavy", covariates={"kind": "student_t", "dof": 5.0}),
    ]


# Trial counts are ten times those of the acceptance suite (criteria 4, 6
# and 9), so one pass is long enough to time against scheduler noise.
DEVIATE_N = 3200
DEVIATIONS = (
    # name, model, delta, rule, trials
    ("linear", "linear", 0.3, "grid:-2,-1,0,1,2", 400),
    ("logistic", "logistic", 0.3, "grid:-1,1", 400),
    ("poisson", "poisson", 0.26, "grid:0,1,2,3", 800),
    ("truthful", "linear", 0.3, "truthful", 400),
)
SENSITIVITY_N = 2000
SENSITIVITY_TRIALS = 400
PRIVACY_TRIALS = 400_000


def _audit(w: ConfigWriter) -> List[Call]:
    calls = []
    for name, model, delta, rule, trials in DEVIATIONS:
        path = w.write(f"deviate-{name}", model=model, d=2, delta=delta, sweep=[DEVIATE_N],
                       posterior_samples=4000)
        argv = ["deviate", "--config", str(path), "--rule", rule, "--trials", str(trials),
                "--n", str(DEVIATE_N), "--out", str(w.work_dir / "out" / f"deviate-{name}")]
        # every trial redraws the population, plus one draw of the tagged agent
        calls.append(Call(f"deviate-{name}", argv, None, trials * DEVIATE_N + 1,
                          _check_deviate(trials, rule == "truthful")))
    for regime, delta, cov in (("subgaussian", 0.3, None),
                               ("heavy", 0.12, {"kind": "student_t", "dof": 5.0})):
        path = w.write(f"sensitivity-{regime}", model="linear", d=3, delta=delta,
                       sweep=[SENSITIVITY_N], regime=regime, covariates=cov)
        argv = ["sensitivity", "--config", str(path), "--trials", str(SENSITIVITY_TRIALS),
                "--n", str(SENSITIVITY_N),
                "--out", str(w.work_dir / "out" / f"sensitivity-{regime}")]
        calls.append(Call(f"sensitivity-{regime}", argv, None, SENSITIVITY_N,
                          _check_sensitivity(SENSITIVITY_N, SENSITIVITY_TRIALS)))
    privacy_seed = w.rng.randrange(1, 2 ** 31)
    for name, corruption, want_ok in (("honest", "1", True), ("corrupted", "10", False)):
        argv = ["privacy-check", "--epsilon", "0.5", "--trials", str(PRIVACY_TRIALS),
                "--bins", "30", "--corruption", corruption, "--seed", str(privacy_seed)]
        calls.append(Call(f"privacy-check-{name}", argv, None, 0,
                          _check_privacy(PRIVACY_TRIALS, want_ok)))
    return calls


BUILDERS = {"glm-posterior": _glm_posterior, "linear-1m": _linear_1m, "audit": _audit}


def build(workload: str, seed: int, work_dir: Path) -> List[Call]:
    """Write the workload's configs under `work_dir` and return its calls."""
    return BUILDERS[workload](ConfigWriter(work_dir, seed, workload))
