"""Command-line entry point.

Verbs: simulate (sweep from a JSON config), deviate (deviation-gain study),
sensitivity (empirical vs formula sensitivity), privacy-check (ratio
falsification test) and schedule (print a parameter schedule). Exit codes:
0 success, 2 config error, 3 numerical failure (in every cell of a sweep, or
in the one solve or study of another verb).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, SingularGramError
from .estimators import Dataset, calibrate_c0, empirical_sensitivity, sensitivity_bound
from .harness import (
    ExperimentConfig,
    canonical_privacy_check,
    emit_report,
    estimate_deviation_gain,
    params_for,
    parse_rule,
    run_experiment,
)
from .links import ModelKind, compute_link_constants, make_link_bundle
from .mechanism import prediction_bound, preset_schedule
from .population import generate_population, replacement_sampler


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--threads", type=int, default=1, help="parallel cells")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--format", choices=("csv", "json"), default=None)


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if getattr(args, "format", None):
        overrides["fmt"] = args.format
    # replace() validates the overridden config again
    return replace(config, **overrides)


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    report = run_experiment(config, threads=max(1, args.threads))
    out_dir = config.out_dir or "."
    paths = emit_report(report, out_dir, config.fmt)
    for path in paths:
        print(f"wrote {path}")
    for name, fit in report.fits.items():
        print(
            f"{name}: slope {fit.slope:.4f} "
            f"[{fit.ci_low:.4f}, {fit.ci_high:.4f}] over {fit.points} points"
        )
    print(report.footer)
    ran = len(report.rows)
    if ran and report.failed_cells == ran:
        print("every cell failed numerically", file=sys.stderr)
        return 3
    print(f"{ran - report.failed_cells}/{ran} cells succeeded")
    return 0


def _cmd_deviate(args) -> int:
    config = _load_config(args)
    rule = parse_rule(args.rule) if args.rule is not None else config.deviation_rule
    est = estimate_deviation_gain(config, rule, args.trials, n=args.n)
    print(json.dumps(dataclasses.asdict(est), indent=2))
    return 0


def _cmd_sensitivity(args) -> int:
    config = _load_config(args)
    n = args.n or (config.sweep[0] if config.sweep else None)
    if n is None:
        raise ConfigError("give --n or a non-empty sweep")
    params = params_for(config, n)
    bundle = make_link_bundle(config.population.model)
    spec = replace(config.population, n=n)
    pop = generate_population(spec, np.random.default_rng([config.master_seed, n, 0, 0]))
    emp = empirical_sensitivity(
        Dataset(pop.X, pop.y_true),
        bundle,
        params.settings,
        args.trials,
        (config.master_seed, n),
        replacement_sampler(spec, pop.theta_star),
    )
    shape = sensitivity_bound(n, spec.d, bundle, params.settings).delta_n
    print(
        json.dumps(
            {
                "n": n,
                "trials": args.trials,
                "empirical_max": emp,
                "formula_delta": params.privacy.delta_n,
                "c0": config.schedule.c0,
                "c0_calibrated_suggestion": calibrate_c0(emp, shape),
                "note": "calibrated c0 is data-dependent and voids the privacy accounting",
            },
            indent=2,
        )
    )
    return 0


def _cmd_privacy_check(args) -> int:
    report = canonical_privacy_check(
        epsilon=args.epsilon,
        trials=args.trials,
        bins=args.bins,
        corruption=args.corruption,
        seed=args.seed or 0,
    )
    print(json.dumps(dataclasses.asdict(report) | {"ok": report.passed()}, indent=2))
    return 0


def _cmd_schedule(args) -> int:
    model = ModelKind.from_json({"model": args.model, "noise_std": args.noise_std})
    params = preset_schedule(
        model,
        args.regime,
        args.n,
        args.delta,
        args.d,
        c=args.c,
        cost_lambda=args.cost_lambda,
        tau_theta=args.tau_theta,
        sigma=args.sigma,
    )
    bundle = make_link_bundle(model)
    constants = compute_link_constants(
        bundle,
        params.settings.polytope,
        params.settings.tau1,
        params.settings.tau2,
        params.settings.tau_theta,
    )
    out = {
        "epsilon": params.privacy.epsilon,
        "tau1": params.settings.tau1,
        "tau2": params.settings.tau2,
        "tau_theta": params.settings.tau_theta,
        "polytope": params.settings.polytope.to_json(),
        "alpha": params.alpha,
        "beta": params.beta,
        "a1": params.a1,
        "a2": params.a2,
        "tau_threshold": params.tau_threshold,
        "cost_fn": params.cost_fn.kind,
        "gamma_n": params.privacy.gamma_n,
        "gamma_half": params.privacy.gamma_half,
        "constants": {
            "kappa0": constants.kappa0,
            "kappa1": constants.kappa1,
            "kappa2": constants.kappa2,
            "m_a": prediction_bound(model, params.settings, args.d),
            "eps_mbar": constants.eps_mbar,
        },
    }
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privglm")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="run a sweep from a JSON config")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("deviate", help="paired deviation-gain study")
    _add_common(p)
    p.add_argument("--rule", default=None, help="truthful | constant:V | signflip | noise:S | grid:a,b,c")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_deviate)

    p = sub.add_parser("sensitivity", help="empirical vs formula sensitivity")
    _add_common(p)
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("privacy-check", help="histogram ratio falsification test")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--corruption", type=float, default=1.0, help="divide the noise scale (negative control)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_privacy_check)

    p = sub.add_parser("schedule", help="print a parameter schedule")
    p.add_argument("--model", required=True, choices=("linear", "logistic", "poisson"))
    p.add_argument("--regime", default="subgaussian", choices=("subgaussian", "heavy"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--cost-lambda", dest="cost_lambda", type=float, default=1.0)
    p.add_argument("--tau-theta", dest="tau_theta", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--noise-std", dest="noise_std", type=float, default=1.0)
    p.set_defaults(func=_cmd_schedule)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularGramError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
