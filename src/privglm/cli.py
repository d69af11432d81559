"""Command-line entry point.

Verbs: simulate (sweep from a JSON config), deviate (deviation-gain study),
sensitivity (empirical vs formula sensitivity), privacy-check (ratio
falsification test) and schedule (print a parameter schedule). Exit codes:
0 success, 2 config error (a bad config, flag or input, and any error the
config causes, such as a response subset with infinite link constants or a
ratio check with too few samples per bin), 3 numerical failure (in every
cell of a sweep, or in the one solve or study of another verb).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import replace

from .errors import ConfigError, SingularGramError
from .estimators import calibrate_c0, sensitivity_bound
from .harness import (
    ExperimentConfig,
    canonical_privacy_check,
    emit_report,
    estimate_deviation_gain,
    params_for,
    parse_rule,
    run_experiment,
    sensitivity_study,
)
from .links import ModelKind, compute_link_constants, make_link_bundle
from .mechanism import prediction_bound, preset_schedule


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
    trials = args.trials if args.trials is not None else config.deviation_trials
    est = estimate_deviation_gain(config, rule, trials, n=args.n)
    print(json.dumps(dataclasses.asdict(est), indent=2))
    return 0


def _cmd_sensitivity(args) -> int:
    config = _load_config(args)
    n = args.n if args.n is not None else (config.sweep[0] if config.sweep else None)
    if n is None:
        raise ConfigError("give --n or a non-empty sweep")
    trials = args.trials if args.trials is not None else config.sensitivity_trials
    # the population of cell (n, 0), with the oracle keyed (master_seed, n)
    emp = sensitivity_study(config, n, 0, trials, (config.master_seed, n))
    params = params_for(config, n)
    bundle = make_link_bundle(config.population.model)
    shape = sensitivity_bound(n, config.population.d, bundle, params.settings)
    print(
        json.dumps(
            {
                "n": n,
                "trials": trials,
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
    p.add_argument("--rule", default=None,
                   help="truthful | grid:a,b,c (default: the config's deviation.rule)")
    p.add_argument("--trials", type=int, default=None,
                   help="default: the config's deviation.trials")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_deviate)

    p = sub.add_parser("sensitivity", help="empirical vs formula sensitivity")
    _add_common(p)
    p.add_argument("--trials", type=int, default=None,
                   help="default: the config's sensitivity_trials")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("privacy-check", help="histogram ratio falsification test")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--corruption", type=float, default=1.0, help="divide the noise scale (negative control)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_privacy_check)

    # no prefix matching: the deleted --c must not read as --cost-lambda
    p = sub.add_parser("schedule", help="print a parameter schedule", allow_abbrev=False)
    p.add_argument("--model", required=True, choices=("linear", "logistic", "poisson"))
    p.add_argument("--regime", default="subgaussian", choices=("subgaussian", "heavy"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--cost-lambda", dest="cost_lambda", type=float, default=1.0)
    p.add_argument("--tau-theta", dest="tau_theta", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0, help="the covariates' sigma")
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
