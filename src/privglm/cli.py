"""Command-line entry point.

Verbs: simulate (sweep from a JSON config), deviate (deviation-gain study),
sensitivity (empirical vs formula sensitivity), privacy-check (ratio
falsification test) and schedule (the parameters of a config's cell at n).
Exit codes: 0 success, 2 config error (a bad config, flag or input, and any
error the config causes, such as a response subset with infinite link
constants or a ratio check with too few samples per bin), 3 numerical
failure (in every cell of a sweep, or in the one solve or study of another
verb).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

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
from .mechanism import check_size


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out:
        overrides["out_dir"] = args.out
    if getattr(args, "format", None):
        overrides["fmt"] = args.format
    # replace() validates the overridden config again
    return dataclasses.replace(config, **overrides)


def _size(args, config: ExperimentConfig) -> int:
    """The n a study verb runs at: --n, else the first sweep point; n below 2d is refused."""
    if args.n is None and not config.sweep:
        raise ConfigError("give --n or a non-empty sweep")
    n = config.sweep[0] if args.n is None else args.n
    check_size(n, config.population.d)
    return n


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    report = run_experiment(config, threads=args.threads)
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
    est = estimate_deviation_gain(config, rule, trials, _size(args, config))
    print(json.dumps(dataclasses.asdict(est), indent=2))
    return 0


def _cmd_sensitivity(args) -> int:
    config = _load_config(args)
    n = _size(args, config)
    trials = args.trials if args.trials is not None else config.sensitivity_trials
    emp = sensitivity_study(config, n, 0, trials)
    params = params_for(config, n)
    shape = sensitivity_bound(n, config.population.d, config.regime, params.constants.kappa1)
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
    # a flag left out takes its default from canonical_privacy_check
    flags = {k: v for k, v in vars(args).items() if k not in ("verb", "func")}
    report = canonical_privacy_check(**flags)
    print(json.dumps(dataclasses.asdict(report) | {"ok": report.passed()}, indent=2))
    return 0


def _cmd_schedule(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    params = params_for(config, _size(args, config))
    settings = params.settings
    # each knob of MechanismParams, with privacy's and settings' flattened into
    # them; the link constants and m_A go under "constants", the bundle nowhere
    nested = ("privacy", "settings", "bundle", "constants", "m_a")
    out = {k: v for k, v in vars(params).items() if k not in nested}
    out |= vars(params.privacy) | vars(settings) | {"polytope": settings.polytope.to_json()}
    out["constants"] = dataclasses.asdict(params.constants) | {"m_a": params.m_a}
    print(json.dumps(out, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privglm")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="run a sweep from a JSON config")
    _add_common(p)
    p.add_argument("--threads", type=int, default=1, help="parallel cells")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("deviate", help="paired deviation-gain study")
    _add_common(p)
    p.add_argument("--rule", default=None,
                   help="truthful | grid:a,b,c (default: the config's deviation.rule)")
    p.add_argument("--trials", type=int, default=None,
                   help="default: the config's deviation.trials")
    p.add_argument("--n", type=int, default=None, help="default: the config's first sweep point")
    p.set_defaults(func=_cmd_deviate)

    p = sub.add_parser("sensitivity", help="empirical vs formula sensitivity")
    _add_common(p)
    p.add_argument("--trials", type=int, default=None,
                   help="default: the config's sensitivity_trials")
    p.add_argument("--n", type=int, default=None, help="default: the config's first sweep point")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("privacy-check", help="histogram ratio falsification test",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--corruption", type=float, help="divide the noise scale (negative control)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_privacy_check)

    p = sub.add_parser("schedule", help="print the parameters of a config's cell at n")
    p.add_argument("--config", required=True, help="path to a JSON experiment config")
    p.add_argument("--n", type=int, default=None, help="default: the config's first sweep point")
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
