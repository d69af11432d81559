"""Structural checks on the package source."""

import ast
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import privglm
from privglm.cli import build_parser, main
from privglm.harness import parse_rule

SRC = Path(privglm.__file__).parent


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore belongs to its own module; a sibling
    # that needs it should get a public name instead
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name} from "
                    f"{'.' * node.level}{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, "\n".join(found)


README = Path(__file__).parents[1] / "README.md"


def _verb_flags(parser) -> dict:
    """Each verb's option strings, from the parser's subcommand action."""
    (verbs,) = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
    return {
        verb: set(re.findall(r"--[\w-]+", sub.format_usage())) for verb, sub in verbs.items()
    }


def test_readme_usage_and_rule_forms_match_the_code():
    # every README usage line parses, each of its [--flag ...] groups names a
    # flag of its verb, and every rule form the rule sentence shows parses
    block = README.read_text().split("## CLI")[1].split("```sh")[1].split("```")[0]
    lines = []
    for line in block.splitlines():
        if line.startswith(" ") and lines:
            lines[-1] += line  # a continuation of the line above
        elif line.strip():
            lines.append(line)
    parser = build_parser()
    flags = _verb_flags(parser)
    assert len(lines) == len(flags), lines
    for line in lines:
        optional = re.findall(r"\[(--[\w-]+)[^\]]*\]", line)
        argv = shlex.split(re.sub(r"\[--[^\]]*\]", " ", line))
        assert argv[0] == "privglm", line
        try:
            args = parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README usage line does not parse: {line}")
        assert set(optional) <= flags[args.verb], line

    sentence = re.search(r"Deviation rules are written (.*?)\.\s", README.read_text(), re.S)
    forms = re.findall(r"`([^`]+)`", sentence.group(1))
    assert "truthful" in forms and any(f.startswith("grid:") for f in forms), forms
    for form in forms:
        parse_rule(form)


TRACING = Path(__file__).parents[1] / "benchmarks" / "tracing.py"

# bindings the benchmark's tracer looks for and the package no longer has;
# their per-layer metrics read 0
TRACER_MISSING = [
    "privglm.cli.empirical_sensitivity",
    "privglm.cli.generate_population",
    "privglm.harness.apply_strategy",
    "privglm.harness.rationality_check",
    "privglm.mechanism.estimate",
    "privglm.mechanism.l4_shrink_rows",
    "privglm.mechanism.privatize",
]


def test_benchmark_tracer_runs_every_verb(tmp_path, capsys):
    # the tracer wraps package globals and reads their arguments by name
    # (generate_population's spec.n, empirical_sensitivity's trials), so a
    # renamed argument or a moved call shows here rather than in a benchmark run
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "population": {"d": 2, "model": "linear"},
        "schedule": {"delta": 0.3},
        "sweep": [120],
        "metrics": ["accuracy", "budget", "rationality", "sensitivity", "deviation_gain"],
        "master_seed": 3,
        "deviation": {"trials": 3},
        "sensitivity_trials": 3,
    }))
    calls = (
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")],
        ["deviate", "--config", str(cfg)],
        ["sensitivity", "--config", str(cfg)],
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [tracer.span("cli.main", main, argv) for argv in calls]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    metrics = tracer.take_metrics(0)
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics["population.agents_drawn"] > 0
    assert metrics["estimators.empirical_sensitivity.ms_per_trial"] > 0
    assert sorted(tracer.missing) == TRACER_MISSING


def test_a_run_imports_no_thread_pool_or_polynomial_module():
    # concurrent.futures (and logging with it) loads only for --threads > 1, and
    # the Gauss-Legendre tables come from a recurrence, not numpy.polynomial
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import privglm.cli\n"
        "from privglm.links import ModelKind\n"
        "from privglm.mechanism import posterior_mean\n"
        "X = np.array([[0.5, -1.0, 2.0], [3.0, 1.0, 4.0]])\n"
        "posterior_mean(X, [1.0, -1.0], ModelKind.logistic(), 1.0)\n"
        "posterior_mean(X, [2.0, 400.0], ModelKind.poisson(), 1.0)\n"
        "print(sorted(m for m in ('concurrent.futures', 'numpy.polynomial') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr
