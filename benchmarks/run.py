"""privglm benchmark: run the workloads, check their outputs, print the metrics.

    python3 benchmarks/run.py                      # every workload, tracing off
    python3 benchmarks/run.py --trace 1            # the traced run: per-layer metrics
    python3 benchmarks/run.py --workload audit --seed 3 --seconds 40 --trace 0

Each workload runs in fresh worker processes (worker.py) that import the
package from `src/` of this checkout. Set-up is timed from process start to
the first timed call, in several set-up-only processes plus the measuring
one, and reported as the median. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics with tracing off and the per-layer metrics with it on. The exit code
is 1 when any output check failed.

This file uses the standard library only; everything the run writes goes
under benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from tracing import PER_LAYER, median_metrics  # noqa: E402  (standard library only)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("glm-posterior", "linear-1m", "audit")
DEFAULT_SECONDS = 40
# Set-up-only processes, half before and half after the measuring one (which
# adds one more sample), so the median spans the run's changes in machine speed.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
WORKER_SLACK_S = 120  # allowed beyond --seconds for the last pass, checks and exit

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "agents_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _worker(args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave no __pycache__ in the checkout
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out after {timeout} s: {args}")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker exited {proc.returncode}: {tail}")
    return spawned, proc.stdout


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = OUT / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []

    def probe(i):
        spawned, stdout = _worker(
            common + ["--setup-only", "--work", str(work / f"probe{i}")], PROBE_TIMEOUT_S
        )
        setups.append(json.loads(stdout.strip().splitlines()[-1])["ready"] - spawned)

    try:
        for i in range(SETUP_PROBES // 2):
            probe(i)
        result_path = work / "result.json"
        spans_path = results / f"{stem}-spans.jsonl"
        spawned, _ = _worker(
            common + ["--work", str(work / "main"), "--seconds", str(seconds),
                      "--trace", str(int(trace)), "--result", str(result_path),
                      "--spans", str(spans_path)],
            seconds + WORKER_SLACK_S,
        )
        worker = json.loads(result_path.read_text())
        for i in range(SETUP_PROBES // 2, SETUP_PROBES):
            probe(i)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(worker["ready"] - spawned)

    passes = worker["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["calls"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    digests = sorted({p["digest"] for p in passes})
    wall_s = statistics.median(p["wall_s"] for p in plain)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": worker["environment"],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]],
        "digest": digests[0] if len(digests) == 1 else None,
        "digests": digests,
        "setup_s_samples": setups,
        "passes": [{k: v for k, v in p.items() if k != "layer"} for p in passes],
        "end_to_end": _with_units({
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "agents_per_s": statistics.median(p["agents"] / p["wall_s"] for p in plain),
            "peak_rss_mb": worker["peak_rss_mb"],
        }, END_TO_END_UNITS),
    }
    if trace:
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        layer = median_metrics([p["layer"] for p in traced])
        record["per_layer"] = _with_units(layer, {k: unit for k, (unit, _) in PER_LAYER.items()})
        record["trace_overhead_s"] = traced_wall - wall_s
        record["traced_wall_s"] = traced_wall
        record["missing_bindings"] = worker["missing_bindings"]
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["shares_of_traced_wall"] = {
            "mechanism.run_mechanism.self_s": layer["mechanism.run_mechanism.self_s"] / traced_wall,
            "estimators.estimate.s": layer["estimators.estimate.s"] / traced_wall,
            "privacy.empirical_privacy_ratio.s":
                layer["privacy.empirical_privacy_ratio.s"] / traced_wall,
        }
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2))
    record["result_file"] = str(path.relative_to(ROOT))
    return record


def _with_units(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": unit} for k, unit in units.items()}


def report(record: dict) -> dict:
    """Print the human-readable block; return the contract's result line."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"tracing {'on' if record['trace'] else 'off'}  "
          f"passes {len(record['passes'])}  calls {record['attempted']}")
    for name, m in record["end_to_end"].items():
        print(f"  {name:<14}{m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_frac':<14}{record['fail_frac']:>16.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} calls failed)")
    for f in record["failures"][:10]:
        print(f"    FAILED {f['call']}: {'; '.join(f['problems'])}")
    print(f"  output digest {record['digest'] or 'differs between passes: ' + ' '.join(record['digests'])}")
    if record["trace"]:
        print(f"  tracing overhead {record['trace_overhead_s']:+.4f} s "
              f"(traced wall {record['traced_wall_s']:.4f} s)")
        for name, share in record["shares_of_traced_wall"].items():
            print(f"  share of traced wall: {name} {share:.1%}")
        if record["missing_bindings"]:
            print(f"  bindings not found (their metrics read 0): {record['missing_bindings']}")
        for name, m in record["per_layer"].items():
            print(f"  {name:<46}{m['value']:>16.6g} {m['unit']}")
    print(f"  result file {record['result_file']}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer" if record["trace"] else "end_to_end"],
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all of them)")
    p.add_argument("--seed", type=int, default=1, help="seed the configs are written from")
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                   help="measuring time per workload; passes that would end later are not started")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: alternate untraced and traced passes and report per-layer metrics")
    args = p.parse_args()

    ok = True
    for workload in ([args.workload] if args.workload else WORKLOADS):
        try:
            record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark error in {workload}: {exc}", file=sys.stderr)
            return 2
        line = report(record)
        print(json.dumps(line), flush=True)
        ok &= line["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
