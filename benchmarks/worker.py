"""One benchmark process for one workload.

Started by run.py with `src/` on PYTHONPATH. Set-up imports privglm and
writes the workload's configs; `--setup-only` stops there and prints the
moment set-up ended. Otherwise the worker runs passes over the workload's
calls, in a closed loop, until another pass of median length would end
after `--seconds`. Each pass is timed, then checked and digested outside
the timed region. With `--trace 1` untraced and traced passes alternate, so
the tracing overhead is measured in the same process. The result goes to
`--result`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import privglm
from privglm import cli

import tracing
import workloads


def _call(argv, tracer):
    """Run one command through the public entry point, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tracer.span("cli.main", cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # a crash fails this call, not the run
            traceback.print_exc()
            rc = "exception"
    return rc, out.getvalue(), err.getvalue()


def _digest_call(h, call, rc, stdout, work_dir: Path):
    h.update(f"{call.label}\0{rc}\0".encode())
    h.update(stdout.replace(str(work_dir), "<work>").encode())
    if call.out_dir is not None and call.out_dir.is_dir():
        for path in sorted(call.out_dir.iterdir()):
            h.update(f"\0{path.name}\0".encode())
            h.update(path.read_bytes())


def run_pass(calls, work_dir: Path, tracer=None) -> dict:
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    outputs, call_s = [], []
    start = time.perf_counter()
    for call in calls:
        began = time.perf_counter()
        outputs.append(_call(call.argv, tracer))
        call_s.append(time.perf_counter() - began)
    wall = time.perf_counter() - start
    layer = None
    if tracer:
        tracer.uninstall()
        layer = tracer.take_metrics(first_span)

    h = hashlib.sha256()
    failures = []
    for call, (rc, stdout, stderr) in zip(calls, outputs):
        try:
            problems = call.check(rc, stdout, call.out_dir)
        except Exception as exc:  # a malformed output is a failed check
            problems = [f"check raised {exc!r}"]
        if rc != 0 and stderr.strip():
            problems.append(stderr.strip().splitlines()[-1])
        if problems:
            failures.append({"call": call.label, "problems": problems})
        _digest_call(h, call, rc, stdout, work_dir)
    return {
        "traced": tracer is not None,
        "wall_s": wall,
        "call_s": {c.label: t for c, t in zip(calls, call_s)},
        "agents": sum(c.agents for c in calls),
        "calls": len(calls),
        "failures": failures,
        "digest": h.hexdigest(),
        "layer": layer,
    }


def blas_info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    return info


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "machine": platform.machine(),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True, help="this process's scratch directory")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", help="where to write the result JSON")
    p.add_argument("--spans", help="where to write the traced spans")
    args = p.parse_args()

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(privglm.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported privglm from {privglm.__file__}, not from {src}")
    work = Path(args.work)
    work.mkdir(parents=True)
    calls = workloads.build(args.workload, args.seed, work)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(calls, work, tracer if traced else None))
        elapsed = time.perf_counter() - start
        typical = statistics.median(q["wall_s"] for q in passes)
        enough = len(passes) >= (2 if tracer else 1)
        if enough and elapsed + typical > args.seconds:
            break

    result = {
        "ready": ready,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "missing_bindings": tracer.missing if tracer else [],
    }
    Path(args.result).write_text(json.dumps(result))
    if tracer:
        tracer.write_spans(Path(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
