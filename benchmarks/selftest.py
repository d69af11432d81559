"""Self-test of the benchmark itself (not of privglm).

    python3 benchmarks/selftest.py

Checks, in about a minute:
  * BENCHMARK.json names the workloads, metrics and units run.py and
    tracing.py produce, and the run length run.py defaults to;
  * each workload runs with every output check passing;
  * two runs with the same seed give the same output digest, another seed
    gives another, and tracing does not change the digest;
  * a traced run reports every per-layer metric and finds every binding;
  * the runs leave the checkout unchanged outside benchmarks/out/.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
from run import BENCH, DEFAULT_SECONDS, END_TO_END_UNITS, OUT, ROOT, WORKLOADS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def snapshot() -> dict:
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if d != ".git" and os.path.join(dirpath, d) != str(OUT)]
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            files[os.path.relpath(path, ROOT)] = (st.st_size, st.st_mtime_ns)
    return files


def run(workload: str, seed: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    expect(proc.returncode == 0, f"{workload} seed {seed} exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(line["correct"] and line["failed"] == 0, f"{workload}: output checks failed")
    result = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(result.read_text()) | {"line": line}


def expect(ok: bool, what: str):
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS,
           "end-to-end metric names and units")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER,
           "per-layer metric names, units and directions")
    expect(spec["run_seconds"] == DEFAULT_SECONDS, "run_seconds")
    print("ok   BENCHMARK.json matches the benchmark")

    before = snapshot()
    first = {w: run(w, 7) for w in WORKLOADS}
    print("ok   every workload passes its output checks")
    again = run("audit", 7)
    expect(first["audit"]["digest"] is not None
           and again["digest"] == first["audit"]["digest"], "same seed, same digest")
    expect(run("audit", 8)["digest"] != again["digest"], "another seed, another digest")
    traced = run("audit", 7, trace=1)
    expect(traced["digest"] == again["digest"], "tracing leaves the outputs unchanged")
    print("ok   digests repeat for a seed and differ between seeds")

    expect(set(traced["line"]["metrics"]) == set(PER_LAYER), "traced run reports per-layer metrics")
    expect(not traced["missing_bindings"], f"bindings missing: {traced['missing_bindings']}")
    expect(traced["per_layer"]["population.agents_drawn"]["value"] == traced["passes"][0]["agents"],
           "traced agent count matches the workload's count")
    print("ok   traced run reports every per-layer metric")

    after = snapshot()
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    expect(not changed, f"runs changed the checkout: {changed[:10]}")
    print("ok   the checkout is unchanged outside benchmarks/out/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
