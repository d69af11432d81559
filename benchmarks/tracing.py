"""Per-layer tracing from outside the package.

The tracer replaces the module-level bindings through which one privglm
layer calls another (for example `privglm.mechanism.estimate`, the name
`run_mechanism` resolves to the estimator) with wrappers that record a span
per call. Nothing under `src/` changes. Spans stay in memory, with their
parent, and are written out when the run ends. A span's self time is its
duration minus the time of its traced children.

The tracer assumes one thread, as the benchmark runs `--threads 1`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

# (module whose global is replaced, global name, layer of the function).
# A function is bound in every module that calls it from another layer, and
# in its own module where a sibling calls it (empirical_sensitivity calls
# estimate, privatize calls sample_norm_exponential).
BINDINGS = (
    ("cli", "run_experiment", "harness"),
    ("cli", "emit_report", "harness"),
    ("cli", "estimate_deviation_gain", "harness"),
    ("cli", "canonical_privacy_check", "harness"),
    ("cli", "empirical_sensitivity", "estimators"),
    ("cli", "generate_population", "population"),
    ("cli", "make_link_bundle", "links"),
    ("cli", "compute_link_constants", "links"),
    ("harness", "run_mechanism", "mechanism"),
    ("harness", "posterior_mean", "mechanism"),
    ("harness", "preset_schedule", "mechanism"),
    ("harness", "rationality_check", "mechanism"),
    ("harness", "generate_population", "population"),
    ("harness", "apply_strategy", "population"),
    ("harness", "estimate", "estimators"),
    ("harness", "empirical_sensitivity", "estimators"),
    ("harness", "project_ball", "estimators"),
    ("harness", "make_link_bundle", "links"),
    ("harness", "sample_norm_exponential", "privacy"),
    ("harness", "empirical_privacy_ratio", "privacy"),
    ("mechanism", "estimate", "estimators"),
    ("mechanism", "l4_shrink_rows", "estimators"),
    ("mechanism", "rows_inner", "estimators"),
    ("mechanism", "privatize", "privacy"),
    ("mechanism", "compute_link_constants", "links"),
    ("mechanism", "make_link_bundle", "links"),
    ("estimators", "estimate", "estimators"),
    ("estimators", "l4_shrink_rows", "estimators"),
    ("estimators", "rows_inner", "estimators"),
    ("estimators", "clip_response", "links"),
    ("estimators", "project_polytope", "links"),
    ("privacy", "sample_norm_exponential", "privacy"),
)

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "mechanism.run_mechanism.s": ("s", "lower"),
    "mechanism.run_mechanism.self_s": ("s", "lower"),
    "mechanism.run_mechanism.self_us_per_agent": ("us/agent", "lower"),
    "mechanism.posterior_mean.calls": ("count", "lower"),
    "mechanism.preset_schedule.s": ("s", "lower"),
    "mechanism.rationality_check.s": ("s", "lower"),
    "estimators.estimate.s": ("s", "lower"),
    "estimators.estimate.calls": ("count", "lower"),
    "estimators.estimate.rows": ("rows", "lower"),
    "estimators.rows_per_agent": ("rows/agent", "lower"),
    "estimators.empirical_sensitivity.ms_per_trial": ("ms/trial", "lower"),
    "estimators.l4_shrink_rows.s": ("s", "lower"),
    "estimators.rows_inner.s": ("s", "lower"),
    "estimators.rows_inner.calls": ("count", "lower"),
    "population.generate_population.s": ("s", "lower"),
    "population.generate_population.calls": ("count", "lower"),
    "population.agents_drawn": ("agents", "lower"),
    "population.agents_used_frac": ("ratio", "higher"),
    "population.apply_strategy.s": ("s", "lower"),
    "privacy.privatize.calls": ("count", "lower"),
    "privacy.sample_norm_exponential.calls": ("count", "lower"),
    "privacy.noise_draws_used_frac": ("ratio", "higher"),
    "privacy.empirical_privacy_ratio.s": ("s", "lower"),
    "links.clip_response.s": ("s", "lower"),
    "links.project_polytope.s": ("s", "lower"),
    "links.compute_link_constants.calls": ("count", "lower"),
    "links.make_link_bundle.calls": ("count", "lower"),
    "harness.run_experiment.self_s": ("s", "lower"),
    "harness.emit_report.s": ("s", "lower"),
    "harness.estimate_deviation_gain.ms_per_trial": ("ms/trial", "lower"),
    "harness.estimate_deviation_gain.self_s": ("s", "lower"),
    "harness.canonical_privacy_check.s": ("s", "lower"),
    "harness.cells_failed": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
}


class Tracer:
    """Records spans and argument counts at the wrapped bindings."""

    def __init__(self):
        self.spans: List[list] = []  # [id, parent id or -1, name, start, end]
        self._stack: List[int] = []
        self._originals = []
        self.missing: List[str] = []
        self._reset_counts()

    def _reset_counts(self):
        self.counts: Dict[str, float] = defaultdict(float)
        self._used_now = 0  # most rows any estimate solved since the last draw

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else -1, name, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        counted = _COUNTED.get(name)
        sig = inspect.signature(fn) if counted else None

        def traced(*args, **kwargs):
            if counted:
                key, arg = counted
                value = sig.bind(*args, **kwargs).arguments[arg]
                self._count(key, getattr(value, "n", value))
            result = self.span(name, fn, *args, **kwargs)
            if name == "harness.run_experiment":
                self.counts["cells_failed"] += result.failed_cells
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, value: int):
        self.counts[key] += value
        if key == "agents_drawn":
            # agents used = most rows solved on one population before the next draw
            self._flush_used()
        elif key == "estimate_rows":
            self._used_now = max(self._used_now, value)

    def install(self):
        self.missing = []
        for mod_name, attr, layer in BINDINGS:
            module = importlib.import_module(f"privglm.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"privglm.{mod_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    # -- per-layer metrics ---------------------------------------------------

    def take_metrics(self, first_span: int) -> Dict[str, float]:
        """Per-layer metrics over spans[first_span:] and the counts since the
        last call; resets the counts."""
        self._flush_used()
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        child = defaultdict(float)
        spans = self.spans[first_span:]
        for sid, parent, name, start, end in spans:
            child[parent] += end - start
        for sid, parent, name, start, end in spans:
            total[name] += end - start
            own[name] += end - start - child[sid]
            calls[name] += 1
        c = self.counts
        agents_mech = c["mechanism_agents"]
        noise_draws = calls["privacy.sample_norm_exponential"]

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {
            "mechanism.run_mechanism.s": total["mechanism.run_mechanism"],
            "mechanism.run_mechanism.self_s": own["mechanism.run_mechanism"],
            "mechanism.run_mechanism.self_us_per_agent":
                per(own["mechanism.run_mechanism"], agents_mech, 1e6),
            "mechanism.posterior_mean.calls": calls["mechanism.posterior_mean"],
            "mechanism.preset_schedule.s": total["mechanism.preset_schedule"],
            "mechanism.rationality_check.s": total["mechanism.rationality_check"],
            "estimators.estimate.s": total["estimators.estimate"],
            "estimators.estimate.calls": calls["estimators.estimate"],
            "estimators.estimate.rows": c["estimate_rows"],
            "estimators.rows_per_agent": per(c["estimate_rows"], c["agents_drawn"]),
            "estimators.empirical_sensitivity.ms_per_trial":
                per(total["estimators.empirical_sensitivity"], c["sensitivity_trials"], 1e3),
            "estimators.l4_shrink_rows.s": total["estimators.l4_shrink_rows"],
            "estimators.rows_inner.s": total["estimators.rows_inner"],
            "estimators.rows_inner.calls": calls["estimators.rows_inner"],
            "population.generate_population.s": total["population.generate_population"],
            "population.generate_population.calls": calls["population.generate_population"],
            "population.agents_drawn": c["agents_drawn"],
            "population.agents_used_frac": per(c["agents_used"], c["agents_drawn"]),
            "population.apply_strategy.s": total["population.apply_strategy"],
            "privacy.privatize.calls": calls["privacy.privatize"],
            "privacy.sample_norm_exponential.calls": noise_draws,
            # a draw is used when it is added to a released estimator: inside
            # privatize, or before the deviation study's ball projection
            "privacy.noise_draws_used_frac": per(
                calls["privacy.privatize"] + calls["estimators.project_ball"], noise_draws),
            "privacy.empirical_privacy_ratio.s": total["privacy.empirical_privacy_ratio"],
            "links.clip_response.s": total["links.clip_response"],
            "links.project_polytope.s": total["links.project_polytope"],
            "links.compute_link_constants.calls": calls["links.compute_link_constants"],
            "links.make_link_bundle.calls": calls["links.make_link_bundle"],
            "harness.run_experiment.self_s": own["harness.run_experiment"],
            "harness.emit_report.s": total["harness.emit_report"],
            "harness.estimate_deviation_gain.ms_per_trial":
                per(total["harness.estimate_deviation_gain"], c["deviation_trials"], 1e3),
            "harness.estimate_deviation_gain.self_s": own["harness.estimate_deviation_gain"],
            "harness.canonical_privacy_check.s": total["harness.canonical_privacy_check"],
            "harness.cells_failed": c["cells_failed"],
            "cli.main.self_s": own["cli.main"],
        }
        self._reset_counts()
        return {k: float(v) for k, v in out.items()}

    def _flush_used(self):
        self.counts["agents_used"] += self._used_now
        self._used_now = 0

    def write_spans(self, path: Path):
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# span name -> (count key, argument added to it: its `.n`, or the value)
_COUNTED = {
    "mechanism.run_mechanism": ("mechanism_agents", "reported"),
    "population.generate_population": ("agents_drawn", "spec"),
    "estimators.estimate": ("estimate_rows", "data"),
    "estimators.empirical_sensitivity": ("sensitivity_trials", "trials"),
    "harness.estimate_deviation_gain": ("deviation_trials", "trials"),
}


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in PER_LAYER}
