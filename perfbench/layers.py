"""Per-layer tracing from outside the program.

A traced unit replaces the module attributes that spgl's own callers look up
at call time (``spgl.harness.collect_rollouts``, ``spgl.update.compute_stats``
and so on) with timing wrappers, runs, and puts the originals back.  Nothing
under ``src/`` changes.  Each wrapper keeps a stack of open spans, so a
layer's self time is its duration minus the time of the wrapped calls it made.

A binding whose module or attribute no longer exists is reported as an absent
layer, never as an error, so renames in the program only thin the trace.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# Exact-solver steps must stay inside the trust region up to the solver's own
# feasibility slack; closed-form steps up to rounding.
EXACT_KL_SLACK = 1e-9
CLOSED_FORM_KL_SLACK = 1e-12


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span statistics and work counts of one traced unit."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = {}
        self.counts = Counter()
        self.absent: set[str] = set()
        self.violations: list[str] = []
        self.update_s = {"direct": 0.0, "backtracked": 0.0}
        self._open_child_s: list[float] = []
        self._patches = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer, fn, on_result):
        def traced(*args, **kwargs):
            self._open_child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child_s = self._open_child_s.pop()
                if self._open_child_s:
                    self._open_child_s[-1] += elapsed
                stats = self.layers.setdefault(layer, LayerStats())
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child_s
            if on_result is not None:
                on_result(self, elapsed, args, result)
            return result

        return traced

    def install(self):
        for module_name, attr, layer, on_result in BINDINGS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.add(name)
                continue
            setattr(module, attr, self._wrap(layer, original, on_result))
            self._patches.append((module, attr, original))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results --------------------------------------------------------------

    def fingerprint(self) -> dict:
        """Exact work counts; repeats of one input on one commit must agree."""
        return {key: self.counts[key] for key in sorted(self.counts)}


# ---------------------------------------------------------------------------
# result hooks: counts and output checks at the layer boundaries


def _on_rollouts(tracer, elapsed, args, rollouts):
    try:
        steps = sum(int(r.episode_length) for r in rollouts)
    except (TypeError, AttributeError):
        tracer.absent.add("envs.steps (rollout shape)")
        return
    tracer.counts["envs.steps"] += steps


def _on_update(tracer, elapsed, args, result):
    try:
        new_dist, report = result
        config = args[3]
        kind, case = report.kind, report.active_case
        backtracked = bool(report.trust_region_backtracked)
        kl_step, theta = float(report.kl_step), new_dist.theta
        eps, theta_min = config.epsilon, config.theta_min
    except (TypeError, ValueError, AttributeError, IndexError):
        tracer.absent.add("update report fields")
        return
    counts = tracer.counts
    counts["update.calls"] += 1
    counts[f"update.kind.{kind}"] += 1
    counts[f"update.case.{case}"] += 1
    counts["update.backtracked"] += int(backtracked)
    counts["update.degenerate"] += int(bool(getattr(report, "degenerate", False)))
    tracer.update_s["backtracked" if backtracked else "direct"] += elapsed
    if not (math.isfinite(kl_step) and kl_step <= eps + CLOSED_FORM_KL_SLACK):
        tracer.violations.append(f"closed-form kl_step {kl_step!r} > epsilon {eps!r}")
    if not all(math.isfinite(t) and t >= theta_min for t in theta):
        tracer.violations.append(f"closed-form theta {list(theta)} below theta_min {theta_min!r}")


def _on_exact(tracer, elapsed, args, result):
    try:
        _, report = result
        eps = args[3].epsilon
        kl_step = float(report.kl_step)
        unconverged = report.trust_region_backtracked
    except (TypeError, ValueError, AttributeError, IndexError):
        tracer.absent.add("numerical_update report fields")
        return
    tracer.counts["exact.calls"] += 1
    tracer.counts["exact.unconverged"] += int(bool(unconverged))
    if not (math.isfinite(kl_step) and kl_step <= eps + EXACT_KL_SLACK):
        tracer.violations.append(f"exact kl_step {kl_step!r} > epsilon {eps!r}")


# (module, attribute that callers look up, layer name, result hook)
BINDINGS = (
    ("spgl.harness", "run_training", "harness.run_training", None),
    ("spgl.harness", "evaluate_run", "harness.evaluate_run", None),
    ("spgl.harness", "records_to_csv", "harness.records_to_csv", None),
    ("spgl.harness", "sample", "gaussian.sample", None),
    ("spgl.harness", "collect_rollouts", "learner.collect_rollouts", _on_rollouts),
    ("spgl.harness", "RolloutBatch", "stats.rollout_batch", None),
    ("spgl.harness", "improve", "learner.improve", None),
    ("spgl.harness", "update", "update.update", _on_update),
    ("spgl.harness", "numerical_update", "oracle.numerical_update", _on_exact),
    ("spgl.update", "compute_stats", "stats.compute_stats", None),
    ("spgl.harness", "run_oracle_suite", "verification.oracle_suite", None),
    ("spgl.harness", "run_fd_suite", "verification.fd_suite", None),
    ("spgl.harness", "run_timing_suite", "verification.timing_suite", None),
    ("spgl.verification", "solve_numeric", "oracle.solve_numeric", None),
    ("spgl.verification", "update", "update.update", _on_update),
    ("spgl.verification", "numerical_update", "oracle.numerical_update", _on_exact),
)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracers: list[Tracer], iterations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics summed over the traced units of one run.

    ``iterations`` is the number of recorded training iterations in those
    units; a layer the workload never reached reports 0.  Times are per call,
    except the verification suites, which are per unit.
    """
    count = Counter()
    for t in tracers:
        count.update(t.counts)

    def total(layer, field):
        return sum(getattr(t.layers[layer], field) for t in tracers if layer in t.layers)

    def per_call(layer, scale):
        return scale * _ratio(total(layer, "total_s"), total(layer, "calls"))

    def per_unit(layer):
        return _ratio(total(layer, "total_s"), len(tracers))

    rollouts_s = total("learner.collect_rollouts", "total_s")
    rollout_calls = total("learner.collect_rollouts", "calls")
    direct_s = sum(t.update_s["direct"] for t in tracers)
    backtracked_s = sum(t.update_s["backtracked"] for t in tracers)
    updates = count["update.calls"]
    backtracked = count["update.backtracked"]
    return {
        "learner.collect_rollouts_ms": (per_call("learner.collect_rollouts", 1e3), "ms"),
        "envs.steps": (_ratio(count["envs.steps"], rollout_calls), "count"),
        "envs.steps_per_s": (_ratio(count["envs.steps"], rollouts_s), "1/s"),
        "learner.improve_ms": (per_call("learner.improve", 1e3), "ms"),
        "gaussian.sample_ms": (per_call("gaussian.sample", 1e3), "ms"),
        "stats.rollout_batch_ms": (per_call("stats.rollout_batch", 1e3), "ms"),
        "stats.compute_stats_ms": (per_call("stats.compute_stats", 1e3), "ms"),
        "update.direct_ms": (1e3 * _ratio(direct_s, updates - backtracked), "ms"),
        "update.backtracked_ms": (1e3 * _ratio(backtracked_s, backtracked), "ms"),
        "update.backtrack_rate": (_ratio(backtracked, updates), "ratio"),
        "update.performance_share": (_ratio(count["update.kind.performance"], updates), "ratio"),
        "update.degenerate": (_ratio(count["update.degenerate"], len(tracers)), "count"),
        "harness.evaluate_run_ms": (per_call("harness.evaluate_run", 1e3), "ms"),
        "harness.records_to_csv_ms": (per_call("harness.records_to_csv", 1e3), "ms"),
        "harness.self_ms": (1e3 * _ratio(total("harness.run_training", "self_s"), iterations), "ms"),
        "verification.oracle_suite_s": (per_unit("verification.oracle_suite"), "s"),
        "verification.fd_suite_s": (per_unit("verification.fd_suite"), "s"),
        "verification.timing_suite_s": (per_unit("verification.timing_suite"), "s"),
        "oracle.numerical_update_s": (per_call("oracle.numerical_update", 1.0), "s"),
        "oracle.solve_numeric_ms": (per_call("oracle.solve_numeric", 1e3), "ms"),
        "oracle.unconverged_rate": (
            _ratio(count["exact.unconverged"], count["exact.calls"]),
            "ratio",
        ),
    }
