"""The three benchmark workloads.

Each workload turns the benchmark seed into configs and program seeds, and
builds a *unit*: one timed call sequence through spgl's stable entry points
(``load_config``, ``run_training``, ``run_multi_seed``, ``records_to_csv``,
``verify``).  A run repeats the unit on the same inputs, so every repeat must
produce the same outputs and work counts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from gauge import Gauge

import spgl.harness as harness
from spgl.config import load_config, preset_path
from spgl.update import CurriculumError

HERE = Path(__file__).resolve().parent

# pm_compare: the criterion-5 comparison, cut to its first iterations so that
# several repeats fit in one run; rollouts dominate from the first iteration.
PM_PRESET = "point_mass_setup1"
PM_MODES = ("default", "spgl")
PM_ITERATIONS = 30

# synth_selfpaced: the synthetic preset with a narrow value bump and a high
# threshold, so performance and convergence steps alternate and a third of
# the updates backtrack; ten program seeds per unit average over inputs.
SYNTH_CONFIG = HERE / "synth_selfpaced.ini"
SYNTH_SEEDS = 10

# exact_verify: `spgl verify --instances 100` on the benchmark seed, plus a
# closed-form-vs-exact timing race of one update, three times, on one fixed
# race instance.  The race does not follow the seed: the exact solver takes 3
# to 9 s per update depending on the instance, so a seed-drawn race of the few
# updates that fit in a run varied by 30 % across seeds, and a race over
# several fixed instances put the iteration percentiles between instances of
# different cost.  The instance is one of the cheapest (about 3 s), so that a
# run holds about nine race calls.  One race call is one iteration.
VERIFY_INSTANCES = 100
RACE_SEED = 8
RACE_REPEATS = 3

# Closed-form steps keep the joint KL within epsilon up to rounding.
KL_SLACK = 1e-12


@dataclass
class UnitResult:
    wall_s: float  # raw; run.py normalises, see gauge.py
    iteration_ms: list  # raw
    iterations: int
    outputs: dict  # name -> exact output (CSV text or a verification summary)
    checks: list = field(default_factory=list)  # (name, passed) of output checks
    errors: list = field(default_factory=list)  # program calls that raised


class IterationClock:
    """Progress callback timing the iterations of one public call.

    The time from one progress record to the next is charged to the later
    record's iteration index, summed over the training runs the call makes;
    a record whose index is lower than the one before starts a new run, and
    its gap (set-up and evaluation between runs) is not charged.  Runs that
    go one after another and runs stepped in lock-step are timed alike.
    """

    def __init__(self):
        self.ms = {}
        self.records = 0
        self._last = None

    def __call__(self, record):
        now = perf_counter()
        if self._last is not None and record.iteration >= self._last[0]:
            gap_ms = 1e3 * (now - self._last[1])
            self.ms[record.iteration] = self.ms.get(record.iteration, 0.0) + gap_ms
        self._last = (record.iteration, now)
        self.records += 1


class Timing:
    """Wall time and iteration times of one unit's calls, with a gauge
    reading after each call.

    Iteration ``i`` of a unit is iteration ``i`` of every training run in it,
    its time summed over the runs.  A single run's iterations fall into
    clusters of different cost (default against spgl runs, direct against
    backtracked updates), and a percentile between clusters moved with small
    shifts in their weights; summed over a unit's four or ten runs, the times
    form one cluster.
    """

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.wall_s = 0.0
        self.by_index = Counter()  # iteration index -> ms
        self.calls_ms = []  # ms of calls timed as one iteration
        self.records = 0

    @contextmanager
    def piece(self, clock: IterationClock | None = None, as_iteration: bool = False):
        """Time one public call; ``clock`` gives its iterations, or
        ``as_iteration`` counts the whole call as one."""
        start = perf_counter()
        yield
        elapsed = perf_counter() - start
        self.gauge.read(elapsed)
        self.wall_s += elapsed
        if clock is not None:
            self.by_index.update(clock.ms)
            self.records += clock.records
        if as_iteration:
            self.calls_ms.append(1e3 * elapsed)

    def result(self, outputs, checks=(), errors=()) -> UnitResult:
        return UnitResult(
            self.wall_s,
            list(self.by_index.values()) + self.calls_ms,
            self.records,
            outputs,
            list(checks),
            list(errors),
        )


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _check_records(records, curriculum, closed_form: bool) -> bool:
    """Finite records; closed-form updates inside the trust region and above
    the scale floor."""
    for r in records:
        scalars = (r.mean_return, r.success_rate, r.kl_to_target, r.kl_step)
        if not (_finite(scalars) and _finite(r.mu) and _finite(r.theta)):
            return False
        if closed_form and (
            r.kl_step > curriculum.epsilon + KL_SLACK or min(r.theta) < curriculum.theta_min
        ):
            return False
    return True


def record_counts(outputs: dict) -> dict:
    """Per-kind and per-KKT-case update counts, read back from the CSVs."""
    kinds, cases = Counter(), Counter()
    for text in outputs.values():
        if not text.startswith("iteration,"):
            continue
        header, *rows = text.splitlines()
        columns = header.split(",")
        kind_col, case_col = columns.index("step_kind"), columns.index("active_case")
        for row in rows:
            cells = row.split(",")
            kinds[cells[kind_col]] += 1
            cases[cells[case_col]] += 1
    return {"kinds": dict(sorted(kinds.items())), "cases": dict(sorted(cases.items()))}


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name].encode() + b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads


class PmCompare:
    name = "pm_compare"

    def __init__(self, seed: int):
        self.config_path = preset_path(PM_PRESET)
        self.seeds = [2 * seed, 2 * seed + 1]

    def load(self):
        config = load_config(self.config_path)
        self.config = dataclasses.replace(config, iterations=PM_ITERATIONS)

    def warm_up(self):
        harness.run_multi_seed(
            dataclasses.replace(self.config, iterations=2), self.seeds[:1], PM_MODES
        )

    def unit(self, gauge: Gauge) -> UnitResult:
        timing, clock = Timing(gauge), IterationClock()
        try:
            with timing.piece(clock):
                summaries, records = harness.run_multi_seed(
                    self.config, self.seeds, PM_MODES, progress=clock
                )
        except CurriculumError as exc:
            error = f"run_multi_seed: {exc}"
            return timing.result({"error": error}, errors=[error])
        with timing.piece():
            outputs = {
                f"{mode}/seed{seed}": harness.records_to_csv(recs, self.config.target.d)
                for (mode, seed), recs in records.items()
            }

        checks = [
            ("summary has both modes", sorted(s.curriculum for s in summaries) == sorted(PM_MODES)),
            (
                "summary is finite",
                all(
                    _finite(v for v in dataclasses.astuple(s)[1:] if v is not None)
                    for s in summaries
                ),
            ),
        ]
        for (mode, seed), recs in records.items():
            ok = len(recs) == PM_ITERATIONS and _check_records(
                recs, self.config.curriculum, closed_form=mode == "spgl"
            )
            checks.append((f"records {mode}/seed{seed}", ok))
        outputs["summary"] = repr([dataclasses.astuple(s) for s in summaries])
        return timing.result(outputs, checks)


class SynthSelfPaced:
    name = "synth_selfpaced"

    def __init__(self, seed: int):
        self.config_path = SYNTH_CONFIG
        self.seeds = [SYNTH_SEEDS * seed + j for j in range(SYNTH_SEEDS)]

    def load(self):
        self.config = load_config(self.config_path)

    def warm_up(self):
        harness.run_training(dataclasses.replace(self.config, iterations=5), self.seeds[0])

    def unit(self, gauge: Gauge) -> UnitResult:
        timing = Timing(gauge)
        outputs, results, errors = {}, [], []
        for seed in self.seeds:
            clock = IterationClock()
            try:
                with timing.piece(clock):
                    result = harness.run_training(self.config, seed, progress=clock)
                    outputs[f"seed{seed}"] = harness.records_to_csv(
                        result.records, self.config.target.d
                    )
            except CurriculumError as exc:
                outputs[f"seed{seed}"] = f"error: {exc}"
                errors.append(f"run_training seed{seed}: {exc}")
                continue
            results.append((seed, result))

        checks = [
            (
                f"records seed{seed}",
                len(result.records) == self.config.iterations
                and _check_records(result.records, self.config.curriculum, closed_form=True),
            )
            for seed, result in results
        ]
        return timing.result(outputs, checks, errors)


class ExactVerify:
    name = "exact_verify"

    def __init__(self, seed: int):
        self.config_path = None
        self.seed = seed

    def load(self):
        pass

    def warm_up(self):
        harness.verify(self.seed, instance_count=4, include_timing=False)

    def unit(self, gauge: Gauge) -> UnitResult:
        timing = Timing(gauge)
        with timing.piece():
            reports = {
                "suites": harness.verify(
                    self.seed, instance_count=VERIFY_INSTANCES, include_timing=False
                )
            }
        for repeat in range(RACE_REPEATS):
            with timing.piece(as_iteration=True):
                reports[f"race{repeat}"] = harness.verify(
                    RACE_SEED, instance_count=1, timing_updates=1
                )

        outputs, checks = {}, []
        for name, report in reports.items():
            # everything but the race timings is a pure function of the seed
            outputs[name] = repr(
                (
                    report.oracle_max_param_error,
                    report.oracle_max_multiplier_error,
                    report.oracle_max_kkt_residual,
                    sorted(report.oracle_case_counts.items()),
                    report.fd_max_error,
                )
            )
            checks.append((f"verify {name} passed {report.failures[:3]}", report.passed))
        return timing.result(outputs, checks)


WORKLOADS = {w.name: w for w in (PmCompare, SynthSelfPaced, ExactVerify)}
