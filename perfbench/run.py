"""spgl benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload pm_compare --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the run repeats the workload's unit on
the seed's inputs for about ``--seconds`` and reports the end-to-end metrics
(medians over the repeats, normalised to host speed as gauge.py describes).  With ``--trace 1`` it alternates untraced and
traced repeats and reports the per-layer metrics, with the tracing overhead
and a byte-for-byte comparison of traced and untraced outputs.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  BENCHMARK.json at the repository root describes the
workloads, the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # fresh interpreters, each between two gauge readings

# Set-up as a user pays it: a fresh interpreter importing the entry points and
# loading the workload's config.  Prints "<import seconds> <load seconds>".
SETUP_PROBE = """
import sys
from time import perf_counter
start = perf_counter()
sys.path.insert(0, sys.argv[1])
import spgl.config, spgl.harness
imported = perf_counter()
if sys.argv[2]:
    spgl.config.load_config(sys.argv[2])
print(imported - start, perf_counter() - imported)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(config_path, gauge) -> list[tuple[float, float]]:
    """Raw (import seconds, config-load seconds) from fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config_path or "")],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        gauge.read(perf_counter() - start)
        import_s, load_s = (float(x) for x in done.stdout.split())
        samples.append((import_s, load_s))
    return samples


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the checkout, read without running git (a benchmark checkout
    is usually not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def blas_version(module) -> str:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def machine_record() -> dict:
    # imported here, after main() has fixed the BLAS thread counts
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def percentile(values, q):
    """Inclusive quantile, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Output checks and program calls.  A wrong output makes the run
    incorrect; a call that raised is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.errors = []

    def add(self, name, passed):
        self.attempted += 1
        if not passed:
            self.failures.append(name)

    def add_error(self, name):
        self.attempted += 1
        self.errors.append(name)


def compare_repeats(units, key, checks: Checks, label):
    """Every repeat must reproduce the first one exactly."""
    first = key(units[0])
    for i, unit in enumerate(units[1:], start=1):
        other = key(unit)
        for name in sorted(set(first) | set(other)):
            checks.add(f"{label} {name} repeat {i}", first.get(name) == other.get(name))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not (SRC / "spgl" / "__init__.py").is_file():
        print(f"error: no spgl sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

    sys.path.insert(0, str(SRC))
    import spgl.config  # noqa: F401
    import spgl.harness
    if Path(spgl.harness.__file__).resolve().parent != (SRC / "spgl").resolve():
        print(f"error: spgl imported from {spgl.harness.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layers
    from gauge import NOMINAL_S, Gauge
    from workloads import WORKLOADS, digest, record_counts

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.load()
    gauge = Gauge()
    setup = measure_setup(workload.config_path, gauge)
    machine = machine_record()

    workload.warm_up()
    untraced, traced, tracers = [], [], []
    started = perf_counter()
    while True:
        trace_next = args.trace == 1 and len(traced) < len(untraced)
        if trace_next:
            tracer = layers.Tracer()
            tracer.install()
            try:
                traced.append(workload.unit(gauge))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        else:
            untraced.append(workload.unit(gauge))
        units = untraced + traced
        enough = untraced and (args.trace == 0 or traced)
        typical = statistics.median(u.wall_s for u in units)
        if enough and perf_counter() - started + typical > args.seconds:
            break

    checks = Checks()
    for unit in units:
        for name, passed in unit.checks:
            checks.add(name, passed)
        for error in unit.errors:
            checks.add_error(error)
    compare_repeats(units, lambda u: u.outputs, checks, "output")
    if tracers:
        for i, tracer in enumerate(tracers):
            checks.add(f"layer checks of traced repeat {i}: {tracer.violations[:3]}", not tracer.violations)
        compare_repeats(tracers, lambda t: t.fingerprint(), checks, "work count")

    wall_s = statistics.median(u.wall_s for u in untraced)
    # like wall_s, an iteration percentile is the median over the repeats of
    # each repeat's own percentile, so one slow repeat cannot set it
    iter_p50, iter_p90 = (
        statistics.median(percentile(u.iteration_ms, q) for u in untraced if u.iteration_ms)
        for q in (50, 90)
    )
    setup_s = statistics.median(i + c for i, c in setup)

    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{len(untraced)} untraced and {len(traced)} traced repeats"
    )
    print(f"fingerprint outputs {digest(units[0].outputs)} {json.dumps(record_counts(units[0].outputs))}")
    if tracers:
        print(f"fingerprint work {json.dumps(tracers[0].fingerprint())}")
        absent = sorted(set().union(*(t.absent for t in tracers)))
        print(f"absent layers {json.dumps(absent)}")
    for failure in checks.failures:
        print(f"FAIL {failure}")
    for error in checks.errors:
        print(f"ERROR {error}")
    failed = len(checks.failures) + len(checks.errors)
    print(
        f"error_rate {failed / checks.attempted:.6g} ({len(checks.failures)} wrong outputs and "
        f"{len(checks.errors)} raised calls of {checks.attempted} checked)"
    )

    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "iter_ms_p50": (iter_p50, "ms"),
            "iter_ms_p90": (iter_p90, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        print(
            f"repeats {len(untraced)} of {len(untraced[0].iteration_ms)} iteration samples each; "
            f"setup samples {len(setup)}"
        )
    else:
        traced_wall = statistics.median(u.wall_s for u in traced)
        metrics = {
            "spgl.import_s": (statistics.median(i for i, _ in setup), "s"),
            "config.load_config_ms": (
                1e3 * statistics.median(c for _, c in setup) if workload.config_path else 0.0,
                "ms",
            ),
            **layers.layer_metrics(tracers, sum(u.iterations for u in traced)),
            "trace.overhead_pct": (100.0 * (traced_wall / wall_s - 1.0), "%"),
        }
    # every time is normalised by the run's gauge factor (see gauge.py)
    factor = gauge.factor()
    print(
        f"gauge median {1e3 * statistics.median(gauge.readings):.4g} ms over "
        f"{len(gauge.readings)} readings "
        f"(nominal {1e3 * NOMINAL_S:.4g} ms): times are scaled by {factor:.4g}; "
        f"raw wall_s {wall_s:.6g}"
    )
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        metrics[name] = (value, unit)
        print(f"metric {name} {value:.6g} {unit}")

    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
