"""Training harness: the lock-step loop of context sampling, rollouts,
policy improvement and curriculum updates over one or more runs, plus
batched evaluation, multi-seed aggregation and the randomized verification
entry point.

Determinism contract: a (config, seed) pair fixes every random draw, the
iteration order and the CSV float formatting, so repeated runs produce
byte-identical output files.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import CURRICULUM_MODES, ConfigError, ExperimentConfig
from .gaussian import ContextDistribution, kl_to_target, sample
from .learner import PolicyParameters, collect_rollouts, improve, init_policy
from .oracle import numerical_update
from .stats import RolloutBatch, unit_scale
from .update import CurriculumError, update
from .verification import VerifyReport, run_fd_suite, run_oracle_suite, run_timing_suite

__all__ = [
    "EvalResult",
    "IterationRecord",
    "ModeSummary",
    "TrainingResult",
    "evaluate_run",
    "records_to_csv",
    "run_multi_seed",
    "run_training",
    "summary_to_csv",
    "train_runs",
    "verify",
    "welch_p_value",
]

CSV_FLOAT_FORMAT = ".9g"


@dataclass(frozen=True)
class IterationRecord:
    """One row of the training curve, emitted per training iteration;
    ``mu`` and ``theta`` are the distribution's own read-only arrays."""

    iteration: int
    mean_return: float
    success_rate: float
    kl_to_target: float
    kl_step: float
    step_kind: str
    active_case: str
    mu: np.ndarray
    theta: np.ndarray


@dataclass(frozen=True)
class TrainingResult:
    records: tuple
    policy: object
    distribution: ContextDistribution
    degenerate_updates: int
    failed_updates: int


@dataclass(frozen=True)
class EvalResult:
    mean_return: float
    success_rate: float
    return_se: float
    success_se: float


def _fmt(value: float) -> str:
    return format(float(value), CSV_FLOAT_FORMAT)


def records_to_csv(records, d: int) -> str:
    """Render records with the fixed column order and 9-significant-digit
    floats; the byte-identical determinism contract hangs on this."""
    header = ["iteration", "mean_return", "success_rate", "kl_to_target", "kl_step", "step_kind", "active_case"]
    header += [f"mu_{j}" for j in range(d)] + [f"theta_{j}" for j in range(d)]
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for r in records:
        row = [
            str(r.iteration),
            _fmt(r.mean_return),
            _fmt(r.success_rate),
            _fmt(r.kl_to_target),
            _fmt(r.kl_step),
            r.step_kind,
            r.active_case,
        ]
        row += [_fmt(v) for v in r.mu] + [_fmt(v) for v in r.theta]
        out.write(",".join(row) + "\n")
    return out.getvalue()


@dataclass
class _Run:
    """Mutable state of one run inside the lock-step loop."""

    mode: str
    seed: int
    dist: ContextDistribution
    policy: PolicyParameters
    context_rng: np.random.Generator
    records: list = field(default_factory=list)
    degenerate: int = 0
    failed: int = 0


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seeds must be non-negative integers, got {seed!r}")


def train_runs(config: ExperimentConfig, runs, progress=None) -> list[TrainingResult]:
    """Train ``(curriculum_mode, seed)`` runs of one config in lock-step.

    Each iteration every run samples its own contexts from its own
    generator, one :func:`~spgl.learner.collect_rollouts` call steps the
    episodes of all runs together, and each run then improves its policy
    and updates its curriculum in turn.  A run's draws, rollouts and updates
    never read another run's state, so every run's results are bit-identical
    to the same run trained alone.

    ``curriculum_mode`` selects the run's curriculum: ``default`` always
    samples from the target and never updates, ``spgl`` applies the
    closed-form update, ``numerical`` the exact-solver baseline.

    An update that raises :class:`~spgl.update.CurriculumError` keeps the
    run's distribution, warns, and is recorded with step kind ``failed``, so
    one bad update never loses a run.  ``progress`` receives every record,
    run by run within an iteration.  Seeds must be non-negative integers and
    no ``(curriculum_mode, seed)`` run may be listed twice.
    """
    if not runs:
        raise ConfigError("training needs at least one run")
    seen = set()
    for mode, seed in runs:
        if mode not in CURRICULUM_MODES:
            raise ConfigError(f"unknown curriculum mode '{mode}'")
        _check_seed(seed)
        if (mode, seed) in seen:
            raise ConfigError(f"the {mode} run with seed {seed} is requested more than once")
        seen.add((mode, seed))
    env = config.make_environment()
    if env.context_dim != config.target.d:
        raise ConfigError("environment context dimension does not match the target spec")

    target = config.target
    states = [
        _Run(
            mode=mode,
            seed=seed,
            dist=(
                ContextDistribution.at_target(target)
                if mode == "default"
                else config.initial_distribution()
            ),
            policy=init_policy(env.observation_dim, env.action_dim),
            context_rng=np.random.default_rng(np.random.SeedSequence([seed, 0])),
        )
        for mode, seed in runs
    ]

    for i in range(1, config.iterations + 1):
        _lockstep_iteration(states, env, i, config, progress)

    return [
        TrainingResult(
            records=tuple(run.records),
            policy=run.policy,
            distribution=run.dist,
            degenerate_updates=run.degenerate,
            failed_updates=run.failed,
        )
        for run in states
    ]


def _lockstep_iteration(states, env, i: int, config: ExperimentConfig, progress) -> None:
    """Iteration ``i`` of every run.  The stacked histories of all runs die
    with this call, so they are never held while the next iteration
    collects its own."""
    contexts = np.stack(
        [sample(run.dist, run.context_rng, config.curriculum.k_contexts) for run in states]
    )
    all_episodes = collect_rollouts(
        [run.policy for run in states], env, contexts, [run.seed for run in states], i
    )
    for run, episodes in zip(states, all_episodes):
        batch = RolloutBatch(episodes.contexts, episodes.values, run.dist)
        run.policy = improve(run.policy, episodes)
        step_kind, active_case, kl_step, kl = _curriculum_step(run, batch, i, config)
        record = IterationRecord(
            iteration=i,
            mean_return=_mean(batch.values),
            success_rate=100.0 * np.count_nonzero(episodes.successes) / len(episodes.successes),
            kl_to_target=kl,
            kl_step=kl_step,
            step_kind=step_kind,
            active_case=active_case,
            mu=run.dist.mu,
            theta=run.dist.theta,
        )
        run.records.append(record)
        if progress is not None:
            progress(record)


def _curriculum_step(run: _Run, batch: RolloutBatch, i: int, config: ExperimentConfig):
    """Apply the run's curriculum update in place; returns the record's
    ``(step_kind, active_case, kl_step, kl_to_target)``, the KL after it."""
    if run.mode == "default":
        return "default", "-", 0.0, kl_to_target(run.dist)
    try:
        if run.mode == "spgl":
            run.dist, report = update(batch, config.curriculum)
        else:
            run.dist, report = numerical_update(batch, config.curriculum, seed=run.seed + i)
    except CurriculumError as exc:
        warnings.warn(
            f"curriculum update failed at iteration {i} of the {run.mode} run with seed "
            f"{run.seed}, distribution kept: {exc}",
            RuntimeWarning,
        )
        run.failed += 1
        return "failed", "-", 0.0, kl_to_target(run.dist)
    run.degenerate += int(report.degenerate)
    return report.kind, report.active_case, report.kl_step, report.kl_to_target_after


def run_training(
    config: ExperimentConfig,
    seed: int,
    curriculum_mode: str | None = None,
    progress=None,
) -> TrainingResult:
    """Run one training loop and return the per-update records: the one-run
    call of :func:`train_runs`, in the config's curriculum mode unless
    ``curriculum_mode`` overrides it."""
    mode = curriculum_mode or config.curriculum_mode
    return train_runs(config, [(mode, seed)], progress)[0]


def _mean(values) -> float:
    """Mean of finite values: the plain sum over the count, or, when that
    sum overflows, the same of the values times the
    :func:`~spgl.stats.unit_scale` of their peak, scaled back."""
    with np.errstate(over="ignore"):
        total = np.add.reduce(values)
    if math.isfinite(total):
        return float(total / len(values))
    scale = unit_scale(np.maximum.reduce(np.abs(values)))
    return float(np.add.reduce(values * scale) / len(values) / scale)


def _mean_se(values) -> tuple[float, float]:
    """Mean and standard error of the mean; the error is 0 for one value.
    When either overflows, both are those of the values times the
    :func:`~spgl.stats.unit_scale` of their peak, scaled back."""
    values = np.asarray(values)
    n = len(values)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if math.isfinite(mean) and math.isfinite(se):
        return mean, se
    scale = unit_scale(np.maximum.reduce(np.abs(values)))
    mean, se = _mean_se(values * scale)
    return mean / scale, se / scale


def _eval_result(episodes) -> EvalResult:
    mean_return, return_se = _mean_se(episodes.values)
    success_rate, success_se = _mean_se(100.0 * episodes.successes)
    return EvalResult(mean_return, success_rate, return_se, success_se)


def evaluate_run(config: ExperimentConfig, policies, seeds) -> list[EvalResult]:
    """Mean return and success rate (percent) of each policy, with standard
    errors, over the config's ``eval_episodes`` episodes with contexts drawn
    from the target distribution.

    Policy ``r`` draws its contexts from a generator keyed on
    ``[seeds[r], 10_000]``; the seeds must be non-negative integers.  All
    policies' episodes are stepped in one batch.  Evaluation executes the
    mean action, so no exploration noise is drawn and the rollout seeds are
    unused.
    """
    for seed in seeds:
        _check_seed(seed)
    n_episodes = config.eval_episodes
    target_dist = ContextDistribution.at_target(config.target)
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, 10_000])) for seed in seeds]
    contexts = np.stack([sample(target_dist, rng, n_episodes) for rng in rngs])
    all_episodes = collect_rollouts(
        policies, config.make_environment(), contexts, [0] * len(seeds), 0, deterministic=True
    )
    if n_episodes == 1:
        warnings.warn("single-episode evaluation; standard errors are zero", RuntimeWarning)
    return [_eval_result(episodes) for episodes in all_episodes]


@dataclass(frozen=True)
class ModeSummary:
    curriculum: str
    return_mean: float
    return_se: float
    return_p_value: float | None
    success_mean: float
    success_se: float
    final_kl_median: float


def run_multi_seed(
    config: ExperimentConfig, seeds, modes=("default", "spgl"), progress=None
) -> tuple[list[ModeSummary], dict]:
    """Train every curriculum mode on every seed, all runs in lock-step, and
    aggregate their final evaluations, made in one batch, with Welch's t-test
    p-values against the spgl row (descriptive, not gating)."""
    runs = [(mode, seed) for mode in modes for seed in seeds]
    results = train_runs(config, runs, progress)
    policies = [result.policy for result in results]
    evals = evaluate_run(config, policies, [seed for _, seed in runs])
    per_mode_returns = {mode: [] for mode in modes}
    per_mode_success = {mode: [] for mode in modes}
    per_mode_kl = {mode: [] for mode in modes}
    all_records = {}
    for (mode, seed), result, ev in zip(runs, results, evals):
        per_mode_returns[mode].append(ev.mean_return)
        per_mode_success[mode].append(ev.success_rate)
        per_mode_kl[mode].append(result.records[-1].kl_to_target)
        all_records[(mode, seed)] = result.records

    summaries = []
    spgl_returns = per_mode_returns.get("spgl")
    for mode in modes:
        returns = per_mode_returns[mode]
        p_value = None
        if mode != "spgl" and spgl_returns is not None and len(seeds) > 1:
            p_value = welch_p_value(returns, spgl_returns)
        return_mean, return_se = _mean_se(returns)
        success_mean, success_se = _mean_se(per_mode_success[mode])
        summaries.append(
            ModeSummary(
                curriculum=mode,
                return_mean=return_mean,
                return_se=return_se,
                return_p_value=p_value,
                success_mean=success_mean,
                success_se=success_se,
                final_kl_median=float(np.median(per_mode_kl[mode])),
            )
        )
    return summaries, all_records


def welch_p_value(a, b) -> float:
    """Two-sided p-value of Welch's unequal-variance t-test of ``a`` against
    ``b``, each with at least two values.

    The Student-t tail is the regularized incomplete beta
    ``I_x(df/2, 1/2)`` with ``x = df / (df + t^2)``.  Zero variance in both
    samples gives ``nan`` for equal means and ``0.0`` otherwise, and a
    ``nan`` input gives ``nan``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        raise ValueError("Welch's t-test needs at least two values per sample")
    vn1 = float(np.var(a, ddof=1)) / n1
    vn2 = float(np.var(b, ddof=1)) / n2
    diff = float(np.mean(a)) - float(np.mean(b))
    vn = vn1 + vn2
    if math.isnan(diff) or math.isnan(vn):
        return math.nan
    if vn == 0.0:
        return math.nan if diff == 0.0 else 0.0
    # Welch-Satterthwaite df with each variance term scaled by the sum, so
    # neither the squares nor their sum can overflow or underflow
    w1, w2 = vn1 / vn, vn2 / vn
    df = 1.0 / (w1 * w1 / (n1 - 1) + w2 * w2 / (n2 - 1))
    t = diff / math.sqrt(vn)
    t2 = t * t
    # x and 1 - x each in one division: 1 - x by subtraction loses the
    # p-value's relative precision near p = 1
    x = df / (df + t2)
    y = t2 / (df + t2)
    if x == 0.0:  # |t| infinite or beyond about 1e154
        return 0.0
    if y == 0.0:
        return 1.0
    return _regularized_beta(df / 2.0, 0.5, x, y)


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """``I_x(a, b)`` for ``0 < x < 1`` with ``y = 1 - x`` given separately."""
    front = math.exp(
        a * math.log(x) + b * math.log(y) - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta by Lentz's method; it
    converges fast for ``x < (a + 1) / (a + b + 2)``."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))  # denominator > 2 / (a + b + 2) there
    h = d
    for m in range(1, 1001):
        for coef in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            delta = c * d
            h *= delta
        if abs(delta - 1.0) < 3e-16:
            break
    return h


def summary_to_csv(summaries) -> str:
    out = io.StringIO()
    out.write("curriculum,return_mean,return_se,return_p_value,success_mean,success_se,final_kl_median\n")
    for s in summaries:
        p = "" if s.return_p_value is None else _fmt(s.return_p_value)
        out.write(
            f"{s.curriculum},{_fmt(s.return_mean)},{_fmt(s.return_se)},{p},"
            f"{_fmt(s.success_mean)},{_fmt(s.success_se)},{_fmt(s.final_kl_median)}\n"
        )
    return out.getvalue()


def verify(
    seed: int,
    instance_count: int = 100,
    include_timing: bool = True,
    timing_updates: int = 50,
) -> VerifyReport:
    """Run the randomized verification suites.

    Closed-form solutions are compared against the dual-bisection oracle and
    the gradient statistics against finite differences; with timing enabled
    the closed-form update is raced against the exact numerical solver.
    Invalid arguments raise :class:`~spgl.config.ConfigError` before any
    suite runs.
    """
    _check_seed(seed)
    if instance_count < 1:
        raise ConfigError(f"instance_count must be >= 1, got {instance_count}")
    if include_timing and timing_updates < 1:
        raise ConfigError(f"timing_updates must be >= 1, got {timing_updates}")
    report = run_oracle_suite(seed, instance_count)
    report.merge(run_fd_suite(seed + 1, instance_count))
    if include_timing:
        report.merge(run_timing_suite(seed + 2, updates=timing_updates))
    return report
