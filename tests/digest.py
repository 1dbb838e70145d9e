"""Bit-identity digest of the rollout loop, the training loop, the exact
solver, the closed-form update at extreme inputs and the verification
suites' reports.

Prints one sha256 per part and one over all parts.  Two trees whose digests
agree produced the same float64 bits everywhere below, so a change that is
meant to leave behaviour alone is checked with one command on each tree:

    PYTHONPATH=src python tests/digest.py

Naming parts runs only those, and prints the total only when all of them
ran: ``PYTHONPATH=src python tests/digest.py rollouts`` checks the rollout
loop alone in about a second, and ``... digest.py training`` checks rollouts
and training in about ten seconds, without the exact solver.  Each group of
training runs also prints its own digest before its part's line, so a
change meant to move only the point-mass bits shows which groups moved.

Parts (NumPy and hashlib only; this is a script, not a pytest module):

* ``rollouts``: the :class:`~spgl.learner.Episodes` fields ``contexts``,
  ``values``, ``successes``, ``lengths``, ``features`` and ``actions`` of
  :func:`spgl.learner.collect_rollouts` on the point mass with hidden and
  with visible context, in noisy and deterministic mode, at ``R * K`` of 1,
  256 (4 x 64) and 640 (10 x 64) rows, with contexts that mix wide gates,
  narrow offset gates that crash and raw draws that need clamping; then the
  synthetic environment.  The ``means`` field of the same calls is hashed
  on its own sub-line, outside the part's digest, which therefore matches
  trees whose ``Episodes`` had no ``means``;
* ``training``: every record's floats, ``step_kind`` and ``active_case``,
  and each run's final policy weights, action noise and distribution, for
  the self-paced synthetic variant (seeds 0-39, 413, 1007), the
  ``synthetic_convergence`` preset (seeds 0-2) and both point-mass presets
  (seeds 0-3, 60 iterations), all under the closed-form update;
* ``exact``: the same items for the variant under the exact-solver baseline
  (seeds 0-1, 5 iterations), then ``mu``, ``theta``, ``objective``,
  ``sampled_value``, ``kl_step`` and ``converged`` of
  :func:`spgl.oracle.solve_exact_sampled` on 500 random instances: d in
  {1, 2, 3, 5, 16}, both modes, eps log-uniform on [1e-6, 1], and in
  convergence mode ``v_lower`` within 10 % of the batch mean on either side,
  so the sampled constraint binds;
* ``updates``: 20,000 seeded :func:`spgl.update.update` calls far outside
  the presets' ranges (those of ``tests/test_update.py``
  ``TestUpdateAtExtremeInputs``): d in {1, 2, 3, 8, 32, 64}, K in {2, 4,
  16, 64}, returns scaled by 10^U(-6, 6) with one batch in five all equal,
  theta per entry 10^U(-6, 5) (at least ``THETA_MIN``), sigma~ 10^U(-3, 2),
  epsilon 10^U(-6, 0) and ``v_lower`` within one return scale of the batch
  mean.  Each call hashes the new ``mu`` and ``theta`` and every
  :class:`~spgl.update.UpdateReport` field, or the class and message of
  what it raised.  It checks the closed-form update alone, in about ten
  seconds: ``PYTHONPATH=src python tests/digest.py updates``;
* ``verify``: every :class:`~spgl.verification.VerifyReport` field but the
  two timings (``closed_form_seconds``, ``exact_solver_seconds``) of
  :func:`spgl.harness.verify` without its timing race, at 100 instances on
  seeds 0-19, then at 6 instances on seeds 0-4 with the closed forms
  perturbed so that the failure lines are hashed too.  The perturbed runs
  patch ``performance_step``, ``MeanBlock`` and ``ScaleBlock`` in
  :mod:`spgl.verification` (see :func:`perturbed_closed_forms`), and each
  set of runs prints its own digest.  It checks the oracle and
  finite-difference suites alone, in a few seconds:
  ``PYTHONPATH=src python tests/digest.py verify``.

A change to the exact solver therefore moves ``exact`` alone.

Takes about 25 s on one core of a 2-core virtual machine.
"""

import dataclasses
import hashlib
import struct
import sys
import time
from unittest import mock

import numpy as np

import spgl.verification
from spgl.config import load_config, preset_path
from spgl.envs import PointMassEnv, SyntheticEnv
from spgl.gaussian import THETA_MIN, ContextDistribution, TargetSpec
from spgl.harness import train_runs, verify
from spgl.learner import PolicyParameters, collect_rollouts, feature_dim
from spgl.oracle import solve_exact_sampled
from spgl.stats import RolloutBatch
from spgl.update import CurriculumConfig, MultiplierSolution, update

EXACT_INSTANCES = 500
EXACT_DIMS = (1, 2, 3, 5, 16)
ROLLOUT_SHAPES = ((1, 1), (4, 64), (10, 64))  # (R, K)
UPDATE_INSTANCES = 20_000
UPDATE_DIMS = (1, 2, 3, 8, 32, 64)
UPDATE_BATCHES = (2, 4, 16, 64)
VERIFY_RUNS = [(seed, 100) for seed in range(20)]
PERTURBED_RUNS = [(seed, 6) for seed in range(5)]
PERTURBATION = 1e-3
VERIFY_TIMINGS = ("closed_form_seconds", "exact_solver_seconds")


def _floats(h, *values):
    for v in values:
        h.update(np.asarray(v, dtype=np.float64).tobytes())


def _text(h, s):
    h.update(s.encode() + b"\0")


def selfpaced_variant():
    """``synthetic_convergence`` with a narrow value bump and a high
    threshold, so performance and convergence steps alternate with binding
    KKT cases and joint-KL backtracks.  ``tests/test_golden.py`` pins it,
    and the benchmark's ``synth_selfpaced`` workload trains it."""
    config = load_config(preset_path("synthetic_convergence"))
    return dataclasses.replace(
        config,
        width=1.0,
        curriculum=dataclasses.replace(config.curriculum, v_lower=5.0),
    )


def training_runs():
    pm = lambda name: dataclasses.replace(load_config(preset_path(name)), iterations=60)
    convergence = load_config(preset_path("synthetic_convergence"))
    return [
        ("selfpaced_variant", selfpaced_variant(), "spgl", list(range(40)) + [413, 1007]),
        ("synthetic_convergence", convergence, "spgl", [0, 1, 2]),
        ("point_mass_setup1", pm("point_mass_setup1"), "spgl", [0, 1, 2, 3]),
        ("point_mass_setup2", pm("point_mass_setup2"), "spgl", [0, 1, 2, 3]),
    ]


def numerical_runs():
    numerical = dataclasses.replace(selfpaced_variant(), curriculum_mode="numerical", iterations=5)
    return [("selfpaced_variant", numerical, "numerical", [0, 1])]


class _Tee:
    """Feeds every update to several hashes."""

    def __init__(self, *hashes):
        self.hashes = hashes

    def update(self, data):
        for h in self.hashes:
            h.update(data)


def _digest_runs(part_hash, runs):
    """Hash every run into ``part_hash``, and print each group's own digest."""
    n = 0
    for label, config, mode, seeds in runs:
        group = hashlib.sha256()
        h = _Tee(part_hash, group)
        for result in train_runs(config, [(mode, s) for s in seeds]):
            for r in result.records:
                _floats(h, r.iteration, r.mean_return, r.success_rate, r.kl_to_target, r.kl_step)
                _text(h, r.step_kind)
                _text(h, r.active_case)
                _floats(h, r.mu, r.theta)
                n += 1
            _floats(h, result.policy.weights, result.policy.log_action_noise)
            _floats(h, result.distribution.mu, result.distribution.theta)
        print(f"  {label} {mode:9s} {group.hexdigest()}")
    return n


def rollout_inputs(env, runs, k, seed):
    """Random policies, seeds and ``(R, K, d)`` contexts for one
    :func:`collect_rollouts` call.  On the point mass run 0 steers home (a
    PD law on the observations ``[x/4, y/4, vx/5, vy/5]``), so some of its
    episodes succeed; a third of the contexts are wide gates, a third narrow
    gates far off centre that the policies crash into, and a third raw
    draws with negative widths and frictions that the environment clamps."""
    rng = np.random.default_rng([seed, 99])
    shape = (env.action_dim, feature_dim(env.observation_dim))
    weights = [rng.normal(0.0, rng.uniform(0.05, 1.0), shape) for _ in range(runs)]
    log_noise = rng.uniform(-2.0, 0.5, (runs, env.action_dim))
    seeds = [int(s) for s in rng.integers(0, 2**40, runs)]
    if env.action_dim:
        weights[0][0, [1, 3]] += [-12.0, -15.0]
        weights[0][1, [0, 2, 4]] += [-9.0, -12.0, -15.0]
        wide = rng.uniform([-1.0, 2.0, 0.0], [1.0, 6.0, 0.5], (runs, k, 3))
        narrow = rng.uniform([2.5, 0.05, 0.0], [3.8, 0.3, 0.2], (runs, k, 3))
        narrow[..., 0] *= rng.choice([-1.0, 1.0], (runs, k))
        raw = rng.uniform([-4.0, -1.0, -1.0], [4.0, 3.0, 2.0], (runs, k, 3))
        contexts = np.choose(rng.integers(0, 3, (runs, k, 1)), [wide, narrow, raw])
    else:
        contexts = rng.normal(0.0, 2.0, (runs, k, env.context_dim))
    policies = [PolicyParameters(w, n) for w, n in zip(weights, log_noise)]
    return policies, contexts, seeds


def rollout_runs():
    cases = []
    for label, env in (
        ("point_mass_hidden", PointMassEnv()),
        ("point_mass_visible", PointMassEnv(context_visible=True)),
    ):
        for runs, k in ROLLOUT_SHAPES:
            for deterministic in (False, True):
                cases.append((label, env, runs, k, deterministic))
    synthetic = SyntheticEnv(difficulty_center=[0.5, -1.0, 2.0], width=1.5)
    cases += [("synthetic", synthetic, runs, k, False) for runs, k in ROLLOUT_SHAPES]
    return cases


def digest_rollouts(h):
    n, groups, means = 0, {}, hashlib.sha256()
    for i, (label, env, runs, k, deterministic) in enumerate(rollout_runs()):
        group = groups.setdefault(label, hashlib.sha256())
        policies, contexts, seeds = rollout_inputs(env, runs, k, i)
        episodes = collect_rollouts(policies, env, contexts, seeds, i + 1, deterministic)
        for e in episodes:
            _floats(_Tee(h, group), e.contexts, e.values, e.successes, e.lengths, e.features, e.actions)
            _floats(means, e.means)
            n += 1
    for label, group in groups.items():
        print(f"  {label} {group.hexdigest()}")
    print(f"  means {means.hexdigest()}")
    return n


def digest_training(h):
    return _digest_runs(h, training_runs())


def exact_instance(i):
    rng = np.random.default_rng([i, 77])
    d = EXACT_DIMS[i % len(EXACT_DIMS)]
    mode = "performance" if (i // len(EXACT_DIMS)) % 2 == 0 else "convergence"
    k = int(rng.choice([8, 16, 32]))
    target = TargetSpec(
        mu_tilde=rng.normal(0.0, 1.0, d), sigma_tilde_diag=np.exp(rng.uniform(-1.0, 1.0, d))
    )
    dist = ContextDistribution(
        mu=rng.normal(0.0, 1.0, d), theta=np.exp(rng.uniform(-0.7, 0.7, d)), target=target
    )
    contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(k, d))
    centre = rng.normal(dist.mu, 1.0)
    width = float(np.exp(rng.uniform(0.0, 3.0)))
    values = 10.0 * np.exp(-0.5 * np.sum((contexts - centre) ** 2, axis=1) / width**2)
    batch = RolloutBatch(contexts, values, dist)
    eps = float(10.0 ** rng.uniform(-6.0, 0.0))
    if mode == "performance":
        v_lower = 1e3
    else:
        v_lower = float(np.mean(values)) * float(rng.uniform(0.9, 1.1))
    config = CurriculumConfig(epsilon=eps, v_lower=v_lower, k_contexts=k)
    return batch, config, mode


def digest_exact(h):
    n = _digest_runs(h, numerical_runs())
    for i in range(EXACT_INSTANCES):
        batch, config, mode = exact_instance(i)
        r = solve_exact_sampled(batch, config, mode, seed=i)
        _floats(h, r.distribution.mu, r.distribution.theta)
        _floats(h, r.objective, r.sampled_value, r.kl_step)
        h.update(struct.pack("??", r.converged, not r.converged))
    return n + EXACT_INSTANCES


def update_instance(i):
    rng = np.random.default_rng([i, 88])
    d = int(rng.choice(UPDATE_DIMS))
    k = int(rng.choice(UPDATE_BATCHES))
    target = TargetSpec(
        mu_tilde=rng.normal(0.0, 2.0, d), sigma_tilde_diag=10.0 ** rng.uniform(-3.0, 2.0, d)
    )
    theta = np.maximum(10.0 ** rng.uniform(-6.0, 5.0, d), THETA_MIN)
    dist = ContextDistribution(mu=rng.normal(0.0, 2.0, d), theta=theta, target=target)
    contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(k, d))
    scale = 10.0 ** rng.uniform(-6.0, 6.0)
    values = np.full(k, scale * rng.normal()) if rng.random() < 0.2 else scale * rng.normal(size=k)
    v_lower = float(np.mean(values)) + rng.uniform(-1.0, 1.0) * scale
    config = CurriculumConfig(epsilon=10.0 ** rng.uniform(-6.0, 0.0), v_lower=v_lower, k_contexts=k)
    return RolloutBatch(contexts, values, dist), config


def digest_updates(h):
    raised = 0
    for i in range(UPDATE_INSTANCES):
        batch, config = update_instance(i)
        try:
            new_dist, report = update(batch, config)
        except Exception as exc:  # noqa: BLE001 -- what raises is part of the result
            _text(h, f"{type(exc).__name__}: {exc}")
            raised += 1
            continue
        _floats(h, new_dist.mu, new_dist.theta)
        for field in dataclasses.fields(report):
            value = getattr(report, field.name)
            if isinstance(value, MultiplierSolution):
                _floats(h, value.lambda_perf, value.lambda_ball)
                _text(h, value.active_case)
            elif isinstance(value, (float, np.floating)):
                _floats(h, value)
            else:
                _text(h, repr(value))
    print(f"  raised {raised}")
    return UPDATE_INSTANCES


def perturbation(rng):
    """``x`` moved by ``PERTURBATION * (1 + |x|)`` times standard normals
    drawn from ``rng``."""
    return lambda x: x + PERTURBATION * (1.0 + np.abs(x)) * rng.standard_normal(x.shape)


def perturbed_closed_forms(moved):
    """A patch of :mod:`spgl.verification`, as a context manager, under which
    every closed-form point its oracle suite compares (the mean and scales
    of ``performance_step``, the point of ``MeanBlock.solve`` and of
    ``ScaleBlock.solve``) comes out as ``moved(x)``."""
    real_step = spgl.verification.performance_step

    def performance_step(dist, stats, eps):
        mu, theta, *flags = real_step(dist, stats, eps)
        return (moved(mu), moved(theta), *flags)

    class MeanBlock(spgl.verification.MeanBlock):
        def solve(self, eps):
            mu, solution = super().solve(eps)
            return moved(mu), solution

    class ScaleBlock(spgl.verification.ScaleBlock):
        def solve(self, eps):
            theta, solution, backtracked = super().solve(eps)
            return moved(theta), solution, backtracked

    return mock.patch.multiple(
        spgl.verification,
        performance_step=performance_step,
        MeanBlock=MeanBlock,
        ScaleBlock=ScaleBlock,
    )


def _digest_report(h, report):
    for field in dataclasses.fields(report):
        if field.name in VERIFY_TIMINGS:
            continue
        value = getattr(report, field.name)
        if isinstance(value, float):
            _floats(h, value)
        else:
            _text(h, repr(value))


def digest_verify(h):
    failures = 0
    group = hashlib.sha256()
    for seed, instances in VERIFY_RUNS:
        report = verify(seed, instances, include_timing=False)
        _digest_report(_Tee(h, group), report)
        failures += len(report.failures)
    print(f"  unperturbed {group.hexdigest()}")
    group = hashlib.sha256()
    for seed, instances in PERTURBED_RUNS:
        with perturbed_closed_forms(perturbation(np.random.default_rng([seed, 66]))):
            report = verify(seed, instances, include_timing=False)
        _digest_report(_Tee(h, group), report)
        failures += len(report.failures)
    print(f"  perturbed   {group.hexdigest()}")
    print(f"  failure lines {failures}")
    return len(VERIFY_RUNS) + len(PERTURBED_RUNS)


PARTS = {
    "rollouts": digest_rollouts,
    "training": digest_training,
    "exact": digest_exact,
    "updates": digest_updates,
    "verify": digest_verify,
}


def main(sections=()):
    """Print the digest of each part named in ``sections`` (all parts when
    empty), and the total when every part ran."""
    unknown = sorted(set(sections) - set(PARTS))
    if unknown:
        sys.exit(f"unknown parts {', '.join(unknown)}; choose from {', '.join(PARTS)}")
    total = hashlib.sha256()
    for name, part in PARTS.items():
        if sections and name not in sections:
            continue
        h = hashlib.sha256()
        start = time.perf_counter()
        n = part(h)
        total.update(h.digest())
        print(f"{name:9s} {h.hexdigest()}  ({n} items, {time.perf_counter() - start:.1f} s)")
        sys.stdout.flush()
    if not sections or set(sections) == set(PARTS):
        print(f"{'total':9s} {total.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
