"""Numerical solver tests: the dual bisection's contract (a result within one
float of a sign change, None without one, exact zeros, and its f-call
budget), dual-bisection subproblem solutions with KKT certificates,
infeasibility detection, the exact solver's ray projection onto the KL ball,
the row independence of its scores and gradients, its closed-form gradient
against central differences, and the exact sampled solver's feasibility /
consistency / dominance properties, among them that a feasible closed-form
step does not beat it on the benchmark's race instance or on recorded
point-mass batches."""

import dataclasses
import math

import numpy as np
import pytest

import spgl.oracle
import spgl.verification
from closed_form_gap import PRESET, compare_update, record_updates
from digest import exact_instance
from spgl.config import load_config, preset_path
from spgl.gaussian import (
    ContextDistribution,
    TargetSpec,
    kl_between,
    kl_params,
    kl_to_target_params,
    log_density_params,
    sampled_value,
)
from spgl.harness import verify
from spgl.oracle import (
    InfeasibleSubproblem,
    LinearizedSubproblem,
    _bisect,
    _objective_gradient,
    _row_dots,
    numerical_update,
    solve_exact_sampled,
    solve_numeric,
)
from spgl.stats import RolloutBatch
from spgl.update import PERF_ACTIVE, CurriculumConfig, project_to_ball, update
from spgl.verification import run_timing_suite


def assert_within_one_float_of_a_sign_change(f, lo, hi, root):
    """``root`` is a zero of f, or f changes sign between ``root`` and the
    next float below or above it (clipped to ``[lo, hi]``)."""
    f_root = f(root)
    if f_root == 0.0:
        return
    below = max(lo, math.nextafter(root, -math.inf))
    above = min(hi, math.nextafter(root, math.inf))
    assert f(below) * f_root < 0.0 or f(above) * f_root < 0.0, (root, lo, hi)


class TestBisect:
    def monotone_functions(self, rng):
        """Increasing and decreasing functions with roots near 1e-12, near 1
        and near 1e12, of the shapes the dual bisections solve, paired with
        their brackets."""
        for root in (1e-12, 1.0, 1e12):
            for _ in range(25):
                r = root * float(np.exp(rng.uniform(-0.5, 0.5)))
                r = min(max(r, 1.000001e-12), 0.999999e12)
                slope = float(np.exp(rng.uniform(-20.0, 20.0)))
                sign = float(rng.choice([-1.0, 1.0]))
                yield (lambda t, r=r, s=slope * sign: s * (t - r)), 0.0, 1e12
                yield (lambda t, r=r, s=slope: s * r / t - s), 1e-12, 1e12
                yield (lambda t, r=r, s=sign: s * math.log(t / r)), 1e-12, 1e12
                yield (lambda t, r=r: math.atan(t - r) + 1e-3 * (t - r)), 0.0, 1e12

    @staticmethod
    def halving_midpoints(lo, hi, count):
        """The first ``count`` midpoints of halvings of ``[lo, hi]`` that
        each keep the lower half."""
        mids = [hi]
        for _ in range(count):
            mids.append(0.5 * (lo + mids[-1]))
        return mids[1:]

    def edge_cases(self, rng):
        """Roots spread over the whole bracket, roots on exact halving
        midpoints, roots below the floats and a root just past the first
        doubling step."""
        # brackets from 1e-12: the midpoints are not powers of two
        for r in np.exp(rng.uniform(math.log(1e-12), math.log(1e12), 40)):
            yield (lambda t, r=r: t - r), 1e-12, 1e12
            yield (lambda t, r=r: r / t - 1.0), 1e-12, 1e12
        # roots exactly on a midpoint, for f rising and falling
        for lo in (0.0, 1e-12):
            for m in self.halving_midpoints(lo, 1e12, 80)[::3]:
                yield (lambda t, m=m: t - m), lo, 1e12
                yield (lambda t, m=m: m - t), lo, 1e12
                yield (lambda t, m=m: math.atan(t - m)), lo, 1e12
        # roots below the floats: between 1e-12 and the next float up, and
        # below the smallest subnormal, so the bracket collapses onto lo
        yield (lambda t: (t - 1e-12) - 1e-40), 1e-12, 1e12
        yield (lambda t: t * 2.0**1000 * 2.0**100 - 1.0), 0.0, 1e12
        # a root between the first two doubling steps, f rising and falling
        yield (lambda t: t - 1.2345), 0.0, 1e12
        yield (lambda t: 1.2345 / t - 1.0), 1e-12, 1e12

    def test_result_is_within_one_float_of_a_sign_change(self):
        rng = np.random.default_rng(0)
        cases = 0
        for f, lo, hi in self.monotone_functions(rng):
            root = _bisect(f, lo, hi)
            assert root is not None
            assert_within_one_float_of_a_sign_change(f, lo, hi, root)
            cases += 1
        assert cases == 300

    def test_edge_case_results_are_within_one_float_of_a_sign_change(self):
        rng = np.random.default_rng(1)
        cases = 0
        for f, lo, hi in self.edge_cases(rng):
            root = _bisect(f, lo, hi)
            assert root is not None
            assert_within_one_float_of_a_sign_change(f, lo, hi, root)
            cases += 1
        assert cases == 80 + 2 * 27 * 3 + 2 + 2

    def test_exact_root_and_no_sign_change(self):
        # a midpoint of the halvings and a point of the doubling are roots;
        # f keeps one sign on the bracket
        assert _bisect(lambda t: t - 0.5e12, 0.0, 1e12) == 0.5e12
        assert _bisect(lambda t: 8.0 - t, 1e-12, 1e12) == 8.0
        for f in (lambda t: t + 1.0, lambda t: -1.0 - t, lambda t: 1.0 / t):
            assert _bisect(f, 1e-12, 1e12) is None

    def test_run_search_calls_f_fewer_times(self):
        # a root near 1 on [0, 1e12]: halving the whole bracket would call
        # f 93-94 times, doubling from 1 brackets it in [1, 2] or [0.5, 1]
        for r in (0.8, 1.0, 1.2345, 1.9):
            calls = []

            def f(t, r=r):
                calls.append(t)
                return t - r

            root = _bisect(f, 0.0, 1e12)
            assert len(calls) <= 70, len(calls)
            assert_within_one_float_of_a_sign_change(f, 0.0, 1e12, root)

    def test_stops_once_the_bracket_is_two_adjacent_floats(self):
        calls = []

        def f(t):
            calls.append(t)
            return t * t - 2.0  # no float is a root

        root = _bisect(f, 1e-12, 1e12)
        assert abs(root - math.sqrt(2.0)) <= 4e-16
        # f(lo), f(hi), the doublings t = 1, 2 and 52 halvings of [1, 2]
        assert len(calls) <= 4 + 52, len(calls)

    def test_verify_call_budget(self, monkeypatch):
        # every f call of the bisections behind one verify run: 6,026 with
        # the doubled bracket, 9,042 when each one halves all of [0, 1e12]
        calls = 0
        bisect = spgl.oracle._bisect

        def counted(f, lo, hi):
            def g(t):
                nonlocal calls
                calls += 1
                return f(t)

            return bisect(g, lo, hi)

        monkeypatch.setattr(spgl.oracle, "_bisect", counted)
        assert verify(0, 20, include_timing=False).passed
        assert calls <= 6026, calls


class TestSolveNumeric:
    def test_linear_objective_on_ball(self):
        # maximizer sits on the boundary along the metric-scaled gradient
        center = np.array([1.0, -2.0])
        gradient = np.array([0.6, -0.3])
        metric = np.array([2.0, 0.5])
        radius_sq = 0.08
        sol = solve_numeric(
            LinearizedSubproblem(
                center=center,
                objective_gradient=gradient,
                metric_diag=metric,
                radius_sq=radius_sq,
            )
        )
        direction = gradient / metric
        expected = center + math.sqrt(radius_sq) * direction / math.sqrt(
            float(np.sum(direction**2 * metric))
        )
        assert np.allclose(sol.x, expected, rtol=1e-10)
        assert max(sol.residuals.values()) <= 1e-10

    def test_zero_gradient_returns_center(self):
        center = np.array([0.3])
        sol = solve_numeric(
            LinearizedSubproblem(
                center=center,
                objective_gradient=np.zeros(1),
                metric_diag=np.ones(1),
                radius_sq=0.1,
            )
        )
        assert np.array_equal(sol.x, center)

    def test_zero_gradient_with_an_infeasible_center_steps_onto_the_bound(self):
        # any feasible point is optimal, but the center violates the
        # performance bound, so the solver steps along M^-1 a onto it
        center = np.array([1.0, -1.0])
        metric = np.array([2.0, 0.5])
        a, b0 = np.array([1.0, 2.0]), -0.5
        sol = solve_numeric(
            LinearizedSubproblem(
                center=center,
                objective_gradient=np.zeros(2),
                metric_diag=metric,
                radius_sq=1.0,
                performance=(a, b0),
            )
        )
        assert sol.active_case == PERF_ACTIVE
        assert max(sol.residuals.values()) <= 1e-10
        delta = sol.x - center
        assert float(np.sum(delta**2 * metric)) <= 1.0
        assert b0 + float(np.dot(a, delta)) >= 0.0
        norm_a_sq = float(np.sum(a**2 / metric))
        assert np.allclose(delta, (-b0 / norm_a_sq) * a / metric, rtol=1e-12)

    def test_quadratic_interior_optimum(self):
        sol = solve_numeric(
            LinearizedSubproblem(
                center=np.zeros(2),
                objective_gradient=np.zeros(2),
                metric_diag=np.array([1.0, 4.0]),
                radius_sq=10.0,
                quadratic_target=np.array([0.5, -0.25]),
            )
        )
        assert np.allclose(sol.x, [0.5, -0.25], atol=1e-12)
        assert sol.lambda_ball == 0.0

    def test_infeasible_half_space(self):
        with pytest.raises(InfeasibleSubproblem):
            solve_numeric(
                LinearizedSubproblem(
                    center=np.zeros(1),
                    objective_gradient=np.ones(1),
                    metric_diag=np.ones(1),
                    radius_sq=0.01,
                    performance=(np.ones(1), -10.0),
                )
            )

    def test_certificates_on_random_problems(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            d = int(rng.integers(1, 5))
            metric = rng.uniform(0.2, 5.0, d)
            radius_sq = float(rng.uniform(0.01, 0.5))
            kwargs = dict(
                center=rng.normal(size=d),
                objective_gradient=rng.normal(size=d),
                metric_diag=metric,
                radius_sq=radius_sq,
            )
            if rng.uniform() < 0.5:
                kwargs["quadratic_target"] = kwargs["center"] + rng.normal(size=d)
            if rng.uniform() < 0.7:
                a = rng.normal(size=d)
                reach = math.sqrt(radius_sq * float(np.sum(a**2 / metric)))
                offset = float(rng.normal(0.0, reach))
                if offset < -0.95 * reach:
                    offset = -0.5 * reach
                kwargs["performance"] = (a, offset)
            sol = solve_numeric(LinearizedSubproblem(**kwargs))
            assert max(sol.residuals.values()) <= 1e-10


def ray_kl(rng, d, theta_min=1e-6):
    """Step KL around a random centre in the exact solver's (mu, log theta)
    coordinates, with its clip of log theta to [log theta_min, 50]; like the
    solver's, it takes one point or rows of points."""
    sigma = rng.uniform(0.05, 2.0, d)
    mu0 = rng.normal(size=d)
    theta0 = np.exp(rng.uniform(-3.0, 3.0, d))
    log_theta_min = math.log(theta_min)

    def kl(z):
        theta = np.exp(np.clip(z[..., d:], log_theta_min, 50.0))
        return kl_params(z[..., :d], theta, mu0, theta0, sigma)

    return kl, np.concatenate([mu0, np.log(theta0)])


def counting(kl):
    """``kl`` wrapped to record the rows of each call in the returned list,
    one entry per call."""
    calls = []

    def counted(z):
        calls.append(len(z))
        return kl(z)

    return counted, calls


class TestProjectToBall:
    # KL evaluations per ray, the first one (is the row inside?) included
    MAX_KL_EVALS = 15

    def rays(self, rng, d):
        """Random rays; mean-only and scale-only rays; rays whose log-scales
        run past both clip bounds (the KL is flat beyond them)."""
        for _ in range(4):
            yield rng.normal(size=2 * d) * 10.0 ** rng.uniform(-2.0, 2.5)
        mean_only = rng.normal(size=2 * d) * 10.0 ** rng.uniform(-2.0, 2.5)
        mean_only[d:] = 0.0
        yield mean_only
        scale_only = rng.normal(size=2 * d) * 10.0 ** rng.uniform(-2.0, 2.5)
        scale_only[:d] = 0.0
        yield scale_only
        for _ in range(2):
            crossing = rng.normal(size=2 * d)
            crossing[d:] = rng.choice([-80.0, 80.0], size=d)
            yield crossing

    def test_random_rays_land_on_the_boundary(self):
        rng = np.random.default_rng(0)
        left = 0
        for _ in range(150):
            d = int(rng.choice([1, 2, 3, 5]))
            eps = 10.0 ** rng.uniform(-6.0, 0.0)
            kl, z0 = ray_kl(rng, d)
            for step in self.rays(rng, d):
                counted, evals = counting(kl)
                z = (z0 + step)[None]
                projected = project_to_ball(counted, z0, z, eps)
                # one row: one KL evaluation per call
                assert set(evals) == {1}
                assert len(evals) <= self.MAX_KL_EVALS
                if kl(z[0]) <= eps:
                    assert projected.tobytes() == z.tobytes()
                    continue
                left += 1
                k = kl(projected[0])
                assert k <= eps * (1.0 - 1e-12)
                assert eps - k <= 1e-9 * eps
        assert left > 1000

    def test_point_inside_is_returned_unchanged(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3, 5):
            kl, z0 = ray_kl(rng, d)
            for eps in (1e-6, 1e-3, 1.0):
                z = z0 + 1e-3 * math.sqrt(eps) * rng.normal(size=(3, 2 * d))
                assert np.all(kl(z) <= eps)
                counted, evals = counting(kl)
                projected = project_to_ball(counted, z0, z, eps)
                assert projected.tobytes() == z.tobytes()
                assert evals == [3]

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
    def test_each_row_has_the_bits_of_the_one_row_call(self, d):
        # a stack of rays, inside and outside the ball, past both clip
        # bounds among them, projected in one call: each row matches its
        # one-row call bit for bit, the call takes one KL evaluation per
        # round of its slowest ray, and each ray is evaluated as often as
        # alone, within the per-ray bound
        rng = np.random.default_rng(200 + d)
        for _ in range(20):
            eps = 10.0 ** rng.uniform(-6.0, 0.0)
            kl, z0 = ray_kl(rng, d)
            steps = list(self.rays(rng, d))
            steps.append(1e-4 * math.sqrt(eps) * rng.normal(size=2 * d))
            z = z0 + np.array(steps)[rng.permutation(len(steps))]
            counted, evals = counting(kl)
            projected = project_to_ball(counted, z0, z, eps)
            per_ray = []
            for row, batched_row in zip(z, projected):
                counted_row, evals_row = counting(kl)
                alone = project_to_ball(counted_row, z0, row[None], eps)
                assert alone[0].tobytes() == batched_row.tobytes()
                assert len(evals_row) <= self.MAX_KL_EVALS
                per_ray.append(len(evals_row))
            assert len(evals) == max(per_ray)
            assert sum(evals) == sum(per_ray)
            assert evals == [sum(n > i for n in per_ray) for i in range(len(evals))]


class TestStackedRowsScore:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 16, 64])
    def test_each_row_has_the_bits_of_the_one_row_call(self, d):
        # the exact solver scores all projected trial rows of a search in
        # one KL-to-target call, the objectives of all its starts in one
        # call, and the sampled value in chunks whose height and offset
        # depend on where the taken row lies, so the KL to the target and
        # the sampled value of each row of a stack must not depend on the
        # other rows: each row matches its one-row call bit for bit, with
        # log-ratios on and past the clamp among them
        rng = np.random.default_rng(400 + d)
        log_theta_min = math.log(1e-6)
        for _ in range(12):
            k = int(rng.integers(1, 65))
            n = int(rng.integers(1, 97))
            mu_tilde = rng.normal(size=d)
            sigma = np.exp(rng.uniform(-1.0, 1.0, d))
            mu0 = rng.normal(size=d)
            var0 = np.exp(rng.uniform(-0.7, 0.7, d)) * sigma
            contexts = rng.normal(mu0, np.sqrt(var0), size=(k, d))
            values = 10.0 * rng.normal(size=k)
            log_p0 = log_density_params(contexts, mu0, var0)
            # rows z = (mu, log theta), sliced as the solver slices them
            offsets = rng.normal(size=(n, 2 * d)) * 10.0 ** rng.uniform(-3.0, 1.5, (n, 1))
            z = np.concatenate([mu0, np.log(var0 / sigma)]) + offsets

            def scores(rows):
                theta = np.exp(np.minimum(np.maximum(rows[:, d:], log_theta_min), 50.0))
                kl = kl_to_target_params(rows[:, :d], theta, mu_tilde, sigma)
                value = sampled_value(contexts, values, log_p0, rows[:, :d], theta * sigma)
                return kl, value

            stacked_kl, stacked_value = scores(z)
            assert stacked_kl.shape == stacked_value.shape == (n,)
            for i in range(n):
                kl, value = scores(z[i : i + 1])
                assert kl[0].tobytes() == stacked_kl[i].tobytes()
                assert value[0].tobytes() == stacked_value[i].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 16, 64])
    @pytest.mark.parametrize("mode", ["performance", "convergence"])
    def test_gradient_rows_have_the_bits_of_the_one_row_call(self, mode, d):
        # the exact solver computes the gradients of all its live starts in
        # one call, so a row's gradient must not depend on the other rows:
        # each row matches its one-row call bit for bit, with log-scales
        # below, on and above both clip bounds and log-ratios past the clamp
        # among them
        rng = np.random.default_rng(500 + d)
        log_theta_min = math.log(1e-6)
        for _ in range(8):
            k = int(rng.integers(1, 65))
            n = int(rng.integers(2, 17))
            sigma = np.exp(rng.uniform(-1.0, 1.0, d))
            target = TargetSpec(mu_tilde=rng.normal(size=d), sigma_tilde_diag=sigma)
            mu0 = rng.normal(size=d)
            var0 = np.exp(rng.uniform(-0.7, 0.7, d)) * sigma
            contexts = rng.normal(mu0, np.sqrt(var0), size=(k, d))
            values = 10.0 * rng.normal(size=k)
            log_p0 = log_density_params(contexts, mu0, var0)
            # a quarter of the samples far below and far above the clamp
            shift = rng.choice([-200.0, 0.0, 0.0, 200.0], size=k)
            log_p0 = log_p0 + shift
            offsets = rng.normal(size=(n, 2 * d)) * 10.0 ** rng.uniform(-3.0, 1.5, (n, 1))
            z = np.concatenate([mu0, np.log(var0 / sigma)]) + offsets
            clipped = rng.random((n, d)) < 0.3
            bounds = rng.choice([log_theta_min - 5.0, log_theta_min, 50.0, 55.0], size=(n, d))
            z[:, d:] = np.where(clipped, bounds, z[:, d:])

            def gradient(rows):
                return _objective_gradient(rows, mode, contexts, values, log_p0, target)

            stacked = gradient(z)
            assert stacked.shape == (n, 2 * d)
            for i in range(n):
                assert gradient(z[i : i + 1])[0].tobytes() == stacked[i].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 16, 64])
    def test_row_dots_have_the_bits_of_the_one_row_product(self, d):
        # the exact solver takes the boundary normal's products, the step
        # length and the probe norms of all rows in one call each; a row's
        # product must be the one-row `a @ b` (and its norm `np.linalg.norm`)
        # bit for bit, at magnitudes from 1e-6 to 1e6
        rng = np.random.default_rng(600 + d)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            a, b = rng.normal(size=(2, n, 2 * d)) * 10.0 ** rng.uniform(-6.0, 6.0, (2, n, 2 * d))
            dots = _row_dots(a, b)
            norms = np.sqrt(_row_dots(a, a))
            for i in range(n):
                assert (a[i] @ b[i]).tobytes() == dots[i].tobytes()
                assert np.linalg.norm(a[i]).tobytes() == norms[i].tobytes()


def exact_setting(seed=0, d=2, k=16, width=2.0):
    rng = np.random.default_rng(seed)
    target = TargetSpec(mu_tilde=np.full(d, 1.0), sigma_tilde_diag=np.full(d, 0.5))
    dist = ContextDistribution(mu=np.zeros(d), theta=np.full(d, 1.5), target=target)
    contexts = rng.normal(dist.mu, np.sqrt(dist.covariance_diag()), size=(k, d))
    values = 10.0 * np.exp(-0.5 * np.sum((contexts - 0.5) ** 2, axis=1) / width**2)
    return dist, target, RolloutBatch(contexts, values, dist)


# (mode, d, eps, width, v_lower as a fraction of the batch mean or None for
# the unreachable 100), then float.hex of mu, theta and (objective,
# sampled_value, kl_step) of the solver on closed-form gradients, and last
# the same of the same solver on central differences (``fd_grad``), kept as
# the tolerance reference; case i uses batch seed 30 + i and solver seed i.
# They also pin how far the solver's generator advances: case 3 takes escape
# probes past the first of a block of eight and escapes again afterwards, so
# a probe block that drew more or fewer directions than it tried would move
# the next block's directions, and with them these bits
EXACT_PINS = [
    (
        ("performance", 1, 0.05, 2.0, None),
        ["0x1.02049ef7c81f2p-2"],
        ["0x1.4097db499bbffp+0"],
        ("-0x1.538cfb49e9aa2p+3", "0x1.538cfb49e9aa2p+3", "0x1.99999999975aep-5"),
        (
            ["0x1.02049ef71cce9p-2"],
            ["0x1.4097db48c17ecp+0"],
            ("-0x1.538cfb49e9aa2p+3", "0x1.538cfb49e9aa2p+3", "0x1.99999999975b1p-5"),
        ),
    ),
    (
        ("convergence", 1, 0.2, 3.0, 1.0),
        ["0x1.183d5e9521c30p-1"],
        ["0x1.735c595d900ebp+0"],
        ("0x1.6019f2da9c640p-3", "0x1.57494cdc7cedap+3", "0x1.9999999998824p-3"),
        (
            ["0x1.183d5e95223a5p-1"],
            ["0x1.735c595d9f0c4p+0"],
            ("0x1.6019f2da9c640p-3", "0x1.57494cdc79da0p+3", "0x1.9999999998825p-3"),
        ),
    ),
    (
        ("performance", 3, 0.02, 2.0, None),
        ["0x1.984094a235012p-4", "0x1.9b2510d2327f6p-5", "-0x1.d5fef7c7bf569p-6"],
        ["0x1.c5120d5836becp+0", "0x1.570f3d427c597p+0", "0x1.69fad4c6dbfbbp+0"],
        ("-0x1.0643077b317ddp+3", "0x1.0643077b317ddp+3", "0x1.47ae147adf054p-6"),
        (
            ["0x1.984094a004311p-4", "0x1.9b2510d4d3027p-5", "-0x1.d5fef7c8ef42cp-6"],
            ["0x1.c5120d582106fp+0", "0x1.570f3d4214803p+0", "0x1.69fad4c6d9e0fp+0"],
            ("-0x1.0643077b317ddp+3", "0x1.0643077b317ddp+3", "0x1.47ae147adf05cp-6"),
        ),
    ),
    (
        ("convergence", 3, 0.05, 50.0, 1.0),
        ["0x1.6cfd1f11ec024p-3", "0x1.8d40cbd6d34d0p-4", "0x1.2faad6cc901b9p-3"],
        ["0x1.9bc732dd1deffp+0", "0x1.b4e0c69609c6cp+0", "0x1.a60cf86084f12p+0"],
        ("0x1.7feabf090dccap+0", "0x1.3fd7767d1e42ap+3", "0x1.9999999997131p-5"),
        (
            ["0x1.6cfd1f11fed65p-3", "0x1.8d40cbd651b09p-4", "0x1.2faad6cc68ee2p-3"],
            ["0x1.9bc732dd2bf10p+0", "0x1.b4e0c6960fbb6p+0", "0x1.a60cf860a2eecp+0"],
            ("0x1.7feabf0911a5dp+0", "0x1.3fd7767d1e7fap+3", "0x1.9999999997134p-5"),
        ),
    ),
    (
        ("performance", 5, 0.1, 3.0, None),
        [
            "-0x1.fbba592bdb063p-5",
            "0x1.536ecfd70176ep-5",
            "0x1.632c7153541f9p-8",
            "0x1.05bc6ccf3f3dbp-5",
            "-0x1.7c9eaeed44a53p-3",
        ],
        [
            "0x1.67dc27a87cc6bp+0",
            "0x1.fa64a5a09e042p-1",
            "0x1.2e32a2a22f751p+0",
            "0x1.2138d650ad5b3p+0",
            "0x1.5e680a6bed073p+0",
        ],
        ("-0x1.566363e3edaf6p+3", "0x1.566363e3edaf6p+3", "0x1.9999999996f62p-4"),
        (
            [
                "-0x1.fbba59282272bp-5",
                "0x1.536ecfd854a87p-5",
                "0x1.632c713592c9ep-8",
                "0x1.05bc6cce42fb3p-5",
                "-0x1.7c9eaeeac04d9p-3",
            ],
            [
                "0x1.67dc27a7b0c29p+0",
                "0x1.fa64a5a00aa25p-1",
                "0x1.2e32a2a178b11p+0",
                "0x1.2138d6510f9b8p+0",
                "0x1.5e680a6c00a3bp+0",
            ],
            ("-0x1.566363e3edafbp+3", "0x1.566363e3edafbp+3", "0x1.9999999996f66p-4"),
        ),
    ),
    (
        ("convergence", 5, 0.05, 5.0, 0.98),
        [
            "0x1.cd43a3f040c37p-4",
            "0x1.cd43a3f040c37p-4",
            "0x1.cd43a3f040c37p-4",
            "0x1.cd43a3f040c37p-4",
            "0x1.cd43a3f040c37p-4",
        ],
        [
            "0x1.9efd151650473p+0",
            "0x1.9efd151650473p+0",
            "0x1.9efd151650473p+0",
            "0x1.9efd151650473p+0",
            "0x1.9efd151650473p+0",
        ],
        ("0x1.56e0eab58d7b2p+1", "0x1.209b5c8ff2f8ep+3", "0x1.9999999996e7ep-5"),
        (
            [
                "0x1.cd43a3f046e43p-4",
                "0x1.cd43a3f046e43p-4",
                "0x1.cd43a3f046e43p-4",
                "0x1.cd43a3f046e43p-4",
                "0x1.cd43a3eee7c02p-4",
            ],
            [
                "0x1.9efd151643eaep+0",
                "0x1.9efd151643eaep+0",
                "0x1.9efd151643eaep+0",
                "0x1.9efd151643eaep+0",
                "0x1.9efd1516fa8e7p+0",
            ],
            ("0x1.56e0eab58d7b4p+1", "0x1.209b5c8fef0f2p+3", "0x1.9999999996e7ap-5"),
        ),
    ),
]


def pinned_solve(index):
    """The solver's result on pinned case ``index``."""
    (mode, d, eps, width, v_frac) = EXACT_PINS[index][0]
    dist, target, batch = exact_setting(seed=30 + index, d=d, width=width)
    v_lower = 100.0 if v_frac is None else v_frac * float(np.mean(batch.values))
    config = CurriculumConfig(epsilon=eps, v_lower=v_lower, k_contexts=16)
    return solve_exact_sampled(batch, config, mode, seed=index)


def fd_grad(f, z):
    """Central differences with steps ``1e-6 max(1, |z_j|)``: the exact
    solver's gradient before the closed form replaced it, kept as the
    reference for :func:`spgl.oracle._objective_gradient`."""
    g = np.zeros_like(z)
    for j in range(z.size):
        h = 1e-6 * max(1.0, abs(z[j]))
        zp = z.copy()
        zm = z.copy()
        zp[j] += h
        zm[j] -= h
        g[j] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def forward_difference(f, z, j):
    """Second-order one-sided difference along ``+z_j``, with the step of
    :func:`fd_grad`."""
    h = 1e-6 * max(1.0, abs(z[j]))
    step = np.zeros_like(z)
    step[j] = h
    return (-3.0 * f(z) + 4.0 * f(z + step) - f(z + 2.0 * step)) / (2.0 * h)


def rel_error(candidate, reference):
    return float(np.linalg.norm(candidate - reference)) / float(np.linalg.norm(reference))


def gradient_instance(rng, d, mode, log_theta_min=math.log(1e-6), clamped=False, drop=False):
    """The exact solver's objective on a random batch of 32, as ``f(z)`` on
    ``z = (mu, log theta)`` with the solver's clip of ``log theta``, its
    closed-form gradient and a point ``z`` near the batch's distribution.
    ``clamped`` shifts the old log-densities of samples 0-3 up and of 4-7
    down by 200, which puts their log importance ratios far below and far
    above the clamp; ``drop`` then zeroes their values."""
    sigma = np.exp(rng.uniform(-1.0, 1.0, d))
    target = TargetSpec(mu_tilde=rng.normal(size=d), sigma_tilde_diag=sigma)
    mu0 = rng.normal(size=d)
    var0 = np.exp(rng.uniform(-0.5, 0.5, d)) * sigma
    k = 32
    contexts = mu0 + rng.standard_normal((k, d)) * np.sqrt(var0)
    values = rng.uniform(0.5, 10.0, k)
    log_p0 = log_density_params(contexts, mu0, var0)
    if clamped:
        log_p0[:4] += 200.0
        log_p0[4:8] -= 200.0
        if drop:
            values[:8] = 0.0
    z = np.concatenate([mu0 + 0.1 * np.sqrt(var0) * rng.normal(size=d), np.log(var0 / sigma)])
    z[d:] += 0.1 * rng.normal(size=d)

    def f(z):
        theta = np.exp(np.clip(z[d:], log_theta_min, 50.0))
        if mode == "performance":
            return -sampled_value(contexts, values, log_p0, z[:d], theta * sigma)
        return kl_to_target_params(z[:d], theta, target.mu_tilde, sigma)

    def grad(z):
        rows = _objective_gradient(z[None], mode, contexts, values, log_p0, target)
        return rows[0]

    return f, grad, z


class TestObjectiveGradient:
    # ROADMAP item 3's gate for the closed-form gradient against central
    # differences
    RTOL = 1e-6

    @pytest.mark.parametrize("d", [1, 3, 16, 64])
    @pytest.mark.parametrize("mode", ["performance", "convergence"])
    def test_matches_central_differences(self, mode, d):
        rng = np.random.default_rng(d)
        for _ in range(4):
            f, grad, z = gradient_instance(rng, d, mode)
            assert rel_error(grad(z), fd_grad(f, z)) <= self.RTOL

    @pytest.mark.parametrize("d", [3, 16, 64])
    @pytest.mark.parametrize("mode", ["performance", "convergence"])
    def test_clipped_log_scales(self, mode, d, monkeypatch):
        # a third of the log-scales below the floor (flat: derivative 0), a
        # third on it (the one-sided derivative from above) and the rest
        # inside; central differences straddling the floor would see half
        # the slope there
        rng = np.random.default_rng(100 + d)
        log_theta_min = math.log(0.8)
        monkeypatch.setattr(spgl.oracle, "LOG_THETA_MIN", log_theta_min)
        f, grad, z = gradient_instance(rng, d, mode, log_theta_min)
        below = np.arange(d) % 3 == 0
        on_floor = np.arange(d) % 3 == 1
        z[d:][below] = log_theta_min - rng.uniform(0.01, 1.0, int(below.sum()))
        z[d:][on_floor] = log_theta_min
        z[d:][~below & ~on_floor] = np.maximum(z[d:][~below & ~on_floor], log_theta_min + 0.05)
        reference = fd_grad(f, z)
        for j in d + np.flatnonzero(on_floor):
            reference[j] = forward_difference(f, z, j)
            assert reference[j] != 0.0
        g = grad(z)
        assert np.all(g[d:][below] == 0.0)
        assert rel_error(g, reference) <= self.RTOL

    @pytest.mark.parametrize("d", [1, 3, 16, 64])
    def test_clamped_importance_ratios_contribute_nothing(self, d):
        # samples whose log-ratio lies beyond the clamp have a constant
        # weight: against central differences of the objective without them
        # (values zeroed), since 1e30-weighted ones would drown the rest
        instance = lambda drop: gradient_instance(
            np.random.default_rng(200 + d), d, "performance", clamped=True, drop=drop
        )
        f, grad, z = instance(False)
        f_rest, grad_rest, _ = instance(True)
        assert f(z) < -1e29
        assert np.array_equal(grad(z), grad_rest(z))
        assert rel_error(grad(z), fd_grad(f_rest, z)) <= self.RTOL

    def test_start_on_the_floor_raises_the_scales(self, monkeypatch):
        # one start, at theta0 = theta_min and mu0 = mu_tilde: only the
        # one-sided scale derivative on the floor can move it toward the
        # target's scales; a derivative of 0 there would return the start
        d = 2
        target = TargetSpec(mu_tilde=np.zeros(d), sigma_tilde_diag=np.ones(d))
        config = CurriculumConfig(epsilon=0.05, v_lower=-100.0, k_contexts=16)
        dist = ContextDistribution(
            mu=target.mu_tilde, theta=np.full(d, config.theta_min), target=target
        )
        contexts = np.random.default_rng(0).normal(size=(16, d)) * 1e-3
        batch = RolloutBatch(contexts, np.ones(16), dist)
        monkeypatch.setattr(spgl.oracle, "RESTARTS", 1)
        result = solve_exact_sampled(batch, config, "convergence", seed=0)
        assert result.feasible
        assert np.all(result.distribution.theta > 1.3 * config.theta_min)
        assert config.epsilon - 1e-9 <= result.kl_step <= config.epsilon + 1e-9


class TestSolveExactSampled:
    def test_feasible_and_dominates_closed_form(self):
        dist, target, batch = exact_setting()
        config = CurriculumConfig(epsilon=0.05, v_lower=100.0, k_contexts=16)
        result = solve_exact_sampled(batch, config, "performance", seed=1)
        assert result.kl_step <= config.epsilon + 1e-8

        closed_dist, _ = update(batch, config)
        log_p0 = log_density_params(batch.contexts, dist.mu, dist.covariance_diag())
        closed_value = float(
            sampled_value(
                batch.contexts, batch.values, log_p0, closed_dist.mu, closed_dist.covariance_diag()
            )
        )
        assert result.sampled_value >= closed_value - 1e-4

    def test_small_radius_matches_closed_form(self):
        dist, target, batch = exact_setting(seed=2)
        eps = 1e-6
        config = CurriculumConfig(epsilon=eps, v_lower=100.0, k_contexts=16)
        result = solve_exact_sampled(batch, config, "performance", seed=3)
        closed_dist, _ = update(batch, config)
        gap = np.concatenate(
            [
                result.distribution.mu - closed_dist.mu,
                result.distribution.theta - closed_dist.theta,
            ]
        )
        assert float(np.linalg.norm(gap)) <= 1e-3

    def test_symmetric_batch_keeps_mean(self):
        d = 2
        target = TargetSpec(mu_tilde=np.zeros(d), sigma_tilde_diag=np.ones(d))
        dist = ContextDistribution(mu=np.full(d, 0.3), theta=np.ones(d), target=target)
        contexts = np.tile(dist.mu, (8, 1))
        batch = RolloutBatch(contexts, [2.0] * 8, dist)
        config = CurriculumConfig(epsilon=0.01, v_lower=100.0, k_contexts=8)
        result = solve_exact_sampled(batch, config, "performance", seed=4)
        assert np.allclose(result.distribution.mu, dist.mu, atol=1e-5)

    def test_convergence_mode_respects_constraints(self):
        dist, target, batch = exact_setting(seed=5, width=50.0)
        config = CurriculumConfig(epsilon=0.05, v_lower=5.0, k_contexts=16)
        result = solve_exact_sampled(batch, config, "convergence", seed=6)
        assert result.feasible and result.converged
        assert result.kl_step <= config.epsilon + 1e-8
        assert result.sampled_value >= config.v_lower - 1e-6

    @pytest.mark.parametrize("v_frac, feasible", [(1.05, True), (1.1, False)])
    def test_infeasible_subproblem_is_flagged(self, v_frac, feasible):
        # v_lower above the batch mean, so the old parameters miss the
        # sampled constraint; at 5 % above a restart inside the ball meets
        # it, at 10 % none does and the old distribution comes back flagged
        dist, target, batch = exact_setting(seed=5, width=50.0)
        v_lower = v_frac * float(np.mean(batch.values))
        config = CurriculumConfig(epsilon=0.05, v_lower=v_lower, k_contexts=16)
        result = solve_exact_sampled(batch, config, "convergence", seed=6)
        assert result.feasible is feasible
        assert (result.sampled_value >= v_lower - 1e-6) is feasible
        if not feasible:
            assert result.objective == math.inf and not result.converged
            assert np.array_equal(result.distribution.mu, dist.mu)
            assert np.array_equal(result.distribution.theta, dist.theta)

    def test_linearization_error_bound(self):
        # small radii keep the exact and linearized solutions close
        for seed in range(3):
            dist, target, batch = exact_setting(seed=seed + 10)
            eps = 1e-3
            config = CurriculumConfig(epsilon=eps, v_lower=100.0, k_contexts=16)
            result = solve_exact_sampled(batch, config, "performance", seed=seed)
            closed_dist, _ = update(batch, config)
            gap = np.concatenate(
                [
                    result.distribution.mu - closed_dist.mu,
                    result.distribution.theta - closed_dist.theta,
                ]
            )
            assert float(np.linalg.norm(gap)) <= 10.0 * eps

    def test_seeded_determinism(self):
        dist, target, batch = exact_setting(seed=7)
        config = CurriculumConfig(epsilon=0.02, v_lower=100.0, k_contexts=16)
        a = solve_exact_sampled(batch, config, "performance", seed=8)
        b = solve_exact_sampled(batch, config, "performance", seed=8)
        assert np.array_equal(a.distribution.mu, b.distribution.mu)
        assert np.array_equal(a.distribution.theta, b.distribution.theta)


    @pytest.mark.parametrize(
        "mode, eps, width",
        [("performance", 0.05, 2.0), ("performance", 1e-6, 2.0), ("convergence", 0.05, 50.0)],
    )
    def test_every_trial_point_is_inside_the_ball(self, monkeypatch, mode, eps, width):
        # trial points come only from the ray projection, and the solver
        # trusts it for the step KL: every projected row, the accepted ones
        # among them, must satisfy the solver's own step-KL test
        real_project = spgl.oracle.project_to_ball
        kls = []

        def checked_project(kl, z0, z, eps):
            points = real_project(kl, z0, z, eps)
            kls.extend(kl(points).tolist())
            return points

        monkeypatch.setattr(spgl.oracle, "project_to_ball", checked_project)
        dist, target, batch = exact_setting(seed=9, width=width)
        v_lower = 5.0 if mode == "convergence" else 100.0
        config = CurriculumConfig(epsilon=eps, v_lower=v_lower, k_contexts=16)
        result = solve_exact_sampled(batch, config, mode, seed=10)
        assert len(kls) > 100
        assert max(kls) <= eps + 1e-9
        assert result.kl_step <= eps + 1e-9

    def test_objective_is_tested_before_the_sampled_constraint(self, monkeypatch):
        # the objective decides most trial points on their own: the costly
        # sampled performance value is evaluated only for trial points that
        # lower it, far fewer than the projected trial rows
        counts = {"project": 0, "sampled": 0}
        real_project = spgl.oracle.project_to_ball
        real_sampled = spgl.oracle.sampled_value

        def counted_project(kl, z0, z, eps):
            counts["project"] += len(z)
            return real_project(kl, z0, z, eps)

        def counted_sampled(*args):
            counts["sampled"] += 1
            return real_sampled(*args)

        monkeypatch.setattr(spgl.oracle, "project_to_ball", counted_project)
        monkeypatch.setattr(spgl.oracle, "sampled_value", counted_sampled)
        dist, target, batch = exact_setting(seed=9, width=50.0)
        config = CurriculumConfig(epsilon=0.05, v_lower=5.0, k_contexts=16)
        solve_exact_sampled(batch, config, "convergence", seed=10)
        assert counts["project"] > 100
        assert counts["sampled"] < counts["project"] / 2

    def test_no_crawl_inside_the_projection_band(self, monkeypatch):
        # a step that lowers the objective by less than 1e-12 relative only
        # moves the point inside project_to_ball's rounding band; taking such
        # steps made the race instance of the benchmark (timing seed 10) cost
        # 142 gradient iterations, against 99 when they are refused.  An
        # iteration is one start's row of a gradient call
        counts = {"gradient": 0}
        real_gradient = spgl.oracle._objective_gradient

        def counted_gradient(z, *args):
            counts["gradient"] += len(z)
            return real_gradient(z, *args)

        monkeypatch.setattr(spgl.oracle, "_objective_gradient", counted_gradient)
        run_timing_suite(10, updates=1)
        assert 0 < counts["gradient"] <= 110

    def test_race_instance_is_not_beaten_by_the_closed_form(self, monkeypatch):
        # the benchmark's race instance (timing seed 10: convergence, d = 3,
        # eps = 0.05): the closed-form step meets both exact constraints, so
        # the exact solve must get at least as close to the target.  On the
        # raw gradient the solver stalled on the KL boundary at 28.21 against
        # the closed form's 26.93
        reports = {}
        for name in ("update", "numerical_update"):
            real = getattr(spgl.verification, name)

            def recorded(batch, config, *args, real=real, name=name, **kwargs):
                new_dist, report = real(batch, config, *args, **kwargs)
                reports[name] = (batch, config, new_dist, report)
                return new_dist, report

            monkeypatch.setattr(spgl.verification, name, recorded)
        run_timing_suite(10, updates=1)
        batch, config, closed, closed_report = reports["update"]
        exact_report = reports["numerical_update"][3]
        dist = batch.source_distribution
        log_p0 = log_density_params(batch.contexts, dist.mu, dist.covariance_diag())
        closed_value = sampled_value(
            batch.contexts, batch.values, log_p0, closed.mu, closed.covariance_diag()
        )
        assert exact_report.kind == closed_report.kind == "convergence"
        assert closed_report.kl_step <= config.epsilon and closed_value >= config.v_lower
        assert exact_report.kl_to_target_after <= closed_report.kl_to_target_after

    def test_race_instance_ends_each_start_with_one_escape_block(self, monkeypatch):
        # a failed gradient search is followed by a block of 8 x 12 probe
        # rows; on the race instance only the block that ends a start finds
        # nothing, so the solve projects at most one block per start.  On
        # the raw gradient the ray projection undid the gradient step on the
        # boundary and the solve ran 34 blocks for its 8 starts.  The
        # gradient searches of all live starts share their projections (4 or
        # 36 rows per start, never 96 with 8 starts), so the solve makes 32
        # projection calls, where one call per start and search made 126
        counts = {"blocks": 0, "calls": 0}
        real_project = spgl.oracle.project_to_ball

        def counted_project(kl, z0, z, eps):
            counts["blocks"] += len(z) == 96
            counts["calls"] += 1
            return real_project(kl, z0, z, eps)

        monkeypatch.setattr(spgl.oracle, "project_to_ball", counted_project)
        run_timing_suite(10, updates=1)
        assert 0 < counts["blocks"] <= spgl.oracle.RESTARTS
        assert counts["calls"] <= 32

    def test_race_instance_scores_a_search_once_and_tests_the_rows_below_the_bar(
        self, monkeypatch
    ):
        # convergence mode: the objective, the KL to the target, costs O(d) a
        # row and scores all projected rows of a search in one call; the
        # sampled constraint, O(K d) a row, is evaluated only on rows that
        # lower their start's objective below its bar.  A row's start is the
        # one at the base of its block (4, 36 or 96 rows in halving order,
        # so twice the last row less the one before)
        searches, starts = [], []
        real_project = spgl.oracle.project_to_ball
        real_kl = spgl.oracle.kl_to_target_params
        real_sampled = spgl.oracle.sampled_value

        class RecordedStart(spgl.oracle._Start):
            def __init__(self, *args):
                super().__init__(*args)
                starts.append(self)

        def project(kl, z0, z, eps):
            trials = real_project(kl, z0, z, eps)
            bars = [
                (s.z.copy(), s.fz - max(1e-15, spgl.oracle.MIN_RELATIVE_DECREASE * abs(s.fz)))
                for s in starts
            ]
            searches.append({"points": z, "trials": trials, "bars": bars, "kl": [], "rows": []})
            return trials

        def kl_to_target(mu, *args):
            out = real_kl(mu, *args)
            if searches:
                searches[-1]["kl"].append((mu.copy(), out.copy()))
            return out

        def sampled(contexts, values, log_p0, mu, var):
            if mu.ndim == 2 and searches:
                searches[-1]["rows"].extend(mu)
            return real_sampled(contexts, values, log_p0, mu, var)

        monkeypatch.setattr(spgl.oracle, "_Start", RecordedStart)
        monkeypatch.setattr(spgl.oracle, "project_to_ball", project)
        monkeypatch.setattr(spgl.oracle, "kl_to_target_params", kl_to_target)
        monkeypatch.setattr(spgl.oracle, "sampled_value", sampled)
        run_timing_suite(10, updates=1)

        projected = tested = 0
        for search in searches:
            points, trials = search["points"], search["trials"]
            n, d = len(trials), trials.shape[1] // 2
            (mu, scores), *more = search["kl"]
            assert not more and np.array_equal(mu, trials[:, :d])
            size = 4 if n <= 32 else 96 if n == 96 else 36
            row_of = {mu[i].tobytes(): i for i in range(n)}
            for row in search["rows"]:
                i = row_of[row.tobytes()]
                block = points[i - i % size : i - i % size + size]
                base = 2.0 * block[-1] - block[-2]
                _, bar = min(search["bars"], key=lambda zb: np.max(np.abs(zb[0] - base)))
                assert scores[i] < bar
            projected += n
            tested += len(search["rows"])
        assert len(searches) > 10 and 0 < tested < projected / 4

    def test_race_instance_doubles_the_rows_tested_per_block_each_call(self, monkeypatch):
        # convergence mode: a block's candidates are its rows below the bar,
        # and the r-th sampled-value call of a search tests the next 2^r of
        # them (2 * 2^r on the 36-row blocks).  Chunks of raw row offsets
        # that skipped those without a candidate tested up to a whole later
        # chunk in an early call
        searches = []
        real_project = spgl.oracle.project_to_ball
        real_sampled = spgl.oracle.sampled_value

        def project(kl, z0, z, eps):
            trials = real_project(kl, z0, z, eps)
            searches.append({"trials": trials, "calls": []})
            return trials

        def sampled(contexts, values, log_p0, mu, var):
            if mu.ndim == 2 and searches:
                searches[-1]["calls"].append(mu.copy())
            return real_sampled(contexts, values, log_p0, mu, var)

        monkeypatch.setattr(spgl.oracle, "project_to_ball", project)
        monkeypatch.setattr(spgl.oracle, "sampled_value", sampled)
        run_timing_suite(10, updates=1)

        calls = 0
        for search in searches:
            trials = search["trials"]
            n, d = len(trials), trials.shape[1] // 2
            size = 4 if n <= 32 else 96 if n == 96 else 36
            first = 2 if size == 36 else 1
            row_of = {trials[i, :d].tobytes(): i for i in range(n)}
            for r, mu in enumerate(search["calls"]):
                per_block = np.bincount([row_of[row.tobytes()] // size for row in mu])
                assert per_block.max() <= first * 2**r
                calls += 1
        assert len(searches) > 10 and calls > 10

    def test_performance_search_scores_its_first_chunk_alone(self, monkeypatch):
        # performance mode: the objective is the sampled value itself, so a
        # search scores its rows in chunks, the first of 1 row per block (2
        # on the 36-row blocks after the first four halvings)
        searches = []
        real_project = spgl.oracle.project_to_ball
        real_sampled = spgl.oracle.sampled_value

        def project(kl, z0, z, eps):
            searches.append([len(z)])
            return real_project(kl, z0, z, eps)

        def sampled(contexts, values, log_p0, mu, var):
            if mu.ndim == 2 and searches:
                searches[-1].append(len(mu))
            return real_sampled(contexts, values, log_p0, mu, var)

        monkeypatch.setattr(spgl.oracle, "project_to_ball", project)
        monkeypatch.setattr(spgl.oracle, "sampled_value", sampled)
        batch, config, mode = exact_instance(2)
        assert mode == "performance"
        solve_exact_sampled(batch, config, mode, seed=2)
        assert len(searches) > 10
        for n, first, *_ in searches:
            size = 4 if n <= 32 else 96 if n == 96 else 36
            assert first == n // size * (2 if size == 36 else 1)

    def test_point_mass_updates_are_not_beaten_by_feasible_closed_form_steps(self):
        # recorded training batches of the point-mass preset (program seed 5,
        # first 100 iterations, every 10th update): wherever the closed-form
        # step meets the sampled constraint it is feasible for the exact
        # problem, so the exact objective must be at least as good.  On the
        # raw gradient the solver trailed on 8 of these 10 updates
        config = dataclasses.replace(load_config(preset_path(PRESET)), iterations=100)
        updates = record_updates(config, 5, 10)
        assert len(updates) == 10
        compared = 0
        for iteration, batch, closed, kind in updates:
            _, f_closed, f_exact, _, _, meets_closed, _ = compare_update(
                batch, closed, kind, config.curriculum, 5 + iteration
            )
            if kind == "performance" or meets_closed:
                compared += 1
                assert f_exact <= f_closed, iteration
        assert compared >= 5

    @pytest.mark.parametrize("index", range(len(EXACT_PINS)))
    def test_results_are_pinned_bit_for_bit(self, index):
        # recorded with the solver on closed-form gradients
        _, mu_hex, theta_hex, scalars_hex, _ = EXACT_PINS[index]
        result = pinned_solve(index)
        assert [float(x).hex() for x in result.distribution.mu] == mu_hex
        assert [float(x).hex() for x in result.distribution.theta] == theta_hex
        scalars = (result.objective, result.sampled_value, result.kl_step)
        assert tuple(x.hex() for x in scalars) == scalars_hex

    def test_escapes_partway_are_pinned_bit_for_bit(self):
        # exact instance 15 of tests/digest.py (convergence, d = 1): four of
        # its eight feasible starts take escape probes that succeed and then
        # go on stepping, so the probe directions each start draws depend on
        # how many probes the starts before it used; starts run out of
        # order would draw other directions and move these bits
        batch, config, mode = exact_instance(15)
        result = solve_exact_sampled(batch, config, mode, seed=15)
        assert [float(x).hex() for x in result.distribution.mu] == ["0x1.1513fb776c2efp+0"]
        assert [float(x).hex() for x in result.distribution.theta] == ["0x1.91a709b937421p-1"]
        scalars = (result.objective, result.sampled_value, result.kl_step)
        assert tuple(x.hex() for x in scalars) == (
            "0x1.442fbe51b2352p+1",
            "0x1.359202e04985dp+3",
            "0x1.30b39ec1033e2p-9",
        )
        assert result.converged and result.feasible

    @pytest.mark.parametrize("index", range(len(EXACT_PINS)))
    def test_results_agree_with_the_central_difference_solver(self, index):
        # the closed-form gradient moves the iterates at rounding level: the
        # objective is no worse than that of the solver on central
        # differences beyond 1e-9 relative, and the parameters agree to 1e-6
        mu_hex, theta_hex, scalars_hex = EXACT_PINS[index][4]
        result = pinned_solve(index)
        reference = float.fromhex(scalars_hex[0])
        assert result.objective <= reference + 1e-9 * max(1.0, abs(reference))
        mu = np.array([float.fromhex(x) for x in mu_hex])
        theta = np.array([float.fromhex(x) for x in theta_hex])
        assert np.max(np.abs(result.distribution.mu - mu)) <= 1e-6
        assert np.max(np.abs(result.distribution.theta - theta)) <= 1e-6


class TestNumericalUpdate:
    def test_dispatch_matches_closed_form_rule(self):
        dist, target, batch = exact_setting(seed=9, width=50.0)
        low = CurriculumConfig(epsilon=0.05, v_lower=1e3, k_contexts=16)
        high = CurriculumConfig(epsilon=0.05, v_lower=-1e3, k_contexts=16)
        _, report_low = numerical_update(batch, low, seed=1)
        _, report_high = numerical_update(batch, high, seed=1)
        assert report_low.kind == "performance"
        assert report_high.kind == "convergence"

    def test_step_stays_in_trust_region(self):
        dist, target, batch = exact_setting(seed=11, width=50.0)
        config = CurriculumConfig(epsilon=0.03, v_lower=5.0, k_contexts=16)
        new_dist, report = numerical_update(batch, config, seed=2)
        assert kl_between(new_dist, dist) <= config.epsilon + 1e-8
        assert report.kl_step <= config.epsilon + 1e-8
