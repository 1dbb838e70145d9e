"""Independent numerical solvers for the curriculum subproblems.

Two solvers live here:

* :func:`solve_numeric` solves the *linearized* trust-region subproblems (the
  ones the closed forms solve) by dual bisection on a generic two-constraint
  convex program, with a KKT certificate on every result.  It shares no case
  formulas with the closed-form code, which is what makes it usable as a
  correctness oracle.

* :func:`solve_exact_sampled` attacks the *exact* sampled objective (the
  importance-weighted batch value, or the exact KL to the target) under the
  exact KL trust region with a multi-start projected-gradient loop.  It plays
  the role of a conventional numerical self-paced baseline and measures the
  linearization error of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    ContextDistribution,
    TargetSpec,
    kl_between,
    kl_to_target,
    mean_shift_kl,
)
from .stats import RolloutBatch
from .update import (
    BOTH_ACTIVE,
    BOTH_INACTIVE,
    PERF_ACTIVE,
    PROXIMITY_ACTIVE,
    CurriculumConfig,
    UpdateReport,
)

__all__ = [
    "ExactSolveResult",
    "InfeasibleSubproblem",
    "LinearizedSubproblem",
    "OracleSolution",
    "numerical_update",
    "project_to_ball",
    "solve_exact_sampled",
    "solve_numeric",
]

# Dual bisection bracket and iteration budget: the duals are monotone, so the
# bracket is guaranteed for nondegenerate gradients.
BRACKET_LO = 1e-12
BRACKET_HI = 1e12
BISECT_ITERS = 200

_CERT_TOL = 1e-10


class InfeasibleSubproblem(RuntimeError):
    """The performance half-space excludes the whole trust region."""


@dataclass(frozen=True)
class LinearizedSubproblem:
    """One trust-region subproblem in generic form.

    Maximize ``<objective_gradient, x - center>`` (Euclidean inner product)
    subject to ``||x - center||^2_M <= radius_sq`` with diagonal metric ``M``,
    and optionally ``offset + <a, x - center> >= 0``.  When
    ``quadratic_target`` is set the objective becomes *minimizing*
    ``0.5 ||x - quadratic_target||^2_M`` instead and the gradient is ignored
    (the mean convergence block keeps its exact quadratic objective).

    ``radius_sq`` is the squared metric radius: ``2 eps`` for mean blocks and
    ``4 eps`` for scale blocks.
    """

    center: np.ndarray
    objective_gradient: np.ndarray
    metric_diag: np.ndarray
    radius_sq: float
    kind: str = "kl_ball_mu"
    performance: tuple[np.ndarray, float] | None = None
    quadratic_target: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("kl_ball_mu", "kl_ball_theta"):
            raise ValueError("kind must be kl_ball_mu or kl_ball_theta")
        if self.radius_sq <= 0.0:
            raise ValueError("radius_sq must be positive")
        if np.any(np.asarray(self.metric_diag) <= 0.0):
            raise ValueError("metric must be positive definite")


@dataclass(frozen=True)
class OracleSolution:
    """Numeric solution with its KKT certificate."""

    x: np.ndarray
    lambda_perf: float
    lambda_ball: float
    active_case: str
    objective: float
    residuals: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


def _bisect(f, lo, hi, iters=BISECT_ITERS):
    """Root of a monotone function with a sign change on [lo, hi]."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def solve_numeric(problem: LinearizedSubproblem) -> OracleSolution:
    """Solve a linearized subproblem by dual bisection, KKT-certified.

    Enumerates the (at most four) active sets of the two-constraint program;
    for each, the stationarity system fixes the primal point as a function of
    the multipliers and the active constraints are solved by bisection.  All
    candidates passing the certificate are collected and the one with the
    smallest objective is returned.
    """
    x0 = np.asarray(problem.center, dtype=float)
    m = np.asarray(problem.metric_diag, dtype=float)
    m_inv = 1.0 / m
    r = math.sqrt(problem.radius_sq)
    quadratic = problem.quadratic_target is not None
    q = np.asarray(problem.quadratic_target, dtype=float) if quadratic else None
    w = np.asarray(problem.objective_gradient, dtype=float)

    if problem.performance is not None:
        a, b0 = problem.performance
        a = np.asarray(a, dtype=float)
        norm_a = math.sqrt(float(np.sum(a**2 * m_inv)))
        reach = b0 + r * norm_a
        if reach < -_CERT_TOL * max(1.0, abs(b0)):
            raise InfeasibleSubproblem(
                "performance half-space does not intersect the trust region"
            )
    else:
        a, b0 = None, None

    def objective(x):
        if quadratic:
            return 0.5 * float(np.sum((x - q) ** 2 * m))
        return -float(np.dot(w, x - x0))

    def grad_f(x):
        if quadratic:
            return (x - q) * m
        return -w

    def certify(x, lam_p, lam_b, case):
        delta = x - x0
        stationarity = grad_f(x) + lam_b * m * delta
        if a is not None:
            stationarity = stationarity - lam_p * a
        stat_scale = max(1.0, float(np.max(np.abs(grad_f(x)))))
        ball = float(np.sum(delta**2 * m))
        residuals = {
            "stationarity": float(np.max(np.abs(stationarity))) / stat_scale,
            "primal_ball": max(0.0, ball - problem.radius_sq) / max(1.0, problem.radius_sq),
            "dual": max(0.0, -lam_p) + max(0.0, -lam_b),
            "slack_ball": lam_b
            * abs(ball - problem.radius_sq)
            / (max(1.0, problem.radius_sq) * max(1.0, lam_b)),
        }
        if a is not None:
            perf = b0 + float(np.dot(a, delta))
            perf_scale = max(1.0, abs(b0))
            residuals["primal_perf"] = max(0.0, -perf) / perf_scale
            residuals["slack_perf"] = lam_p * abs(perf) / (perf_scale * max(1.0, lam_p))
        if max(residuals.values()) > _CERT_TOL:
            return None
        return OracleSolution(
            x=x,
            lambda_perf=lam_p,
            lambda_ball=lam_b,
            active_case=case,
            objective=objective(x),
            residuals=residuals,
        )

    candidates = []

    def consider(sol):
        if sol is not None:
            candidates.append(sol)

    # --- both constraints inactive
    if quadratic:
        consider(certify(q.copy(), 0.0, 0.0, BOTH_INACTIVE))
    elif float(np.max(np.abs(w))) < 1e-14:
        # Zero objective gradient: any feasible point is optimal; prefer the
        # center, else restore performance feasibility on the boundary.
        if a is None or b0 >= 0.0:
            consider(certify(x0.copy(), 0.0, 0.0, BOTH_INACTIVE))
        else:
            direction = m_inv * a
            nrm = math.sqrt(float(np.sum(a**2 * m_inv)))
            lam = _bisect(lambda t: b0 + t * nrm * nrm, 0.0, BRACKET_HI)
            if lam is not None:
                consider(certify(x0 + min(lam, r / nrm) * direction, 0.0, 0.0, PERF_ACTIVE))

    # --- performance constraint active only
    if a is not None:
        if quadratic:
            base = b0 + float(np.dot(a, q - x0))
            slope = float(np.sum(a**2 * m_inv))
            if slope > 0.0:
                lam = _bisect(lambda t: base + t * slope, 0.0, BRACKET_HI)
                if lam is not None:
                    consider(certify(q + lam * m_inv * a, lam, 0.0, PERF_ACTIVE))
        else:
            norm_a_sq = float(np.dot(a, a))
            if norm_a_sq > 0.0:
                lam = -float(np.dot(w, a)) / norm_a_sq
                if lam > 0.0 and float(np.max(np.abs(w + lam * a))) <= 1e-9 * max(
                    1.0, float(np.max(np.abs(w)))
                ):
                    # Gradient anti-parallel to the constraint normal: every
                    # point of the active hyperplane is stationary; use the
                    # metric projection of the center onto the face.
                    norm_a_metric = float(np.sum(a**2 * m_inv))
                    if norm_a_metric > 0.0:
                        x = x0 - b0 * (m_inv * a) / norm_a_metric
                        consider(certify(x, lam, 0.0, PERF_ACTIVE))

    # --- trust region active only
    if quadratic:
        dist0 = math.sqrt(float(np.sum((q - x0) ** 2 * m)))
        if dist0 >= r > 0.0:
            lam = _bisect(lambda t: dist0 / (1.0 + t) - r, 0.0, BRACKET_HI)
            if lam is not None:
                x = (q + lam * x0) / (1.0 + lam)
                consider(certify(x, 0.0, lam, PROXIMITY_ACTIVE))
    else:
        norm_w = math.sqrt(float(np.sum(w**2 * m_inv)))
        if norm_w > 0.0:
            lam = _bisect(lambda t: norm_w / t - r, BRACKET_LO, BRACKET_HI)
            if lam is not None:
                consider(certify(x0 + m_inv * w / lam, 0.0, lam, PROXIMITY_ACTIVE))

    # --- both constraints active
    if a is not None:
        # On the ball boundary the stationarity direction is
        # M^-1 (w + lam_p a) (linear) or (q - x0) + lam_p M^-1 a (quadratic);
        # the performance value at the resulting boundary point grows
        # monotonically with lam_p, so one bisection finds the active point.

        def boundary_point(lam_p):
            if quadratic:
                v = (q - x0) + lam_p * (m_inv * a)
            else:
                v = m_inv * (w + lam_p * a)
            nrm = math.sqrt(float(np.sum(v**2 * m)))
            if nrm < 1e-300:
                return None, 0.0
            return x0 + (r / nrm) * v, nrm

        def perf_residual(lam_p):
            x, _ = boundary_point(lam_p)
            if x is None:
                return -math.inf
            return b0 + float(np.dot(a, x - x0))

        lo_val = perf_residual(0.0)
        hi_val = perf_residual(BRACKET_HI)
        if math.isfinite(lo_val) and lo_val <= 0.0 <= hi_val:
            lam_p = _bisect(perf_residual, 0.0, BRACKET_HI)
            if lam_p is not None:
                x, nrm = boundary_point(lam_p)
                if x is not None:
                    if quadratic:
                        # stationarity along the step gives lam_b = (1-s)/s
                        # with s the shrink factor onto the boundary
                        s = r / nrm
                        lam_b = max((1.0 - s) / s, 0.0)
                    else:
                        lam_b = nrm / r
                    consider(certify(x, lam_p, lam_b, BOTH_ACTIVE))

    if not candidates:
        raise RuntimeError("dual bisection found no certified solution")
    return min(candidates, key=lambda s: s.objective)


# ---------------------------------------------------------------------------
# exact sampled subproblems


@dataclass(frozen=True)
class ExactSolveResult:
    """Outcome of the projected-gradient solve on the exact objective."""

    distribution: ContextDistribution
    objective: float
    sampled_value: float
    kl_step: float
    converged: bool
    warning: bool


def _log_density_params(contexts, mu, var):
    quad = np.sum((contexts - mu) ** 2 / var, axis=-1)
    return -0.5 * quad - 0.5 * np.sum(np.log(2.0 * np.pi * var))


def _sampled_value(contexts, values, mu0, var0, mu, var):
    log_ratio = _log_density_params(contexts, mu, var) - _log_density_params(
        contexts, mu0, var0
    )
    ratio = np.exp(np.clip(log_ratio, -math.log(1e30), math.log(1e30)))
    return float(np.mean(values * ratio))


def _kl_params(mu1, theta1, mu0, theta0, sigma):
    ratio = theta1 / theta0
    terms = ratio - 1.0 - np.log(ratio) + (mu1 - mu0) ** 2 / (theta0 * sigma)
    return 0.5 * float(np.sum(terms))


def _kl_target_params(mu, theta, mu_tilde, sigma):
    terms = (mu - mu_tilde) ** 2 / (theta * sigma) + 1.0 / theta + np.log(theta) - 1.0
    return 0.5 * float(np.sum(terms))


def project_to_ball(kl, z0, z, eps):
    """Pull ``z`` back inside the ball ``kl <= eps`` along the ray from its
    centre ``z0``.

    ``kl`` must be zero at ``z0`` and non-decreasing along the ray; flat
    stretches (where the exact solver clips its log-scales) are allowed.  A
    point already inside the ball is returned unchanged.  Otherwise the
    feasible end ``lo`` of a bracket ``[lo, hi]`` on the ray parameter is
    returned, with ``kl <= eps (1 - 1e-12)``.  The bracket shrinks by Illinois
    regula falsi on ``log kl`` against ``log t`` -- the KL grows like ``t**2``
    near the centre, so that secant is nearly exact -- aimed at the middle of
    the accepted band, with bisection whenever the secant point leaves the
    bracket.  It stops once ``kl(lo)`` is within ``1e-12 eps`` of
    ``eps (1 - 1e-12)``, once ``kl(hi) - kl(lo) <= 1e-10 eps`` (the rounding
    noise of ``kl`` at small ``eps``), or once ``hi - lo <= 1e-15 hi``.
    """
    k = kl(z)
    if k <= eps:
        return z
    target = eps * (1.0 - 1e-12)
    floor = eps * (1.0 - 2e-12)
    w_aim = math.log(eps * (1.0 - 1.5e-12))
    lo, k_lo, w_lo = 0.0, 0.0, -math.inf
    hi, k_hi, w_hi = 1.0, k, math.log(k)
    # local exponent of kl in t, used while lo has no finite log-KL
    power = 2.0
    side = 0
    for _ in range(100):
        if k_lo >= floor or k_hi - k_lo <= 1e-10 * eps or hi - lo <= 1e-15 * hi:
            break
        if w_lo > -math.inf:
            t = hi * (lo / hi) ** ((w_hi - w_aim) / (w_hi - w_lo))
        else:
            t = hi * math.exp((w_aim - w_hi) / power)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        k = kl(z0 + t * (z - z0))
        w = math.log(k) if k > 0.0 else -math.inf
        if k <= target:
            if side < 0:
                w_hi = w_aim + 0.5 * (w_hi - w_aim)
            lo, k_lo, w_lo, side = t, k, w, -1
        else:
            slope = (math.log(k_hi) - w) / math.log(hi / t)
            if 0.0 < slope < math.inf:
                power = slope
            if side > 0 and w_lo > -math.inf:
                w_lo = w_aim + 0.5 * (w_lo - w_aim)
            hi, k_hi, w_hi, side = t, k, w, 1
    return z0 + lo * (z - z0)


def solve_exact_sampled(
    batch: RolloutBatch,
    dist: ContextDistribution,
    target: TargetSpec,
    config: CurriculumConfig,
    mode: str,
    seed: int = 0,
    restarts: int = 8,
    iterations: int = 500,
) -> ExactSolveResult:
    """Multi-start projected-gradient solve of the exact sampled subproblem.

    ``mode="performance"`` maximizes the importance-weighted batch value under
    the exact step-KL constraint; ``mode="convergence"`` minimizes the exact
    KL to the target under both the sampled performance constraint and the
    step-KL constraint.  Scales are optimized in log space, which keeps them
    positive.  Each gradient trial point is first pulled back onto the KL
    ball along the ray from the old parameters by :func:`project_to_ball`, a
    bracketed secant solve that needs a handful of KL evaluations; trial steps
    that still leave the feasible set are halved until they re-enter.  The
    best feasible iterate is always returned, with a warning flag when no
    restart's step size collapsed within the budget.
    """
    if mode not in ("performance", "convergence"):
        raise ValueError("mode must be 'performance' or 'convergence'")
    contexts = batch.contexts()
    values = batch.values()
    sigma = target.sigma_tilde_diag
    d = dist.d
    mu0 = dist.mu
    theta0 = dist.theta
    var0 = theta0 * sigma
    eps = config.epsilon
    log_theta_min = math.log(config.theta_min)

    def unpack(z):
        mu = z[:d]
        theta = np.exp(np.clip(z[d:], log_theta_min, 50.0))
        return mu, theta

    def sampled(z):
        mu, theta = unpack(z)
        return _sampled_value(contexts, values, mu0, var0, mu, theta * sigma)

    def step_kl(z):
        mu, theta = unpack(z)
        return _kl_params(mu, theta, mu0, theta0, sigma)

    def feasible(z):
        if step_kl(z) > eps + 1e-9:
            return False
        if mode == "convergence" and sampled(z) < config.v_lower - 1e-9 * max(
            1.0, abs(config.v_lower)
        ):
            return False
        return True

    if mode == "performance":
        f = lambda z: -sampled(z)
    else:
        f = lambda z: _kl_target_params(*unpack(z), target.mu_tilde, sigma)

    def fd_grad(z):
        g = np.zeros_like(z)
        for j in range(z.size):
            h = 1e-6 * max(1.0, abs(z[j]))
            zp = z.copy()
            zm = z.copy()
            zp[j] += h
            zm[j] -= h
            g[j] = (f(zp) - f(zm)) / (2.0 * h)
        return g

    rng = np.random.default_rng(seed)
    z0 = np.concatenate([mu0, np.log(theta0)])
    starts = [z0.copy()]
    # overshoot the restarts, then shrink toward the center until feasible:
    # the objective is not concave, so the boundary needs coverage
    scale = np.concatenate([3.0 * np.sqrt(eps * var0), 3.0 * math.sqrt(eps) * np.ones(d)])
    for _ in range(max(restarts - 1, 0)):
        z = z0 + rng.standard_normal(2 * d) * scale
        for _ in range(80):
            if feasible(z):
                break
            z = z0 + 0.7 * (z - z0)
        starts.append(z)

    best_z = z0.copy()
    best_f = f(z0) if feasible(z0) else math.inf
    any_converged = False

    alpha0 = 0.25 * math.sqrt(eps) * max(1.0, float(np.max(np.sqrt(var0))))

    for z in starts:
        if not feasible(z):
            continue
        fz = f(z)
        alpha = alpha0
        converged = False

        escapes_left = 50

        def try_direction(direction, a, depth=40):
            nonlocal z, fz, alpha
            for _ in range(depth):
                z_try = project_to_ball(step_kl, z0, z + a * direction, eps)
                if feasible(z_try):
                    f_try = f(z_try)
                    if f_try < fz - 1e-15:
                        z, fz = z_try, f_try
                        alpha = min(a * 2.0, 1e3)
                        return True
                a *= 0.5
            return False

        for _ in range(iterations):
            g = fd_grad(z)
            gn = float(np.linalg.norm(g))
            if gn < 1e-12:
                converged = True
                break
            improved = try_direction(-g / gn, alpha)
            if not improved and escapes_left > 0:
                # the ray projection can null the gradient direction on the
                # boundary without the point being optimal; probe a few random
                # directions before giving up
                escapes_left -= 1
                for _ in range(8):
                    probe = rng.standard_normal(z.size)
                    probe /= float(np.linalg.norm(probe))
                    if try_direction(probe, alpha0, depth=12):
                        improved = True
                        break
            if not improved:
                converged = True
                break
        any_converged = any_converged or converged
        if fz < best_f:
            best_f = fz
            best_z = z.copy()

    mu_best, theta_best = unpack(best_z)
    theta_best = np.maximum(theta_best, config.theta_min)
    result_dist = dist.with_params(mu=mu_best, theta=theta_best)
    return ExactSolveResult(
        distribution=result_dist,
        objective=best_f,
        sampled_value=sampled(best_z),
        kl_step=step_kl(best_z),
        converged=any_converged,
        warning=not any_converged,
    )


def numerical_update(
    dist: ContextDistribution,
    batch: RolloutBatch,
    target: TargetSpec,
    config: CurriculumConfig,
    seed: int = 0,
    restarts: int = 8,
    iterations: int = 500,
) -> tuple[ContextDistribution, UpdateReport]:
    """Baseline curriculum update driven by the exact numerical solver.

    Uses the same dispatch rule as the closed-form update, then hands the
    selected subproblem to :func:`solve_exact_sampled`.
    """
    values = batch.values()
    v_bar = float(np.mean(values))
    mode = "performance" if v_bar < config.v_lower else "convergence"
    kl_before = kl_to_target(dist)
    result = solve_exact_sampled(
        batch, dist, target, config, mode, seed=seed, restarts=restarts, iterations=iterations
    )
    new_dist = result.distribution
    report = UpdateReport(
        kind=mode,
        degenerate=False,
        mu_solution=None,
        theta_solution=None,
        kl_step=kl_between(new_dist, dist),
        kl_step_mean_part=mean_shift_kl(new_dist, dist),
        kl_to_target_before=kl_before,
        kl_to_target_after=kl_to_target(new_dist),
        theta_backtracked=False,
        trust_region_backtracked=result.warning,
    )
    return new_dist, report
