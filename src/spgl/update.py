"""Closed-form curriculum updates of the Gaussian context distribution.

Each curriculum update dispatches on the batch mean value:

* below the performance threshold -> :func:`performance_step`: move mean
  and covariance scales along the value gradient to the boundary of the KL
  trust region (maximize attainable value).
* at or above the threshold -> :func:`convergence_step`: move toward the
  target distribution, subject to the linearized performance constraint and
  the same trust region (minimize KL to the target).

Both steps are block-coordinate: the mean block and the scale block are each
solved in closed form against the pre-update geometry.  The mean block's KL
is exact; the scale block bounds a second-order expansion of the step KL, so
:func:`update` additionally verifies the true joint KL and backtracks the
scale displacement if the expansion undershot.  The backtrack is a 1-D ray
solve on raw arrays: :func:`project_to_ball`, the bracketed secant that the
exact solver in :mod:`spgl.oracle` also uses, applied to the scale part of
:func:`spgl.gaussian.kl_params`.

The convergence solutions come from a two-constraint KKT case analysis.
Every returned case carries multipliers, and a case is admitted exactly when
the KKT certificate that ``spgl verify`` applies passes; of the certified
candidates the one with the smaller objective wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import (
    THETA_MIN,
    ContextDistribution,
    kl_params,
    kl_scale_terms,
    kl_to_target,
    kl_to_target_params,
)
from .stats import CurriculumStats, RolloutBatch, compute_stats, unit_scale

__all__ = [
    "CurriculumConfig",
    "CurriculumError",
    "InfeasiblePerformanceConstraint",
    "KKT_TOL",
    "MeanBlock",
    "MultiplierSolution",
    "ScaleBlock",
    "UpdateReport",
    "convergence_step",
    "performance_step",
    "project_to_ball",
    "returns_in_range",
    "should_run_performance_step",
    "update",
]

# Gradient norms below this leave no informative step direction.
DEGENERATE_NORM = 1e-10

# Largest normalised KKT residual that certifies a block solution; a block
# solver admits a case exactly when its certificate passes at this tolerance.
KKT_TOL = 1e-8

# The steps square statistics that scale with the returns, which overflows
# from returns of about 1e150; every step is homogeneous in the scale of the
# returns and v_lower, and a power-of-two scale is exact.
RETURN_LIMIT = 2.0**64

BOTH_INACTIVE = "both_inactive"
PERF_ACTIVE = "perf_active"
PROXIMITY_ACTIVE = "proximity_active"
BOTH_ACTIVE = "both_active"


class CurriculumError(RuntimeError):
    """Base class for curriculum update failures."""


class InfeasiblePerformanceConstraint(CurriculumError):
    """Raised when no point of the trust region meets the performance bound."""


@dataclass(frozen=True)
class CurriculumConfig:
    """Hyper-parameters of the curriculum update.

    Attributes:
        epsilon: KL trust-region radius per update.
        v_lower: Minimum mean value required before convergence steps run.
        k_contexts: Batch size K.

    Every update keeps the covariance scales at or above the distribution
    floor :data:`spgl.gaussian.THETA_MIN`, which the read-only
    :attr:`theta_min` returns; it is not a setting.
    """

    epsilon: float
    v_lower: float
    k_contexts: int = 64

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not math.isfinite(self.v_lower):
            raise ValueError("v_lower must be finite")
        if self.k_contexts < 2:
            raise ValueError("k_contexts must be >= 2")

    @property
    def theta_min(self) -> float:
        """The scale floor of every update, :data:`spgl.gaussian.THETA_MIN`."""
        return THETA_MIN


@dataclass(frozen=True)
class MultiplierSolution:
    """Multipliers of one convergence block.

    For the mean block these are (lambda_1, lambda_2): performance multiplier
    and the affine trust-region multiplier (>= 1, with lambda_2 - 1 the raw
    ball multiplier).  For the scale block the same slots hold (lambda_3,
    lambda_4).  In the scale block's jump case (both constraints inactive,
    scales reset to one) both entries are zero.
    """

    lambda_perf: float
    lambda_ball: float
    active_case: str


@dataclass(frozen=True)
class UpdateReport:
    """What one curriculum update did, for logging and verification."""

    kind: str
    degenerate: bool
    mu_solution: MultiplierSolution | None
    theta_solution: MultiplierSolution | None
    kl_step: float
    kl_step_mean_part: float
    kl_to_target_after: float
    theta_backtracked: bool
    trust_region_backtracked: bool

    @property
    def active_case(self) -> str:
        """Compact case label for CSV output."""
        if self.mu_solution is None and self.theta_solution is None:
            return "-"
        mu = self.mu_solution.active_case if self.mu_solution else "-"
        th = self.theta_solution.active_case if self.theta_solution else "-"
        return f"{mu}|{th}"


# ---------------------------------------------------------------------------
# dispatch


def returns_in_range(batch: RolloutBatch, config: CurriculumConfig):
    """``(batch, config, scale)``, the returns and ``v_lower`` times ``scale``:
    1 unless a return passes :data:`RETURN_LIMIT` in magnitude, else the
    power of two that brings the largest into [0.5, 1).  A performance
    multiplier times ``scale`` is that of the unscaled problem."""
    scale = 1.0
    peak = float(np.maximum.reduce(np.abs(batch.values)))
    if peak > RETURN_LIMIT:
        scale = unit_scale(peak)
        batch = RolloutBatch(batch.contexts, batch.values * scale, batch.source_distribution)
        config = replace(config, v_lower=config.v_lower * scale)
    return batch, config, scale


def should_run_performance_step(stats: CurriculumStats, config: CurriculumConfig) -> bool:
    """True when the batch mean value falls short of the threshold.

    Equality counts as satisfied, so the boundary runs a convergence step.
    """
    return stats.v_bar < config.v_lower


# ---------------------------------------------------------------------------
# pieces shared by both steps


def _clip_theta_step(theta, delta):
    """Largest backtracking scale keeping all scales at or above
    :data:`~spgl.gaussian.THETA_MIN`.

    ``theta`` is a distribution's scales, so it is at or above the floor.
    ``theta + scale * delta`` can round one ulp below the floor on the entry
    that sets ``scale``, so each entry is clamped to the floor."""
    scale = 1.0
    shrinking = delta < 0.0
    if shrinking.any():
        scale = min(
            1.0,
            float(np.minimum.reduce((theta[shrinking] - THETA_MIN) / (-delta[shrinking]))),
        )
        scale = max(scale, 0.0)
    return np.maximum(theta + scale * delta, THETA_MIN), scale < 1.0


def _require_reach(b, room):
    """Raise unless a point strictly inside the trust region meets the bound
    ``b + <g, delta> >= 0``; ``room = reach**2 - b**2`` with ``reach`` its best
    gain there (on the edge one point meets it, without KKT multipliers)."""
    if b < 0.0 and room <= 0.0:
        raise InfeasiblePerformanceConstraint(
            "no point inside the trust region satisfies the performance bound"
        )


def _certified(residuals):
    """True when every ``(name, residual)`` pair has its residual within
    :data:`KKT_TOL` (a ``nan`` residual fails)."""
    return all(r <= KKT_TOL for _, r in residuals)


def _best_case(candidates, block, eps):
    """The candidate ``(x, MultiplierSolution)`` of a convergence block with
    the smallest ``block.objective`` whose KKT certificate at radius ``eps``
    passes, or None."""
    for x, solution in sorted(candidates, key=lambda candidate: block.objective(candidate[0])):
        if _certified(block.residuals(x, solution, eps)):
            return x, solution
    return None


# ---------------------------------------------------------------------------
# performance step (value maximization on the trust-region boundary)


def performance_step(
    dist: ContextDistribution, stats: CurriculumStats, eps: float
) -> tuple[np.ndarray, np.ndarray, bool, bool]:
    """Apply both value-ascent blocks under the joint trust region ``eps``.

    Each block moves to its boundary: the mean to
    ``mu + sqrt(2 e_mu) u_bar / ||u_bar||`` and the scales to
    ``theta + 2 sqrt(e_theta) theta^2 psi_bar / ||psi_bar||`` (norms in the
    block metrics).  The linearized gain of a mean budget ``e`` is
    ``sqrt(2 e) ||u_bar||`` and of a scale budget ``2 sqrt(e) ||psi_bar||``,
    so the budgets ``e_mu + e_theta = eps`` maximize the joint linearized gain
    with the mean share ``||u_bar||^2 / (||u_bar||^2 + 2 ||psi_bar||^2)``.  A
    block whose gradient norm falls below ``1e-10`` stays unchanged and cedes
    its budget to the other.

    Returns ``(mu_new, theta_new, moved, backtracked)``: ``moved`` is False
    when neither block has an informative direction (the update is then
    degenerate), ``backtracked`` when the scale step was shortened to keep
    every scale at or above :data:`~spgl.gaussian.THETA_MIN`.
    """
    h_inv = dist.theta**2
    norm_u_sq = float(np.add.reduce(stats.u_bar**2 * (1.0 / (dist.theta * dist.target.sigma_tilde_diag))))
    norm_psi_sq = float(np.add.reduce(stats.psi_bar**2 * h_inv))
    u_degenerate = math.sqrt(norm_u_sq) < DEGENERATE_NORM
    psi_degenerate = math.sqrt(norm_psi_sq) < DEGENERATE_NORM
    if u_degenerate and psi_degenerate:
        return dist.mu, dist.theta, False, False
    if u_degenerate:
        eps_mu, eps_theta = 0.0, eps
    elif psi_degenerate:
        eps_mu, eps_theta = eps, 0.0
    else:
        share = norm_u_sq / (norm_u_sq + 2.0 * norm_psi_sq)
        eps_mu, eps_theta = share * eps, (1.0 - share) * eps

    mu_new, theta_new, backtracked = dist.mu, dist.theta, False
    if eps_mu > 0.0:
        mu_new = dist.mu + math.sqrt(2.0 * eps_mu) * stats.u_bar / math.sqrt(norm_u_sq)
    if eps_theta > 0.0:
        delta = 2.0 * math.sqrt(eps_theta) * h_inv * stats.psi_bar / math.sqrt(norm_psi_sq)
        theta_new, backtracked = _clip_theta_step(dist.theta, delta)
    return mu_new, theta_new, eps_mu > 0.0 or eps_theta > 0.0, backtracked


# ---------------------------------------------------------------------------
# convergence step: each block's constants are computed once per update and
# shared by the budget split, the block's solve and its KKT certificate


class MeanBlock:
    """The mean block of one convergence step from ``dist``: minimize the
    (quadratic) distance to the target mean inside the trust region, subject
    to the linearized performance constraint ``stats.v_bar - v_lower +
    <u_bar, delta>_precision >= 0``.

    :meth:`solve` returns ``(mu_new, MultiplierSolution)``; :meth:`residuals`
    is its KKT certificate.
    """

    def __init__(self, dist, stats, v_lower):
        self.mu, self.mu_tilde, self.u = dist.mu, dist.target.mu_tilde, stats.u_bar
        self.precision = 1.0 / (dist.theta * dist.target.sigma_tilde_diag)  # the old precision
        self.a = self.mu_tilde - dist.mu
        self.b = stats.v_bar - v_lower
        self.norm_a_sq = float(np.add.reduce(self.a**2 * self.precision))
        self.norm_u_sq = float(np.add.reduce(self.u**2 * self.precision))
        self.inner_ua = float(np.add.reduce(self.u * self.a * self.precision))
        self.u_metric = self.u * self.precision
        self.u_scale = float(np.maximum.reduce(np.abs(self.u_metric)))
        self.value_scale = max(1.0, abs(self.b))

    def solve(self, eps):
        mu, u, a, b = self.mu, self.u, self.a, self.b
        norm_a_sq, norm_u_sq, inner_ua = self.norm_a_sq, self.norm_u_sq, self.inner_ua
        denom = 2.0 * eps * norm_u_sq - b * b
        _require_reach(b, denom)

        candidates = [
            (np.array(self.mu_tilde, dtype=float, copy=True), MultiplierSolution(0.0, 1.0, BOTH_INACTIVE))
        ]
        if norm_u_sq > DEGENERATE_NORM**2:
            lam1 = -(b + inner_ua) / norm_u_sq
            candidates.append((self.mu_tilde + lam1 * u, MultiplierSolution(lam1, 1.0, PERF_ACTIVE)))
        if norm_a_sq > DEGENERATE_NORM**2:
            lam2 = math.sqrt(norm_a_sq / (2.0 * eps))
            candidates.append((mu + a / lam2, MultiplierSolution(0.0, lam2, PROXIMITY_ACTIVE)))
        if norm_u_sq > DEGENERATE_NORM**2:
            numer = max(norm_a_sq * norm_u_sq - inner_ua**2, 0.0)
            if denom > 0.0 and numer > 0.0:
                lam2 = math.sqrt(numer / denom)
                if lam2 > DEGENERATE_NORM:
                    lam1 = -(lam2 * b + inner_ua) / norm_u_sq
                    candidates.append(
                        (mu + (a + lam1 * u) / lam2, MultiplierSolution(lam1, lam2, BOTH_ACTIVE))
                    )

        best = _best_case(candidates, self, eps)
        if best is None:
            raise CurriculumError("no KKT case matched the mean subproblem")
        return best

    def objective(self, mu_new):
        return 0.5 * float(np.add.reduce((mu_new - self.mu_tilde) ** 2 * self.precision))

    def residuals(self, mu_new, solution, eps):
        """Residuals of the KKT system at a candidate solution: ``(name,
        residual)`` pairs, primal, dual, stationarity and complementary
        slackness in that order, each nonnegative and normalized by the
        problem scale; the case is certified when each is at most
        :data:`KKT_TOL`.  An admission test can stop at the first failure,
        and ``dict`` of the pairs is the whole certificate."""
        lam1, lam2 = solution.lambda_perf, solution.lambda_ball
        value_scale, geom_scale = self.value_scale, max(1.0, eps)
        delta = mu_new - self.mu
        delta_metric = delta * self.precision
        perf = self.b + float(np.add.reduce(self.u * delta_metric))
        yield "primal_perf", max(0.0, -perf) / value_scale
        ball = 0.5 * float(np.add.reduce(delta * delta_metric))
        yield "primal_ball", max(0.0, ball - eps) / geom_scale
        yield "dual", max(0.0, -lam1) + max(0.0, 1.0 - lam2)
        grad = (mu_new - self.mu_tilde) * self.precision
        stationarity = grad - lam1 * self.u_metric + (lam2 - 1.0) * delta_metric
        scale = max(1.0, float(np.maximum.reduce(np.abs(grad))), self.u_scale * max(lam1, 1.0))
        yield "stationarity", float(np.maximum.reduce(np.abs(stationarity))) / scale
        yield "slack_perf", abs(lam1 * perf) / (value_scale * max(lam1, 1.0))
        yield "slack_ball", abs((lam2 - 1.0) * (ball - eps)) / (geom_scale * max(lam2, 1.0))


class ScaleBlock:
    """The scale block of one convergence step from ``dist``: descend the
    KL-to-target gradient ``stats.omega`` in ``theta`` inside the trust
    region, subject to the linearized performance constraint.

    :meth:`solve` takes the constrained descent step of the KKT cases of the
    linearized problem, shortened when needed to keep every scale at or above
    :data:`~spgl.gaussian.THETA_MIN`.  Jumping straight to scales of one (the
    target scale, where both constraints sit inactive) is taken instead
    whenever the certificate admits it as that case and it serves the true
    convergence objective at least as well; near the target this pins the
    scales at exactly one.  It returns ``(theta_new, MultiplierSolution,
    backtracked)``; :meth:`residuals` is its certificate.
    """

    def __init__(self, dist, stats, v_lower):
        self.dist, self.theta, self.psi, self.omega = dist, dist.theta, stats.psi_bar, stats.omega
        self.h_inv = self.theta**2
        self.h_diag = 1.0 / self.h_inv
        self.b = stats.v_bar - v_lower
        self.norm_om_sq = float(np.add.reduce(self.omega**2 * self.h_inv))
        self.norm_psi_sq = float(np.add.reduce(self.psi**2 * self.h_inv))
        self.inner_po = float(np.add.reduce(self.psi * self.omega * self.h_inv))
        self.omega_scale = max(1.0, float(np.maximum.reduce(np.abs(self.omega))))
        self.psi_scale = float(np.maximum.reduce(np.abs(self.psi)))
        self.value_scale = max(1.0, abs(self.b))

    def solve(self, eps):
        theta, h_inv, psi, omega, b = self.theta, self.h_inv, self.psi, self.omega, self.b
        norm_psi_sq, inner_po = self.norm_psi_sq, self.inner_po
        denom = 4.0 * eps * norm_psi_sq - b * b
        _require_reach(b, denom)

        candidates = []
        # the metric projection of the center onto the performance face
        face = theta - b * h_inv * psi / norm_psi_sq if norm_psi_sq > DEGENERATE_NORM**2 else None
        norm_om = math.sqrt(self.norm_om_sq)
        if norm_om >= DEGENERATE_NORM:
            lam4 = norm_om / (2.0 * math.sqrt(eps))
            candidates.append(
                (theta - h_inv * omega / lam4, MultiplierSolution(0.0, lam4, PROXIMITY_ACTIVE))
            )
            if face is not None:
                # Performance face active with the trust region slack.  It is a
                # KKT point only when omega is colinear with psi_bar (generic in
                # one dimension); the stationarity residual decides.
                lam3 = inner_po / norm_psi_sq
                candidates.append((face, MultiplierSolution(lam3, 0.0, PERF_ACTIVE)))
                if denom > 0.0:
                    # Both active: leave the face along omega's metric-orthogonal
                    # residual (orthogonalised twice), so the performance slack
                    # holds to rounding however nearly omega is parallel to psi_bar.
                    residual = omega - lam3 * psi
                    residual -= float(np.add.reduce(psi * residual * h_inv)) / norm_psi_sq * psi
                    lam4 = math.sqrt(norm_psi_sq * float(np.add.reduce(residual**2 * h_inv)) / denom)
                    if lam4 > DEGENERATE_NORM:
                        lam3 = (inner_po - lam4 * b) / norm_psi_sq
                        candidates.append(
                            (face - h_inv * residual / lam4, MultiplierSolution(lam3, lam4, BOTH_ACTIVE))
                        )
        else:
            # Zero objective gradient: any feasible point is optimal; stay, or,
            # when the centre violates the bound, move to the performance face
            # (a KKT point with zero multipliers).
            candidates.append(
                (np.array(theta, dtype=float, copy=True), MultiplierSolution(0.0, 0.0, PROXIMITY_ACTIVE))
            )
            if b < 0.0 and face is not None:
                candidates.append((face, MultiplierSolution(0.0, 0.0, PERF_ACTIVE)))

        ones = np.ones_like(theta)
        jump = MultiplierSolution(0.0, 0.0, BOTH_INACTIVE)
        jump_certified = _certified(self.residuals(ones, jump, eps))
        best = _best_case(candidates, self, eps)
        if best is None:
            if jump_certified:
                return ones, jump, False
            raise CurriculumError("no KKT case matched the scale subproblem")
        theta_new, solution = best
        theta_new, backtracked = _clip_theta_step(theta, theta_new - theta)

        # Jumping straight to the target scale is allowed whenever it is certified
        # (feasible) AND it serves the convergence objective at least as well as the
        # constrained descent step; the comparison uses the true KL to the target
        # with the mean held at its pre-update value, which the linear model
        # approximates but cannot rank (it would always prefer the boundary).
        mu, target = self.dist.mu, self.dist.target
        kl_score = lambda t: kl_to_target_params(mu, t, target.mu_tilde, target.sigma_tilde_diag)
        if jump_certified and kl_score(ones) <= kl_score(theta_new):
            return ones, jump, False
        return theta_new, solution, backtracked

    def objective(self, theta_new):
        return float(np.add.reduce(self.omega * (theta_new - self.theta)))

    def residuals(self, theta_new, solution, eps):
        """Residuals of the certificate at a candidate solution, as ``(name,
        residual)`` pairs in the order of :meth:`MeanBlock.residuals`.  The
        jump case (scales reset to one) is certified by primal feasibility of
        both constraints alone; the multiplier cases additionally satisfy the
        stationarity and slackness conditions of the linearized problem."""
        lam3, lam4 = solution.lambda_perf, solution.lambda_ball
        value_scale, geom_scale = self.value_scale, max(1.0, eps)
        delta = theta_new - self.theta
        perf = self.b + float(np.add.reduce(self.psi * delta))
        yield "primal_perf", max(0.0, -perf) / value_scale
        delta_metric = self.h_diag * delta
        ball = 0.25 * float(np.add.reduce(delta * delta_metric))
        yield "primal_ball", max(0.0, ball - eps) / geom_scale
        yield "dual", max(0.0, -lam3) + max(0.0, -lam4)
        if solution.active_case == BOTH_INACTIVE:
            yield from (("stationarity", 0.0), ("slack_perf", 0.0), ("slack_ball", 0.0))
            return
        stationarity = self.omega - lam3 * self.psi + lam4 * delta_metric
        scale = max(self.omega_scale, self.psi_scale * max(lam3, 1.0))
        yield "stationarity", float(np.maximum.reduce(np.abs(stationarity))) / scale
        yield "slack_perf", abs(lam3 * perf) / (value_scale * max(lam3, 1.0))
        yield "slack_ball", abs(lam4 * (ball - eps)) / (geom_scale * max(lam4, 1.0))


def convergence_step(
    dist: ContextDistribution,
    stats: CurriculumStats,
    eps: float,
    v_lower: float,
) -> tuple[np.ndarray, np.ndarray, MultiplierSolution, MultiplierSolution, bool]:
    """Move toward the target under the linearized performance constraint
    and the joint trust region ``eps``.

    The marginal KL-to-target decrease of a mean budget ``e`` scales with
    ``dist / sqrt(2 e)`` (``dist`` the metric distance to the target mean)
    and of a scale budget with ``||omega|| / sqrt(e)``, so the mean block
    gets the share ``dist^2 / (dist^2 + 2 ||omega||^2)`` of ``eps``, at least
    ``1e-6 eps``.  A degenerate ``omega`` gives the mean the whole budget;
    when both are degenerate the split is even.  The scale block receives
    everything the mean block did not spend (jump cases leave most of it).

    Returns ``(mu_new, theta_new, mu_solution, theta_solution, backtracked)``,
    ``backtracked`` as in :class:`ScaleBlock`.
    """
    mean = MeanBlock(dist, stats, v_lower)
    scale = ScaleBlock(dist, stats, v_lower)
    dist_sq, omega_sq = mean.norm_a_sq, scale.norm_om_sq
    mean_degenerate = math.sqrt(dist_sq) < DEGENERATE_NORM
    omega_degenerate = math.sqrt(omega_sq) < DEGENERATE_NORM
    if mean_degenerate and omega_degenerate:
        eps_mu = 0.5 * eps
    elif omega_degenerate:
        eps_mu = eps
    elif mean_degenerate:
        eps_mu = 0.0
    else:
        eps_mu = eps * dist_sq / (dist_sq + 2.0 * omega_sq)
    mu_new, mu_sol = mean.solve(max(eps_mu, 1e-6 * eps))
    spent = 0.5 * float(np.add.reduce((mu_new - dist.mu) ** 2 * mean.precision))
    theta_new, theta_sol, backtracked = scale.solve(max(eps - spent, 1e-18))
    return mu_new, theta_new, mu_sol, theta_sol, backtracked


# ---------------------------------------------------------------------------
# joint-KL backtrack (the ray solve is shared with the exact solver)


def project_to_ball(kl, z0, z, eps):
    """Pull each row of ``z`` back inside the ball ``kl <= eps`` along the
    ray from the centre ``z0``.

    ``z`` holds rows ``(n, D)``, ``z0`` is ``(D,)`` or ``(1, D)``, and
    ``kl`` maps rows to their ``(n,)`` divergences.  ``kl`` must be zero at
    ``z0`` and non-decreasing along each ray; flat stretches (where the
    exact solver clips its log-scales) are allowed.  A row already inside
    the ball comes back unchanged.  Otherwise the feasible end ``lo`` of a
    bracket ``[lo, hi]`` on the ray parameter is returned, with ``kl <= eps
    (1 - 1e-12)``.  The bracket shrinks by Illinois regula falsi on ``log
    kl`` against ``log t`` -- the KL grows like ``t**2`` near the centre, so
    that secant is nearly exact -- aimed at the middle of the accepted band,
    with bisection whenever the secant point leaves the bracket.  It stops
    once ``kl(lo)`` is within ``1e-12 eps`` of ``eps (1 - 1e-12)``, once
    ``kl(hi) - kl(lo) <= 1e-10 eps`` (the rounding noise of ``kl`` at small
    ``eps``), or once ``hi - lo <= 1e-15 hi``.

    The rays are solved together: each secant round steps every open ray in
    Python scalar math and evaluates ``kl`` once on all their trial points.
    A ray's iterates do not depend on the other rows, so each row of the
    result has the bits of the one-row call.
    """
    ks = kl(z).tolist()
    rays = [i for i, k in enumerate(ks) if not k <= eps]
    if not rays:
        return z
    n = len(rays)
    steps = (z if n == len(z) else z[rays]) - z0
    target = eps * (1.0 - 1e-12)
    floor = eps * (1.0 - 2e-12)
    k_gap = 1e-10 * eps
    w_aim = math.log(eps * (1.0 - 1.5e-12))
    inf, log = math.inf, math.log
    # one record per open ray: its index, the bracket [lo, hi] with its KLs
    # and log-KLs, log kl(hi) (w_hi drifts with the Illinois halvings), the
    # local exponent of kl in t (used while lo has no finite log-KL) and the
    # side of the last step; ends holds each ray's feasible end
    records = []
    for j, i in enumerate(rays):
        w = log(ks[i])
        records.append((j, 0.0, 0.0, -inf, 1.0, ks[i], w, w, 2.0, 0))
    ends = [0.0] * n
    open_steps = steps
    for _ in range(100):
        keep, live, ts = [], [], []
        for p, record in enumerate(records):
            _, lo, k_lo, w_lo, hi, k_hi, w_hi, _, power, _ = record
            if k_lo >= floor or k_hi - k_lo <= k_gap or hi - lo <= 1e-15 * hi:
                continue
            if w_lo > -inf:
                t = hi * (lo / hi) ** ((w_hi - w_aim) / (w_hi - w_lo))
            else:
                t = hi * math.exp((w_aim - w_hi) / power)
            if not lo < t < hi:
                t = 0.5 * (lo + hi)
            keep.append(p)
            live.append(record)
            ts.append(t)
        if not keep:
            break
        if len(keep) < len(records):
            open_steps = open_steps[keep]
        ks = kl(z0 + np.array(ts)[:, None] * open_steps).tolist()
        records = []
        for (j, lo, k_lo, w_lo, hi, k_hi, w_hi, log_k_hi, power, side), t, k in zip(live, ts, ks):
            w = log(k) if k > 0.0 else -inf
            if k <= target:
                if side < 0:
                    w_hi = w_aim + 0.5 * (w_hi - w_aim)
                ends[j] = t
                records.append((j, t, k, w, hi, k_hi, w_hi, log_k_hi, power, -1))
            else:
                slope = (log_k_hi - w) / log(hi / t)
                if 0.0 < slope < inf:
                    power = slope
                if side > 0 and w_lo > -inf:
                    w_lo = w_aim + 0.5 * (w_lo - w_aim)
                records.append((j, lo, k_lo, w_lo, t, k, w, w, power, 1))
    projected = z0 + np.array(ends)[:, None] * steps
    if n == len(z):
        return projected
    rows = z.copy()
    rows[rays] = projected
    return rows


def _backtrack_joint_kl(mu0, theta0, sigma, mu_new, theta_new, eps):
    """Shrink the scale displacement until the true step KL fits the radius.

    The joint KL splits exactly into a mean part (in the old precision
    metric) and a scale part.  The mean part is exact and never exceeds its
    share; only the second-order expansion of the scale part can overshoot.
    The scale part grows monotonically along the segment from ``theta0`` to
    ``theta_new``, so :func:`project_to_ball` pulls ``theta_new`` back onto
    the budget the mean part leaves.  When the mean part alone fills the
    radius the scales stay at ``theta0``.  Returns ``(theta, kl_step,
    mean_part, backtracked)``.
    """
    mean_part = float(kl_params(mu_new, theta0, mu0, theta0, sigma))
    joint = float(kl_params(mu_new, theta_new, mu0, theta0, sigma))
    if joint <= eps + 1e-12:
        return theta_new, joint, mean_part, False
    budget = eps - mean_part
    if budget <= 0.0:
        theta = theta0
    else:
        # one row against a row-shaped centre, so the array operations need
        # no broadcasting; the ray solve needs only the scale part, as
        # kl_params' mean term is zero along the ray
        theta_row = theta0[None]

        def scale_kl(theta):
            return 0.5 * np.add.reduce(kl_scale_terms(theta / theta_row), axis=-1)

        theta = project_to_ball(scale_kl, theta_row, theta_new[None], budget)[0]
    return theta, float(kl_params(mu_new, theta, mu0, theta0, sigma)), mean_part, True


# ---------------------------------------------------------------------------
# full update


def update(
    batch: RolloutBatch, config: CurriculumConfig
) -> tuple[ContextDistribution, UpdateReport]:
    """One full curriculum update of the distribution that drew ``batch``.

    Computes the batch statistics, dispatches on the performance condition,
    and applies the selected step.  The trust-region budget ``epsilon`` bounds
    the *joint* KL of the update: the performance step splits it across the
    blocks gain-optimally, the convergence step hands the scale block whatever
    the mean block left unspent, and the composed step is verified against the
    exact KL (backtracking the scale displacement when the second-order
    expansion undershot the true divergence).  A degenerate performance step
    leaves the distribution unchanged and flags the report.  The returns
    are brought in range first (:func:`returns_in_range`).
    """
    dist = batch.source_distribution
    batch, config, scale = returns_in_range(batch, config)
    stats = compute_stats(batch)
    mu_sol = theta_sol = None
    if should_run_performance_step(stats, config):
        kind = "performance"
        mu_new, theta_new, moved, theta_backtracked = performance_step(dist, stats, config.epsilon)
    else:
        kind, moved = "convergence", True
        mu_new, theta_new, mu_sol, theta_sol, theta_backtracked = convergence_step(
            dist, stats, config.epsilon, config.v_lower
        )
        if scale != 1.0:
            mu_sol = replace(mu_sol, lambda_perf=mu_sol.lambda_perf * scale)
            theta_sol = replace(theta_sol, lambda_perf=theta_sol.lambda_perf * scale)

    new_dist, kl_step, kl_mean_part, tr_backtracked = dist, 0.0, 0.0, False
    if moved:
        theta_new, kl_step, kl_mean_part, tr_backtracked = _backtrack_joint_kl(
            dist.mu, dist.theta, dist.target.sigma_tilde_diag, mu_new, theta_new, config.epsilon
        )
        new_dist = dist.with_params(mu=mu_new, theta=theta_new)

    report = UpdateReport(
        kind=kind,
        degenerate=not moved,
        mu_solution=mu_sol,
        theta_solution=theta_sol,
        kl_step=kl_step,
        kl_step_mean_part=kl_mean_part,
        kl_to_target_after=kl_to_target(new_dist),
        theta_backtracked=theta_backtracked,
        trust_region_backtracked=tr_backtracked,
    )
    return new_dist, report
