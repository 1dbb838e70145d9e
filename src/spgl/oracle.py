"""Independent numerical solvers for the curriculum subproblems.

Two solvers live here:

* :func:`solve_numeric` solves the *linearized* trust-region subproblems (the
  ones the closed forms solve) by dual bisection on a generic two-constraint
  convex program, with a KKT certificate on every result.  It shares no case
  formulas with the closed-form code, which is what makes it usable as a
  correctness oracle.

* :func:`solve_exact_sampled` attacks the *exact* sampled objective (the
  importance-weighted batch value, or the exact KL to the target) under the
  exact KL trust region with a multi-start projected-gradient loop on the
  objective's closed-form gradient, preconditioned by the inverse Fisher
  metric of the step KL and kept tangent to the KL ball on its boundary.  It
  plays the role of a conventional numerical self-paced baseline and
  measures the linearization error of the closed forms.

The exact solver's densities, importance-weighted value
(:func:`spgl.gaussian.sampled_value`) and KLs are the array-level functions
of :mod:`spgl.gaussian`, and its ray projection onto the KL ball is
:func:`spgl.update.project_to_ball`, the solve that also backtracks the
closed-form update's joint KL.  Both take rows of parameters, and so does
its gradient, so the restarts run in lock-step, each row with the one-row
call's bits; :func:`solve_exact_sampled` describes the schedule of its
trial rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    LOG_RATIO_LIMIT,
    THETA_MIN,
    ContextDistribution,
    kl_between,
    kl_params,
    kl_to_target,
    kl_to_target_params,
    log_density_params,
    sampled_value,
)
from .stats import RolloutBatch, compute_stats
from .update import (
    BOTH_ACTIVE,
    BOTH_INACTIVE,
    PERF_ACTIVE,
    PROXIMITY_ACTIVE,
    CurriculumConfig,
    UpdateReport,
    project_to_ball,
    returns_in_range,
    should_run_performance_step,
)

__all__ = [
    "ExactSolveResult",
    "InfeasibleSubproblem",
    "LinearizedSubproblem",
    "OracleSolution",
    "numerical_update",
    "solve_exact_sampled",
    "solve_numeric",
]

# Dual bisection bracket: the duals are monotone, so the bracket is
# guaranteed for nondegenerate gradients.
BRACKET_LO = 1e-12
BRACKET_HI = 1e12

_CERT_TOL = 1e-10

# The exact solver takes a trial point only when it lowers the objective by
# more than this share of |f| (and by more than 1e-15): ``project_to_ball``
# settles a point on the KL boundary only within a band of 1e-12 eps, and a
# smaller decrease is a move by rounding inside that band: taking it would
# let the solve crawl by ulps, each step paying for a gradient and a
# projection.
MIN_RELATIVE_DECREASE = 1e-12

# The exact solver's starts (the old parameters and RESTARTS - 1 random
# ones) and each start's budget of gradient steps.
RESTARTS = 8
GRADIENT_STEPS = 500

# The box of the exact solver's log-scales: each clip of ``log theta``
# reads it, and the gradient is zero outside it.
LOG_THETA_MIN = math.log(THETA_MIN)
LOG_THETA_MAX = 50.0


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
    performance: tuple[np.ndarray, float] | None = None
    quadratic_target: np.ndarray | None = None

    def __post_init__(self):
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


def _bisect(f, lo, hi):
    """Root of a monotone function with a sign change on [lo, hi], or None
    when f(lo) and f(hi) have the same sign.

    From ``t = max(1, lo)``, ``t`` doubles until f changes sign between
    ``lo`` and ``t``, each ``t`` without a change becoming the new ``lo``:
    that brackets the root in ``[t/2, t]`` (in ``[lo, t]`` at the first
    ``t``, in ``[t/2, hi]`` once ``t`` reaches ``hi``).  Then the bracket is
    halved, each time keeping the half where f changes sign, until its
    midpoint rounds onto an end, which is returned.  A point where f is
    exactly 0 is returned as soon as it is met."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    t = max(1.0, lo)
    while t < hi:
        ft = f(t)
        if ft == 0.0:
            return t
        if flo * ft < 0.0:
            hi = t
            break
        lo, flo = t, ft
        t *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm


def solve_numeric(problem: LinearizedSubproblem) -> OracleSolution:
    """Solve a linearized subproblem by dual bisection, KKT-certified.

    Enumerates the (at most four) active sets of the two-constraint program;
    for each, the stationarity system fixes the primal point as a function of
    one multiplier, which :func:`_bisect` finds on ``[0, BRACKET_HI]`` (from
    ``BRACKET_LO`` for the ball multiplier of a linear objective).  All
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
        norm_a_sq = float(np.add.reduce(a**2 * m_inv))
        reach = b0 + r * math.sqrt(norm_a_sq)
        if reach < -_CERT_TOL * max(1.0, abs(b0)):
            raise InfeasibleSubproblem(
                "performance half-space does not intersect the trust region"
            )
    else:
        a, b0 = None, None

    def objective(x):
        if quadratic:
            return 0.5 * float(np.add.reduce((x - q) ** 2 * m))
        return -float(np.dot(w, x - x0))

    def grad_f(x):
        if quadratic:
            return (x - q) * m
        return -w

    def certify(x, lam_p, lam_b, case):
        delta = x - x0
        grad = grad_f(x)
        stationarity = grad + lam_b * m * delta
        if a is not None:
            stationarity = stationarity - lam_p * a
        stat_scale = max(1.0, float(np.maximum.reduce(np.abs(grad))))
        ball = float(np.add.reduce(delta**2 * m))
        residuals = {
            "stationarity": float(np.maximum.reduce(np.abs(stationarity))) / stat_scale,
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
    elif float(np.maximum.reduce(np.abs(w))) < 1e-14:
        # Zero objective gradient: any feasible point is optimal; prefer the
        # center, else restore performance feasibility on the boundary.
        if a is None or b0 >= 0.0:
            consider(certify(x0.copy(), 0.0, 0.0, BOTH_INACTIVE))
        else:
            lam = _bisect(lambda t: b0 + t * norm_a_sq, 0.0, BRACKET_HI)
            if lam is not None:
                step = min(lam, r / math.sqrt(norm_a_sq))
                consider(certify(x0 + step * (m_inv * a), 0.0, 0.0, PERF_ACTIVE))

    # --- performance constraint active only
    if a is not None:
        if quadratic:
            base = b0 + float(np.dot(a, q - x0))
            if norm_a_sq > 0.0:
                lam = _bisect(lambda t: base + t * norm_a_sq, 0.0, BRACKET_HI)
                if lam is not None:
                    consider(certify(q + lam * m_inv * a, lam, 0.0, PERF_ACTIVE))
        else:
            a_dot_a = float(np.dot(a, a))
            if a_dot_a > 0.0:
                lam = -float(np.dot(w, a)) / a_dot_a
                if lam > 0.0 and float(np.maximum.reduce(np.abs(w + lam * a))) <= 1e-9 * max(
                    1.0, float(np.maximum.reduce(np.abs(w)))
                ):
                    # Gradient anti-parallel to the constraint normal: every
                    # point of the active hyperplane is stationary; use the
                    # metric projection of the center onto the face.
                    if norm_a_sq > 0.0:
                        x = x0 - b0 * (m_inv * a) / norm_a_sq
                        consider(certify(x, lam, 0.0, PERF_ACTIVE))

    # --- trust region active only
    if quadratic:
        dist0 = math.sqrt(float(np.add.reduce((q - x0) ** 2 * m)))
        if dist0 >= r > 0.0:
            lam = _bisect(lambda t: dist0 / (1.0 + t) - r, 0.0, BRACKET_HI)
            if lam is not None:
                x = (q + lam * x0) / (1.0 + lam)
                consider(certify(x, 0.0, lam, PROXIMITY_ACTIVE))
    else:
        norm_w = math.sqrt(float(np.add.reduce(w**2 * m_inv)))
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

        if quadratic:
            gap, m_inv_a = q - x0, m_inv * a

        def boundary_point(lam_p):
            if quadratic:
                v = gap + lam_p * m_inv_a
            else:
                v = m_inv * (w + lam_p * a)
            nrm = math.sqrt(float(np.add.reduce(v**2 * m)))
            if nrm < 1e-300:
                return None, 0.0
            return x0 + (r / nrm) * v, nrm

        def perf_residual(lam_p):
            x, _ = boundary_point(lam_p)
            if x is None:
                return -math.inf
            return b0 + float(np.dot(a, x - x0))

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
    """Outcome of the projected-gradient solve on the exact objective.

    ``converged`` is false when no restart's step size collapsed within the
    budget; ``feasible`` is false when no start met the constraints, in which
    case ``distribution`` is the old one and ``objective`` is infinite."""

    distribution: ContextDistribution
    objective: float
    sampled_value: float
    kl_step: float
    converged: bool
    feasible: bool


def _objective_gradient(z, mode, contexts, values, log_p0, target):
    """Closed-form gradient of :func:`solve_exact_sampled`'s objective at
    each row of ``z`` ``(n, 2d)``, in its coordinates ``(mu, log theta)``,
    with ``log theta`` clipped to ``[LOG_THETA_MIN, LOG_THETA_MAX]`` and
    ``var = theta * sigma``; each row of the result has the bits of the
    one-row call.

    * ``"convergence"``: ``KL(target || N(mu, var))``, with derivatives
      ``(mu - mu_tilde) / var`` and ``0.5 (1 - (mu - mu_tilde)^2 / var - 1/theta)``;
    * ``"performance"``: ``-mean(v w)`` with ``w`` the clamped importance
      ratio of the batch, with derivatives ``-mean(v w (c - mu) / var)`` and
      ``-mean(v w 0.5 ((c - mu)^2 / var - 1))``; a sample whose log-ratio
      sits at the clamp contributes nothing.

    A log-scale outside the clip bounds has derivative 0.  On a bound itself
    the one-sided derivative from inside is kept, so a start on the floor
    ``theta = THETA_MIN`` can still raise its scale.
    """
    d = target.d
    sigma = target.sigma_tilde_diag
    mu = z[:, :d]
    log_theta = z[:, d:]
    theta = np.exp(np.minimum(np.maximum(log_theta, LOG_THETA_MIN), LOG_THETA_MAX))
    var = theta * sigma
    if mode == "convergence":
        diff = mu - target.mu_tilde
        g_mu = diff / var
        g_log = 0.5 * (1.0 - diff * g_mu - 1.0 / theta)
    else:
        diff = contexts - mu[:, None]
        log_ratio = log_density_params(contexts, mu[:, None], var[:, None]) - log_p0
        inside = np.abs(log_ratio) < LOG_RATIO_LIMIT
        ratio = np.exp(np.minimum(log_ratio, LOG_RATIO_LIMIT))
        weight = np.where(inside, values * ratio, 0.0) / values.size
        scaled = diff / var[:, None]
        # one vector-matrix product per row: a stacked product may sum in
        # another order than the one-row call
        g_mu = -np.array([w @ s for w, s in zip(weight, scaled)])
        g_log = -0.5 * (
            np.array([w @ (c * s) for w, c, s in zip(weight, diff, scaled)])
            - np.add.reduce(weight, axis=-1)[:, None]
        )
    on_box = (log_theta >= LOG_THETA_MIN) & (log_theta <= LOG_THETA_MAX)
    return np.concatenate([g_mu, np.where(on_box, g_log, 0.0)], axis=1)


def _row_dots(a, b):
    """``a[i] @ b[i]`` for each row ``i`` of ``a`` and ``b``, each with the
    bits of the one-row product: a stack of vector-vector products runs the
    one-row product's kernel on each row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _halvings(alphas, n):
    """Rows of each step of ``alphas`` and its first ``n - 1`` halvings,
    each halving rounded from the one before."""
    factors = np.column_stack([alphas, np.full((len(alphas), n - 1), 0.5)])
    return np.multiply.accumulate(factors, axis=1)


@dataclass
class _Start:
    """One start of :func:`solve_exact_sampled`'s lock-step loop: its
    iterate and objective, the step its last search took, its gradient and
    escape budgets, and whether it waits for an escape block or has ended."""

    z: np.ndarray
    fz: float
    alpha: float
    gradients: int = 0
    escapes_left: int = 50
    waiting: bool = False
    ended: bool = False
    converged: bool = False


def solve_exact_sampled(
    batch: RolloutBatch,
    config: CurriculumConfig,
    mode: str,
    seed: int = 0,
) -> ExactSolveResult:
    """Multi-start projected-gradient solve of the exact sampled subproblem
    of the distribution that drew ``batch``.

    ``mode="performance"`` maximizes the importance-weighted batch value under
    the exact step-KL constraint; ``mode="convergence"`` minimizes the exact
    KL to the target under both the sampled performance constraint and the
    step-KL constraint.  Scales are optimized in log space, which keeps them
    positive, with the log-scales clipped to ``[LOG_THETA_MIN,
    LOG_THETA_MAX]``.  Each iteration follows the closed-form gradient ``g``
    of the objective in these coordinates (:func:`_objective_gradient`),
    which costs one pass over the batch whatever the dimension,
    preconditioned by the inverse Fisher metric of the step KL at the old
    parameters, ``P = diag(var0, 2)``: near the old parameters the step KL
    is half the squared length of a step in the metric ``1/P``, in which
    every length below is measured.
    So the direction is ``-P g``, and the first step, ``sqrt(2 eps)``,
    reaches the KL boundary whichever way it points.  On the boundary (step
    KL at least ``eps (1 - 1e-9)``) a direction that leaves the ball loses
    its outward part, ``P g - P n (n.P g) / (n.P n)`` with ``n`` the step
    KL's gradient ``((mu - mu0) / var0, (theta / theta0 - 1) / 2)``, so that
    the search moves along the boundary instead of into the ray projection,
    which would undo the step.  The trial points along a direction are the
    step and its halvings: 40 along the gradient direction, then, if none is
    taken, 12 along each of 8 random escape probes, unit standard normal
    directions scaled by ``sqrt(P)``.  Each search starts at the step the
    last search took, not at twice that step, which failed most first
    trials and paid for a second projection each time.

    The solve has ``RESTARTS`` starts, the old parameters and random
    draws, which are shrunk toward the old parameters together, each
    tested once per shrink; the objectives of the feasible starts come from
    one call.  The starts then run in lock-step rounds, and a start that
    has taken ``GRADIENT_STEPS`` gradient steps ends unconverged.  A round
    takes the gradients of all live starts as rows of one call, then
    searches the first four steps of every start's direction (about nine in
    ten of the steps taken on the ``tests/digest.py`` exact instances),
    then the other 36 halvings of the starts that took none.  Each search
    pulls the trial rows of all its starts back onto the KL ball along the
    rays from the old parameters by one :func:`project_to_ball` call.  A
    start takes the first row in its block order that lowers its objective
    ``f`` below its bar, ``f - max(1e-15, MIN_RELATIVE_DECREASE |f|)``,
    and, in convergence mode, meets the sampled performance constraint.
    Each block lists its candidate rows in block order: in performance
    mode, where the objective is the sampled value, every row; in
    convergence mode the rows below the bar, as scored for all rows of the
    search by one call of the objective, the KL to the target, which costs
    O(d) a row.  Each round of the search then tests the next ``size``, ``2
    size``, ``4 size``, ... candidates of every block still searching by
    one call of the sampled value (``size`` is 2 on the 36-row blocks, else
    1), which bounds the rows evaluated past the taken one where the
    sampled value is costly (high ``d``, large batches).

    A start whose gradient search fails waits for its escape block (all 8 x
    12 probe rows, in (probe, halving) order) until every start before it
    has ended, so that the starts draw their probes from the one generator
    in start order, and the generator advances by the probes up to the one
    taken.  Each row has the bits of a one-point evaluation, so every
    start's iterates, and the result, are those of running the starts one
    after another and trying the halvings and probes one by one.

    The log-densities of the batch under the old parameters are computed
    once per solve.  The best feasible iterate is returned, the earliest
    start's on a tie, flagged when no restart converged; when no start is
    feasible the old parameters come back flagged infeasible.
    """
    if mode not in ("performance", "convergence"):
        raise ValueError("mode must be 'performance' or 'convergence'")
    dist = batch.source_distribution
    target = dist.target
    contexts = batch.contexts
    values = batch.values
    sigma = target.sigma_tilde_diag
    mu_tilde = target.mu_tilde
    d = dist.d
    mu0 = dist.mu
    theta0 = dist.theta
    var0 = theta0 * sigma
    log_p0 = log_density_params(contexts, mu0, var0)
    eps = config.epsilon

    # the hot closures clip and exponentiate the log-scales inline: a helper
    # call per evaluation is a measurable share of the trial path.  Each
    # takes one point or rows of points (``z[..., :d]`` is the mean part).
    def sampled(z):
        theta = np.exp(np.minimum(np.maximum(z[..., d:], LOG_THETA_MIN), LOG_THETA_MAX))
        return sampled_value(contexts, values, log_p0, z[..., :d], theta * sigma)

    def step_kl(z):
        theta = np.exp(np.minimum(np.maximum(z[..., d:], LOG_THETA_MIN), LOG_THETA_MAX))
        return kl_params(z[..., :d], theta, mu0, theta0, sigma)

    v_floor = config.v_lower - 1e-9 * max(1.0, abs(config.v_lower))

    def feasible(z):
        ok = ~(step_kl(z) > eps + 1e-9)
        if mode == "convergence" and ok.any():
            ok[ok] = ~(sampled(z[ok]) < v_floor)
        return ok

    if mode == "performance":
        f = lambda z: -sampled(z)
    else:

        def f(z):
            theta = np.exp(np.minimum(np.maximum(z[..., d:], LOG_THETA_MIN), LOG_THETA_MAX))
            return kl_to_target_params(z[..., :d], theta, mu_tilde, sigma)

    rng = np.random.default_rng(seed)
    z0 = np.concatenate([mu0, np.log(theta0)])
    # overshoot the restarts, then shrink them toward the center until
    # feasible, at most 80 times: the objective is not concave, so the
    # boundary needs coverage
    scale = np.concatenate([3.0 * np.sqrt(eps * var0), 3.0 * math.sqrt(eps) * np.ones(d)])
    draws = rng.standard_normal((RESTARTS - 1, 2 * d))
    starts = np.concatenate([z0[None], z0 + draws * scale])
    start_feasible = feasible(starts)
    for _ in range(80):
        shrinking = np.flatnonzero(~start_feasible[1:]) + 1
        if not shrinking.size:
            break
        starts[shrinking] = z0 + 0.7 * (starts[shrinking] - z0)
        start_feasible[shrinking] = feasible(starts[shrinking])

    precond = np.concatenate([var0, np.full(d, 2.0)])
    alpha0 = math.sqrt(2.0 * eps)
    probe_steps = _halvings([alpha0], 12)
    # normals drawn for probes not tried yet: a block of 8 probes draws only
    # the rows it lacks and keeps those after the probe it takes, so the
    # generator yields the directions of trying the probes one by one
    pending = np.empty((0, 2 * d))

    def search(searching, steps, directions, size):
        # one projection of the rows z + step * direction of one block per
        # start, steps (n, S) and directions (n, N, 2d), each block in
        # (direction, step) order.  Returns, per block, the number of
        # directions up to the taken row, or 0 when none is taken.
        if not searching:
            return []
        zs = np.array([s.z for s in searching])
        points = zs[:, None, None] + steps[:, None, :, None] * directions[:, :, None]
        trials = project_to_ball(step_kl, z0, points.reshape(-1, zs.shape[1]), eps)
        block = steps.shape[1] * directions.shape[1]
        bars = [s.fz - max(1e-15, MIN_RELATIVE_DECREASE * abs(s.fz)) for s in searching]
        blocks = [range(j * block, (j + 1) * block) for j in range(len(searching))]
        if mode == "convergence":
            scores = f(trials).tolist()
            candidates = [[i for i in rows if scores[i] < bar] for rows, bar in zip(blocks, bars)]
        else:
            scores = [0.0] * len(trials)
            candidates = blocks
        taken = [0] * len(searching)
        looking = [j for j, rows in enumerate(candidates) if rows]
        first = 0
        while looking:
            spans = [candidates[j][first : first + size] for j in looking]
            rows = [i for span in spans for i in span]
            if mode == "convergence":
                low = (sampled(trials[rows]) < v_floor).tolist()
                passed = {i for i, fails in zip(rows, low) if not fails}
            else:
                for i, score in zip(rows, f(trials[rows]).tolist()):
                    scores[i] = score
                passed = {i for i in rows if scores[i] < bars[i // block]}
            first += size
            size *= 2
            still = []
            for j, span in zip(looking, spans):
                hit = next((i for i in span if i in passed), None)
                if hit is not None:
                    count, k = divmod(hit - j * block, steps.shape[1])
                    s = searching[j]
                    s.z, s.fz, s.alpha = trials[hit], scores[hit], steps[j, k]
                    taken[j] = count + 1
                elif first < len(candidates[j]):
                    still.append(j)
            looking = still
        return taken

    feasible_starts = starts[start_feasible]
    f_starts = f(feasible_starts).tolist()
    runs = [_Start(z, fz, alpha0) for z, fz in zip(feasible_starts, f_starts)]
    live = runs
    while live:
        for s in live:
            s.ended = s.gradients == GRADIENT_STEPS and not s.waiting
        stepping = [s for s in live if not (s.ended or s.waiting)]
        if stepping:
            zs = np.array([s.z for s in stepping])
            vs = precond * _objective_gradient(zs, mode, contexts, values, log_p0, target)
            theta = np.exp(np.minimum(np.maximum(zs[:, d:], LOG_THETA_MIN), LOG_THETA_MAX))
            normals = np.concatenate([(zs[:, :d] - mu0) / var0, 0.5 * (theta / theta0 - 1.0)], 1)
            # on the boundary, drop the part of the step that leaves the
            # ball: the ray projection would only undo it
            edge = np.flatnonzero(step_kl(zs) >= eps * (1.0 - 1e-9))
            outward = _row_dots(normals[edge], vs[edge])
            leaving = outward < 0.0
            rows = edge[leaving]
            p_normals = precond * normals[rows]
            along = outward[leaving] / _row_dots(normals[rows], p_normals)
            vs[rows] -= p_normals * along[:, None]
            vns = np.sqrt(_row_dots(vs, vs / precond))
            flat = vns < 1e-12
            for s, stop in zip(stepping, flat.tolist()):
                s.gradients += 1
                s.ended = s.converged = stop
            keep = np.flatnonzero(~flat)
            moving = [stepping[i] for i in keep]
            steps = _halvings([s.alpha for s in moving], 40)
            directions = (-vs[keep] / vns[keep, None])[:, None]
            for part, size in ((slice(4), 1), (slice(4, None), 2)):
                taken = search(moving, steps[:, part], directions, size)
                left = [i for i, t in enumerate(taken) if not t]
                moving = [moving[i] for i in left]
                steps, directions = steps[left], directions[left]
            for s in moving:
                s.waiting = s.escapes_left > 0
                s.ended = s.converged = not s.waiting
        live = [s for s in live if not s.ended]
        # the ray projection can null the gradient direction on the boundary
        # without the point being optimal, so a start whose gradient search
        # failed probes 8 random directions, in one block, before it gives
        # up; it waits until every start before it has ended, so that the
        # starts draw their probes in start order
        while live and live[0].waiting:
            s = live[0]
            s.escapes_left -= 1
            probes = np.concatenate([pending, rng.standard_normal((8 - len(pending), z0.size))])
            norms = np.sqrt(_row_dots(probes, probes))
            directions = probes / norms[:, None] * np.sqrt(precond)
            (improved,) = search([s], probe_steps, directions[None], 1)
            pending = probes[improved or 8 :]
            s.waiting = False
            if not improved:
                s.ended = s.converged = True
                live = live[1:]

    best_z = z0.copy()
    best_f = f_starts[0] if start_feasible[0] else math.inf
    for s in runs:
        if s.fz < best_f:
            best_f = s.fz
            best_z = s.z.copy()
    theta_best = np.exp(np.minimum(np.maximum(best_z[d:], LOG_THETA_MIN), LOG_THETA_MAX))
    theta_best = np.maximum(theta_best, THETA_MIN)
    result_dist = dist.with_params(mu=best_z[:d], theta=theta_best)
    return ExactSolveResult(
        distribution=result_dist,
        objective=best_f,
        sampled_value=float(sampled(best_z)),
        kl_step=float(step_kl(best_z)),
        converged=any(s.converged for s in runs),
        feasible=best_f < math.inf,
    )


def numerical_update(
    batch: RolloutBatch,
    config: CurriculumConfig,
    seed: int = 0,
) -> tuple[ContextDistribution, UpdateReport]:
    """Baseline curriculum update of the distribution that drew ``batch``,
    driven by the exact numerical solver.

    Dispatches like the closed-form update, on the batch statistics, then
    hands the selected subproblem to :func:`solve_exact_sampled`, the returns
    brought in range first.
    """
    dist = batch.source_distribution
    batch, config, _ = returns_in_range(batch, config)
    stats = compute_stats(batch)
    mode = "performance" if should_run_performance_step(stats, config) else "convergence"
    result = solve_exact_sampled(batch, config, mode, seed=seed)
    new_dist = result.distribution
    sigma = dist.target.sigma_tilde_diag
    report = UpdateReport(
        kind=mode,
        degenerate=False,
        mu_solution=None,
        theta_solution=None,
        kl_step=kl_between(new_dist, dist),
        kl_step_mean_part=float(kl_params(new_dist.mu, dist.theta, dist.mu, dist.theta, sigma)),
        kl_to_target_after=kl_to_target(new_dist),
        theta_backtracked=False,
        trust_region_backtracked=not result.converged,
    )
    return new_dist, report
