"""Self-paced Gaussian curriculum learning for contextual tasks.

The package provides closed-form trust-region updates of a Gaussian
context-sampling distribution, an independent numerical oracle for
verification and baseline comparison, native desk-scale environments, a
minimal episodic learner, and a CLI training harness.
"""

from .envs import PointMassEnv, SyntheticEnv
from .gaussian import (
    ContextDistribution,
    TargetSpec,
    kl_between,
    kl_to_target,
    sample,
)
from .learner import Episodes, PolicyParameters, collect_rollouts, improve
from .oracle import LinearizedSubproblem, solve_exact_sampled, solve_numeric
from .stats import CurriculumStats, RolloutBatch, compute_stats
from .update import (
    CurriculumConfig,
    InfeasiblePerformanceConstraint,
    MeanBlock,
    MultiplierSolution,
    ScaleBlock,
    UpdateReport,
    convergence_step,
    performance_step,
    should_run_performance_step,
)

__version__ = "0.1.0"
