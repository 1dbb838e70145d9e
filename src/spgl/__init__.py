"""Self-paced Gaussian curriculum learning for contextual tasks.

The package provides closed-form trust-region updates of a Gaussian
context-sampling distribution, an independent numerical oracle for
verification and baseline comparison, native desk-scale environments, a
minimal episodic learner, and a CLI training harness.  Each name is imported
from the module that defines it, e.g. ``from spgl.update import update``.
"""

__version__ = "0.1.0"
