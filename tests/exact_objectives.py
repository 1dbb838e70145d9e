"""Per-instance objectives of the exact solver on the 500 instances of the
``exact`` part of ``tests/digest.py``.

Prints one CSV line per instance, ``index,mode,d,eps,objective,converged``,
with ``eps`` and the objective as ``float.hex``, so two trees can be
compared instance by instance rather than by one hash:

    PYTHONPATH=<tree>/src python tests/exact_objectives.py > <tree>.csv

and ``diff`` of two such files lists every instance whose objective moved.
Takes about a minute on one core of a 2-core virtual machine.
"""

import sys

from digest import EXACT_INSTANCES, exact_instance
from spgl.oracle import solve_exact_sampled


def main():
    print("index,mode,d,eps,objective,converged")
    for i in range(EXACT_INSTANCES):
        batch, dist, target, config, mode = exact_instance(i)
        r = solve_exact_sampled(batch, dist, target, config, mode, seed=i)
        print(f"{i},{mode},{dist.d},{config.epsilon.hex()},{r.objective.hex()},{r.converged}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
