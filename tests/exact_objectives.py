"""Per-instance objectives of the exact solver on the 500 instances of the
``exact`` part of ``tests/digest.py``.

Prints one CSV line per instance,
``index,mode,d,eps,objective,converged,kl_step``, with ``eps``, the
objective and the step KL as ``float.hex``, so two trees can be compared
instance by instance rather than by one hash:

    PYTHONPATH=<tree>/src python tests/exact_objectives.py > <tree>.csv

Takes about a minute on one core of a 2-core virtual machine.  Two such
files are compared with

    python tests/exact_objectives.py --compare PARENT.csv CHANGE.csv

which prints the whole distribution of the change: how many instances are
identical and how many infeasible on both trees, how many got worse or
better by more than each relative threshold, the worst instances, and every
change in feasibility (an infinite objective) or in ``converged``.  Both
modes minimise, so a larger objective is worse; the relative change is
``(change - parent) / |parent|``.  For each file it also prints the largest
``kl_step - eps`` and every instance whose step KL exceeds ``eps + 1e-9``;
a file without the ``kl_step`` column compares on the objective alone.
"""

import math
import sys

THRESHOLDS = (1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3)
WORST_SHOWN = 5
KL_SLACK = 1e-9


def main():
    from digest import EXACT_INSTANCES, exact_instance
    from spgl.oracle import solve_exact_sampled

    print("index,mode,d,eps,objective,converged,kl_step")
    for i in range(EXACT_INSTANCES):
        batch, config, mode = exact_instance(i)
        r = solve_exact_sampled(batch, config, mode, seed=i)
        print(
            f"{i},{mode},{batch.source_distribution.d},{config.epsilon.hex()},"
            f"{r.objective.hex()},{r.converged},{r.kl_step.hex()}"
        )
        sys.stdout.flush()


def read(path):
    """``{index: (mode, d, eps, objective, converged, kl_step)}`` of one
    output file, with ``kl_step`` None in a file without that column."""
    rows = {}
    with open(path) as lines:
        next(lines)
        for line in lines:
            index, mode, d, eps, objective, converged, *kl_step = line.strip().split(",")
            rows[int(index)] = (
                mode,
                int(d),
                float.fromhex(eps),
                float.fromhex(objective),
                converged == "True",
                float.fromhex(kl_step[0]) if kl_step else None,
            )
    return rows


def print_kl_steps(label, rows):
    """The largest ``kl_step - eps`` of one file and every instance whose
    step KL exceeds ``eps + KL_SLACK``."""
    excess = [(row[5] - row[2], i) for i, row in rows.items() if row[5] is not None]
    if not excess:
        print(f"{label}: no kl_step column")
        return
    above = [f"{i} ({over:+.3g})" for over, i in excess if over > KL_SLACK]
    print(f"{label}: largest kl_step - eps {max(excess)[0]:+.3g}")
    print(f"{label}: kl_step above eps + {KL_SLACK:g}: {len(above)} {' '.join(above)}".rstrip())


def compare(parent_path, change_path):
    parent, change = read(parent_path), read(change_path)
    if parent.keys() != change.keys():
        raise SystemExit("the two files hold different instances")
    identical = infeasible = 0
    flips, converged_flips, changes = [], [], []
    for i in sorted(parent):
        mode, d, eps, f_parent, conv_parent, _ = parent[i]
        f_change, conv_change = change[i][3], change[i][4]
        if conv_parent != conv_change:
            converged_flips.append(f"{i} ({conv_parent} -> {conv_change})")
        if math.isinf(f_parent) or math.isinf(f_change):
            if math.isinf(f_parent) and math.isinf(f_change):
                infeasible += 1
            else:
                flips.append(f"{i} ({f_parent!r} -> {f_change!r})")
            continue
        if f_change == f_parent:
            identical += 1
            continue
        if f_parent:
            rel = (f_change - f_parent) / abs(f_parent)
        else:
            rel = math.copysign(math.inf, f_change)
        changes.append((rel, i, mode, d, eps, f_parent, f_change))

    print(f"instances: {len(parent)}")
    print(f"identical objective: {identical}")
    print(f"infeasible on both trees: {infeasible}")
    print(f"moved: {len(changes)}")
    print("relative change (change - parent) / |parent|:")
    print(f"  {'threshold':>9}  {'worse':>5}  {'better':>6}")
    for t in THRESHOLDS:
        worse = sum(rel > t for rel, *_ in changes)
        better = sum(rel < -t for rel, *_ in changes)
        print(f"  {t:>9.0e}  {worse:>5}  {better:>6}")
    ranked = sorted(changes, reverse=True)
    print(f"worst {WORST_SHOWN} (index, mode, d, eps, parent, change, relative):")
    for rel, i, mode, d, eps, f_parent, f_change in ranked[:WORST_SHOWN]:
        print(f"  {i} {mode} {d} {eps:.3g} {f_parent!r} {f_change!r} {rel:+.3g}")
    if ranked:
        rel, i = ranked[-1][:2]
        print(f"best: instance {i}, {rel:+.3g}")
    print(f"feasibility changed: {len(flips)} {' '.join(flips)}".rstrip())
    print(f"converged changed: {len(converged_flips)} {' '.join(converged_flips)}".rstrip())
    print_kl_steps("parent", parent)
    print_kl_steps("change", change)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        compare(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 1:
        main()
    else:
        raise SystemExit("usage: exact_objectives.py [--compare PARENT.csv CHANGE.csv]")
