"""Per-instance objectives of the exact solver on the 500 instances of the
``exact`` part of ``tests/digest.py``.

Prints one CSV line per instance,
``index,mode,d,eps,objective,converged,kl_step,cpu_s,value_calls,value_rows``,
with ``eps``, the objective and the step KL as ``float.hex``, so two trees
can be compared instance by instance rather than by one hash; ``cpu_s`` is
the solve's ``time.process_time``, and ``value_calls`` and ``value_rows``
count the solve's calls of :func:`spgl.gaussian.sampled_value` and the
parameter rows they evaluate, by wrapping ``spgl.oracle.sampled_value``:

    PYTHONPATH=<tree>/src python tests/exact_objectives.py > <tree>.csv

Takes about 10 s on one core of a 2-core virtual machine.  Two such
files are compared with

    python tests/exact_objectives.py --compare PARENT.csv CHANGE.csv

which prints the whole distribution of the change: how many instances are
identical and how many infeasible on both trees, how many got worse or
better by more than each relative threshold, every instance worse by more
than 1e-8 (at least the worst five), and every change in feasibility (an
infinite objective) or in ``converged``.  Both modes minimise, so a larger
objective is worse; the relative change is ``(change - parent) / |parent|``.
For each file it also prints the largest ``kl_step - eps`` and every
instance whose step KL exceeds ``eps + 1e-9``, and, when both files have the
``cpu_s`` column, each file's CPU time and their ratio, in total and per
mode; the identical count is split by mode too, so a change to one mode can
show that the other did not move.  For each file with the ``value_calls``
and ``value_rows`` columns it prints their totals, in total and per mode.
A file without the ``kl_step``, ``cpu_s`` or value columns compares without
them.
"""

import math
import sys
import time
from collections import Counter

THRESHOLDS = (1e-12, 1e-10, 1e-9, 1e-8, 1e-6, 1e-3)
WORST_SHOWN = 5
WORSE_LISTED = 1e-8
KL_SLACK = 1e-9
MODES = ("performance", "convergence")


def main():
    from digest import EXACT_INSTANCES, exact_instance

    import spgl.oracle
    from spgl.oracle import solve_exact_sampled

    counts = Counter()
    sampled_value = spgl.oracle.sampled_value

    def counted(contexts, values, log_p0, mu, var):
        counts["calls"] += 1
        counts["rows"] += mu.shape[0] if mu.ndim > 1 else 1
        return sampled_value(contexts, values, log_p0, mu, var)

    spgl.oracle.sampled_value = counted
    print("index,mode,d,eps,objective,converged,kl_step,cpu_s,value_calls,value_rows")
    for i in range(EXACT_INSTANCES):
        batch, config, mode = exact_instance(i)
        counts.clear()
        start = time.process_time()
        r = solve_exact_sampled(batch, config, mode, seed=i)
        cpu_s = time.process_time() - start
        print(
            f"{i},{mode},{batch.source_distribution.d},{config.epsilon.hex()},"
            f"{r.objective.hex()},{r.converged},{r.kl_step.hex()},{cpu_s:.6f},"
            f"{counts['calls']},{counts['rows']}"
        )
        sys.stdout.flush()


def read(path):
    """``{index: (mode, d, eps, objective, converged, kl_step, cpu_s,
    value_calls, value_rows)}`` of one output file, with a field None in a
    file without its column."""
    rows = {}
    with open(path) as lines:
        names = next(lines).strip().split(",")
        for line in lines:
            row = dict(zip(names, line.strip().split(",")))
            rows[int(row["index"])] = (
                row["mode"],
                int(row["d"]),
                float.fromhex(row["eps"]),
                float.fromhex(row["objective"]),
                row["converged"] == "True",
                float.fromhex(row["kl_step"]) if "kl_step" in row else None,
                float(row["cpu_s"]) if "cpu_s" in row else None,
                int(row["value_calls"]) if "value_calls" in row else None,
                int(row["value_rows"]) if "value_rows" in row else None,
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


def print_value_work(label, rows):
    """The ``sampled_value`` calls and rows of one file, in total and per
    mode."""
    if any(row[7] is None for row in rows.values()):
        print(f"{label}: no value_calls column")
        return
    for mode in ("total", *MODES):
        picked = [row for row in rows.values() if mode in ("total", row[0])]
        calls, value_rows = sum(row[7] for row in picked), sum(row[8] for row in picked)
        print(f"{label}: sampled_value {mode}: {calls} calls, {value_rows} rows")


def compare(parent_path, change_path):
    parent, change = read(parent_path), read(change_path)
    if parent.keys() != change.keys():
        raise SystemExit("the two files hold different instances")
    identical, infeasible = Counter(), 0
    flips, converged_flips, changes = [], [], []
    for i in sorted(parent):
        mode, d, eps, f_parent, conv_parent, *_ = parent[i]
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
            identical[mode] += 1
            continue
        if f_parent:
            rel = (f_change - f_parent) / abs(f_parent)
        else:
            rel = math.copysign(math.inf, f_change)
        changes.append((rel, i, mode, d, eps, f_parent, f_change))

    print(f"instances: {len(parent)}")
    per_mode = ", ".join(f"{mode} {identical[mode]}" for mode in MODES)
    print(f"identical objective: {sum(identical.values())} ({per_mode})")
    print(f"infeasible on both trees: {infeasible}")
    print(f"moved: {len(changes)}")
    print("relative change (change - parent) / |parent|:")
    print(f"  {'threshold':>9}  {'worse':>5}  {'better':>6}")
    for t in THRESHOLDS:
        worse = sum(rel > t for rel, *_ in changes)
        better = sum(rel < -t for rel, *_ in changes)
        print(f"  {t:>9.0e}  {worse:>5}  {better:>6}")
    ranked = sorted(changes, reverse=True)
    shown = max(WORST_SHOWN, sum(rel > WORSE_LISTED for rel, *_ in changes))
    print(f"worst {shown} (index, mode, d, eps, parent, change, relative):")
    for rel, i, mode, d, eps, f_parent, f_change in ranked[:shown]:
        print(f"  {i} {mode} {d} {eps:.3g} {f_parent!r} {f_change!r} {rel:+.3g}")
    if ranked:
        rel, i = ranked[-1][:2]
        print(f"best: instance {i}, {rel:+.3g}")
    print(f"feasibility changed: {len(flips)} {' '.join(flips)}".rstrip())
    print(f"converged changed: {len(converged_flips)} {' '.join(converged_flips)}".rstrip())
    print_kl_steps("parent", parent)
    print_kl_steps("change", change)
    print_value_work("parent", parent)
    print_value_work("change", change)
    if all(row[6] is not None for rows in (parent, change) for row in rows.values()):
        for label in ("total", *MODES):
            cpu_parent, cpu_change = (
                sum(row[6] for row in rows.values() if label in ("total", row[0]))
                for rows in (parent, change)
            )
            # a file of one mode has no CPU time in the other
            ratio = f"{cpu_change / cpu_parent:.3f}" if cpu_parent else "n/a"
            print(
                f"cpu_s {label}: parent {cpu_parent:.2f}, change {cpu_change:.2f}, "
                f"ratio {ratio}"
            )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        compare(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 1:
        main()
    else:
        raise SystemExit("usage: exact_objectives.py [--compare PARENT.csv CHANGE.csv]")
