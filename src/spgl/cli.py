"""Command-line interface.

Subcommands:

* ``train``  -- run training for a config (single seed writes the learning
  curve CSV; ``--seeds`` compares curriculum modes and writes a summary CSV).
* ``eval``   -- evaluate a saved policy on a config's target distribution.
* ``verify`` -- randomized closed-form-vs-oracle, finite-difference and
  timing suites; exits nonzero on any violation.

Exit codes: 0 success, 1 configuration or file error, 2 verification
failure, 3 runtime warnings escalated by ``--warnings-as-errors``.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import sys
from pathlib import Path

from .config import CURRICULUM_MODES, ConfigError, available_presets, load_config, preset_path
from .harness import (
    evaluate_run,
    records_to_csv,
    run_multi_seed,
    run_training,
    summary_to_csv,
    verify,
)
from .learner import load_policy, save_policy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_WARNINGS = 3


def _resolve_config(raw: str):
    path = Path(raw)
    if path.exists():
        return load_config(path)
    return load_config(preset_path(raw))


def _output_path(raw: str) -> Path:
    """``raw`` as a path that a run can write, checked before the run: not a
    directory, and inside a directory that exists.  Raises ``OSError``,
    which exits as a file error."""
    path = Path(raw)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, "is a directory", raw)
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no such directory", str(path.parent))
    return path


def _add_common(parser):
    parser.add_argument("--config", required=True, help="config file path or preset name")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spgl",
        description="Self-paced Gaussian curriculum learning for contextual tasks.",
        epilog=f"shipped presets: {', '.join(available_presets())}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run a training experiment")
    _add_common(train)
    train.add_argument("--out", default=None, help="output CSV path")
    train.add_argument(
        "--curriculum",
        choices=CURRICULUM_MODES,
        default=None,
        help="override the config's curriculum mode",
    )
    train.add_argument(
        "--seeds", default=None, help="comma-separated seeds for a multi-seed comparison"
    )
    train.add_argument(
        "--compare",
        default=None,
        help="curriculum modes compared in multi-seed runs (default: default,spgl)",
    )
    train.add_argument("--save-policy", default=None, help="save the final policy (npz)")
    train.add_argument(
        "--warnings-as-errors",
        action="store_true",
        help="exit 3 when degenerate or failed curriculum updates occurred",
    )

    ev = sub.add_parser("eval", help="evaluate a saved policy on the target distribution")
    _add_common(ev)
    ev.add_argument("--policy", required=True, help="policy file from train --save-policy")
    ev.add_argument("--episodes", type=int, default=None, help="evaluation episode count")

    ver = sub.add_parser("verify", help="run the randomized verification suites")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--instances", type=int, default=100, help="instances per suite")
    ver.add_argument("--no-timing", action="store_true", help="skip the wall-clock comparison")
    ver.add_argument(
        "--timing-updates", type=int, default=50, help="updates in the timing comparison"
    )
    ver.add_argument("--quiet", action="store_true")
    return parser


def _cmd_train(args) -> int:
    if args.seeds is not None:
        # single-run flags that the multi-seed comparison would not honour
        for flag, value in (
            ("--seed", args.seed),
            ("--curriculum", args.curriculum),
            ("--save-policy", args.save_policy),
            ("--warnings-as-errors", args.warnings_as_errors or None),
        ):
            if value is not None:
                raise ConfigError(f"{flag} cannot be combined with --seeds")
    elif args.compare is not None:
        raise ConfigError("--compare needs --seeds")
    config = _resolve_config(args.config)
    seed = config.seed if args.seed is None else args.seed

    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"--seeds must be integers, got {args.seeds!r}") from None
        modes = [m.strip() for m in (args.compare or "default,spgl").split(",") if m.strip()]
        out = _output_path(args.out or f"{config.name}_summary.csv")
        summaries, all_records = run_multi_seed(config, seeds, modes=modes)
        out.write_text(summary_to_csv(summaries))
        for (mode, run_seed), records in all_records.items():
            curve_path = out.with_name(f"{out.stem}_{mode}_seed{run_seed}.csv")
            curve_path.write_text(records_to_csv(records, config.target.d))
        if not args.quiet:
            print(summary_to_csv(summaries), end="")
            print(f"summary written to {out}")
        return EXIT_OK

    mode = args.curriculum or config.curriculum_mode
    out = _output_path(args.out or f"{config.name}_{mode}_seed{seed}.csv")
    if args.save_policy:
        _output_path(args.save_policy)
    progress = None
    if not args.quiet:

        def progress(record):
            if record.iteration % 50 == 0:
                print(
                    f"iter {record.iteration:5d}  return {record.mean_return:8.3f}  "
                    f"success {record.success_rate:5.1f}%  kl {record.kl_to_target:10.4g}  "
                    f"step {record.step_kind}"
                )

    result = run_training(config, seed, curriculum_mode=mode, progress=progress)
    out.write_text(records_to_csv(result.records, config.target.d))
    ev = evaluate_run(config, [result.policy], [seed])[0]
    if args.save_policy:
        save_policy(result.policy, args.save_policy)
    if not args.quiet:
        print(f"curve written to {out}")
        print(
            f"final eval: return {ev.mean_return:.3f} +- {ev.return_se:.3f}, "
            f"success {ev.success_rate:.1f}% +- {ev.success_se:.1f}"
        )
    if args.warnings_as_errors and (result.degenerate_updates or result.failed_updates):
        print(
            f"{result.degenerate_updates} degenerate and {result.failed_updates} failed "
            "updates occurred",
            file=sys.stderr,
        )
        return EXIT_WARNINGS
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = _resolve_config(args.config)
    if args.episodes is not None:
        if args.episodes < 1:
            raise ConfigError(f"--episodes must be >= 1, got {args.episodes}")
        config = dataclasses.replace(config, eval_episodes=args.episodes)
    seed = config.seed if args.seed is None else args.seed
    try:
        ev = evaluate_run(config, [load_policy(args.policy)], [seed])[0]
    except ConfigError:
        raise
    except ValueError as exc:  # an unreadable policy file, or one that does not fit
        raise ConfigError(f"policy {args.policy}: {exc}") from exc
    print(
        f"return {ev.mean_return:.6g} +- {ev.return_se:.3g}, "
        f"success {ev.success_rate:.6g}% +- {ev.success_se:.3g} "
        f"({config.eval_episodes} episodes)"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify(
        seed=args.seed,
        instance_count=args.instances,
        include_timing=not args.no_timing,
        timing_updates=args.timing_updates,
    )
    if not args.quiet:
        for line in report.format_lines():
            print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
