"""Command line front end for the experiment harness.

Usage: treeflow <experiment> [--config FILE] [--seed N] [--out DIR]
                [--dump-paths]

Without --config the shipped default for the experiment runs.
--dump-paths writes kesten's sampled paths as CSV; no other experiment
samples paths it could write, so the flag is rejected for them.

Exit codes:
  0  every check record in the report passed
  1  the run finished and some check failed
  2  the config or a flag was rejected (the message names it)
  3  the experiment crashed; stderr names it and the exception
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .harness import EXPERIMENTS, ConfigError, ExperimentConfig, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeflow",
        description="verification and convergence experiments for "
                    "variable speed walks on metric trees")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file; defaults are shipped")
    parser.add_argument("--seed", type=int, help="override master_seed")
    parser.add_argument("--out", help="override output_dir")
    parser.add_argument("--dump-paths", action="store_true",
                        help="write sampled paths as CSV (kesten only)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.dump_paths and args.experiment != "kesten":
            raise ConfigError(f"--dump-paths: {args.experiment} writes no "
                              "paths; only kesten supports it")
        if args.config:
            config = ExperimentConfig.from_file(args.config)
            if config.experiment != args.experiment:
                raise ConfigError(
                    f"experiment: config names {config.experiment!r} but the "
                    f"command line asked for {args.experiment!r}")
        else:
            config = ExperimentConfig.default(args.experiment)
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.out is not None:
            overrides["output_dir"] = args.out
        if overrides:
            config = config.replace(**overrides)
    except (ConfigError, OSError) as e:
        print(f"treeflow: config error: {e}", file=sys.stderr)
        return 2

    try:
        artifacts = run_experiment(config, dump_paths=args.dump_paths)
    except Exception as e:
        traceback.print_exc()
        print(f"treeflow: {args.experiment} crashed: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 3
    for check_id, (ok, total) in sorted(artifacts.counts().items()):
        print(f"{check_id}: {ok}/{total} passed")
    for rec in artifacts.failures():
        print(f"FAIL {rec.check_id} {rec.instance}: statistic "
              f"{rec.statistic:.6g} vs {rec.bound_or_target:.6g} "
              f"(seed {rec.seed})")
    print(f"report: {config.output_dir}/report.json")
    print("PASS" if artifacts.all_passed else "FAIL")
    return 0 if artifacts.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
