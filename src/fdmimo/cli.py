"""Command-line front end.

Subcommands:

    fdmimo run           execute a sweep scenario and emit the CSV
    fdmimo check         run the release acceptance suite
    fdmimo print-config  show the resolved configuration document

Exit codes: 0 success, 1 configuration/usage error, 2 runtime error or a
failed check criterion.
Progress and warnings go to standard error; data goes only to the file
named by --output (or to standard output with ``--output -``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Sequence

from . import experiments
from .channel import ConfigError, SystemConfig

#: Published CSVs are not trustworthy below this many trials.
_TRIALS_WARN_FLOOR = 100
#: The base trial count the acceptance criteria's tolerances assume.
_CHECK_DESIGN_TRIALS = 10_000
#: Share of failed trials from which a mode's rates are flagged on stderr.
_FAILURE_WARN_SHARE = 1e-3
#: Help of run and print-config for --scenario.
_SCENARIO_HELP = ("named scenario (default: the --config file's scenario "
                  "key, else custom; fig-perfect without --config)")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fdmimo",
                     description="Full-duplex multi-antenna link simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep scenario, emit CSV")
    run.add_argument("--scenario", choices=experiments.SCENARIO_NAMES,
                     help=_SCENARIO_HELP)
    run.add_argument("--config", metavar="PATH",
                     help="key = value configuration file")
    run.add_argument("--trials", type=int, help="Monte Carlo trials per point")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--modes", metavar="LIST",
                     help="comma-separated subset of "
                          + ",".join(experiments.MODE_TOKENS))
    run.add_argument("--output", default="-", metavar="PATH",
                     help="CSV destination, '-' for standard output (default)")

    check = sub.add_parser("check", help="run the acceptance suite")
    check.add_argument("--trials", type=int, default=_CHECK_DESIGN_TRIALS,
                       help="base trial count the criteria scale from "
                            f"(default {_CHECK_DESIGN_TRIALS}); the "
                            "tolerances assume the default, and below it "
                            "a criterion can fail by chance")
    check.add_argument("--seed", type=int, default=1, help="master seed")

    prt = sub.add_parser("print-config",
                         help="print the resolved configuration")
    prt.add_argument("--scenario", choices=experiments.SCENARIO_NAMES,
                     help=_SCENARIO_HELP)
    prt.add_argument("--config", metavar="PATH",
                     help="key = value configuration file")
    return parser


def _resolve(args: argparse.Namespace):
    """Apply precedence defaults < config file < CLI flags."""
    if args.config is not None:
        config, scenario = experiments.load_config(args.config, args.scenario)
    else:
        name = args.scenario if args.scenario is not None else "fig-perfect"
        config = SystemConfig()
        scenario = experiments.default_scenario(name)
    overrides = {}
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "modes", None) is not None:
        overrides["modes"] = experiments.split_modes(args.modes)
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return config, scenario


def _check_output(path: str) -> None:
    """Reject a CSV destination that cannot be a file, before any trial is
    drawn; the file itself is neither created nor truncated here."""
    if path == "-":
        return
    if not path:
        raise ConfigError("--output must not be empty")
    if os.path.isdir(path):
        raise ConfigError(f"--output {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"--output {path}: directory {parent} does not "
                          f"exist")


def _cmd_run(args: argparse.Namespace) -> int:
    config, scenario = _resolve(args)
    _check_output(args.output)
    if scenario.trials < _TRIALS_WARN_FLOOR:
        print(f"warning: {scenario.trials} trials is below the "
              f"{_TRIALS_WARN_FLOOR}-trial floor for publishable CSVs",
              file=sys.stderr)
    rows = experiments.run_scenario(
        config, scenario, progress=lambda msg: print(msg, file=sys.stderr))
    # A mode's failures are counted over all its points, so one row each.
    for row in {r.mode: r for r in rows}.values():
        if row.failures == row.trials:
            print(f"warning: mode {row.mode}: every trial failed, so its "
                  f"simulated rates are left empty", file=sys.stderr)
        elif row.failures / row.trials >= _FAILURE_WARN_SHARE:
            print(f"warning: mode {row.mode}: {row.failures} of {row.trials} "
                  f"trials failed; its rates average the other "
                  f"{row.trials - row.failures}, the draws whose transceiver "
                  f"was built", file=sys.stderr)
    experiments.emit_csv(rows, sys.stdout if args.output == "-"
                         else args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be positive")
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    if args.trials < _CHECK_DESIGN_TRIALS:
        print(f"warning: the criteria's tolerances assume "
              f"{_CHECK_DESIGN_TRIALS} base trials; at {args.trials} a "
              f"criterion can fail by chance", file=sys.stderr)
    # Imported here, so that no other command loads multiprocessing.
    from . import acceptance
    results = acceptance.run_all(base_trials=args.trials, seed=args.seed,
                                 report=lambda line: print(line,
                                                           file=sys.stderr))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed",
          file=sys.stderr)
    return 0 if not failed else 2


def _cmd_print_config(args: argparse.Namespace) -> int:
    config, scenario = _resolve(args)
    sys.stdout.write(experiments.format_config(config, scenario))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_print_config(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
