"""Command line entry point.

    stirap <subcommand> [--config FILE] [--out DIR] [--format csv|json]
                        [--workers N] [--no-dissipation]

Subcommands: run, sweep-separation, sweep-detuning, hybrid, reversal,
split, tomography, berry, validate-config.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import Experiment, ExperimentConfig, config_hash, load_config
from .errors import ConfigurationError, NumericalError
from .experiments import emit, plan, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_SUBCOMMANDS = {
    "run": Experiment.TIME_EVOLUTION,
    "sweep-separation": Experiment.SEPARATION_SWEEP,
    "sweep-detuning": Experiment.DETUNING_MAP,
    "hybrid": Experiment.HYBRID,
    "reversal": Experiment.REVERSAL,
    "split": Experiment.SPLIT_MAP,
    "tomography": Experiment.TOMOGRAPHY_TIMELINE,
    "berry": Experiment.BERRY,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirap",
        description="Three-level transmon STIRAP simulator and experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_SUBCOMMANDS) + ["validate-config"]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (defaults are the published device parameters)")
        if name != "validate-config":
            p.add_argument("--out", help="output directory (default: config output.dir)")
            p.add_argument("--format", choices=["csv", "json"], help="output format")
            p.add_argument("--workers", type=int, help="worker processes for sweeps")
            p.add_argument("--no-dissipation", action="store_true",
                           help="run the dissipationless variant")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stage = "config"  # the stage a MemoryError names
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.command == "validate-config":
            stage = "plan"
            plan(cfg)
            print(f"ok {config_hash(cfg)}")
            return EXIT_OK

        replacements = {"experiment": _SUBCOMMANDS[args.command]}
        if args.workers is not None:
            replacements["workers"] = args.workers
        if args.no_dissipation:
            replacements["dissipative"] = False
        output = {k: v for k, v in (("dir", args.out), ("format", args.format)) if v is not None}
        replacements["output"] = dataclasses.replace(cfg.output, **output)
        cfg = dataclasses.replace(cfg, **replacements)

        stage = "run"
        result = run_experiment(cfg)
        stage = "emit"
        written = emit(result, cfg.output.dir, cfg.output.format)
        for path in written:
            print(path)
        if result.failures:
            print(f"warning: {len(result.failures)} cell(s) failed; see manifest",
                  file=sys.stderr)
        return EXIT_OK
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # numpy's _ArrayMemoryError too; run_batch types its own
        detail = f" ({exc})" if str(exc) else ""  # json.dumps raises a bare MemoryError
        print(f"numerical failure: {stage}: memory ran out{detail}", file=sys.stderr)
        return EXIT_NUMERICAL
