"""Command line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime
failure.
"""

import argparse
import sys

from .config import ConfigError, load_config
from .data import DataFormatError
from .optim import TrainingDivergedError
from .pipeline import (
    MissingArtifactError,
    Workspace,
    stage_cluster,
    stage_finetune,
    stage_pipeline,
    stage_plan,
    stage_probe,
    stage_report,
    stage_train_contrastive,
    stage_train_dae,
)

STAGE_COMMANDS = ("train-dae", "cluster", "plan", "train-contrastive",
                  "probe", "finetune", "pipeline", "report")
# the failures that exit 2, here and in scripts/run_comparison.py
RUNTIME_ERRORS = (TrainingDivergedError, DataFormatError, ValueError, OSError)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gcontrast",
        description="Pseudo-label-guided batch construction for contrastive training")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGE_COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="INI config file")
        cmd.add_argument("--run-dir", required=True, help="artifact directory")
        cmd.add_argument("--mode", choices=("guided", "random"), default="guided",
                         help="batching mode (default: guided)")
        cmd.add_argument("--seed", type=int, default=None, help="override the global seed")
        cmd.add_argument("--force", action="store_true",
                         help="recompute even when artifacts are up to date")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = args.seed
        ws = Workspace(config, args.run_dir)
        if args.command == "train-dae":
            stage_train_dae(ws, force=args.force)
        elif args.command == "cluster":
            stage_cluster(ws, force=args.force)
        elif args.command == "plan":
            stage_plan(ws, args.mode, force=args.force)
        elif args.command == "train-contrastive":
            stage_train_contrastive(ws, args.mode, force=args.force)
        elif args.command == "probe":
            stage_probe(ws, args.mode, force=args.force)
        elif args.command == "finetune":
            stage_finetune(ws, args.mode, force=args.force)
        elif args.command == "pipeline":
            stage_pipeline(ws, args.mode, force=args.force)
        elif args.command == "report":
            stage_report(ws)
    except (ConfigError, MissingArtifactError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RUNTIME_ERRORS as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
