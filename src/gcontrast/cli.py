"""Command line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime
failure, 3 a bug (any other exception; its traceback is printed); a flag
the command does not take is a usage error, exit 2.
"""

import argparse
import sys
import traceback

from . import pipeline
from .config import ConfigError, load_config
from .data import DataFormatError
from .optim import TrainingDivergedError
from .pipeline import MissingArtifactError, RunDirectoryError, Workspace
from .tensor import NonFiniteError

# the flags besides --config and --run-dir, each passed to a stage as the
# keyword argument of its name
FLAGS = {
    "--mode": dict(choices=("guided", "random"), default="guided",
                   help="batching mode (default: guided)"),
    "--force": dict(action="store_true", help="recompute even when artifacts are up to date"),
}
# each command's stage and the flags it takes
COMMANDS = {
    "train-dae": (pipeline.stage_train_dae, ("--force",)),
    "cluster": (pipeline.stage_cluster, ("--force",)),
    "plan": (pipeline.stage_plan, ("--mode", "--force")),
    "train-contrastive": (pipeline.stage_train_contrastive, ("--mode", "--force")),
    "probe": (pipeline.stage_probe, ("--mode", "--force")),
    "finetune": (pipeline.stage_finetune, ("--mode", "--force")),
    "pipeline": (pipeline.stage_pipeline, ("--mode", "--force")),
    "report": (pipeline.stage_report, ()),
}
STAGE_COMMANDS = tuple(COMMANDS)
# the failures `exit_status` maps to exit 1 and to exit 2
REFUSALS = (ConfigError, RunDirectoryError, MissingArtifactError)
RUNTIME_ERRORS = (TrainingDivergedError, NonFiniteError, DataFormatError, OSError)


def parse_args(argv=None):
    """The command line's `command`, `config`, `run_dir` and flags. The
    command's own parser reads what follows its name, so a flag it does not
    take is reported under its usage line, `usage: gcontrast COMMAND ...`."""
    top = argparse.ArgumentParser(
        prog="gcontrast",
        description="Pseudo-label-guided batch construction for contrastive training")
    top.add_argument("command", choices=STAGE_COMMANDS, help="the stage to run")
    top.add_argument("flags", nargs=argparse.REMAINDER, help="see `gcontrast COMMAND -h`")
    args = top.parse_args(argv)
    parser = argparse.ArgumentParser(prog=f"gcontrast {args.command}")
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--run-dir", required=True, help="artifact directory")
    for flag in COMMANDS[args.command][1]:
        parser.add_argument(flag, **FLAGS[flag])
    return parser.parse_args(args.flags, argparse.Namespace(command=args.command))


def exit_status(action):
    """Run `action()`: 0 when it returns, 1 after printing `error: …` for a
    refusal, 2 after printing `runtime failure: …` for a runtime error, 3
    after printing the traceback of any other exception."""
    try:
        action()
    except REFUSALS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RUNTIME_ERRORS as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    return 0


def main(argv=None):
    flags = vars(parse_args(argv))
    stage = COMMANDS[flags.pop("command")][0]
    config, run_dir = flags.pop("config"), flags.pop("run_dir")
    return exit_status(lambda: stage(Workspace(load_config(config), run_dir), **flags))


if __name__ == "__main__":
    sys.exit(main())
