#!/usr/bin/env python3
"""Guided-vs-random comparison over several seeds.

Runs the full pipeline for both batching modes per seed, then prints the
`report` table over every seed's results: mean accuracies per tap point
plus fine-tuning, the signed deltas, and the full-scale reference deltas
for context.

    python scripts/run_comparison.py --config configs/desk.ini \
        --run-root runs/desk --seeds 0,1,2
"""

import argparse
import sys

from gcontrast.cli import exit_status
from gcontrast.config import load_config
from gcontrast.pipeline import render_report, run_mode_comparison


def seed_list(text):
    """'0,1,2' -> [0, 1, 2]; an empty, non-integer or repeated entry is a usage error."""
    try:
        seeds = [int(entry) for entry in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integer seeds") from None
    if len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"{text!r} repeats a seed")
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--run-root", required=True)
    parser.add_argument("--seeds", type=seed_list, default="0,1,2",
                        help="comma-separated distinct integer global seeds (default: 0,1,2)")
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args(argv)

    def compare():
        table = run_mode_comparison(load_config(args.config), args.run_root, args.seeds,
                                    force=args.force)
        _, text, _ = render_report(table)
        print(f"\nmean validation accuracy over seeds {args.seeds}")
        print(text)

    return exit_status(compare)


if __name__ == "__main__":
    sys.exit(main())
