#!/usr/bin/env python3
"""Fail when a traced benchmark run reads 0 for a count its workload must make.

    python3 perfbench/run.py --workload dae-desk --seed 1 --seconds 1 --trace 1 \
        | python3 scripts/check_traced_counts.py optim.adam_step.calls dae.epochs_run

Reads run.py's standard output, whose last line is the result JSON, and
checks each named per-layer metric. A name may be a glob, such as
'pipeline.stage_s.*', which must match at least one metric. Exits 1,
naming each metric that is missing or 0, and 0 otherwise.
"""

import fnmatch
import json
import sys


def zero_counts(metrics, names):
    """One line per name that matches no metric, and per matched metric that reads 0."""
    lines = []
    for name in names:
        matched = fnmatch.filter(metrics, name)
        if not matched:
            lines.append(f"{name}: not in the run's metrics")
        lines.extend(f"{metric}: 0" for metric in matched if metrics[metric]["value"] == 0)
    return lines


def main(argv=None, stdin=sys.stdin):
    names = sys.argv[1:] if argv is None else argv
    metrics = json.loads(stdin.read().splitlines()[-1])["metrics"]
    lines = zero_counts(metrics, names)
    for line in lines:
        print(f"check_traced_counts: {line}", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
