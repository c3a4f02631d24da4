"""Record the reference final losses the benchmark's output check compares with.

    python3 perfbench/record_reference.py 0 31 [WORKLOAD ...]

Runs one untimed repetition of each named workload (all by default) for
each seed in the inclusive range, and merges the final losses into
perfbench/reference.json; seeds and workloads not named keep their
entries. A repetition that fails a check is not recorded. Re-record
only when a change is meant to alter the program's numerics, and say so
in that change; a change that claims a speed-up must leave it alone.
"""

import json
import sys

import run

# Relative tolerance on a recorded seed's final loss. Repetitions on one
# machine are bit-identical; the slack absorbs BLAS kernels that round
# differently on another CPU. The pipeline's k-means can move a few
# points under such rounding, which changes guided batches, so it gets more.
RTOL = {"contrastive-desk": 1e-3, "dae-desk": 1e-3, "pipeline-desk": 1e-2}


def main(argv):
    first, last = (int(a) for a in argv[:2])
    workloads = run.load_program()
    table = workloads.load_reference()
    table.pop("envelope", None)
    table.setdefault("workloads", {})
    for name in argv[2:] or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        entry = table["workloads"].setdefault(name, {"seeds": {}})
        entry["rtol"] = RTOL[name]
        for seed in range(first, last + 1):
            state = workload.setup(seed, run.OUT)
            try:
                result = workload.check(state, workload.run(state))
            finally:
                workload.cleanup(state)
            if result.failures:
                raise SystemExit(f"{name} seed {seed}: {result.failures}")
            entry["seeds"][str(seed)] = result.final
            print(name, seed, result.final, file=sys.stderr)
            with open(workloads.REFERENCE_PATH, "w") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
