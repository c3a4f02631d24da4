"""Desk-scale benchmark for gcontrast.

    python3 perfbench/run.py --workload contrastive-desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``. The set-up (inputs from the seed, then a warm-up) is done
SETUP_REPEATS times and its median reported. Whole repetitions of the
workload then run until ``--seconds`` have passed (at least one), and
each repetition's outputs are checked.

Standard output ends with three JSON lines: the environment stamp, the
details (per-repetition walls, stage times, check failures), and the
result ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced repetitions alternate (at least one of each), the metrics are
the per-layer ones plus ``trace.overhead_s``, and the spans are written
to ``.bench_out/``. The exit code is 0 when every check passed, 1 when
one failed, and 2 when the benchmark could not run at all.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads(limit):
    """Cap BLAS thread pools at `limit`; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libraries = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(), "nproc": nproc(), "cpu": cpu,
            "platform": platform.platform(),
            "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def validate_guided_plans(tracer, captured):
    """Failures of the guided plans a repetition built; counts their labels."""
    from gcontrast.scheduler import PlanValidationError, validate_plan
    failures = []
    for assignment, plan in captured:
        try:
            diagnostics = validate_plan(plan, assignment)
        except PlanValidationError as err:
            failures.append(f"guided plan (epoch seed {plan.epoch_seed}) invalid: {err}")
            continue
        tracer.count("scheduler.same_label_pairs", diagnostics.violations)
        tracer.count("scheduler.distinct_labels", sum(diagnostics.distinct_per_batch))
        tracer.count("scheduler.planned_indices", plan.num_indices)
    return failures


def measure(workload, seed, seconds, trace):
    import numpy as np
    import tracing
    import workloads

    reference = workloads.load_reference()
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.cleanup(state)
        t0 = time.perf_counter()
        state = workload.setup(seed, OUT)
        setups.append(time.perf_counter() - t0)

    probe, layered = tracing.Tracer(), tracing.Tracer()
    plain_targets, traced_targets = tracing.probe_targets(), tracing.trace_targets()
    walls = {False: [], True: []}
    items, failures, digests, finals = 0, [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            # alternating puts both kinds in the same stretch of the host's drift
            traced = trace and attempted % 2 == 1
            tracer = layered if traced else probe
            attempted += 1
            rep_failures = []
            try:
                t0 = time.perf_counter()
                with tracer.installed(traced_targets if traced else plain_targets):
                    handle = workload.run(state)
                wall = time.perf_counter() - t0
                result = workload.check(state, handle)
            except Exception:
                traceback.print_exc()
                rep_failures.append(f"repetition {attempted} raised "
                                    f"{traceback.format_exc(limit=0).strip()}")
            else:
                walls[traced].append(wall)
                if not traced:
                    items += result.items
                rep_failures += result.failures
                if not np.isfinite(result.losses).all():
                    rep_failures.append("a loss is not finite")
                digests.append(result.digest)
                if result.digest != digests[0]:
                    rep_failures.append(f"loss-history digest of repetition {attempted} differs "
                                        "from the first repetition's")
                finals.append(result.final)
                rep_failures += workloads.check_reference(reference, workload.name, seed,
                                                          result.final)
            captured, tracer.guided_plans = tracer.guided_plans, []
            rep_failures += validate_guided_plans(tracer, captured)
            if rep_failures:
                failed += 1
                failures += rep_failures
            if time.perf_counter() - start >= seconds and (attempted > 1 or not trace):
                break
    finally:
        workload.cleanup(state)

    detail = {"workload": workload.name, "seed": seed, "setup_s": setups,
              "rep_wall_s": walls[False], "traced_rep_wall_s": walls[True],
              "item": workload.item, "items": items,
              "stage_s": probe.stage_times(), "final_losses": finals[:1],
              "loss_digest": digests[:1], "failures": failures}
    if trace:
        os.makedirs(OUT, exist_ok=True)
        layered.write(os.path.join(OUT, f"trace-{workload.name}-seed{seed}.jsonl"))
        metrics = tracing.layer_metrics(layered, max(1, len(walls[True])))
        overhead = (statistics.median(walls[True]) - statistics.median(walls[False])
                    if walls[True] and walls[False] else 0.0)
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        steps_ms = [1000.0 * s for s in probe.step_times(*workload.step_spans)]
        detail["steps"] = len(steps_ms)
        rep_walls = walls[False]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(rep_walls) if rep_walls else 0.0, "s"),
            "items_per_s": (items / sum(rep_walls) if rep_walls else 0.0, "1/s"),
            "step_ms_p50": (statistics.median(steps_ms) if steps_ms else 0.0, "ms"),
            "step_ms_p90": (statistics.quantiles(steps_ms, n=10)[8]
                            if len(steps_ms) >= 2 else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return detail, result


def refuse(message):
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    """Import gcontrast from this checkout's src/ with BLAS threads capped.

    Returns the workloads module; exits with code 2 when the sources are
    not there, so a bare copy of the benchmark never prints a result.
    """
    if not os.path.isfile(os.path.join(SRC, "gcontrast", "__init__.py")):
        refuse(f"no gcontrast sources under {SRC}; run from a checkout's root")
    limit_blas_threads(nproc())
    sys.path.insert(0, SRC)
    import gcontrast
    if os.path.dirname(os.path.abspath(gcontrast.__file__)) != os.path.join(SRC, "gcontrast"):
        refuse(f"imported gcontrast from {gcontrast.__file__}, not {SRC}")
    import workloads
    return workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        refuse(f"unknown workload {args.workload!r}; choose from "
               f"{', '.join(workloads.WORKLOADS)}")
    env = environment()
    detail, result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
