"""Every name the benchmark tracer patches must stay bound in gcontrast,
and the pipeline must still call the names it times.

perfbench/tracing.py swaps module and class attributes with
getattr/setattr; a refactor that unbinds one would otherwise fail only
when the benchmark runs, and one that leaves a name bound but no longer
calls it through that binding would silently zero its metric.
"""

import dataclasses
import importlib.util
import io
import json
from pathlib import Path

from gcontrast import dae, pipeline
from gcontrast.config import load_config

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("perfbench_tracing", TRACING)


def test_every_trace_target_resolves():
    tracing = _tracing()
    targets = tracing.trace_targets()
    assert targets
    unbound = [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
               for t in targets if not hasattr(t.owner, t.attr)]
    assert unbound == []


def test_mode_comparison_calls_every_probe_and_pipeline_target(tmp_path):
    # every trace target, through the binding it patches: a trainer whose
    # step called optim's own adam_step or gradients would zero a metric.
    # Only dae-desk calls train_dae and extract_latents through dae; the
    # pipeline calls its own bindings of them.
    tracing = _tracing()
    targets = [t for t in tracing.trace_targets()
               if not (t.owner is dae and t.attr in ("train_dae", "extract_latents"))]
    # one span per patched binding, so each binding's calls are told apart
    unique = {}
    for t in targets:
        name = f"{t.owner.__name__}.{t.attr}"
        unique.setdefault(name, dataclasses.replace(t, span=name))
    tracer = tracing.Tracer()
    with tracer.installed(list(unique.values())):
        pipeline.run_mode_comparison(load_config(ROOT / "configs" / "tiny.ini"),
                                     str(tmp_path), [0])
    called = tracer.totals()
    assert sorted(name for name in unique if name not in called) == []


def test_check_traced_counts_names_each_count_missing_or_zero(capsys):
    # the traced CI job pipes a run's output through this check
    check = _load("check_traced_counts", ROOT / "scripts" / "check_traced_counts.py")
    metrics = {"a.calls": 3, "b.calls": 0, "stage_s.x": 1.5, "stage_s.y": 0.0}
    result = {"metrics": {name: {"value": value, "unit": "count"}
                          for name, value in metrics.items()}}
    output = '{"env": {}}\n{"detail": {}}\n' + json.dumps(result) + "\n"
    assert check.main(["a.calls", "stage_s.x"], io.StringIO(output)) == 0
    assert capsys.readouterr().err == ""
    assert check.main(["a.calls", "b.calls", "c.calls", "stage_s.*"], io.StringIO(output)) == 1
    assert capsys.readouterr().err.splitlines() == [
        "check_traced_counts: b.calls: 0",
        "check_traced_counts: c.calls: not in the run's metrics",
        "check_traced_counts: stage_s.y: 0"]
