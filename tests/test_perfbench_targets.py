"""Every name the benchmark tracer patches must stay bound in gcontrast.

perfbench/tracing.py swaps module and class attributes with
getattr/setattr; a refactor that unbinds one would otherwise fail only
when the benchmark runs.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.trace_targets()
    assert targets
    unbound = [f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
               for t in targets if not hasattr(t.owner, t.attr)]
    assert unbound == []
