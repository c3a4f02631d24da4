"""In-memory spans recorded around calls into gcontrast's public functions.

Nothing inside ``src/gcontrast`` is instrumented. A ``Target`` names a
function by the object that holds it: a module attribute, a class
attribute such as ``Conv2D.__call__``, or the copy of a name that a
sibling module bound with ``from .tensor import gradients``. Inside
``Tracer.installed`` each target is replaced by a wrapper that records
a span (name, start, end, parent) and restored on exit.

The same mechanism serves two sets of targets. ``probe_targets`` are
the few clock reads the end-to-end runs need (step boundaries, pipeline
stages) plus the guided plans the output checks validate, a handful of
calls per training step. ``trace_targets`` add every layer boundary for
the separate traced run.
"""

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    tag: object = None   # encoder block index for layers.Conv2D spans


@dataclass(frozen=True)
class Target:
    owner: object
    attr: str
    span: str
    on_return: object = None   # f(tracer, args, kwargs, result) -> None
    tag: object = None         # f(tracer, args) -> tag stored on the span
    wrap_result: str = None    # the call returns a function: trace it under this name


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.guided_plans = []   # (assignment, plan) per build_guided_plan call
        self.encoder_blocks = {}  # id(Conv2D layer) -> block index
        self._keep_alive = []     # layers whose ids are keys above
        self._stack = []

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, on_return=None, tag=None, wrap_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                        tag(tracer, args) if tag else None)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            if wrap_result is not None:
                return tracer.wrap(result, wrap_result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        saved = []
        try:
            for t in targets:
                original = getattr(t.owner, t.attr)
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr,
                        self.wrap(original, t.span, t.on_return, t.tag, t.wrap_result))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self):
        """{span name: [calls, total seconds, self seconds]}."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out = {}
        for span, children in zip(self.spans, child_time):
            entry = out.setdefault(span.name, [0, 0.0, 0.0])
            duration = span.end - span.start
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - children
        return out

    def step_times(self, start_span, end_span):
        """Seconds from each `start_span` call to the next `end_span` return."""
        steps, started = [], None
        for span in self.spans:
            if span.name == start_span:
                started = span.start
            elif span.name == end_span and started is not None:
                steps.append(span.end - started)
                started = None
        return steps

    def stage_times(self):
        """{stage: seconds} summed over modes, from pipeline.stage.* spans."""
        out = {}
        for span in self.spans:
            if span.name.startswith("pipeline.stage."):
                stage = span.name[len("pipeline.stage."):]
                out[stage] = out.get(stage, 0.0) + span.end - span.start
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span.name, "start": span.start - origin,
                                     "end": span.end - origin, "parent": span.parent,
                                     "tag": span.tag}) + "\n")


# ---- computed counters, from call shapes and return values ----

def _conv2d_work(tracer, args, kwargs, out):
    x, w = args[0], args[1]
    n, ho, wo, f = out.shape
    kh, kw, c, _ = w.shape
    patch = n * ho * wo * kh * kw * c
    tracer.count("tensor.conv2d.gflop", 2.0 * patch * f / 1e9)
    tracer.count("tensor.conv2d.im2col_mb", patch * x.data.itemsize / 1e6)


def _conv2d_transpose_work(tracer, args, kwargs, out):
    x, w = args[0], args[1]
    n, h, wd, c = x.shape
    kh, kw, f, _ = w.shape
    tracer.count("tensor.conv2d_transpose.gflop", 2.0 * n * h * wd * c * kh * kw * f / 1e9)


def _latents_csv_size(tracer, args, kwargs, out):
    tracer.count("artifacts.latents_csv_mb", os.path.getsize(args[0]) / 1e6)


def _kmeans_iterations(tracer, args, kwargs, model):
    tracer.count("cluster.kmeans_iterations", model.iterations_run)


def _dae_epochs(tracer, args, kwargs, result):
    tracer.count("dae.epochs_run", result[1].stopped_epoch)


def _capture_guided_plan(tracer, args, kwargs, plan):
    assignment = args[0] if args else kwargs["assignment"]
    tracer.guided_plans.append((assignment, plan))


def _evaluate_step(tracer, args, kwargs, result):
    tracer.count("evaluate.optimizer_steps")


def _tag_encoder_blocks(tracer, args, kwargs, encoder):
    from gcontrast.layers import Conv2D
    convs = [layer for layer in encoder.layers if isinstance(layer, Conv2D)]
    for i, layer in enumerate(convs):
        tracer.encoder_blocks[id(layer)] = i
    tracer._keep_alive.extend(convs)


def _encoder_block(tracer, args):
    return tracer.encoder_blocks.get(id(args[0]))


STAGES = ("train_dae", "cluster", "plan", "train_contrastive", "probe", "finetune")


def probe_targets():
    """Clock reads and captures the end-to-end runs need."""
    from gcontrast import contrastive, dae, pipeline
    targets = [
        Target(contrastive, "forward_pair_batch", "contrastive.forward_pair_batch"),
        Target(contrastive, "sgd_cosine_step", "optim.sgd_cosine_step"),
        Target(contrastive, "build_guided_plan", "scheduler.build_plan",
               on_return=_capture_guided_plan),
        Target(dae, "add_gaussian_noise", "data.add_gaussian_noise"),
        Target(dae, "adam_step", "optim.adam_step"),
        Target(pipeline, "build_guided_plan", "scheduler.build_plan",
               on_return=_capture_guided_plan),
    ]
    for stage in STAGES:
        targets.append(Target(pipeline, f"stage_{stage}",
                              "pipeline.stage." + stage.replace("_", "-")))
    return targets


def trace_targets():
    """Every layer boundary the per-layer metrics are built from."""
    from gcontrast import contrastive, dae, evaluate, layers, pipeline, tensor
    targets = probe_targets() + [
        Target(tensor, "conv2d", "tensor.conv2d", on_return=_conv2d_work),
        Target(tensor, "conv2d_transpose", "tensor.conv2d_transpose",
               on_return=_conv2d_transpose_work),
        Target(tensor, "matmul", "tensor.matmul"),
        Target(layers.Conv2D, "__call__", "layers.Conv2D", tag=_encoder_block),
        Target(layers.ConvTranspose2D, "__call__", "layers.ConvTranspose2D"),
        Target(layers.Dense, "__call__", "layers.Dense"),
        Target(contrastive, "augment_pair", "data.augment_pair"),
        Target(contrastive, "nt_xent_loss", "contrastive.nt_xent_loss"),
        Target(contrastive, "build_random_plan", "scheduler.build_plan"),
        Target(contrastive, "build_encoder", "contrastive.build_encoder",
               on_return=_tag_encoder_blocks),
        Target(dae, "reconstruction_loss", "dae.reconstruction_loss"),
        Target(dae, "train_dae", "dae.train_dae", on_return=_dae_epochs),
        Target(dae, "extract_latents", "dae.extract_latents"),
        Target(evaluate, "adam_step", "optim.adam_step", on_return=_evaluate_step),
        Target(pipeline, "train_dae", "dae.train_dae", on_return=_dae_epochs),
        Target(pipeline, "extract_latents", "dae.extract_latents"),
        Target(pipeline, "write_latents_csv", "artifacts.write_latents_csv",
               on_return=_latents_csv_size),
        Target(pipeline, "read_latents_csv", "artifacts.read_latents_csv"),
        Target(pipeline, "save_checkpoint", "artifacts.checkpoint"),
        Target(pipeline, "load_checkpoint", "artifacts.checkpoint"),
        Target(pipeline, "write_jsonl", "artifacts.jsonl"),
        Target(pipeline, "append_jsonl", "artifacts.jsonl"),
        Target(pipeline, "read_jsonl", "artifacts.jsonl"),
        Target(pipeline, "kmeans_fit", "cluster.kmeans_fit", on_return=_kmeans_iterations),
        Target(pipeline, "assign", "cluster.assign"),
        Target(pipeline, "build_random_plan", "scheduler.build_plan"),
        Target(pipeline, "validate_plan", "scheduler.validate_plan"),
        Target(pipeline, "build_encoder", "contrastive.build_encoder",
               on_return=_tag_encoder_blocks),
        Target(pipeline, "linear_probe", "evaluate.linear_probe"),
        Target(pipeline, "fine_tune_10pct", "evaluate.fine_tune_10pct"),
        Target(pipeline, "tap", "evaluate.tap", wrap_result="evaluate.tap_extract"),
    ]
    for owner in (contrastive, dae, evaluate):
        targets.append(Target(owner, "gradients", "tensor.gradients"))
    return targets


# (metric, span, field) where field indexes Tracer.totals(): 0 calls, 1 seconds, 2 self seconds
SPAN_METRICS = [
    ("tensor.conv2d.calls", "tensor.conv2d", 0),
    ("tensor.conv2d.fwd_s", "tensor.conv2d", 1),
    ("tensor.conv2d_transpose.calls", "tensor.conv2d_transpose", 0),
    ("tensor.conv2d_transpose.fwd_s", "tensor.conv2d_transpose", 1),
    ("tensor.matmul.fwd_s", "tensor.matmul", 1),
    ("tensor.gradients.calls", "tensor.gradients", 0),
    ("tensor.gradients.s", "tensor.gradients", 1),
    ("layers.Conv2D.self_s", "layers.Conv2D", 2),
    ("layers.ConvTranspose2D.self_s", "layers.ConvTranspose2D", 2),
    ("layers.Dense.s", "layers.Dense", 1),
    ("data.augment_pair.calls", "data.augment_pair", 0),
    ("data.augment_pair.s", "data.augment_pair", 1),
    ("data.add_gaussian_noise.s", "data.add_gaussian_noise", 1),
    ("contrastive.forward_pair_batch.s", "contrastive.forward_pair_batch", 1),
    ("contrastive.nt_xent_loss.s", "contrastive.nt_xent_loss", 1),
    ("optim.sgd_cosine_step.s", "optim.sgd_cosine_step", 1),
    ("optim.adam_step.calls", "optim.adam_step", 0),
    ("optim.adam_step.s", "optim.adam_step", 1),
    ("dae.reconstruction_loss.s", "dae.reconstruction_loss", 1),
    ("dae.extract_latents.s", "dae.extract_latents", 1),
    ("artifacts.write_latents_csv.s", "artifacts.write_latents_csv", 1),
    ("artifacts.read_latents_csv.s", "artifacts.read_latents_csv", 1),
    ("artifacts.checkpoint.s", "artifacts.checkpoint", 1),
    ("artifacts.jsonl.s", "artifacts.jsonl", 1),
    ("cluster.kmeans_fit.s", "cluster.kmeans_fit", 1),
    ("cluster.assign.s", "cluster.assign", 1),
    ("scheduler.build_plan.s", "scheduler.build_plan", 1),
    ("scheduler.validate_plan.s", "scheduler.validate_plan", 1),
    ("evaluate.tap_extract.s", "evaluate.tap_extract", 1),
    ("evaluate.linear_probe.s", "evaluate.linear_probe", 1),
    ("evaluate.fine_tune_10pct.s", "evaluate.fine_tune_10pct", 1),
]

# counters computed from call shapes and return values, not from clocks
COMPUTED_COUNTERS = [
    ("tensor.conv2d.gflop", "GFLOP"),
    ("tensor.conv2d.im2col_mb", "MB"),
    ("tensor.conv2d_transpose.gflop", "GFLOP"),
    ("artifacts.latents_csv_mb", "MB"),
    ("cluster.kmeans_iterations", "count"),
    ("dae.epochs_run", "count"),
    ("evaluate.optimizer_steps", "count"),
    ("scheduler.same_label_pairs", "count"),
]

ENCODER_BLOCKS = 4


def layer_metrics(tracer, reps):
    """Per-layer values averaged per repetition, as {name: (value, unit)}."""
    totals = tracer.totals()
    out = {}
    for metric, span, field in SPAN_METRICS:
        value = totals.get(span, (0, 0.0, 0.0))[field]
        out[metric] = (value / reps, "count" if field == 0 else "s")
    for metric, unit in COMPUTED_COUNTERS:
        out[metric] = (tracer.counters.get(metric, 0) / reps, unit)
    blocks = [0.0] * ENCODER_BLOCKS
    for span in tracer.spans:
        if span.name == "layers.Conv2D" and span.tag is not None and span.tag < ENCODER_BLOCKS:
            blocks[span.tag] += span.end - span.start
    for i, seconds in enumerate(blocks):
        out[f"layers.encoder.block{i}.s"] = (seconds / reps, "s")
    stages = tracer.stage_times()
    for stage in STAGES:
        name = stage.replace("_", "-")
        out[f"pipeline.stage_s.{name}"] = (stages.get(name, 0.0) / reps, "s")
    out["pipeline.stage_sum_s"] = (sum(stages.values()) / reps, "s")
    planned = tracer.counters.get("scheduler.planned_indices", 0)
    share = tracer.counters.get("scheduler.distinct_labels", 0) / planned if planned else 0.0
    out["scheduler.distinct_label_share"] = (share, "ratio")
    return out
