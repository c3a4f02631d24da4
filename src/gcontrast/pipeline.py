"""Pipeline stages behind the CLI commands.

Each stage reads and writes artifacts under one run directory, which
`run.json` binds to one config and one dataset. `OUTPUTS` lists the
files each stage writes: a stage whose files all exist is skipped on
re-run unless forced, and a stage missing any file of an upstream
stage names that stage's command. Artifact files never contain
timestamps, so identical configurations yield byte-identical runs.
"""

import copy
import os
import sys

import numpy as np

from .artifacts import (
    append_jsonl,
    config_fingerprint,
    dataset_fingerprint,
    load_checkpoint,
    read_csv,
    read_json,
    read_jsonl,
    read_latents_csv,
    save_checkpoint,
    write_csv,
    write_json,
    write_jsonl,
    write_latents_csv,
)
from .cluster import PseudoLabelAssignment, assign, kmeans_fit, pseudo_label_table
from .config import ConfigError, RunConfig, dataset_size_errors
from .contrastive import (
    ContrastiveConfig,
    EncoderSpec,
    ProjectionHeadSpec,
    build_encoder,
    build_head,
    train_contrastive,
)
from .dae import AutoencoderSpec, build_autoencoder, extract_latents, train_dae
from .data import load_cifar10, make_synthetic, subset, subset_class_sizes, train_val_split
from .evaluate import (
    FULL_SCALE_REFERENCE,
    fine_tune_10pct,
    linear_probe,
    supervised_reference,
    tap,
)
from .layers import load_parameters
from .scheduler import build_guided_plan, build_random_plan, validate_plan
from .seeds import derive_seed


def log(message):
    print(message, file=sys.stderr)


def _method_tag(mode):
    return "guided" if mode == "guided" else "random-baseline"


class RunDirectoryError(Exception):
    """The run directory belongs to another config or dataset."""


class Workspace:
    """One run directory plus the resolved config and lazy dataset.

    `run.json` binds the directory to one config and one dataset: the
    first command records the config hash, the first dataset read the
    dataset hash. A command under another config, reading another dataset, or
    in a directory holding outputs without the hash is refused before
    it writes anything, so every artifact that exists is current. A
    directory holding only `run.json` (its first command failed before
    writing an output) is bound anew.
    """

    def __init__(self, config: RunConfig, run_dir):
        self.config = config
        self.run_dir = str(run_dir)
        entries = os.listdir(self.run_dir) if os.path.isdir(self.run_dir) else []
        self._used = entries not in ([], ["run.json"])
        self._bound = (read_json(self.path("run.json")) if self._used and "run.json" in entries
                       else {})
        os.makedirs(self.run_dir, exist_ok=True)
        self._bind("config", config_fingerprint(config.to_dict()))
        self._dataset = None

    def path(self, name):
        return os.path.join(self.run_dir, name)

    def _bind(self, what, value):
        """Record `{what}_hash` in run.json, or refuse another or a missing value."""
        key = f"{what}_hash"
        if key not in self._bound and not self._used:
            self._bound[key] = value
            write_json(self.path("run.json"), self._bound)
        stored = self._bound.get(key, f"unknown (it holds files but no run.json with {key})")
        if stored != value:
            raise RunDirectoryError(f"run directory {self.run_dir} belongs to {what} hash {stored}, "
                                    f"not to this {what}'s {value}; use another --run-dir")

    @property
    def dataset(self):
        if self._dataset is None:
            dataset = resolve_dataset(self.config)
            self._bind("dataset", dataset_fingerprint(dataset))
            self._dataset = dataset
        return self._dataset

    def eval_split(self):
        return train_val_split(self.dataset, self.config.eval.val_fraction,
                               derive_seed(self.config.seed, "eval-split"))


def resolve_dataset(config: RunConfig):
    d = config.dataset
    if d.source == "cifar10":
        dataset = load_cifar10(d.path)
        errors = dataset_size_errors(config, dict(zip(*np.unique(dataset.labels,
                                                                  return_counts=True))))
        if errors:
            raise ConfigError(errors)
    else:
        dataset = make_synthetic(classes=d.classes, per_class=d.per_class,
                                 image_size=d.image_size, channels=d.channels,
                                 seed=derive_seed(config.seed, "dataset"),
                                 noise_sigma=d.noise_sigma)
    if d.subset_size and d.subset_size < len(dataset):
        chosen = _exact_stratified_subset(dataset.labels, d.subset_size,
                                          derive_seed(config.seed, "subset"))
        dataset = subset(dataset, chosen)
    return dataset


def _exact_stratified_subset(labels, size, seed):
    """Exactly `size` indices, spread as evenly as possible over classes."""
    labels = np.asarray(labels)
    classes = np.unique(labels)
    rng = np.random.default_rng(seed)
    chosen = []
    for cls, want in zip(classes, subset_class_sizes(size, len(classes))):
        members = np.flatnonzero(labels == cls)
        if want > len(members):
            raise ValueError(f"class {cls} has only {len(members)} members, need {want}")
        perm = rng.permutation(len(members))
        chosen.append(members[perm[:want]])
    return np.sort(np.concatenate(chosen))


class MissingArtifactError(FileNotFoundError):
    """A required upstream artifact is absent; names the producing command."""


# the files each stage writes, `{mode}` standing for the batching mode
OUTPUTS = {
    "train-dae": ("dae_checkpoint.json", "dae_checkpoint.bin", "dae_history.csv",
                  "latents.json", "latents.bin"),
    "cluster": ("pseudo_labels.csv", "cluster_model.json", "cluster_model.bin"),
    "plan": ("plan_{mode}.jsonl",),
    "train-contrastive": ("contrastive_{mode}_encoder.json", "contrastive_{mode}_encoder.bin",
                          "contrastive_{mode}_head.json", "contrastive_{mode}_head.bin",
                          "contrastive_{mode}_loss.csv"),
}


def _outputs(ws, stage, mode=None):
    return [ws.path(name.format(mode=mode)) for name in OUTPUTS[stage]]


def _done(ws, stage, force, mode=None):
    """True, logging the skip, when `stage`'s files all exist and --force is not given."""
    if force or not all(map(os.path.exists, _outputs(ws, stage, mode))):
        return False
    log(f"{stage}{'' if mode is None else f'[{mode}]'}: up to date, skipping (use --force to redo)")
    return True


def _require(path, command):
    if not os.path.exists(path):
        raise MissingArtifactError(f"missing artifact {path}; run `{command}` first")
    return path


def _upstream(ws, stage, mode=None):
    """`stage`'s output paths, each of which must exist."""
    command = stage if mode is None else f"{stage} --mode {mode}"
    return [_require(path, command) for path in _outputs(ws, stage, mode)]


# ---- stages ----

def stage_train_dae(ws: Workspace, force=False):
    if _done(ws, "train-dae", force):
        return
    checkpoint, _, history_csv, _, latents_bin = _outputs(ws, "train-dae")
    cfg = ws.config
    spec = AutoencoderSpec(encoder_layers=cfg.dae.encoder_blocks,
                           image_size=cfg.dataset.image_size, channels=cfg.dataset.channels)
    init_seed = derive_seed(cfg.seed, "dae-init")
    model = build_autoencoder(spec, init_seed)
    model, history = train_dae(model, ws.dataset, sigma=cfg.dae.sigma,
                               max_epochs=cfg.dae.epochs, patience=cfg.dae.patience,
                               val_fraction=cfg.dae.val_fraction,
                               batch_size=cfg.dae.batch_size,
                               seed=derive_seed(cfg.seed, "dae-train"),
                               adam_lr=cfg.dae.adam_lr)
    manifest = {"kind": "autoencoder", "encoder_blocks": [list(b) for b in cfg.dae.encoder_blocks],
                "image_size": cfg.dataset.image_size, "channels": cfg.dataset.channels,
                "latent_shape": list(spec.latent_shape()), "seed": init_seed,
                "best_epoch": history.best_epoch, "stopped_epoch": history.stopped_epoch}
    save_checkpoint(checkpoint.removesuffix(".json"), manifest, [p.data for p in model.params()])
    write_csv(history_csv, ["epoch", "train_loss", "val_loss"],
              [(e + 1, t, v) for e, (t, v) in enumerate(zip(history.train_loss, history.val_loss))])
    latents = extract_latents(model, ws.dataset)
    write_latents_csv(latents_bin, latents)
    log(f"train-dae: best epoch {history.best_epoch}, stopped {history.stopped_epoch}, "
        f"val loss {min(history.val_loss):.6f}")


def stage_cluster(ws: Workspace, force=False):
    if _done(ws, "cluster", force):
        return
    latents = read_latents_csv(_upstream(ws, "train-dae")[-1])
    labels_csv, checkpoint, _ = _outputs(ws, "cluster")
    cfg = ws.config
    model = kmeans_fit(latents, k=cfg.cluster.k, seed=derive_seed(cfg.seed, "cluster"),
                       max_iter=cfg.cluster.max_iter, tol=cfg.cluster.tol)
    assignment = assign(model, latents)
    write_csv(labels_csv, ["image_index", "cluster_label"], pseudo_label_table(assignment))
    save_checkpoint(checkpoint.removesuffix(".json"),
                    {"kind": "kmeans", "k": model.k, "inertia": model.inertia,
                     "iterations_run": model.iterations_run,
                     "seed": derive_seed(cfg.seed, "cluster")},
                    [model.centroids])
    occupied = int((assignment.counts > 0).sum())
    log(f"cluster: k={model.k}, {occupied} nonempty clusters, inertia {model.inertia:.3f}")


def _load_assignment(ws) -> PseudoLabelAssignment:
    _, _, rows = read_csv(_upstream(ws, "cluster")[0])
    labels = np.array([int(r[1]) for r in rows], dtype=np.int64)
    k = ws.config.cluster.k  # the k the labels came from: the run directory has one config
    return PseudoLabelAssignment(labels=labels, counts=np.bincount(labels, minlength=k))


def _contrastive(ws):
    """The ContrastiveConfig, EncoderSpec and ProjectionHeadSpec of the bound config."""
    cfg = ws.config
    return (ContrastiveConfig(temperature=cfg.contrastive.temperature, batch_size=cfg.scheduler.p,
                              epochs=cfg.contrastive.epochs, base_lr=cfg.contrastive.base_lr,
                              seed=derive_seed(cfg.seed, "contrastive")),
            EncoderSpec(blocks=cfg.contrastive.encoder_blocks, channels=cfg.dataset.channels),
            ProjectionHeadSpec(widths=cfg.contrastive.head_widths))


def stage_plan(ws: Workspace, mode, force=False):
    if _done(ws, "plan", force, mode):
        return
    assignment = _load_assignment(ws) if mode == "guided" else None
    (config, _, _), n = _contrastive(ws), len(ws.dataset)
    if mode == "guided":
        nonempty = int((assignment.counts > 0).sum())
        if nonempty < config.batch_size:
            log(f"plan[{mode}]: warning: only {nonempty} nonempty clusters for batch "
                f"size {config.batch_size}; guided batching degenerates toward random")
    records = []
    check_against = assignment if assignment is not None else PseudoLabelAssignment(
        labels=np.zeros(n, dtype=np.int64), counts=np.array([n]))
    for epoch in range(1, config.epochs + 1):
        seed = config.plan_seed(epoch)
        if assignment is not None:
            plan = build_guided_plan(assignment, p=config.batch_size, epoch_seed=seed)
        else:
            plan = build_random_plan(n, config.batch_size, epoch_seed=seed)
        validate_plan(plan, check_against)
        for bi, batch in enumerate(plan.batches):
            records.append({"epoch": epoch, "batch_index": bi,
                            "indices": [int(i) for i in batch]})
    write_jsonl(_outputs(ws, "plan", mode)[0], records)
    log(f"plan[{mode}]: wrote {len(records)} batches over {config.epochs} epoch plans")


def stage_train_contrastive(ws: Workspace, mode, force=False):
    if _done(ws, "train-contrastive", force, mode):
        return
    assignment = _load_assignment(ws) if mode == "guided" else None
    config, encoder_spec, head_spec = _contrastive(ws)
    encoder, head, history = train_contrastive(ws.dataset, config, encoder_spec, head_spec,
                                               assignment=assignment)
    base_manifest = {"mode": mode, "blocks": [list(b) for b in encoder_spec.blocks],
                     "channels": encoder_spec.channels, "head_widths": list(head_spec.widths),
                     "seed": config.seed}
    encoder_json, _, head_json, _, loss_csv = _outputs(ws, "train-contrastive", mode)
    save_checkpoint(encoder_json.removesuffix(".json"),
                    dict(base_manifest, kind="encoder"), [p.data for p in encoder.params()])
    save_checkpoint(head_json.removesuffix(".json"),
                    dict(base_manifest, kind="projection-head"), [p.data for p in head.params()])
    write_csv(loss_csv, ["epoch", "batch", "loss"], history.records)
    log(f"train-contrastive[{mode}]: epoch means "
        f"{history.epoch_means[0]:.4f} -> {history.epoch_means[-1]:.4f}")


def _load_contrastive(ws, mode):
    encoder_json, _, head_json, _, _ = _upstream(ws, "train-contrastive", mode)
    _, spec, head_spec = _contrastive(ws)
    encoder, head = build_encoder(spec, 0), build_head(head_spec, spec.feature_dim, 0)
    for model, manifest in ((encoder, encoder_json), (head, head_json)):
        load_parameters(model, load_checkpoint(manifest.removesuffix(".json"))[1])
    return encoder, head, spec


def _existing_reports(ws):
    path = ws.path("results.jsonl")
    if not os.path.exists(path):
        return []
    return read_jsonl(path)


def _recorded(ws):
    """(method, eval_name) pairs results.jsonl holds."""
    return {(r["method"], r["eval_name"]) for r in _existing_reports(ws)}


def _append_reports(ws, reports, force):
    records = [{"method": report.method, "eval_name": report.eval_name,
                "accuracy": report.accuracy, "seed": report.seed} for report in reports]
    # --force replaces what was already recorded for these evals
    existing = _existing_reports(ws) if force else []
    replaced = {(r["method"], r["eval_name"]) for r in records}
    kept = [r for r in existing if (r["method"], r["eval_name"]) not in replaced]
    if len(kept) < len(existing):
        write_jsonl(ws.path("results.jsonl"), kept + records)
    else:
        append_jsonl(ws.path("results.jsonl"), records)
    return records


def stage_probe(ws: Workspace, mode, force=False):
    cfg = ws.config
    method = _method_tag(mode)
    held = _recorded(ws)
    recorded = set() if force else held  # --force redoes every eval it runs
    to_run = [p for p in cfg.eval.tap_points if (method, p) not in recorded]
    # the reference does not depend on the mode: --force redoes it under guided only
    run_supervised = cfg.eval.supervised_reference and (
        ("supervised-reference", "supervised") not in held or force and mode == "guided")
    if not to_run and not run_supervised:
        log(f"probe[{mode}]: up to date, skipping (use --force to redo)")
        return []
    encoder, head, spec = _load_contrastive(ws, mode)
    train_ds, val_ds = ws.eval_split()
    reports = []
    if to_run:
        # one backbone pass per split feeds every tap point
        extract = tap(encoder, head, to_run)
        features = zip(extract(train_ds.images), extract(val_ds.images))
        for point_name, split_features in zip(to_run, features):
            reports.append(linear_probe(split_features, train_ds, val_ds,
                                        epochs=cfg.eval.probe_epochs,
                                        patience=cfg.eval.patience,
                                        seed=derive_seed(cfg.seed, "probe", mode, point_name),
                                        method=method, eval_name=point_name))
            log(f"probe[{mode}] {point_name}: {reports[-1].accuracy:.2f}%")
    if run_supervised:
        fresh_encoder = build_encoder(spec, derive_seed(cfg.seed, "supervised-encoder"))
        report = supervised_reference(fresh_encoder, spec.feature_dim, train_ds, val_ds,
                                      epochs=cfg.eval.probe_epochs, patience=cfg.eval.patience,
                                      seed=derive_seed(cfg.seed, "supervised"))
        reports.append(report)
        log(f"supervised reference: {report.accuracy:.2f}%")
    return _append_reports(ws, reports, force)


def stage_finetune(ws: Workspace, mode, force=False):
    method = _method_tag(mode)
    if not force and (method, "finetune") in _recorded(ws):
        log(f"finetune[{mode}]: up to date, skipping (use --force to redo)")
        return []
    encoder, _, spec = _load_contrastive(ws, mode)
    train_ds, val_ds = ws.eval_split()
    cfg = ws.config
    report = fine_tune_10pct(encoder, spec.feature_dim, train_ds, val_ds,
                             fraction=cfg.eval.finetune_fraction,
                             epochs=cfg.eval.probe_epochs, patience=cfg.eval.patience,
                             seed=derive_seed(cfg.seed, "finetune", mode), method=method)
    log(f"finetune[{mode}]: {report.accuracy:.2f}%")
    return _append_reports(ws, [report], force)


def stage_pipeline(ws: Workspace, mode, force=False):
    if mode == "guided":
        stage_train_dae(ws, force)
        stage_cluster(ws, force)
    stage_plan(ws, mode, force)
    stage_train_contrastive(ws, mode, force)
    stage_probe(ws, mode, force)
    stage_finetune(ws, mode, force)


def run_mode_comparison(config: RunConfig, run_root, seeds, force=False):
    """Full guided and random pipelines for each seed.

    Returns the accuracy_table of every seed's results; each seed gets
    its own run directory under run_root so artifacts stay auditable.
    """
    records = []
    for seed in seeds:
        cfg = copy.deepcopy(config)
        cfg.seed = seed
        ws = Workspace(cfg, os.path.join(run_root, f"seed{seed}"))
        for mode in ("guided", "random"):
            stage_pipeline(ws, mode, force=force)
        records += _existing_reports(ws)
    return accuracy_table(records)


EVAL_COLUMNS = ("P1", "P2", "P3", "finetune", "supervised")
COMPARED = ("P1", "P2", "P3", "finetune")


def accuracy_table(records):
    """{method: {eval_name: [accuracy per record]}} over result records."""
    table = {}
    for r in records:
        table.setdefault(r["method"], {}).setdefault(r["eval_name"], []).append(r["accuracy"])
    return table


def _signed(deltas):
    return "  ".join(f"{c}: {v:+.2f}" for c, v in deltas.items())


def render_report(table):
    """(rows, text, deltas) of an accuracy_table.

    Rows hold the mean accuracy per method and eval, header first. The
    text adds the guided-minus-random deltas and, for context, those of
    the full-scale reference runs.
    """
    rows = [["method", *EVAL_COLUMNS]]
    for method in ("guided", "random-baseline", "supervised-reference"):
        if method in table:
            rows.append([method] + [f"{np.mean(table[method][col]):.2f}"
                                    if table[method].get(col) else "-" for col in EVAL_COLUMNS])
    lines = ["\t".join(row) for row in rows]
    guided, baseline = table.get("guided", {}), table.get("random-baseline", {})
    deltas = {c: float(np.mean(guided[c]) - np.mean(baseline[c]))
              for c in COMPARED if guided.get(c) and baseline.get(c)}
    if deltas:
        lines += ["", "guided minus random-baseline (this run): " + _signed(deltas)]
        ref = FULL_SCALE_REFERENCE["cifar10"]
        lines.append("guided minus baseline (full-scale reference, cifar10): "
                     + _signed({c: ref["guided"][c] - ref["random-baseline"][c]
                                for c in COMPARED}))
    return rows, "\n".join(lines), deltas


def stage_report(ws: Workspace):
    """Comparison table plus loss-curve CSV."""
    records = read_jsonl(_require(ws.path("results.jsonl"), "probe / finetune"))
    rows, text, deltas = render_report(accuracy_table(records))
    write_csv(ws.path("report_table.csv"), rows[0], rows[1:])
    print(text)

    loss_rows = []
    dae_history = _outputs(ws, "train-dae")[2]
    if os.path.exists(dae_history):
        _, _, rows_ = read_csv(dae_history)
        loss_rows += [("dae-train", r[0], "", r[1]) for r in rows_]
        loss_rows += [("dae-val", r[0], "", r[2]) for r in rows_]
    for mode in ("guided", "random"):
        path = _outputs(ws, "train-contrastive", mode)[-1]
        if os.path.exists(path):
            _, _, rows_ = read_csv(path)
            loss_rows += [(f"contrastive-{mode}", r[0], r[1], r[2]) for r in rows_]
    write_csv(ws.path("report_losses.csv"), ["stage", "epoch", "batch", "loss"], loss_rows)
    return text, deltas
