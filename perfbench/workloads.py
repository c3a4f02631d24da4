"""The three desk-scale workloads and the checks on their outputs.

Every input is generated from the workload seed with
``data.make_synthetic`` at desk.ini's dataset shape (10 classes x 200
images, 32x32x3). The program receives only the generated arrays; the
pipeline receives the same images written in the CIFAR-10 binary layout.
Shapes and hyperparameters are written out here rather than read from
``configs/desk.ini`` so that a config edit cannot change the benchmark.

A workload has ``setup(seed, scratch) -> state`` (inputs plus warm-up),
``run(state) -> handle`` (the timed repetition), ``check(state, handle)
-> RepResult`` (untimed) and ``cleanup(state)``.
"""

import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from gcontrast import artifacts, contrastive, dae, data, pipeline, seeds
from gcontrast.cluster import PseudoLabelAssignment
from gcontrast.config import RunConfig

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

CLASSES, PER_CLASS, IMAGE_SIZE, CHANNELS, PIXEL_NOISE = 10, 200, 32, 3, 0.16
K = P = 64
TEMPERATURE, BASE_LR = 0.1, 0.05
ENCODER_BLOCKS = ((32, 3, 2), (64, 3, 2), (128, 3, 2), (256, 3, 2))
HEAD_WIDTHS = (256, 128, 64)
DAE_BLOCKS = ((32, 3, 2), (64, 3, 2), (128, 3, 2))
DAE_SIGMA, DAE_PATIENCE, DAE_VAL_FRACTION, DAE_BATCH = 0.01, 5, 0.1, 64
WARMUP_IMAGES = 2 * P

# Epochs per repetition. Each is below its early-stopping patience (5),
# so the amount of work is the same for every seed.
DAE_EPOCHS = 2
PIPELINE_DAE_EPOCHS = 2
PIPELINE_CONTRASTIVE_EPOCHS = 2
PIPELINE_PROBE_EPOCHS = 5


@dataclass
class RepResult:
    items: int                      # pairs, training images or pipeline images
    losses: list                    # every loss the repetition produced, in order
    final: dict                     # named final losses, compared with reference.json
    failures: list = field(default_factory=list)

    @property
    def digest(self):
        return hashlib.sha256(np.asarray(self.losses, dtype=np.float64).tobytes()).hexdigest()


def desk_images(seed):
    return data.make_synthetic(CLASSES, PER_CLASS, IMAGE_SIZE, seed=seed, channels=CHANNELS,
                               noise_sigma=PIXEL_NOISE)


def nt_xent_chance(images, batch_index):
    """NT-Xent when every embedding is alike: log(2b - 1) for a batch of b pairs.

    Guided and random plans both make batches of P pairs, the last one
    holding what is left.
    """
    return math.log(2 * min(P, images - int(batch_index) * P) - 1)


def constant_mse(dataset):
    """MSE of predicting every pixel as the dataset's mean pixel value."""
    images = dataset.images.astype(np.float64)
    return float(np.mean((images - images.mean()) ** 2))


def learning_failures(name, losses, chances, final, final_chance):
    """Failures of a training run that did not learn, for any seed.

    `chances` holds, for each of `losses` (in training order), the loss
    of a model that ignores its input. The final loss must lie below
    `final_chance`, and the last quarter of the losses must exceed
    their chance level by less, on average, than the first quarter.
    """
    failures = []
    if not final < final_chance:
        failures.append(f"final {name} {final!r} is not below chance level {final_chance!r}")
    excess = np.asarray(losses, dtype=np.float64) - np.asarray(chances, dtype=np.float64)
    quarter = max(1, len(excess) // 4)
    first, last = float(excess[:quarter].mean()), float(excess[-quarter:].mean())
    if not last < first:
        failures.append(f"{name} did not fall: the first quarter's mean excess over chance "
                        f"is {first!r}, the last quarter's {last!r}")
    return failures


def _assignment(labels):
    return PseudoLabelAssignment(labels=labels, counts=np.bincount(labels, minlength=K))


class ContrastiveDesk:
    """One epoch of guided NT-Xent training over 2000 images (32 steps)."""

    name = "contrastive-desk"
    item = "pairs"
    step_spans = ("contrastive.forward_pair_batch", "optim.sgd_cosine_step")

    def setup(self, seed, scratch):
        dataset = desk_images(seed)
        rng = np.random.default_rng(seeds.derive_seed(seed, "perfbench", "pseudo-labels"))
        labels = rng.integers(0, K, size=len(dataset)).astype(np.int64)
        warm = np.arange(WARMUP_IMAGES)
        self._train(data.subset(dataset, warm), _assignment(labels[warm]), seed)
        return {"seed": seed, "dataset": dataset, "assignment": _assignment(labels)}

    def _train(self, dataset, assignment, seed):
        config = contrastive.ContrastiveConfig(temperature=TEMPERATURE, batch_size=P, epochs=1,
                                               base_lr=BASE_LR, seed=seed)
        return contrastive.train_contrastive(
            dataset, config, contrastive.EncoderSpec(blocks=ENCODER_BLOCKS, channels=CHANNELS),
            contrastive.ProjectionHeadSpec(widths=HEAD_WIDTHS), assignment=assignment)

    def run(self, state):
        return self._train(state["dataset"], state["assignment"], state["seed"])[2]

    def check(self, state, history):
        n = len(state["dataset"])
        losses = [loss for _, _, loss in history.records]
        chances = [nt_xent_chance(n, batch) for _, batch, _ in history.records]
        result = RepResult(items=n, losses=losses, final={"nt_xent": history.epoch_means[-1]})
        result.failures += learning_failures("nt_xent", losses, chances, history.epoch_means[-1],
                                             float(np.mean(chances)))
        return result

    def cleanup(self, state):
        pass


class DaeDesk:
    """DAE training (Adam, per-epoch no-grad validation), then latents."""

    name = "dae-desk"
    item = "images"
    step_spans = ("data.add_gaussian_noise", "optim.adam_step")

    def setup(self, seed, scratch):
        dataset = desk_images(seed)
        self._train(data.subset(dataset, np.arange(WARMUP_IMAGES)), seed, epochs=1)
        return {"seed": seed, "dataset": dataset, "chance": constant_mse(dataset)}

    def _train(self, dataset, seed, epochs):
        spec = dae.AutoencoderSpec(encoder_layers=DAE_BLOCKS, image_size=IMAGE_SIZE,
                                   channels=CHANNELS)
        model = dae.build_autoencoder(spec, seed)
        model, history = dae.train_dae(model, dataset, sigma=DAE_SIGMA, max_epochs=epochs,
                                       patience=DAE_PATIENCE, val_fraction=DAE_VAL_FRACTION,
                                       batch_size=DAE_BATCH, seed=seed)
        return history, dae.extract_latents(model, dataset)

    def run(self, state):
        return self._train(state["dataset"], state["seed"], DAE_EPOCHS)

    def check(self, state, handle):
        history, latents = handle
        n = len(state["dataset"])
        train_images = n - max(1, int(round(DAE_VAL_FRACTION * n)))
        result = RepResult(items=train_images * history.stopped_epoch,
                           losses=history.train_loss + history.val_loss,
                           final={"val_mse": history.val_loss[-1]})
        result.failures += learning_failures("val_mse", history.train_loss,
                                             [state["chance"]] * len(history.train_loss),
                                             history.val_loss[-1], state["chance"])
        if history.stopped_epoch != DAE_EPOCHS:
            result.failures.append(f"DAE stopped at epoch {history.stopped_epoch}, "
                                   f"expected {DAE_EPOCHS}")
        if latents.shape[0] != n or not np.isfinite(latents).all():
            result.failures.append(f"latents of shape {latents.shape} not finite for {n} images")
        return result

    def cleanup(self, state):
        pass


def pipeline_config(data_dir, dae_epochs, contrastive_epochs, probe_epochs):
    cfg = RunConfig()
    cfg.dataset.source, cfg.dataset.path = "cifar10", data_dir
    d = cfg.dae
    d.encoder_blocks, d.sigma, d.epochs = DAE_BLOCKS, DAE_SIGMA, dae_epochs
    d.patience, d.val_fraction, d.batch_size = DAE_PATIENCE, DAE_VAL_FRACTION, DAE_BATCH
    cfg.cluster.k, cfg.cluster.tol, cfg.cluster.max_iter = K, 1e-4, 300
    cfg.scheduler.p = P
    c = cfg.contrastive
    c.temperature, c.epochs, c.base_lr = TEMPERATURE, contrastive_epochs, BASE_LR
    c.encoder_blocks, c.head_widths = ENCODER_BLOCKS, HEAD_WIDTHS
    e = cfg.eval
    e.tap_points, e.finetune_fraction, e.val_fraction = ("P1", "P2", "P3"), 0.10, 0.2
    e.probe_epochs, e.patience = probe_epochs, 5
    return cfg


class PipelineDesk:
    """One seed of run_mode_comparison, guided and random, in a fresh run dir."""

    name = "pipeline-desk"
    item = "images"
    step_spans = ContrastiveDesk.step_spans
    methods = ("guided", "random-baseline")
    evals = ("P1", "P2", "P3", "finetune")

    def setup(self, seed, scratch):
        dataset = desk_images(seed)
        os.makedirs(scratch, exist_ok=True)
        root = tempfile.mkdtemp(prefix="pipeline-", dir=scratch)
        data.save_cifar10_binary(dataset, os.path.join(root, "data"))
        # warm-up: the whole pipeline at desk shapes on 8 images per class
        warm = np.concatenate([np.arange(c * PER_CLASS, c * PER_CLASS + 8) for c in range(CLASSES)])
        data.save_cifar10_binary(data.subset(dataset, warm), os.path.join(root, "warm-data"))
        pipeline.run_mode_comparison(
            pipeline_config(os.path.join(root, "warm-data"), 1, 1, 1),
            os.path.join(root, "warm-run"), [seed])
        config = pipeline_config(os.path.join(root, "data"), PIPELINE_DAE_EPOCHS,
                                 PIPELINE_CONTRASTIVE_EPOCHS, PIPELINE_PROBE_EPOCHS)
        return {"seed": seed, "root": root, "config": config, "images": len(dataset),
                "chance": constant_mse(dataset)}

    def run(self, state):
        run_root = tempfile.mkdtemp(prefix="run-", dir=state["root"])
        pipeline.run_mode_comparison(state["config"], run_root, [state["seed"]])
        return run_root

    def check(self, state, run_root):
        try:
            return self._check(os.path.join(run_root, f"seed{state['seed']}"), state["images"],
                               state["chance"])
        finally:
            shutil.rmtree(run_root)

    def _check(self, run_dir, images, mse_chance):
        _, _, rows = artifacts.read_csv(os.path.join(run_dir, "dae_history.csv"))
        dae_losses = [float(v) for row in rows for v in row[1:]]
        result = RepResult(items=2 * images, losses=dae_losses,
                           final={"dae_val_mse": float(rows[-1][2])})
        result.failures += learning_failures("dae_val_mse", [float(row[1]) for row in rows],
                                             [mse_chance] * len(rows),
                                             result.final["dae_val_mse"], mse_chance)
        for mode in ("guided", "random"):
            _, _, rows = artifacts.read_csv(os.path.join(run_dir, f"contrastive_{mode}_loss.csv"))
            losses = [float(row[2]) for row in rows]
            chances = [nt_xent_chance(images, row[1]) for row in rows]
            last_epoch = [i for i, row in enumerate(rows) if row[0] == rows[-1][0]]
            result.losses += losses
            name = f"nt_xent_{mode}"
            result.final[name] = float(np.mean([losses[i] for i in last_epoch]))
            result.failures += learning_failures(name, losses, chances, result.final[name],
                                                 float(np.mean([chances[i] for i in last_epoch])))
        recorded = {(r["method"], r["eval_name"])
                    for r in artifacts.read_jsonl(os.path.join(run_dir, "results.jsonl"))}
        missing = [f"{m}/{e}" for m in self.methods for e in self.evals
                   if (m, e) not in recorded]
        if missing:
            result.failures.append(f"results.jsonl lacks {', '.join(missing)}")
        return result

    def cleanup(self, state):
        shutil.rmtree(state["root"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (ContrastiveDesk(), DaeDesk(), PipelineDesk())}


def load_reference():
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_reference(reference, workload, seed, final):
    """Failures of `final` against the seed's recorded reference losses.

    A seed without a recorded value has no reference to meet; the
    workload's own checks (finite, learned, deterministic) still apply.
    """
    entry = reference.get("workloads", {}).get(workload)
    if not entry or not entry["seeds"]:
        return [f"no reference losses recorded for {workload}"]
    rtol = entry["rtol"]
    ref = entry["seeds"].get(str(seed))
    failures = []
    for name, value in final.items():
        if not math.isfinite(value):
            failures.append(f"final {name} is {value}")
        elif ref is not None and abs(value - ref[name]) > rtol * abs(ref[name]):
            failures.append(f"final {name} {value!r} differs from seed {seed}'s reference "
                            f"{ref[name]!r} by more than {rtol:g} of it")
    return failures
