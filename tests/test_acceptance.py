"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (with runtime) once its assertions hold;
a failing criterion fails the corresponding test. Criteria 6 and 9 run
on canonical-binary-format synthetic datasets by default and switch to
real data automatically when GCONTRAST_CIFAR10_DIR points at a
directory of CIFAR-10 binary batch files.
"""

import math
import os
import time

import numpy as np
import pytest

from gcontrast.cli import main as cli_main
from gcontrast.cluster import PseudoLabelAssignment, assign, kmeans_fit
from gcontrast.config import load_config
from gcontrast.contrastive import interleaved_pairing, nt_xent_loss
from gcontrast.dae import AutoencoderSpec, build_autoencoder, early_stopping_scan, train_dae
from gcontrast.data import load_cifar10, make_synthetic, save_cifar10_binary, subset
from gcontrast.evaluate import FULL_SCALE_REFERENCE, softmax_cross_entropy
from gcontrast.optim import CosineSchedule
from gcontrast.pipeline import _exact_stratified_subset, run_mode_comparison
from gcontrast.scheduler import build_guided_plan, validate_plan
from gcontrast.tensor import Tensor, conv2d, mse

from helpers import decode_cifar_record, gradcheck, image_checksum, nt_xent_reference
from test_cluster import partitions_agree, three_blobs

CIFAR_ENV = "GCONTRAST_CIFAR10_DIR"
CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

# frozen once from the standalone byte-level decode of the deterministic
# fixture (seed 20260810): first record of data_batch_1.bin
FIXTURE_SEED = 20260810
FIXTURE_FIRST_LABEL = 0
FIXTURE_FIRST_CHECKSUM = 2627970.470588235


def _report(number, message, started):
    print(f"ACCEPTANCE {number}: PASS ({time.time() - started:.1f}s) - {message}")


def test_01_nt_xent_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(1)
    for num_pairs in range(2, 9):
        pairing = interleaved_pairing(num_pairs)
        for _ in range(50):
            z = rng.normal(size=(2 * num_pairs, 8))
            expected = nt_xent_reference(z, pairing, tau=0.1)
            got = nt_xent_loss(Tensor(z), pairing, 0.1).item()
            assert abs(got - expected) <= 1e-6 * abs(expected), \
                f"N={num_pairs}: {got} vs oracle {expected}"
    elapsed = time.time() - started
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s, budget 5s"
    _report(1, "stable NT-Xent matches brute-force oracle, N=2..8, 50 matrices each",
            started)


def test_02_nt_xent_analytic_identity():
    started = time.time()
    for num_pairs in range(2, 9):
        z = np.tile([[0.5, -1.0, 2.0]], (2 * num_pairs, 1))
        got = nt_xent_loss(Tensor(z), interleaved_pairing(num_pairs), 0.1).item()
        assert abs(got - math.log(2 * num_pairs - 1)) <= 1e-6
    n2 = nt_xent_loss(Tensor(np.ones((4, 3))), interleaved_pairing(2), 0.1).item()
    assert abs(n2 - 1.0986122886681098) <= 1e-6
    _report(2, "identical embeddings give log(2N-1); N=2 -> 1.098612...", started)


def test_03_gradient_suite():
    started = time.time()
    precisions = [(np.float32, 1e-3, 1e-3), (np.float64, 1e-5, 1e-6)]

    def sweep(build, specs, kink_margin=None):
        for dtype, step, rtol in precisions:
            for seed in range(20):
                rng = np.random.default_rng(seed)
                while True:
                    arrays = [rng.normal(size=s).astype(dtype) for s in specs]
                    if kink_margin is None or kink_margin(arrays) > 5 * step:
                        break
                gradcheck(build, arrays, step=step, rtol=rtol)

    # NT-Xent
    pairing = interleaved_pairing(3)
    sweep(lambda ts: nt_xent_loss(ts[0], pairing, 0.1), [(6, 5)])
    # MSE
    sweep(lambda ts: mse(ts[0], ts[1]), [(4, 3), (4, 3)])
    # conv (includes stride + same padding)
    sweep(lambda ts: conv2d(ts[0], ts[1], stride=2, padding="same").sum(),
          [(2, 4, 4, 2), (3, 3, 2, 3)])
    # dense layer with relu, inputs kept clear of the kink
    sweep(lambda ts: ((ts[0] @ ts[1] + ts[2]).relu() * 0.5).sum(),
          [(3, 4), (4, 2), (1, 2)],
          kink_margin=lambda a: np.abs(a[0] @ a[1] + a[2]).min())
    # softmax cross entropy used by every probe
    labels = np.array([0, 2, 1, 3])
    sweep(lambda ts: softmax_cross_entropy(ts[0], labels), [(4, 4)])
    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s, budget 60s"
    _report(3, "NT-Xent/MSE/conv/dense/CE gradients vs central differences, "
               "20 seeds per op, 1e-3 single / 1e-6 double", started)


def test_04_guided_batch_invariant_fuzz():
    started = time.time()
    rng = np.random.default_rng(4)
    cases = 10_000
    for case in range(cases):
        p = int(rng.integers(2, 33))
        k = p + int(rng.integers(0, 31))
        base = int(rng.integers(1, 4))
        sizes = base + rng.integers(0, 2, size=k)
        labels = np.repeat(np.arange(k), sizes)
        assignment = PseudoLabelAssignment(labels=labels, counts=np.bincount(labels, minlength=k))
        plan = build_guided_plan(assignment, p=p, epoch_seed=case)
        diag = validate_plan(plan, assignment)  # raises unless exact partition
        for batch, distinct in zip(plan.batches, diag.distinct_per_batch):
            if len(batch) == p:
                assert distinct == p, \
                    f"case {case}: full batch with {distinct} distinct labels, p={p}"
    elapsed = time.time() - started
    assert elapsed < 30.0, f"fuzz took {elapsed:.1f}s, budget 30s"
    _report(4, f"{cases} fuzzed balanced distributions: full guided batches "
               "all-distinct, every plan an exact partition", started)


def test_05_kmeans_monotonicity_and_blob_recovery():
    started = time.time()
    fits = []
    for seed in range(5):
        points, truth = three_blobs(seed=42)
        model = kmeans_fit(points, k=3, seed=seed)
        fits.append(model)
        got = assign(model, points)
        assert partitions_agree(got.labels, truth), f"seed {seed}: blobs not recovered"
    rng = np.random.default_rng(0)
    for _ in range(10):
        data = rng.normal(size=(rng.integers(40, 120), rng.integers(2, 6)))
        fits.append(kmeans_fit(data, k=int(rng.integers(2, 9)), seed=int(rng.integers(100))))
    for model in fits:
        hist = model.inertia_history
        for before, after in zip(hist, hist[1:]):
            assert after <= before * (1.0 + 1e-6), f"inertia rose: {before} -> {after}"
    elapsed = time.time() - started
    assert elapsed < 10.0, f"k-means suite took {elapsed:.1f}s, budget 10s"
    _report(5, "per-iteration inertia nonincreasing on every fit; 3-blob fixture "
               "recovered exactly for 5 seeds", started)


def _cifar_format_dataset(tmp_path, n, seed):
    """256-image-scale dataset through the binary reader path.

    Uses the real binaries when GCONTRAST_CIFAR10_DIR is set, otherwise a
    canonical-format synthetic export.
    """
    real = os.environ.get(CIFAR_ENV)
    if real:
        full = load_cifar10(real)
    else:
        directory = tmp_path / "cifar-format"
        save_cifar10_binary(make_synthetic(classes=10, per_class=max(26, n // 10 + 6),
                                           image_size=32, seed=seed), directory)
        full = load_cifar10(directory)
    chosen = _exact_stratified_subset(full.labels, n, seed=seed)
    return subset(full, chosen)


def test_06_dae_training_criteria(tmp_path):
    started = time.time()
    ds = _cifar_format_dataset(tmp_path, 256, seed=6)
    assert len(ds) == 256
    spec = AutoencoderSpec()  # default: latent (4,4,128)
    assert spec.latent_shape() == (4, 4, 128)
    model = build_autoencoder(spec, seed=0)
    model, history = train_dae(model, ds, sigma=0.01, max_epochs=30, patience=5,
                               val_fraction=0.1, batch_size=32, seed=0)
    first = history.train_loss[0]
    at_best = history.train_loss[history.best_epoch - 1]
    assert at_best <= 0.5 * first, \
        f"train MSE at best epoch {at_best:.5f} > 50% of epoch-1 {first:.5f}"
    # early stopping fires within patience rules on the injected sequence
    assert early_stopping_scan([1.0, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99], 5) == (2, 7)
    assert history.stopped_epoch - history.best_epoch <= 5
    elapsed = time.time() - started
    assert elapsed < 300.0, f"DAE criterion took {elapsed:.1f}s, budget 5 min"
    _report(6, f"256-image run: train MSE {first:.4f} -> {at_best:.4f} at best epoch "
               f"{history.best_epoch}; early stopping obeys patience", started)


def test_07_reader_oracle_and_round_trip(tmp_path):
    started = time.time()
    fixture = make_synthetic(classes=10, per_class=30, image_size=32, seed=FIXTURE_SEED)
    directory = tmp_path / "fixture"
    save_cifar10_binary(fixture, directory)
    raw = (directory / "data_batch_1.bin").read_bytes()
    label, oracle_image = decode_cifar_record(raw, 0)
    assert label == FIXTURE_FIRST_LABEL
    assert image_checksum(oracle_image) == pytest.approx(FIXTURE_FIRST_CHECKSUM, abs=1e-6)
    loaded = load_cifar10(directory)
    assert loaded.labels[0] == label
    np.testing.assert_allclose(loaded.images[0], oracle_image.astype(np.float32),
                               rtol=0, atol=1e-7)
    # synthetic round trip is bit-exact
    back = load_cifar10(directory)
    assert np.array_equal(back.images, fixture.images)
    assert np.array_equal(back.labels, fixture.labels)
    real = os.environ.get(CIFAR_ENV)
    if real:
        raw_real = open(os.path.join(real, "data_batch_1.bin"), "rb").read()
        real_label, real_image = decode_cifar_record(raw_real, 0)
        real_ds = load_cifar10(real)
        assert real_ds.labels[0] == real_label
        np.testing.assert_allclose(real_ds.images[0], real_image.astype(np.float32),
                                   rtol=0, atol=1e-7)
    elapsed = time.time() - started
    assert elapsed < 5.0, f"reader criterion took {elapsed:.1f}s, budget 5s"
    _report(7, "first-record byte-level oracle checksum matches; binary round "
               "trip bit-exact", started)


def test_08_cosine_schedule_endpoints():
    started = time.time()
    for base, total in ((0.05, 100), (0.4, 8), (1.0, 2), (0.6, 10)):
        sched = CosineSchedule(base, total)
        assert sched.lr(0) == base
        assert sched.lr(total // 2) == pytest.approx(base / 2, rel=1e-15)
        assert sched.lr(total) == pytest.approx(0.0, abs=1e-16)
    _report(8, "cosine schedule endpoints exact: lr(0)=base, lr(T/2)=base/2, lr(T)=0",
            started)


@pytest.mark.slow
def test_09_directional_end_to_end(tmp_path):
    started = time.time()
    config = load_config(os.path.join(CONFIGS, "desk.ini"))
    real = os.environ.get(CIFAR_ENV)
    if real:
        config.dataset.source = "cifar10"
        config.dataset.path = real
        config.dataset.subset_size = 2000
    assert config.cluster.k == 64 and config.scheduler.p == 64
    assert config.contrastive.temperature == 0.1 and config.contrastive.epochs == 15

    table = run_mode_comparison(config, str(tmp_path / "desk"), seeds=[0, 1, 2])
    guided = table["guided"]
    baseline = table["random-baseline"]
    assert all(len(guided[e]) == 3 for e in ("P1", "P2", "P3", "finetune"))

    print("\nmean accuracy over 3 seeds (2000 images, 10 classes, 15 epochs, p=k=64, tau=0.1)")
    deltas = {}
    for e in ("P1", "P2", "P3", "finetune"):
        g, b = float(np.mean(guided[e])), float(np.mean(baseline[e]))
        deltas[e] = g - b
        print(f"  {e}: guided {g:.2f} vs baseline {b:.2f} (delta {g - b:+.2f})")
    ref = FULL_SCALE_REFERENCE["cifar10"]
    print("full-scale reference deltas for context: "
          + "  ".join(f"{e}: {ref['guided'][e] - ref['random-baseline'][e]:+.2f}"
                      for e in ("P1", "P2", "P3", "finetune")))

    assert deltas["P3"] >= -1.0, \
        f"non-inferiority gate failed: guided P3 trails baseline by {-deltas['P3']:.2f} points"
    elapsed = time.time() - started
    assert elapsed < 3600.0, f"directional check took {elapsed / 60:.1f} min, budget 60 min"
    _report(9, f"guided P3 within 1.0 points of baseline (delta {deltas['P3']:+.2f}); "
               "all deltas emitted", started)


def test_10_pipeline_determinism(tmp_path):
    started = time.time()
    config_path = os.path.join(CONFIGS, "tiny.ini")
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        for mode in ("guided", "random"):
            rc = cli_main(["pipeline", "--config", config_path, "--run-dir", str(d),
                           "--mode", mode])
            assert rc == 0
    compared = 0
    for name in ("results.jsonl", "dae_history.csv", "latents.bin", "latents.json",
                 "pseudo_labels.csv", "plan_guided.jsonl", "plan_random.jsonl",
                 "contrastive_guided_loss.csv", "contrastive_random_loss.csv",
                 "dae_checkpoint.bin", "contrastive_guided_encoder.bin"):
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical pipeline invocations"
        compared += 1
    elapsed = time.time() - started
    assert elapsed < 600.0, f"determinism check took {elapsed:.1f}s, budget 10 min"
    _report(10, f"two identical pipeline invocations byte-identical across "
                f"{compared} artifact files", started)
