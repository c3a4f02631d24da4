"""Autoencoder construction, training behavior, and latent extraction."""

import numpy as np
import pytest

from gcontrast import dae
from gcontrast.dae import (
    AutoencoderSpec,
    build_autoencoder,
    early_stopping_scan,
    extract_latents,
    reconstruction_loss,
    train_dae,
)
from gcontrast.data import add_gaussian_noise, make_synthetic
from gcontrast.optim import TrainingDivergedError, adam_step
from gcontrast.seeds import derive_seed
from gcontrast.tensor import Tensor, no_grad

CIFAR_SPEC = AutoencoderSpec()  # (32,3,2),(64,3,2),(128,3,2) on 32x32x3
SMALL_SPEC = AutoencoderSpec(encoder_layers=((4, 3, 2), (8, 3, 2)), image_size=8, channels=3)


def test_default_spec_latent_shape():
    assert CIFAR_SPEC.latent_shape() == (4, 4, 128)
    assert CIFAR_SPEC.latent_dim == 2048


def test_small_spec_latent_dim():
    assert SMALL_SPEC.latent_shape() == (2, 2, 8)
    assert SMALL_SPEC.latent_dim == 32


def test_spec_rejects_bad_stride_geometry():
    spec = AutoencoderSpec(encoder_layers=((8, 3, 2), (16, 3, 2)), image_size=6)
    with pytest.raises(ValueError, match="encoder layer 1"):
        spec.latent_shape()


def test_build_reconstruction_shape_matches_input():
    model = build_autoencoder(SMALL_SPEC, seed=0)
    x = Tensor(np.zeros((2, 8, 8, 3), dtype=np.float32))
    with no_grad():
        out = model(x)
        z = model.encoder(x)
    assert out.shape == (2, 8, 8, 3)
    assert z.shape == (2, 2, 2, 8)


def test_build_deterministic_per_seed():
    a = build_autoencoder(SMALL_SPEC, seed=3)
    b = build_autoencoder(SMALL_SPEC, seed=3)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.data, pb.data)
    c = build_autoencoder(SMALL_SPEC, seed=4)
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.params(), c.params()))


def test_early_stopping_injected_sequence():
    # improves at epoch 2, then five straight non-improving epochs
    losses = [1.0, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99]
    best, stopped = early_stopping_scan(losses, patience=5)
    assert (best, stopped) == (2, 7)


def test_early_stopping_runs_to_end_without_plateau():
    best, stopped = early_stopping_scan([0.5, 0.4, 0.3], patience=5)
    assert (best, stopped) == (3, 3)


def test_early_stopping_equal_loss_counts_as_no_improvement():
    best, stopped = early_stopping_scan([1.0, 1.0, 1.0], patience=2)
    assert (best, stopped) == (1, 3)


def test_divergence_history_holds_every_completed_epoch(monkeypatch):
    ds = make_synthetic(classes=2, per_class=8, image_size=8, seed=2)
    # 12 training images in batches of 4: three steps per epoch
    kwargs = dict(sigma=0.01, patience=10, val_fraction=0.25, batch_size=4, seed=5)
    _, undisturbed = train_dae(build_autoencoder(SMALL_SPEC, seed=0), ds, max_epochs=2, **kwargs)
    steps = []

    def nan_at_epoch_3_batch_1(params, grads, state):
        steps.append(None)
        if len(steps) == 2 * 3 + 2:
            grads = [np.full_like(g, np.nan) for g in grads]
        return adam_step(params, grads, state)

    monkeypatch.setattr(dae, "adam_step", nan_at_epoch_3_batch_1)
    with pytest.raises(TrainingDivergedError, match="epoch 3, batch 1") as excinfo:
        train_dae(build_autoencoder(SMALL_SPEC, seed=0), ds, max_epochs=5, **kwargs)
    history = excinfo.value.history
    assert history.train_loss == undisturbed.train_loss
    assert history.val_loss == undisturbed.val_loss


def test_overfit_tiny_dataset_with_overcomplete_spec():
    # sigma=0 reduces to plain reconstruction; an overcomplete latent can
    # drive train MSE below 1e-3 within 100 epochs
    ds = make_synthetic(classes=2, per_class=2, image_size=8, seed=1)
    spec = AutoencoderSpec(encoder_layers=((32, 3, 1), (32, 3, 1)), image_size=8, channels=3)
    model = build_autoencoder(spec, seed=0)
    model, history = train_dae(model, ds, sigma=0.0, max_epochs=100, patience=100,
                               val_fraction=0.25, batch_size=1, seed=0)
    assert history.train_loss[-1] < 1e-3


def test_training_history_deterministic():
    ds = make_synthetic(classes=2, per_class=8, image_size=8, seed=2)

    def run():
        model = build_autoencoder(SMALL_SPEC, seed=5)
        _, history = train_dae(model, ds, sigma=0.01, max_epochs=4, patience=5,
                               val_fraction=0.25, batch_size=4, seed=7)
        return history

    first, second = run(), run()
    assert first.train_loss == second.train_loss
    assert first.val_loss == second.val_loss
    assert (first.best_epoch, first.stopped_epoch) == (second.best_epoch, second.stopped_epoch)


def test_best_weights_restored_reproduce_best_val_loss():
    ds = make_synthetic(classes=2, per_class=10, image_size=8, seed=3)
    model = build_autoencoder(SMALL_SPEC, seed=1)
    model, history = train_dae(model, ds, sigma=0.05, max_epochs=6, patience=2,
                               val_fraction=0.2, batch_size=5, seed=11)
    assert history.best_epoch <= history.stopped_epoch <= 6
    assert history.stopped_epoch - history.best_epoch <= 2
    # re-evaluate returned weights against the recorded best, rebuilding the
    # internal validation split from the same derived seeds
    n = len(ds)
    perm = np.random.default_rng(derive_seed(11, "dae-split")).permutation(n)
    val_idx = perm[:max(1, int(round(0.2 * n)))]
    val_clean = ds.images[val_idx]
    val_corrupted = add_gaussian_noise(val_clean, 0.05, derive_seed(11, "dae-val-noise"))
    revalued = reconstruction_loss(model, val_clean, val_corrupted)
    assert abs(revalued - min(history.val_loss)) < 1e-6


def test_latent_matrix_shape_and_row_oracle():
    ds = make_synthetic(classes=2, per_class=5, image_size=8, seed=4)
    model = build_autoencoder(SMALL_SPEC, seed=2)
    latents = extract_latents(model, ds)
    assert latents.shape == (10, 32)
    # row i equals the flattened single-image encoder forward
    with no_grad():
        single = model.encoder(Tensor(ds.images[3:4])).data.reshape(-1)
    np.testing.assert_array_equal(latents[3], single)


def test_latents_match_concatenated_batches(monkeypatch):
    # the former formula: per-batch rows, concatenated, cast to float32;
    # 4-image chunks leave a ragged last one
    ds = make_synthetic(classes=2, per_class=5, image_size=8, seed=4)
    model = build_autoencoder(SMALL_SPEC, seed=2)
    with no_grad():
        rows = [model.encoder(Tensor(ds.images[s:s + 4])).data.reshape(-1, 32)
                for s in range(0, len(ds), 4)]
    want = np.concatenate(rows, axis=0).astype(np.float32)
    monkeypatch.setattr(dae, "CHUNK", 4)
    got = extract_latents(model, ds)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_duplicate_images_share_latent_rows():
    ds = make_synthetic(classes=2, per_class=3, image_size=8, seed=5)
    ds.images[4] = ds.images[1]
    model = build_autoencoder(SMALL_SPEC, seed=0)
    latents = extract_latents(model, ds)
    np.testing.assert_array_equal(latents[1], latents[4])


def test_latents_ignore_training_sigma():
    # training corruption level must not leak into extraction
    ds = make_synthetic(classes=2, per_class=6, image_size=8, seed=6)
    model = build_autoencoder(SMALL_SPEC, seed=3)
    model, _ = train_dae(model, ds, sigma=0.5, max_epochs=2, patience=5,
                         val_fraction=0.25, batch_size=4, seed=1)
    latents = extract_latents(model, ds)
    with no_grad():
        clean = model.encoder(Tensor(ds.images)).data.reshape(len(ds), -1)
    np.testing.assert_array_equal(latents, clean)


def test_train_loss_mostly_decreasing_on_small_run():
    ds = make_synthetic(classes=3, per_class=12, image_size=8, seed=7)
    model = build_autoencoder(SMALL_SPEC, seed=4)
    _, history = train_dae(model, ds, sigma=0.01, max_epochs=15, patience=15,
                           val_fraction=0.2, batch_size=8, seed=2)
    losses = history.train_loss
    windows = [(i, i + 4) for i in range(len(losses) - 4)]
    good = sum(losses[j] <= losses[i] for i, j in windows)
    assert good >= 0.9 * len(windows)
