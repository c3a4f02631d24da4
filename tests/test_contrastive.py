"""NT-Xent loss, paired forward, and the training loop."""

import math

import numpy as np
import pytest

from gcontrast import contrastive
from gcontrast.contrastive import (
    ContrastiveConfig,
    EncoderSpec,
    ProjectionHeadSpec,
    build_encoder,
    build_head,
    forward_pair_batch,
    interleaved_pairing,
    nt_xent_loss,
    train_contrastive,
)
from gcontrast.cluster import PseudoLabelAssignment
from gcontrast import data
from gcontrast.data import make_synthetic
from gcontrast.optim import TrainingDivergedError, sgd_cosine_step
import gcontrast.tensor as tensor_module
from gcontrast.tensor import Tensor, gradients, no_grad

from helpers import gradcheck, nt_xent_composed, nt_xent_reference


def test_interleaved_pairing_layout():
    np.testing.assert_array_equal(interleaved_pairing(3), [1, 0, 3, 2, 5, 4])


def test_identical_embeddings_give_log_2n_minus_1():
    for num_pairs in (2, 3, 5):
        z = np.tile(np.array([[0.3, 0.4, -0.2, 1.0]]), (2 * num_pairs, 1))
        loss = nt_xent_loss(Tensor(z), interleaved_pairing(num_pairs), 0.1).item()
        assert loss == pytest.approx(math.log(2 * num_pairs - 1), abs=1e-6)
    # the N=2 constant, spelled out
    z = np.tile(np.array([[1.0, 2.0]]), (4, 1))
    loss = nt_xent_loss(Tensor(z), interleaved_pairing(2), 0.1).item()
    assert loss == pytest.approx(1.0986122886681098, abs=1e-6)


def test_nt_xent_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    z = rng.normal(size=(4, 8))
    pairing = interleaved_pairing(2)
    expected = nt_xent_reference(z, pairing, tau=0.1)
    got = nt_xent_loss(Tensor(z), pairing, 0.1).item()
    assert got == pytest.approx(expected, rel=1e-6)


def test_nt_xent_large_temperature_flattens_to_log_2n_minus_1():
    rng = np.random.default_rng(5)
    for num_pairs in (2, 4):
        z = rng.normal(size=(2 * num_pairs, 6))
        loss = nt_xent_loss(Tensor(z), interleaved_pairing(num_pairs), 1e6).item()
        assert loss == pytest.approx(math.log(2 * num_pairs - 1), abs=1e-4)


def test_nt_xent_identical_plus_orthogonal_pair_matches_oracle():
    # one pair identical, the other orthogonal to it
    z = np.array([[1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0]])
    pairing = interleaved_pairing(2)
    expected = nt_xent_reference(z, pairing, tau=0.1)
    got = nt_xent_loss(Tensor(z), pairing, 0.1).item()
    assert got == pytest.approx(expected, rel=1e-6)


def test_nt_xent_scale_invariant():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(6, 5))
    pairing = interleaved_pairing(3)
    base = nt_xent_loss(Tensor(z), pairing, 0.1).item()
    scaled = nt_xent_loss(Tensor(z * 37.5), pairing, 0.1).item()
    assert scaled == pytest.approx(base, rel=1e-6)


def test_nt_xent_invariant_under_pair_permutation():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(8, 5))
    pairing = interleaved_pairing(4)
    base = nt_xent_loss(Tensor(z), pairing, 0.2).item()
    # swap pair 0 and pair 2 wholesale
    order = np.array([4, 5, 2, 3, 0, 1, 6, 7])
    permuted = nt_xent_loss(Tensor(z[order]), pairing, 0.2).item()
    assert permuted == pytest.approx(base, rel=1e-6)


def test_nt_xent_rejects_bad_inputs():
    z = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    with pytest.raises(ValueError, match="temperature"):
        nt_xent_loss(z, interleaved_pairing(2), 0.0)
    with pytest.raises(ValueError, match="pairing"):
        nt_xent_loss(z, np.array([0, 0, 3, 2]), 0.1)
    with pytest.raises(ValueError, match="pairing"):
        nt_xent_loss(z, np.array([1, 0, 1, 0]), 0.1)   # row 2's partner is not its partner
    from gcontrast.tensor import ShapeError
    with pytest.raises(ShapeError, match="2N rows"):
        nt_xent_loss(Tensor(np.zeros((3, 2)) + 1.0), np.array([1, 0, 2]), 0.1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nt_xent_same_bits_as_composed_tape(dtype):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(10, 6)).astype(dtype)
    pairing = np.array([5, 2, 1, 9, 7, 0, 8, 4, 6, 3])
    t = Tensor(x, requires_grad=True)
    loss = nt_xent_loss(t, pairing, 0.1)
    want_loss, want_grad = nt_xent_composed(x, pairing, 0.1)
    (grad,) = gradients(loss, [t])
    for got, want in ((loss.data, want_loss), (grad, want_grad)):
        assert got.dtype == want.dtype == np.float64   # float32 embeddings are promoted
        assert np.array_equal(got, want)


def test_nt_xent_loss_path_is_three_tape_nodes():
    # forward_pair_batch's normalization, nt_xent_loss's own, one fused loss node
    head_out = Tensor(np.random.default_rng(0).normal(size=(6, 4)), requires_grad=True)
    loss = nt_xent_loss(head_out.l2_normalize(axis=1), interleaved_pairing(3), 0.1)
    assert sum(t._backward is not None for t in tensor_module._toposort(loss)) == 3


@pytest.mark.parametrize("num_pairs", [2, 3, 4])
@pytest.mark.parametrize("seed", range(7))
def test_nt_xent_gradient_vs_finite_differences(num_pairs, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2 * num_pairs, 5)).astype(np.float32)
    pairing = interleaved_pairing(num_pairs)
    gradcheck(lambda ts: nt_xent_loss(ts[0], pairing, 0.1), [z], step=1e-3, rtol=1e-3)
    z64 = rng.normal(size=(2 * num_pairs, 5))
    gradcheck(lambda ts: nt_xent_loss(ts[0], pairing, 0.1), [z64], step=1e-5, rtol=1e-6)


SMALL_ENCODER = EncoderSpec(blocks=((8, 3, 2), (16, 3, 2)), channels=3)
SMALL_HEAD = ProjectionHeadSpec(widths=(16, 12, 8))


def test_forward_pair_batch_shapes_and_interleaving():
    ds = make_synthetic(classes=2, per_class=4, image_size=8, seed=0)
    encoder = build_encoder(SMALL_ENCODER, seed=1)
    head = build_head(SMALL_HEAD, SMALL_ENCODER.feature_dim, seed=1)
    batch = np.array([0, 3, 5])
    with no_grad():
        out = forward_pair_batch(encoder, head, batch, ds, 0, step_seed=4)
    assert out.shape == (6, 8)
    np.testing.assert_allclose((out.data ** 2).sum(axis=1), np.ones(6), rtol=1e-5)


def test_forward_pair_batch_identity_augmentation_duplicates_rows(monkeypatch):
    ds = make_synthetic(classes=2, per_class=2, image_size=8, seed=1)
    encoder = build_encoder(SMALL_ENCODER, seed=2)
    head = build_head(SMALL_HEAD, SMALL_ENCODER.feature_dim, seed=2)
    monkeypatch.setattr(data, "FLIP_PROB", 0.0)
    monkeypatch.setattr(data, "BRIGHTNESS_DELTA", 0.0)
    monkeypatch.setattr(data, "CONTRAST_RANGE", (1.0, 1.0))
    with no_grad():
        out = forward_pair_batch(encoder, head, np.array([1, 2]), ds, 0, step_seed=0)
    np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-6)
    np.testing.assert_allclose(out.data[2], out.data[3], atol=1e-6)


def test_forward_pair_batch_row_matches_single_path():
    ds = make_synthetic(classes=2, per_class=3, image_size=8, seed=2)
    encoder = build_encoder(SMALL_ENCODER, seed=3)
    head = build_head(SMALL_HEAD, SMALL_ENCODER.feature_dim, seed=3)
    aug = 9
    from gcontrast.data import augment_pair
    from gcontrast.seeds import derive_seed
    batch = np.array([4, 1])
    with no_grad():
        out = forward_pair_batch(encoder, head, batch, ds, aug, step_seed=21)
        # row 2 is view_a of batch[1]
        view_a, _ = augment_pair(ds.images[1], aug, derive_seed(21, 1))
        single = head(encoder(Tensor(view_a[None]))).l2_normalize(axis=1)
    np.testing.assert_allclose(out.data[2], single.data[0], atol=1e-6)


def test_train_history_lengths():
    ds = make_synthetic(classes=2, per_class=4, image_size=8, seed=3)
    config = ContrastiveConfig(batch_size=4, epochs=2, base_lr=0.05, seed=0)
    _, _, history = train_contrastive(ds, config, SMALL_ENCODER, SMALL_HEAD)
    assert len(history.records) == 4  # 2 epochs x 2 batches
    assert len(history.epoch_means) == 2


def test_train_is_guided_exactly_when_given_an_assignment(monkeypatch):
    ds = make_synthetic(classes=2, per_class=4, image_size=8, seed=3)
    labels = np.tile([0, 1], 4)
    assignment = PseudoLabelAssignment(labels=labels, counts=np.bincount(labels))
    config = ContrastiveConfig(batch_size=4, epochs=1, seed=0)

    def refuse(*args, **kwargs):
        raise AssertionError("built the other mode's plan")

    monkeypatch.setattr(contrastive, "build_guided_plan", refuse)
    train_contrastive(ds, config, SMALL_ENCODER, SMALL_HEAD)
    monkeypatch.undo()
    monkeypatch.setattr(contrastive, "build_random_plan", refuse)
    train_contrastive(ds, config, SMALL_ENCODER, SMALL_HEAD, assignment=assignment)


def test_divergence_names_epoch_and_batch_and_keeps_completed_steps(monkeypatch):
    # 12 images in batches of 4: three steps per epoch
    ds = make_synthetic(classes=2, per_class=6, image_size=8, seed=3)
    config = ContrastiveConfig(batch_size=4, epochs=3, seed=0)
    _, _, undisturbed = train_contrastive(ds, config, SMALL_ENCODER, SMALL_HEAD)
    steps = []

    def nan_at_epoch_2_batch_1(params, grads, schedule, t):
        steps.append(None)
        if len(steps) == 3 + 2:
            grads = [np.full_like(g, np.nan) for g in grads]
        return sgd_cosine_step(params, grads, schedule, t)

    monkeypatch.setattr(contrastive, "sgd_cosine_step", nan_at_epoch_2_batch_1)
    with pytest.raises(TrainingDivergedError, match="epoch 2, batch 1") as excinfo:
        train_contrastive(ds, config, SMALL_ENCODER, SMALL_HEAD)
    assert excinfo.value.history.records == undisturbed.records[:4]


def test_train_deterministic_weights():
    ds = make_synthetic(classes=2, per_class=4, image_size=8, seed=4)
    labels = np.tile([0, 1], 4)
    assignment = PseudoLabelAssignment(labels=labels, counts=np.bincount(labels))

    def run():
        config = ContrastiveConfig(batch_size=4, epochs=2, seed=11)
        encoder, head, history = train_contrastive(ds, config, SMALL_ENCODER, SMALL_HEAD,
                                                   assignment=assignment)
        return [p.data.copy() for p in encoder.params() + head.params()], history

    (params_a, hist_a), (params_b, hist_b) = run(), run()
    assert hist_a.records == hist_b.records
    for pa, pb in zip(params_a, params_b):
        assert np.array_equal(pa, pb)


def test_config_validation():
    with pytest.raises(ValueError, match="temperature"):
        ContrastiveConfig(temperature=-0.1)
    with pytest.raises(ValueError, match="batch_size"):
        ContrastiveConfig(batch_size=1)
    with pytest.raises(ValueError, match="3 layers"):
        ProjectionHeadSpec(widths=(64, 32))
