"""Tap points, linear probes, fine-tuning, and the supervised ceiling."""

import numpy as np
import pytest

from gcontrast.contrastive import EncoderSpec, ProjectionHeadSpec, build_encoder, build_head
from gcontrast.data import ImageDataset, make_synthetic, train_val_split
from gcontrast.evaluate import (
    EvalReport,
    fine_tune_10pct,
    fit_softmax_classifier,
    linear_probe,
    softmax_cross_entropy,
    supervised_reference,
    tap,
)
from gcontrast.layers import Dense
from gcontrast.optim import TrainingDivergedError
from gcontrast.tensor import Tensor, no_grad

from helpers import gradcheck

ENC_SPEC = EncoderSpec(blocks=((8, 3, 2), (16, 3, 2)), channels=3)
HEAD_SPEC = ProjectionHeadSpec(widths=(16, 12, 8))


def small_model(seed=0):
    encoder = build_encoder(ENC_SPEC, seed=seed)
    head = build_head(HEAD_SPEC, ENC_SPEC.feature_dim, seed=seed)
    return encoder, head


def test_tap_point_dimensions():
    encoder, head = small_model()
    images = make_synthetic(classes=2, per_class=3, image_size=8, seed=0).images
    p3, p2, p1 = tap(encoder, head, ["P3", "P2", "P1"])(images)
    assert p3.shape == (6, 16)
    assert p2.shape == (6, 16)  # w1
    assert p1.shape == (6, 12)  # w2


def test_tap_p1_equals_manual_composition():
    encoder, head = small_model(seed=3)
    images = make_synthetic(classes=2, per_class=2, image_size=8, seed=1).images
    (got,) = tap(encoder, head, ["P1"])(images)
    with no_grad():
        manual = head.layers[1](head.layers[0](encoder(Tensor(images))))
    np.testing.assert_allclose(got, manual.data, atol=1e-7)


def test_tap_of_several_points_matches_one_point_at_a_time():
    # 300 images: the last 256-image chunk is partial
    encoder, head = small_model(seed=4)
    images = make_synthetic(classes=3, per_class=100, image_size=8, seed=2).images
    points = ["P1", "P2", "P3"]
    together = tap(encoder, head, points)(images)
    assert len(together) == len(points)
    for point, features in zip(points, together):
        (alone,) = tap(encoder, head, [point])(images)
        assert features.dtype == alone.dtype
        assert np.array_equal(features, alone)


def test_softmax_cross_entropy_gradient():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    gradcheck(lambda ts: softmax_cross_entropy(ts[0], labels), [logits],
              step=1e-5, rtol=1e-6)


def test_linear_probe_separable_features_reach_100():
    # sign-flipped pixel patterns: classes sit at +-margin along one
    # direction through the origin, so the probe separates them cleanly
    n_per = 20
    images = np.zeros((2 * n_per, 4, 4, 1), dtype=np.float32)
    images[:n_per, :2] = 0.9
    images[:n_per, 2:] = 0.1
    images[n_per:, :2] = 0.1
    images[n_per:, 2:] = 0.9
    labels = np.array([0] * n_per + [1] * n_per)
    ds = ImageDataset(images=images, labels=labels, source="synthetic", num_classes=2)
    train, val = train_val_split(ds, 0.25, seed=0)
    # centered, scaled features: the classes sit at +-margin around zero
    features = [(d.images.reshape(len(d), -1) - 0.5) * 10.0 for d in (train, val)]
    report = linear_probe(features, train, val, seed=0, method="guided", eval_name="P3")
    assert report.accuracy == 100.0


def test_linear_probe_random_labels_near_chance():
    rng = np.random.default_rng(4)
    images = rng.uniform(0, 1, size=(400, 4, 4, 1)).astype(np.float32)
    labels = rng.integers(0, 10, size=400)
    ds = ImageDataset(images=images, labels=labels, source="synthetic", num_classes=10)
    train, val = train_val_split(ds, 0.3, seed=1)
    features = [d.images.reshape(len(d), -1) for d in (train, val)]
    report = linear_probe(features, train, val, epochs=20, seed=0,
                          method="random-baseline", eval_name="P3")
    assert report.accuracy < 30.0  # chance is 10%; generous binomial slack


def test_linear_probe_leaves_weights_untouched():
    encoder, head = small_model(seed=5)
    ds = make_synthetic(classes=3, per_class=10, image_size=8, seed=2)
    train, val = train_val_split(ds, 0.2, seed=0)
    before = [p.data.copy() for p in encoder.params() + head.params()]
    extract = tap(encoder, head, ["P1"])
    (train_x,), (val_x,) = extract(train.images), extract(val.images)
    linear_probe((train_x, val_x), train, val, epochs=3, seed=0)
    after = [p.data.copy() for p in encoder.params() + head.params()]
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_fine_tune_uses_exact_stratified_subset():
    ds = make_synthetic(classes=4, per_class=20, image_size=8, seed=3)
    train, val = train_val_split(ds, 0.2, seed=0)
    from gcontrast.data import stratified_indices
    from gcontrast.seeds import derive_seed
    chosen = stratified_indices(train.labels, 0.10, derive_seed(7, "finetune-subset"))
    counts = np.bincount(train.labels[chosen], minlength=4)
    per_class = np.bincount(train.labels, minlength=4)
    for got, total in zip(counts, per_class):
        assert abs(got - 0.10 * total) <= 1


def test_fine_tune_returns_report_and_trains_encoder():
    encoder, _ = small_model(seed=6)
    ds = make_synthetic(classes=2, per_class=30, image_size=8, seed=4)
    train, val = train_val_split(ds, 0.2, seed=0)
    before = [p.data.copy() for p in encoder.params()]
    report = fine_tune_10pct(encoder, ENC_SPEC.feature_dim, train, val,
                             fraction=0.2, epochs=5, seed=1, method="guided")
    after = [p.data.copy() for p in encoder.params()]
    assert isinstance(report, EvalReport)
    assert report.eval_name == "finetune"
    assert any(not np.array_equal(a, b) for a, b in zip(before, after))


def test_fine_tune_keeps_float32_encoder_parameters():
    encoder, _ = small_model(seed=6)
    ds = make_synthetic(classes=2, per_class=30, image_size=8, seed=4)
    train, val = train_val_split(ds, 0.2, seed=0)
    fine_tune_10pct(encoder, ENC_SPEC.feature_dim, train, val, fraction=0.2, epochs=2, seed=1)
    assert [p.data.dtype for p in encoder.params()] == [np.float32] * len(encoder.params())


def test_fine_tune_fraction_one_uses_all_training_data():
    encoder, _ = small_model(seed=7)
    ds = make_synthetic(classes=2, per_class=10, image_size=8, seed=5)
    train, val = train_val_split(ds, 0.2, seed=0)
    from gcontrast.data import stratified_indices
    from gcontrast.seeds import derive_seed
    chosen = stratified_indices(train.labels, 1.0, derive_seed(0, "finetune-subset"))
    assert len(chosen) == len(train)
    report = fine_tune_10pct(encoder, ENC_SPEC.feature_dim, train, val,
                             fraction=1.0, epochs=2, seed=0)
    assert 0.0 <= report.accuracy <= 100.0


def test_fine_tune_rejects_fraction_emptying_a_class():
    encoder, _ = small_model(seed=8)
    images = np.zeros((12, 8, 8, 3), dtype=np.float32)
    labels = np.array([0] * 10 + [1] * 2)
    ds = ImageDataset(images=images, labels=labels, source="synthetic", num_classes=2)
    with pytest.raises(ValueError, match="zero examples"):
        fine_tune_10pct(encoder, ENC_SPEC.feature_dim, ds, ds, fraction=0.1, seed=0)


def test_supervised_reference_beats_chance_on_easy_data():
    encoder, _ = small_model(seed=9)
    ds = make_synthetic(classes=2, per_class=40, image_size=8, seed=6, noise_sigma=0.05)
    train, val = train_val_split(ds, 0.25, seed=0)
    report = supervised_reference(encoder, ENC_SPEC.feature_dim, train, val,
                                  epochs=20, seed=0)
    assert report.method == "supervised-reference"
    assert report.accuracy > 95.0


def test_supervised_reference_deterministic():
    ds = make_synthetic(classes=2, per_class=15, image_size=8, seed=7)
    train, val = train_val_split(ds, 0.2, seed=0)

    def run():
        encoder, _ = small_model(seed=10)
        return supervised_reference(encoder, ENC_SPEC.feature_dim, train, val,
                                    epochs=3, seed=2).accuracy

    assert run() == run()


def test_eval_report_accuracy_range_validated():
    with pytest.raises(ValueError, match="outside"):
        EvalReport(method="guided", eval_name="P3", accuracy=101.0, seed=0)


def test_classifier_divergence_names_epoch_and_batch():
    # a huge step overflows the logits of the next batch; the error must
    # be the one the CLI reports as a runtime failure, not a bare
    # floating-point error, and no numpy warning may escape on the way
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 5)).astype(np.float32)
    y = rng.integers(0, 3, size=40)
    clf = Dense(np.random.default_rng(1), 5, 3, activation="linear")
    with pytest.raises(TrainingDivergedError, match="epoch 1, batch 1") as excinfo:
        fit_softmax_classifier(lambda xb: clf(Tensor(xb)), clf.params(), x[:32], y[:32],
                               x[32:], y[32:], epochs=3, batch_size=8, lr=1e38)
    assert not isinstance(excinfo.value, FloatingPointError)


def test_best_epoch_is_validated_once():
    # each epoch's validation pass yields the accuracy at its weights; a
    # second pass after restoring the best epoch would repeat one
    rng = np.random.default_rng(0)
    x = rng.normal(size=(39, 5)).astype(np.float32)
    y = rng.integers(0, 3, size=39)
    clf = Dense(np.random.default_rng(1), 5, 3, activation="linear")
    val_forwards = []

    def forward(xb):
        if len(xb) == 7:  # the validation split; train batches hold 16 rows
            val_forwards.append(len(xb))
        return clf(Tensor(xb))

    accuracy = fit_softmax_classifier(forward, clf.params(), x[:32], y[:32], x[32:], y[32:],
                                      epochs=4, patience=10, batch_size=16)
    assert len(val_forwards) == 4
    with no_grad():
        logits = clf(Tensor(x[32:])).data
    assert accuracy == 100.0 * float((logits.argmax(axis=1) == y[32:]).mean())
