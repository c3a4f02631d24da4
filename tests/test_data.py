"""Dataset loading, synthesis, corruption, and augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcontrast import data
from gcontrast.data import (
    CIFAR_FILES,
    DataFormatError,
    ImageDataset,
    add_gaussian_noise,
    augment_pair,
    hflip,
    load_cifar10,
    make_synthetic,
    save_cifar10_binary,
    stratified_indices,
    train_val_split,
)

from helpers import image_checksum


def _write_batch_dir(tmp_path, records_per_file):
    """Create a directory with the six canonical files from raw bytes."""
    for name, payload in zip(CIFAR_FILES, records_per_file):
        (tmp_path / name).write_bytes(payload)
    return tmp_path


def test_load_hand_built_record(tmp_path):
    record = bytes([7] + [255] * 3072)
    _write_batch_dir(tmp_path, [record, b"", b"", b"", b"", b""])
    ds = load_cifar10(tmp_path)
    assert len(ds) == 1
    assert ds.labels[0] == 7
    np.testing.assert_array_equal(ds.images[0], np.ones((32, 32, 3), dtype=np.float32))


def test_load_rejects_truncated_file(tmp_path):
    _write_batch_dir(tmp_path, [bytes(3072), b"", b"", b"", b"", b""])
    with pytest.raises(DataFormatError, match="multiple of 3073"):
        load_cifar10(tmp_path)


def test_load_rejects_label_out_of_range(tmp_path):
    record = bytes([10] + [0] * 3072)
    _write_batch_dir(tmp_path, [record, b"", b"", b"", b"", b""])
    with pytest.raises(DataFormatError, match="label byte 10"):
        load_cifar10(tmp_path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="missing batch file"):
        load_cifar10(tmp_path)


def test_channel_plane_order_is_rgb(tmp_path):
    # R plane all 255, G and B zero -> red channel 1.0, others 0.0
    record = bytes([0] + [255] * 1024 + [0] * 2048)
    _write_batch_dir(tmp_path, [record, b"", b"", b"", b"", b""])
    ds = load_cifar10(tmp_path)
    assert ds.images[0, :, :, 0].min() == 1.0
    assert ds.images[0, :, :, 1].max() == 0.0
    assert ds.images[0, :, :, 2].max() == 0.0


def test_binary_round_trip_is_bit_exact(tmp_path):
    ds = make_synthetic(classes=3, per_class=13, image_size=32, seed=5)
    save_cifar10_binary(ds, tmp_path / "out")
    back = load_cifar10(tmp_path / "out")
    assert np.array_equal(ds.images, back.images)
    assert np.array_equal(ds.labels, back.labels)


def test_synthetic_shapes_and_labels():
    ds = make_synthetic(classes=2, per_class=4, image_size=8, seed=0)
    assert ds.images.shape == (8, 8, 8, 3)
    np.testing.assert_array_equal(ds.labels, [0, 0, 0, 0, 1, 1, 1, 1])


def test_synthetic_deterministic_per_seed():
    a = make_synthetic(classes=2, per_class=3, image_size=8, seed=9)
    b = make_synthetic(classes=2, per_class=3, image_size=8, seed=9)
    assert np.array_equal(a.images, b.images)


def test_synthetic_seeds_differ():
    a = make_synthetic(classes=2, per_class=3, image_size=8, seed=1)
    b = make_synthetic(classes=2, per_class=3, image_size=8, seed=2)
    assert image_checksum(a.images) != image_checksum(b.images)


def test_synthetic_rejects_single_class():
    with pytest.raises(ValueError, match="2 classes"):
        make_synthetic(classes=1, per_class=4, image_size=8, seed=0)


def test_noise_sigma_zero_is_identity():
    ds = make_synthetic(classes=2, per_class=2, image_size=8, seed=0)
    out = add_gaussian_noise(ds.images, 0.0, seed=3)
    assert np.array_equal(out, ds.images)


def test_noise_rejects_negative_sigma():
    with pytest.raises(ValueError, match="sigma"):
        add_gaussian_noise(np.zeros((1, 2, 2, 1)), -0.1, seed=0)


def test_noise_empirical_std_matches_sigma():
    x = np.zeros((10, 32, 32, 3), dtype=np.float32)
    noisy = add_gaussian_noise(x, 0.01, seed=11)
    measured = (noisy - x).std()
    assert abs(measured - 0.01) < 0.05 * 0.01


def test_noise_deterministic_per_seed():
    x = np.full((4, 8, 8, 3), 0.5, dtype=np.float32)
    a = add_gaussian_noise(x, 0.05, seed=21)
    b = add_gaussian_noise(x, 0.05, seed=21)
    assert np.array_equal(a, b)


def test_hflip_is_involution():
    img = make_synthetic(classes=2, per_class=1, image_size=8, seed=4).images[0]
    assert np.array_equal(hflip(hflip(img)), img)


def _set_augmentation(patch, flip_prob, brightness_delta, contrast_range):
    patch.setattr(data, "FLIP_PROB", flip_prob)
    patch.setattr(data, "BRIGHTNESS_DELTA", brightness_delta)
    patch.setattr(data, "CONTRAST_RANGE", contrast_range)


def test_identity_parameters_return_input(monkeypatch):
    _set_augmentation(monkeypatch, 0.0, 0.0, (1.0, 1.0))
    img = make_synthetic(classes=2, per_class=1, image_size=8, seed=4).images[0]
    a, b = augment_pair(img, 0, step_seed=17)
    np.testing.assert_allclose(a, img, atol=1e-7)
    np.testing.assert_allclose(b, img, atol=1e-7)


def test_augment_reproducible_across_runs():
    img = make_synthetic(classes=2, per_class=1, image_size=8, seed=4).images[0]
    first = augment_pair(img, 5, step_seed=99)
    second = augment_pair(img, 5, step_seed=99)
    assert image_checksum(first[0]) == image_checksum(second[0])
    assert image_checksum(first[1]) == image_checksum(second[1])
    assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])


def test_augment_views_use_distinct_subseeds(monkeypatch):
    monkeypatch.setattr(data, "FLIP_PROB", 0.0)
    img = make_synthetic(classes=2, per_class=1, image_size=8, seed=4).images[0]
    a, b = augment_pair(img, 5, step_seed=1)
    assert not np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_augmented_outputs_stay_in_unit_range(seed):
    img = make_synthetic(classes=2, per_class=1, image_size=8, seed=seed % 7).images[0]
    with pytest.MonkeyPatch.context() as patch:
        _set_augmentation(patch, 0.5, 0.4, (0.3, 2.0))
        a, b = augment_pair(img, seed, step_seed=seed)
    for view in (a, b):
        assert view.min() >= 0.0 and view.max() <= 1.0


def test_flip_decisions_independent_between_views(monkeypatch):
    # over many draws at flip_prob=0.5, the two views agree about half
    # the time; binomial 99% CI around 500/1000 is roughly +-41
    _set_augmentation(monkeypatch, 0.5, 0.0, (1.0, 1.0))
    img = np.zeros((4, 4, 3), dtype=np.float32)
    img[:, 0, :] = 1.0  # asymmetric so flips are observable
    agree = 0
    for step in range(1000):
        a, b = augment_pair(img, 7, step_seed=step)
        agree += np.array_equal(a, b)
    assert 459 <= agree <= 541


def test_stratified_indices_exact_counts():
    labels = np.repeat(np.arange(5), 20)
    idx = stratified_indices(labels, 0.10, seed=3)
    assert len(idx) == 10
    counts = np.bincount(labels[idx], minlength=5)
    np.testing.assert_array_equal(counts, [2, 2, 2, 2, 2])


def test_stratified_indices_rejects_empty_class():
    labels = np.array([0, 0, 0, 1])
    with pytest.raises(ValueError, match="zero examples"):
        stratified_indices(labels, 0.1, seed=0)


def test_train_val_split_partitions_dataset():
    ds = make_synthetic(classes=4, per_class=10, image_size=8, seed=2)
    train, val = train_val_split(ds, 0.2, seed=1)
    assert len(train) + len(val) == len(ds)
    assert len(val) == 8
    # stratified: two per class in val
    np.testing.assert_array_equal(np.bincount(val.labels, minlength=4), [2, 2, 2, 2])
