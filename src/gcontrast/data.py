"""Dataset ingestion, corruption, and the two-view augmentation pipeline.

Images live in float32 NHWC arrays scaled to [0,1]. True labels ride
along for the evaluation stage only; nothing upstream of it may read
them.
"""

import os
from dataclasses import dataclass

import numpy as np

from .seeds import derive_seed

RECORD_BYTES = 3073  # 1 label byte + 3 x 1024 channel-plane bytes
CIFAR_FILES = ["data_batch_1.bin", "data_batch_2.bin", "data_batch_3.bin",
               "data_batch_4.bin", "data_batch_5.bin", "test_batch.bin"]

# SimCLR-style view augmentation: flip, brightness shift, contrast factor
FLIP_PROB = 0.5
BRIGHTNESS_DELTA = 0.2
CONTRAST_RANGE = (0.8, 1.2)

CHUNK = 256  # images per no-grad forward pass: DAE validation, latents and tap features


class DataFormatError(ValueError):
    """A file does not hold what its reader expects: a cifar10 batch file off the
    canonical record layout, or a run-directory artifact unlike what its stage wrote."""


@dataclass
class ImageDataset:
    images: np.ndarray          # (n, H, W, C) float32 in [0, 1]
    labels: np.ndarray          # (n,) int64, held out for evaluation only
    source: str                 # "cifar10" | "synthetic"
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (n,H,W,C), got shape {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ValueError(f"{len(self.images)} images but {len(self.labels)} labels")
        if len(self.images) < 1:
            raise ValueError("dataset must contain at least one image")
        if self.images.min() < 0.0 or self.images.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self):
        return len(self.images)


def load_cifar10(directory) -> ImageDataset:
    """Read the six canonical binary batch files under `directory`.

    Each 3073-byte record is one label byte followed by three 1024-byte
    channel planes (R, G, B), each a 32x32 row-major image. Pixels are
    scaled by 1/255.
    """
    chunks, label_chunks = [], []
    for name in CIFAR_FILES:
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            raise DataFormatError(f"missing batch file {name} in {directory}")
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) % RECORD_BYTES != 0:
            raise DataFormatError(
                f"{name}: length {len(raw)} is not a multiple of {RECORD_BYTES}")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
        if records.size and records[:, 0].max() > 9:
            bad = int(records[:, 0].max())
            raise DataFormatError(f"{name}: label byte {bad} outside [0, 9]")
        label_chunks.append(records[:, 0].astype(np.int64))
        planes = records[:, 1:].reshape(-1, 3, 32, 32)
        chunks.append(planes.transpose(0, 2, 3, 1).astype(np.float32) / np.float32(255.0))
    images = np.concatenate(chunks, axis=0)
    labels = np.concatenate(label_chunks, axis=0)
    if not len(labels):
        raise DataFormatError(f"no records in the batch files in {directory}")
    return ImageDataset(images=images, labels=labels, source="cifar10", num_classes=10)


def save_cifar10_binary(dataset: ImageDataset, directory):
    """Write a dataset back out in the canonical binary layout.

    Only 32x32x3 images with labels in [0, 9] fit the format. Records are
    split across the six batch files as evenly as possible; loading the
    directory again reproduces the dataset bit for bit.
    """
    n, h, w, c = dataset.images.shape
    if (h, w, c) != (32, 32, 3):
        raise DataFormatError(f"binary layout needs 32x32x3 images, got {h}x{w}x{c}")
    if dataset.labels.max() > 9:
        raise DataFormatError("binary layout supports at most 10 classes")
    os.makedirs(directory, exist_ok=True)
    pixels = np.round(dataset.images * 255.0).astype(np.uint8)
    planes = pixels.transpose(0, 3, 1, 2).reshape(n, 3072)
    records = np.concatenate(
        [dataset.labels.astype(np.uint8)[:, None], planes], axis=1)
    base, rem = divmod(n, len(CIFAR_FILES))
    start = 0
    for i, name in enumerate(CIFAR_FILES):
        count = base + (1 if i < rem else 0)
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(records[start:start + count].tobytes())
        start += count


def _smooth_field(rng, size):
    """Random low-frequency field: 4x4 coarse noise, bilinear upsampled."""
    coarse = rng.uniform(0.0, 1.0, size=(4, 4))
    pos = np.linspace(0.0, 3.0, size)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, 3)
    frac = pos - lo
    rows = coarse[lo] * (1.0 - frac)[:, None] + coarse[hi] * frac[:, None]
    cols = rows[:, lo] * (1.0 - frac)[None, :] + rows[:, hi] * frac[None, :]
    return cols


def make_synthetic(classes, per_class, image_size, seed, channels=3,
                   noise_sigma=0.08) -> ImageDataset:
    """Class-templated smooth images plus per-image pixel noise.

    Every class gets its own low-frequency template per channel; images
    are the template plus Gaussian noise, clamped and quantized to the
    255-level grid so the binary round trip is exact.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if per_class < 1 or image_size < 2:
        raise ValueError("per_class and image_size must be positive")
    images = np.zeros((classes * per_class, image_size, image_size, channels), dtype=np.float32)
    labels = np.zeros(classes * per_class, dtype=np.int64)
    for cls in range(classes):
        template_rng = np.random.default_rng(derive_seed(seed, "template", cls))
        template = np.stack(
            [_smooth_field(template_rng, image_size) for _ in range(channels)], axis=-1)
        noise_rng = np.random.default_rng(derive_seed(seed, "pixels", cls))
        lo = cls * per_class
        block = template[None] + noise_rng.normal(0.0, noise_sigma,
                                                  size=(per_class, image_size, image_size, channels))
        images[lo:lo + per_class] = np.clip(block, 0.0, 1.0)
        labels[lo:lo + per_class] = cls
    images = np.round(images * 255.0) / np.float32(255.0)
    return ImageDataset(images=images.astype(np.float32), labels=labels,
                        source="synthetic", num_classes=classes)


def add_gaussian_noise(batch, sigma, seed):
    """x + N(0, sigma^2), elementwise and unclamped."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    batch = np.asarray(batch, dtype=np.float32)
    if sigma == 0:
        return batch.copy()
    rng = np.random.default_rng(seed)
    return batch + rng.normal(0.0, sigma, size=batch.shape).astype(np.float32)


def hflip(image):
    """Mirror along the width axis."""
    return np.ascontiguousarray(image[:, ::-1, :])


def _one_view(image, view_seed):
    rng = np.random.default_rng(view_seed)
    flip = rng.random() < FLIP_PROB
    shift = rng.uniform(-BRIGHTNESS_DELTA, BRIGHTNESS_DELTA)
    factor = rng.uniform(*CONTRAST_RANGE)
    mean = image.mean()
    out = np.clip(factor * (image - mean) + mean + shift, 0.0, 1.0).astype(np.float32)
    return hflip(out) if flip else out


def augment_pair(image, aug_seed, step_seed):
    """Two independently augmented views of one image.

    Each view draws its own flip, brightness shift, and contrast factor
    from a sub-seed derived from (aug_seed, step_seed, view index).
    """
    view_a = _one_view(image, derive_seed(aug_seed, step_seed, 0))
    view_b = _one_view(image, derive_seed(aug_seed, step_seed, 1))
    return view_a, view_b


def subset(dataset: ImageDataset, indices) -> ImageDataset:
    indices = np.asarray(indices, dtype=np.int64)
    return ImageDataset(images=dataset.images[indices], labels=dataset.labels[indices],
                        source=dataset.source, num_classes=dataset.num_classes)


def stratified_count(fraction, class_size):
    """Images stratified_indices draws from a class of `class_size`."""
    return int(round(fraction * class_size))


def subset_class_sizes(size, num_classes):
    """Per-class image counts of an exact stratified subset of `size`
    images: as even as possible, the first classes taking the remainder."""
    base, rem = divmod(size, num_classes)
    return [base + (1 if i < rem else 0) for i in range(num_classes)]


def draw_per_class(labels, counts, seed):
    """Sorted indices of `counts[i]` members of the i-th class in np.unique
    order, each class drawn by one permutation of one default_rng(seed)."""
    labels, rng = np.asarray(labels), np.random.default_rng(seed)
    members = [np.flatnonzero(labels == cls) for cls in np.unique(labels)]
    return np.sort(np.concatenate([m[rng.permutation(len(m))[:count]]
                                   for m, count in zip(members, counts)]))


def stratified_indices(labels, fraction, seed):
    """Per-class deterministic draw of round(fraction * class size) indices.

    Raises if any class would end up empty: a stratified subset that
    drops a class entirely is never what the caller wants.
    """
    classes, sizes = np.unique(labels, return_counts=True)
    counts = [stratified_count(fraction, size) for size in sizes]
    for cls, count in zip(classes, counts):
        if count < 1:
            raise ValueError(f"fraction {fraction} leaves class {cls} with zero examples")
    return draw_per_class(labels, counts, seed)


def train_val_split(dataset: ImageDataset, val_fraction, seed):
    """Stratified split into (train, val) datasets."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0,1), got {val_fraction}")
    val_idx = stratified_indices(dataset.labels, val_fraction, derive_seed(seed, "val-split"))
    mask = np.ones(len(dataset), dtype=bool)
    mask[val_idx] = False
    return subset(dataset, np.flatnonzero(mask)), subset(dataset, val_idx)
