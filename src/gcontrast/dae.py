"""Fully convolutional denoising autoencoder and latent extraction.

Training corrupts inputs with Gaussian noise and reconstructs the clean
image under MSE, optimized with Adam and early stopping on a held-out
validation split. Latents always come from clean images: the pseudo
labels downstream should describe the data, not the corruption.
"""

from dataclasses import dataclass

import numpy as np

from .data import ImageDataset, add_gaussian_noise
from .layers import Conv2D, ConvTranspose2D, Sequential
from .optim import AdamState, TrainingDivergedError, adam_step, fit_early_stopping
from .seeds import derive_seed
from .tensor import NonFiniteError, Tensor, gradients, mse, no_grad

CHUNK = 256  # images per no-grad forward pass in validation and latent extraction


@dataclass(frozen=True)
class AutoencoderSpec:
    """Encoder conv stack; the decoder mirrors it with transposed convs."""

    encoder_layers: tuple = ((32, 3, 2), (64, 3, 2), (128, 3, 2))  # (filters, kernel, stride)
    image_size: int = 32
    channels: int = 3

    def latent_shape(self):
        size = self.image_size
        for i, (filters, kernel, stride) in enumerate(self.encoder_layers):
            if size % stride != 0:
                raise ValueError(
                    f"encoder layer {i} (filters={filters}): spatial size {size} "
                    f"not divisible by stride {stride}")
            size //= stride
        return (size, size, self.encoder_layers[-1][0])

    @property
    def latent_dim(self):
        h, w, c = self.latent_shape()
        return h * w * c


class Autoencoder:
    def __init__(self, spec: AutoencoderSpec, encoder: Sequential, decoder: Sequential):
        self.spec = spec
        self.encoder = encoder
        self.decoder = decoder

    def params(self):
        return self.encoder.params() + self.decoder.params()

    def encode(self, x):
        return self.encoder(x)

    def __call__(self, x):
        return self.decoder(self.encoder(x))


def build_autoencoder(spec: AutoencoderSpec, seed) -> Autoencoder:
    """Deterministically initialized encoder/decoder pair for the spec."""
    spec.latent_shape()  # validates stride geometry, names the bad layer
    rng = np.random.default_rng(derive_seed(seed, "autoencoder-init"))
    enc_layers, in_ch = [], spec.channels
    for filters, kernel, stride in spec.encoder_layers:
        enc_layers.append(Conv2D(rng, in_ch, filters, kernel=kernel, stride=stride,
                                 activation="relu"))
        in_ch = filters
    dec_layers = []
    mirrored = list(spec.encoder_layers)
    for i in range(len(mirrored) - 1, 0, -1):
        f_out = mirrored[i - 1][0]
        _, kernel, stride = mirrored[i]
        dec_layers.append(ConvTranspose2D(rng, in_ch, f_out, kernel=kernel, stride=stride,
                                          activation="relu"))
        in_ch = f_out
    _, kernel, stride = mirrored[0]
    dec_layers.append(ConvTranspose2D(rng, in_ch, spec.channels, kernel=kernel, stride=stride,
                                      activation="linear"))
    return Autoencoder(spec, Sequential(enc_layers), Sequential(dec_layers))


def early_stopping_scan(val_losses, patience):
    """(best_epoch, stopped_epoch), 1-based, for a validation-loss sequence.

    Stops once the loss has failed to improve on the running best for
    `patience` consecutive epochs.
    """
    best = float("inf")
    best_epoch, since = 0, 0
    for epoch, value in enumerate(val_losses, start=1):
        if value < best:
            best, best_epoch, since = value, epoch, 0
        else:
            since += 1
            if since >= patience:
                return best_epoch, epoch
    return best_epoch, len(val_losses)


def reconstruction_loss(model, clean, corrupted):
    """Mean squared error of model(corrupted) against clean, no gradients."""
    total, count = 0.0, 0
    with no_grad():
        for start in range(0, len(clean), CHUNK):
            x = clean[start:start + CHUNK]
            xn = corrupted[start:start + CHUNK]
            loss = mse(model(Tensor(xn)), Tensor(x))
            total += loss.item() * len(x)
            count += len(x)
    return total / count


def train_dae(model: Autoencoder, dataset: ImageDataset, sigma=0.01, max_epochs=100,
              patience=5, val_fraction=0.1, batch_size=64, seed=0, adam_lr=1e-3):
    """Train with corrupted inputs against clean targets; restore best weights.

    The validation corruption is drawn once so the validation curve
    reflects only model movement. Labels are never read here.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0,1), got {val_fraction}")
    n = len(dataset)
    perm = np.random.default_rng(derive_seed(seed, "dae-split")).permutation(n)
    val_count = max(1, int(round(val_fraction * n)))
    if val_count >= n:
        raise ValueError(f"val_fraction {val_fraction} leaves no training images")
    val_idx, train_idx = perm[:val_count], perm[val_count:]
    val_clean = dataset.images[val_idx]
    val_corrupted = add_gaussian_noise(val_clean, sigma, derive_seed(seed, "dae-val-noise"))

    params = model.params()
    state = AdamState.init(params, lr=adam_lr)

    def train_epoch(epoch):
        order = train_idx.copy()
        np.random.default_rng(derive_seed(seed, "dae-shuffle", epoch)).shuffle(order)
        epoch_loss, seen = 0.0, 0
        for bi, start in enumerate(range(0, len(order), batch_size)):
            batch = order[start:start + batch_size]
            x = dataset.images[batch]
            xn = add_gaussian_noise(x, sigma, derive_seed(seed, "dae-noise", epoch, bi))
            try:
                loss = mse(model(Tensor(xn)), Tensor(x))
                adam_step(params, gradients(loss, params), state)
            except NonFiniteError as err:
                raise TrainingDivergedError(epoch, bi, err) from err
            epoch_loss += loss.item() * len(batch)
            seen += len(batch)
        return epoch_loss / seen

    return model, fit_early_stopping(
        params, train_epoch, lambda: reconstruction_loss(model, val_clean, val_corrupted),
        max_epochs, patience)


def extract_latents(model: Autoencoder, dataset: ImageDataset):
    """Encoder outputs for every clean image, flattened row-major (n, d)."""
    latents = np.empty((len(dataset), model.spec.latent_dim), dtype=np.float32)
    with no_grad():
        for start in range(0, len(dataset), CHUNK):
            x = dataset.images[start:start + CHUNK]
            latents[start:start + len(x)] = model.encode(Tensor(x)).data.reshape(len(x), -1)
    return latents
