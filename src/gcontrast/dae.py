"""Fully convolutional denoising autoencoder and latent extraction.

Training corrupts inputs with Gaussian noise and reconstructs the clean
image under MSE, optimized with Adam and early stopping on a held-out
validation split. Latents always come from clean images: the pseudo
labels downstream should describe the data, not the corruption.
"""

from dataclasses import dataclass

import numpy as np

from .data import CHUNK, ImageDataset, add_gaussian_noise
from .layers import ConvTranspose2D, Sequential, conv_stack
from .optim import AdamState, adam_step, fit_early_stopping
from .optim import early_stopping_scan  # noqa: F401  (re-exported: acceptance criterion 6 imports it from here)
from .seeds import derive_seed
from .tensor import Tensor, gradients, mse, no_grad


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
    blocks = spec.encoder_layers
    # the decoder undoes the blocks last to first, each back to its input channels
    inputs = [spec.channels] + [filters for filters, _, _ in blocks[:-1]]
    mirrored = [(c, kernel, stride) for c, (_, kernel, stride) in zip(inputs, blocks)][::-1]
    encoder = conv_stack(rng, spec.channels, blocks)
    decoder = conv_stack(rng, blocks[-1][0], mirrored, ConvTranspose2D, last_activation="linear")
    return Autoencoder(spec, Sequential(encoder), Sequential(decoder))


def reconstruction_loss(model, clean, corrupted):
    """Mean squared error of model(corrupted) against clean, no gradients."""
    total = 0.0
    with no_grad():
        for start in range(0, len(clean), CHUNK):
            x = clean[start:start + CHUNK]
            xn = corrupted[start:start + CHUNK]
            loss = mse(model(Tensor(xn)), Tensor(x))
            total += loss.item() * len(x)
    return total / len(clean)


def train_dae(model: Autoencoder, dataset: ImageDataset, sigma=0.01, max_epochs=100,
              patience=5, val_fraction=0.1, batch_size=64, seed=0):
    """Train with corrupted inputs against clean targets; restore best weights.

    The validation corruption is drawn once so the validation curve
    reflects only model movement. Labels are never read here.
    """
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
    state = AdamState.init(params)

    def step(epoch, bi, batch):
        x = dataset.images[batch]
        xn = add_gaussian_noise(x, sigma, derive_seed(seed, "dae-noise", epoch, bi))
        loss = mse(model(Tensor(xn)), Tensor(x))
        adam_step(params, gradients(loss, params), state)
        return loss.item()

    return model, fit_early_stopping(
        params, train_idx, batch_size, lambda epoch: derive_seed(seed, "dae-shuffle", epoch),
        step, lambda: reconstruction_loss(model, val_clean, val_corrupted), max_epochs, patience)


def extract_latents(model: Autoencoder, dataset: ImageDataset):
    """Encoder outputs for every clean image, flattened row-major (n, d)."""
    latents = np.empty((len(dataset), model.spec.latent_dim), dtype=np.float32)
    with no_grad():
        for start in range(0, len(dataset), CHUNK):
            x = dataset.images[start:start + CHUNK]
            latents[start:start + len(x)] = model.encode(Tensor(x)).data.reshape(len(x), -1)
    return latents
