"""Encoder + projection head, the NT-Xent objective, and its training loop.

The loss for an ordered positive pair (i, j) is

    -log( exp(sim(z_i, z_j)/tau) / sum_{k != i} exp(sim(z_i, z_k)/tau) )

with the denominator running over all other rows, excluding only
self-similarity. The total is the mean over all 2N ordered pairs: a
softmax cross-entropy over the self-masked similarity rows with each
row's partner as the target, stable for large 1/tau.
"""

from dataclasses import dataclass, field

import numpy as np

from .cluster import PseudoLabelAssignment
from .data import ImageDataset, augment_pair
from .layers import Dense, GlobalAvgPool, Sequential, conv_stack
from .optim import CosineSchedule, run_epoch, sgd_cosine_step
from .scheduler import build_guided_plan, build_random_plan
from .seeds import derive_seed
from .tensor import ShapeError, Tensor, gradients, self_similarity_cross_entropy


@dataclass(frozen=True)
class EncoderSpec:
    """Conv backbone ending in a global average pool feature vector."""

    blocks: tuple = ((32, 3, 2), (64, 3, 2), (128, 3, 2), (256, 3, 2))  # (filters, kernel, stride)
    channels: int = 3

    @property
    def feature_dim(self):
        return self.blocks[-1][0]


@dataclass(frozen=True)
class ProjectionHeadSpec:
    """Three dense layers, relu after the first two, linear output."""

    widths: tuple = (256, 128, 64)

    def __post_init__(self):
        if len(self.widths) != 3:
            raise ValueError(f"projection head needs exactly 3 layers, got {len(self.widths)}")


@dataclass
class ContrastiveConfig:
    temperature: float = 0.1
    batch_size: int = 64
    epochs: int = 15
    base_lr: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")

    def plan_seed(self, epoch):
        """Seed of the epoch's batch plan; the plan artifact uses the same one."""
        return derive_seed(self.seed, "plan", epoch)


def build_encoder(spec: EncoderSpec, seed) -> Sequential:
    rng = np.random.default_rng(derive_seed(seed, "encoder-init"))
    return Sequential(conv_stack(rng, spec.channels, spec.blocks) + [GlobalAvgPool()])


def build_head(spec: ProjectionHeadSpec, in_dim, seed) -> Sequential:
    rng = np.random.default_rng(derive_seed(seed, "head-init"))
    w1, w2, w3 = spec.widths
    return Sequential([
        Dense(rng, in_dim, w1, activation="relu"),
        Dense(rng, w1, w2, activation="relu"),
        Dense(rng, w2, w3, activation="linear"),
    ])


def interleaved_pairing(num_pairs):
    """Partner indices for rows laid out as (2m, 2m+1) positive pairs."""
    pairing = np.empty(2 * num_pairs, dtype=np.int64)
    pairing[0::2] = np.arange(num_pairs) * 2 + 1
    pairing[1::2] = np.arange(num_pairs) * 2
    return pairing


def nt_xent_loss(embeddings: Tensor, pairing, temperature) -> Tensor:
    """Mean NT-Xent over all ordered positive pairs.

    `embeddings` is (2N, D); rows are L2-normalized here, so any positive
    rescaling of the inputs leaves the loss unchanged.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    rows = embeddings.shape[0]
    if rows < 2 or rows % 2 != 0:
        raise ShapeError(f"nt_xent_loss: need 2N rows with N >= 1, got {rows}")
    pairing = np.asarray(pairing, dtype=np.int64)
    idx = np.arange(rows)
    if (pairing.shape != (rows,) or not np.isin(pairing, idx).all()
            or (pairing == idx).any() or (pairing[pairing] != idx).any()):
        raise ValueError("pairing must map every row to a distinct partner row, and back")
    scale = np.asarray(1.0 / temperature)  # float64: promotes float32 similarities and grads
    return self_similarity_cross_entropy(embeddings.l2_normalize(axis=1), pairing, scale)


def forward_pair_batch(encoder, head, batch, dataset: ImageDataset, aug_seed,
                       step_seed) -> Tensor:
    """Augment, encode, and project one batch; rows interleaved by pair.

    Row 2m and 2m+1 are the two views of batch[m], L2-normalized.
    """
    images = dataset.images
    views = np.empty((2 * len(batch),) + images.shape[1:], dtype=np.float32)
    for pos, idx in enumerate(batch):
        a, b = augment_pair(images[idx], aug_seed, derive_seed(step_seed, pos))
        views[2 * pos] = a
        views[2 * pos + 1] = b
    projected = head(encoder(Tensor(views)))
    return projected.l2_normalize(axis=1)


@dataclass
class LossHistory:
    records: list = field(default_factory=list)   # (epoch, batch_index, loss)
    epoch_means: list = field(default_factory=list)


def train_contrastive(dataset: ImageDataset, config: ContrastiveConfig,
                      encoder_spec: EncoderSpec = EncoderSpec(),
                      head_spec: ProjectionHeadSpec = ProjectionHeadSpec(),
                      assignment: PseudoLabelAssignment = None):
    """SGD + cosine decay over batches from guided or random plans.

    Returns (encoder, head, LossHistory). Batches are guided by the
    pseudo-label assignment when one is given and random otherwise;
    labels proper are never touched.
    """
    aug_seed = derive_seed(config.seed, "augment")
    encoder = build_encoder(encoder_spec, config.seed)
    head = build_head(head_spec, encoder_spec.feature_dim, config.seed)
    params = encoder.params() + head.params()

    n = len(dataset)
    steps_per_epoch = -(-n // config.batch_size)
    schedule = CosineSchedule(config.base_lr, config.epochs * steps_per_epoch)
    history = LossHistory()

    def step(epoch, bi, batch):
        embeddings = forward_pair_batch(encoder, head, batch, dataset, aug_seed,
                                        derive_seed(config.seed, "augment", epoch, bi))
        loss = nt_xent_loss(embeddings, interleaved_pairing(len(batch)), config.temperature)
        # every completed step has its record, so their count is this step's index
        sgd_cosine_step(params, gradients(loss, params), schedule, len(history.records))
        value = loss.item()
        history.records.append((epoch, bi, value))
        return value

    for epoch in range(1, config.epochs + 1):
        seed = config.plan_seed(epoch)
        if assignment is not None:
            plan = build_guided_plan(assignment, p=config.batch_size, epoch_seed=seed)
        else:
            plan = build_random_plan(n, config.batch_size, epoch_seed=seed)
        history.epoch_means.append(float(np.mean(run_epoch(epoch, plan.batches, step, history))))
    return encoder, head, history
