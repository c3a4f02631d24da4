"""Pseudo-label-guided batch construction for contrastive training.

Pipeline: a denoising autoencoder learns latents for the unlabeled
images, k-means turns those into pseudo labels, and mini-batches for
NT-Xent contrastive training are stratified by pseudo label so
same-cluster images rarely collide as negatives. Frozen linear probes
and 10%-label fine-tuning measure the learned representations against
a random-batching baseline.
"""

from .cluster import ClusterModel, PseudoLabelAssignment, assign, kmeans_fit, pseudo_label_table
from .contrastive import (
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
from .dae import (
    AutoencoderSpec,
    build_autoencoder,
    early_stopping_scan,
    extract_latents,
    train_dae,
)
from .data import (
    AugmentationConfig,
    ImageDataset,
    add_gaussian_noise,
    augment_pair,
    load_cifar10,
    make_synthetic,
    save_cifar10_binary,
    train_val_split,
)
from .evaluate import (
    EvalReport,
    TapPoint,
    fine_tune_10pct,
    linear_probe,
    supervised_reference,
    tap,
)
from .optim import (
    AdamState,
    CosineSchedule,
    TrainHistory,
    TrainingDivergedError,
    adam_step,
    sgd_cosine_step,
)
from .scheduler import (
    BatchPlan,
    PlanDiagnostics,
    build_guided_plan,
    build_random_plan,
    validate_plan,
)
from .tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    conv2d,
    conv2d_transpose,
    gradients,
    matmul,
    mse,
    no_grad,
)

__version__ = "0.1.0"
