"""Downstream evaluation: frozen linear probes and label-limited fine-tuning.

Tap points select how much of the projection head feeds the probe:
P1 keeps all head layers but the last, P2 keeps only the first, and P3
reads the backbone feature vector directly.
"""

import numpy as np

from .data import CHUNK, ImageDataset, stratified_indices
from .layers import Dense
from .optim import AdamState, adam_step, fit_early_stopping
from .seeds import derive_seed
from .tensor import Tensor, gradients, no_grad
from .tensor import cross_entropy as softmax_cross_entropy


# Reference accuracies from full-scale runs (ResNet backbones, complete
# datasets); desk-scale runs report deltas next to these for context.
FULL_SCALE_REFERENCE = {
    "cifar10": {
        "supervised-reference": 73.62,
        "random-baseline": {"P1": 37.69, "P2": 39.4, "P3": 39.92, "finetune": 42.21},
        "guided": {"P1": 38.15, "P2": 41.01, "P3": 40.5, "finetune": 43.1},
    },
}


# head layers each tap point keeps
_HEAD_DEPTH = {"P1": 2, "P2": 1, "P3": 0}
TAP_POINTS = tuple(_HEAD_DEPTH)  # the protocol probes every tap point, in this order


def tap(encoder, head, points):
    """Frozen feature extractor reading at a sequence of tap points.

    The extractor returns one feature matrix per point, in order, from a
    single backbone pass over each chunk of images.
    """
    depths = [_HEAD_DEPTH[p] for p in points]
    head_layers = head.layers[:max(depths, default=0)]

    def extract(images):
        rows = [[] for _ in depths]
        # no numpy overflow warning: every op screens its output for non-finite values
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(images), CHUNK):
                feats = [encoder(Tensor(images[start:start + CHUNK]))]
                for layer in head_layers:
                    feats.append(layer(feats[-1]))
                for out, depth in zip(rows, depths):
                    out.append(feats[depth].data)
        return tuple(np.concatenate(r, axis=0) for r in rows)

    return extract


def _accuracy_percent(logits, labels):
    return 100.0 * float((logits.argmax(axis=1) == labels).mean())


def fit_softmax_classifier(forward, params, train_inputs, train_labels,
                           val_inputs, val_labels, epochs=50, patience=5,
                           batch_size=128, seed=0):
    """Adam + cross-entropy with early stopping on validation loss.

    `forward` maps an input batch (numpy) to logits (Tensor); `params`
    are whatever should be trained through it. Restores the best-epoch
    weights and returns the validation accuracy there; a non-finite step
    raises TrainingDivergedError.
    """
    state = AdamState.init(params)

    def step(epoch, bi, batch):
        loss = softmax_cross_entropy(forward(train_inputs[batch]), train_labels[batch])
        adam_step(params, gradients(loss, params), state)
        return loss.item()

    accuracies = []  # each epoch's, so the best epoch needs no second validation pass

    def val_loss():
        with no_grad():
            val_losses, counts, chunks = [], [], []
            for start in range(0, len(val_inputs), batch_size):
                chunk = slice(start, start + batch_size)
                logits = forward(val_inputs[chunk])
                loss = softmax_cross_entropy(logits, val_labels[chunk])
                chunks.append(logits.data)
                val_losses.append(loss.item())
                counts.append(len(val_labels[chunk]))
        accuracies.append(_accuracy_percent(np.concatenate(chunks, axis=0), val_labels))
        return float(np.average(val_losses, weights=counts))

    history = fit_early_stopping(
        params, len(train_inputs), batch_size, lambda epoch: derive_seed(seed, "clf-shuffle", epoch),
        step, val_loss, epochs, patience)
    return accuracies[history.best_epoch - 1]


def linear_probe(features, train_ds: ImageDataset, val_ds: ImageDataset,
                 epochs=50, patience=5, seed=0, eval_name="P3") -> float:
    """Validation accuracy, in percent, of a single dense layer on frozen
    features: `features` is the (train, val) pair of feature matrices,
    extracted beforehand, so the encoder never trains. `eval_name` tags
    the layer's init.
    """
    # each ImageDataset checks its labels against its own class count only
    if val_ds.labels.max() >= train_ds.num_classes:
        raise ValueError(f"labels outside [0, {train_ds.num_classes})")
    train_x, val_x = (f.astype(np.float32) for f in features)
    rng = np.random.default_rng(derive_seed(seed, "probe-init", eval_name))
    clf = Dense(rng, train_x.shape[1], train_ds.num_classes, activation="linear")
    return fit_softmax_classifier(
        lambda xb: clf(Tensor(xb)), clf.params(),
        train_x, train_ds.labels, val_x, val_ds.labels,
        epochs=epochs, patience=patience, seed=seed)


def _train_end_to_end(encoder, feature_dim, train_ds, rows, val_ds, init_tag,
                      epochs, patience, seed):
    """Validation accuracy of the encoder plus a fresh linear classifier,
    trained end to end on `rows` of train_ds at batch size 64."""
    rng = np.random.default_rng(derive_seed(seed, init_tag))
    clf = Dense(rng, feature_dim, train_ds.num_classes, activation="linear")
    return fit_softmax_classifier(
        lambda xb: clf(encoder(Tensor(xb))), encoder.params() + clf.params(),
        train_ds.images[rows], train_ds.labels[rows], val_ds.images, val_ds.labels,
        epochs=epochs, patience=patience, batch_size=64, seed=seed)


def fine_tune_10pct(encoder, feature_dim, train_ds: ImageDataset, val_ds: ImageDataset,
                    fraction=0.10, epochs=50, patience=5, seed=0) -> float:
    """Validation accuracy of the encoder plus a fresh linear classifier
    trained end to end on a small stratified labeled subset; no projection
    head layers are used.

    The encoder object is trained in place; pass a dedicated copy.
    """
    chosen = stratified_indices(train_ds.labels, fraction, derive_seed(seed, "finetune-subset"))
    return _train_end_to_end(encoder, feature_dim, train_ds, chosen, val_ds,
                             "finetune-init", epochs, patience, seed)


def supervised_reference(encoder, feature_dim, train_ds: ImageDataset,
                         val_ds: ImageDataset, epochs=50, patience=5,
                         seed=0) -> float:
    """Ceiling reference: validation accuracy of the same encoder trained
    fully supervised."""
    return _train_end_to_end(encoder, feature_dim, train_ds, slice(None), val_ds,
                             "supervised-init", epochs, patience, seed)
