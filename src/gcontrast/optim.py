"""Adam and SGD-with-cosine-decay parameter updates, the training step loop,
the early-stopping patience rule, and divergence errors."""

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import NonFiniteError, ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-7  # Adam's moment decays and denominator guard


class TrainingDivergedError(RuntimeError):
    """A value went non-finite at (epoch, batch); carries the history of
    the completed steps or epochs."""

    def __init__(self, epoch, batch, cause, history=None):
        super().__init__(f"training diverged at epoch {epoch}, batch {batch}: {cause}")
        self.history = history


@dataclass
class AdamState:
    """Per-parameter moments plus the shared step counter."""

    lr: float = 1e-3
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def init(cls, params, lr=1e-3):
        return cls(lr=lr, m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update; rebinds each parameter's buffer."""
    _check_grads(params, grads, "adam_step")
    state.t += 1
    b1t = 1.0 - BETA1 ** state.t
    b2t = 1.0 - BETA2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * (g * g)
        m_hat = state.m[i] / b1t
        v_hat = state.v[i] / b2t
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
    return params


@dataclass(frozen=True)
class CosineSchedule:
    """lr(t) = base_lr * 0.5 * (1 + cos(pi * t / total_steps))."""

    base_lr: float
    total_steps: int

    def __post_init__(self):
        if self.total_steps <= 0:
            raise ValueError(f"CosineSchedule: total_steps must be positive, got {self.total_steps}")

    def lr(self, t: int) -> float:
        if not 0 <= t <= self.total_steps:
            raise ValueError(f"CosineSchedule: step {t} outside [0, {self.total_steps}]")
        return self.base_lr * 0.5 * (1.0 + math.cos(math.pi * t / self.total_steps))


def sgd_cosine_step(params, grads, schedule: CosineSchedule, t: int):
    """Plain SGD update at the schedule's rate for step t."""
    _check_grads(params, grads, "sgd_cosine_step")
    lr = schedule.lr(t)
    for p, g in zip(params, grads):
        p.data = p.data - lr * g
    return params


def _check_grads(params, grads, op):
    if len(params) != len(grads):
        raise ShapeError(f"{op}: {len(params)} params but {len(grads)} grads")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.data.shape != g.shape:
            raise ShapeError(f"{op}: param {i} shape {p.data.shape} != grad shape {g.shape}")
        if not np.isfinite(g).all():
            bad = int((~np.isfinite(g)).sum())
            raise NonFiniteError(f"{op}: gradient {i} (shape {g.shape}) has {bad} non-finite entries")


def run_epoch(epoch, batches, step, history):
    """The values of step(epoch, batch_index, batch) over the batches, in
    order. A non-finite value inside a step is raised as
    TrainingDivergedError at (epoch, batch_index), carrying `history`;
    numpy's overflow warnings stay silent, as the finiteness checks
    screen every value."""
    values = []
    for bi, batch in enumerate(batches):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                values.append(step(epoch, bi, batch))
        except NonFiniteError as err:
            raise TrainingDivergedError(epoch, bi, err, history) from err
    return values


def _patience_scan(val_losses, patience):
    """(best_epoch, the epoch patience ran out at or None), 1-based."""
    best, best_epoch = math.inf, 0
    for epoch, value in enumerate(val_losses, start=1):
        if value < best:
            best, best_epoch = value, epoch
        elif epoch - best_epoch >= patience:
            return best_epoch, epoch
    return best_epoch, None


def early_stopping_scan(val_losses, patience):
    """(best_epoch, stopped_epoch), 1-based: stopped once the loss has failed to
    improve on its running best for `patience` epochs in a row, else at the last."""
    best_epoch, stopped = _patience_scan(val_losses, patience)
    return best_epoch, stopped or len(val_losses)


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)   # one entry per epoch, 1-based
    val_loss: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0


def fit_early_stopping(params, rows, batch_size, shuffle_seed, step, val_loss,
                       max_epochs, patience) -> TrainHistory:
    """Shuffled-minibatch epochs until the validation loss runs out of
    patience (see early_stopping_scan); then restore the best epoch's
    parameter values.

    Epoch e runs step(e, batch_index, batch), which returns the batch's
    loss, over `batch_size` slices of default_rng(shuffle_seed(e))
    .permutation(rows), then val_loss(). Divergence in either, raised as
    TrainingDivergedError (a non-finite validation pass as batch
    "validation"), carries every completed epoch.
    """
    history = TrainHistory()
    best_data = None
    for epoch in range(1, max_epochs + 1):
        order = np.random.default_rng(shuffle_seed(epoch)).permutation(rows)
        batches = [order[start:start + batch_size] for start in range(0, len(order), batch_size)]
        total = 0.0  # summed in batch order: the epoch loss is part of the DAE's artifacts
        for loss, batch in zip(run_epoch(epoch, batches, step, history), batches):
            total += loss * len(batch)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                val = val_loss()
        except NonFiniteError as err:
            raise TrainingDivergedError(epoch, "validation", err, history) from err
        history.train_loss.append(total / len(order))
        history.val_loss.append(val)
        history.stopped_epoch = epoch
        history.best_epoch, stopped = _patience_scan(history.val_loss, patience)
        if history.best_epoch == epoch:
            best_data = [p.data.copy() for p in params]
        if stopped:
            break
    if best_data is not None:
        for p, data in zip(params, best_data):
            p.data = data
    return history
