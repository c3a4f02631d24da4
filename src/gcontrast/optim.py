"""Adam and SGD-with-cosine-decay parameter updates, and early stopping."""

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import NonFiniteError, ShapeError


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
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
    b1t = 1.0 - state.beta1 ** state.t
    b2t = 1.0 - state.beta2 ** state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / b1t
        v_hat = state.v[i] / b2t
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
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


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)   # one entry per epoch, 1-based
    val_loss: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0


def fit_early_stopping(params, train_epoch, val_loss, max_epochs, patience) -> TrainHistory:
    """Alternate train_epoch(epoch), whose result is recorded as the epoch's
    training loss, and val_loss() until the validation loss fails to improve
    on its best for `patience` epochs in a row; then restore the best
    epoch's parameter values.

    Divergence in either, raised as TrainingDivergedError (a non-finite
    validation pass as batch "validation"), carries every completed epoch.
    """
    history = TrainHistory()
    best_val, best_data, since = math.inf, None, 0
    for epoch in range(1, max_epochs + 1):
        try:
            train = train_epoch(epoch)
            val = val_loss()
        except TrainingDivergedError as err:
            err.history = history
            raise
        except NonFiniteError as err:
            raise TrainingDivergedError(epoch, "validation", err, history) from err
        history.train_loss.append(train)
        history.val_loss.append(val)
        history.stopped_epoch = epoch
        if val < best_val:
            best_val, best_data, since = val, [p.data.copy() for p in params], 0
            history.best_epoch = epoch
        else:
            since += 1
            if since >= patience:
                break
    if best_data is not None:
        for p, data in zip(params, best_data):
            p.data = data
    return history
