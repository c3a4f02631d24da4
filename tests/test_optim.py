"""Adam and cosine-schedule SGD updates, the step loop, and early stopping."""

import numpy as np
import pytest

from gcontrast import dae
from gcontrast.optim import (
    AdamState,
    CosineSchedule,
    TrainingDivergedError,
    adam_step,
    early_stopping_scan,
    fit_early_stopping,
    run_epoch,
    sgd_cosine_step,
)
from gcontrast.tensor import NonFiniteError, ShapeError, Tensor


def test_adam_zero_gradient_leaves_param_unchanged():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    state = AdamState.init([p])
    adam_step([p], [np.zeros(2)], state)
    np.testing.assert_array_equal(p.data, [1.5, -2.0])
    assert state.t == 1


def test_adam_single_step_matches_scalar_recurrence():
    # frozen from a direct evaluation of the bias-corrected recurrence:
    # p=1.0, g=0.5, lr=1e-3, b1=0.9, b2=0.999, eps=1e-7, t=1
    p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    state = AdamState.init([p])
    adam_step([p], [np.array([0.5])], state)
    assert p.data[0] == pytest.approx(0.9990000001999999, abs=1e-15)


def test_adam_two_identical_states_stay_identical():
    def run():
        p = Tensor(np.array([0.3, -0.7], dtype=np.float64), requires_grad=True)
        state = AdamState.init([p])
        for step in range(5):
            g = np.array([0.1 * (step + 1), -0.2])
            adam_step([p], [g], state)
        return p.data
    np.testing.assert_array_equal(run(), run())


def test_adam_nan_gradient_aborts_with_diagnostics():
    p = Tensor(np.zeros(3), requires_grad=True)
    state = AdamState.init([p])
    bad = np.array([0.0, np.nan, 0.0])
    with pytest.raises(NonFiniteError, match=r"gradient 0 \(shape \(3,\)\) has 1"):
        adam_step([p], [bad], state)


def test_adam_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    state = AdamState.init([p])
    with pytest.raises(ShapeError):
        adam_step([p], [np.zeros(4)], state)


def test_adam_step_counter_increments():
    p = Tensor(np.zeros(2), requires_grad=True)
    state = AdamState.init([p])
    for expected in (1, 2, 3):
        adam_step([p], [np.ones(2)], state)
        assert state.t == expected


def test_cosine_schedule_endpoints():
    sched = CosineSchedule(base_lr=0.4, total_steps=100)
    assert sched.lr(0) == pytest.approx(0.4)
    assert sched.lr(50) == pytest.approx(0.2)
    assert sched.lr(100) == pytest.approx(0.0, abs=1e-17)


def test_cosine_schedule_rejects_out_of_range_step():
    sched = CosineSchedule(base_lr=0.1, total_steps=10)
    with pytest.raises(ValueError):
        sched.lr(11)
    with pytest.raises(ValueError):
        sched.lr(-1)


def test_sgd_cosine_final_step_is_noop():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    sched = CosineSchedule(base_lr=0.5, total_steps=8)
    sgd_cosine_step([p], [np.ones(2)], sched, t=8)
    np.testing.assert_allclose(p.data, [1.0, 2.0], atol=1e-16)


def test_sgd_cosine_step_applies_scheduled_rate():
    p = Tensor(np.array([1.0]), requires_grad=True)
    sched = CosineSchedule(base_lr=0.5, total_steps=8)
    sgd_cosine_step([p], [np.array([2.0])], sched, t=0)
    assert p.data[0] == pytest.approx(1.0 - 0.5 * 2.0)


def _epoch_tagging_run(val_losses, patience, max_epochs):
    # each epoch's one step sets the parameter to the epoch's number, so
    # the restored value names the epoch whose weights were kept
    p = Tensor(np.array([0.0]), requires_grad=True)

    def step(epoch, bi, batch):
        p.data = np.array([float(epoch)])
        return 10.0 * epoch

    return p, fit_early_stopping([p], 1, 1, lambda epoch: epoch, step,
                                 lambda: val_losses[int(p.data[0]) - 1], max_epochs, patience)


def test_fit_early_stopping_restores_best_epoch():
    losses = [3.0, 1.0, 2.0, 2.5, 0.5]
    p, history = _epoch_tagging_run(losses, patience=2, max_epochs=5)
    assert (history.best_epoch, history.stopped_epoch) == early_stopping_scan(losses, 2) == (2, 4)
    assert history.train_loss == [10.0, 20.0, 30.0, 40.0]
    assert history.val_loss == losses[:4]
    np.testing.assert_array_equal(p.data, [2.0])


def test_fit_early_stopping_runs_to_max_epochs():
    p, history = _epoch_tagging_run([3.0, 2.0, 1.0], patience=1, max_epochs=3)
    assert (history.best_epoch, history.stopped_epoch) == (3, 3)
    np.testing.assert_array_equal(p.data, [3.0])


def test_fit_early_stopping_reports_validation_divergence():
    p = Tensor(np.array([0.0]), requires_grad=True)

    def step(epoch, bi, batch):
        p.data = np.array([float(epoch)])
        return 0.0

    def val_loss():
        if p.data[0] == 2.0:
            raise NonFiniteError("matmul: produced non-finite values")
        return 1.0

    with pytest.raises(TrainingDivergedError, match="epoch 2, batch validation") as excinfo:
        fit_early_stopping([p], 1, 1, lambda epoch: epoch, step, val_loss,
                           max_epochs=5, patience=5)
    assert excinfo.value.history.val_loss == [1.0]


def test_fit_early_stopping_shuffles_rows_into_batches_and_weights_the_epoch_loss():
    p = Tensor(np.array([0.0]), requires_grad=True)
    seen = []

    def step(epoch, bi, batch):
        seen.append((epoch, bi, batch.tolist()))
        return float(len(batch))  # epoch loss: (2*2 + 2*2 + 1*1) / 5

    history = fit_early_stopping([p], np.arange(10, 15), 2, lambda epoch: 7 + epoch, step,
                                 lambda: 1.0, max_epochs=2, patience=5)
    for epoch in (1, 2):
        order = np.random.default_rng(7 + epoch).permutation(np.arange(10, 15)).tolist()
        assert [s for s in seen if s[0] == epoch] == [
            (epoch, 0, order[:2]), (epoch, 1, order[2:4]), (epoch, 2, order[4:])]
    assert history.train_loss == [9.0 / 5, 9.0 / 5]


def test_run_epoch_names_the_diverged_batch_and_carries_the_history():
    def step(epoch, bi, batch):
        if bi == 2:
            raise NonFiniteError("conv2d: produced non-finite values")
        return 10 * epoch + batch

    history = object()
    assert run_epoch(4, [5, 6], step, history) == [45, 46]
    with pytest.raises(TrainingDivergedError, match="epoch 4, batch 2: conv2d") as excinfo:
        run_epoch(4, [5, 6, 7], step, history)
    assert excinfo.value.history is history
    assert isinstance(excinfo.value.__cause__, NonFiniteError)


def test_the_dae_module_keeps_the_one_early_stopping_scan():
    assert dae.early_stopping_scan is early_stopping_scan
