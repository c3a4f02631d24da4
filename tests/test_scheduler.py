"""Guided and random batch plans: partition, stratification, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcontrast.cluster import PseudoLabelAssignment
from gcontrast.scheduler import (
    BatchPlan,
    PlanValidationError,
    build_guided_plan,
    build_random_plan,
    validate_plan,
)


def assignment_from_labels(labels, k=None):
    labels = np.asarray(labels, dtype=np.int64)
    k = k if k is not None else (labels.max() + 1 if len(labels) else 0)
    counts = np.bincount(labels, minlength=k)
    return PseudoLabelAssignment(labels=labels, counts=counts)


def test_balanced_clusters_give_all_distinct_batches():
    # 64 clusters x 2 members, p=64 -> exactly two batches of 64 distinct labels
    labels = np.repeat(np.arange(64), 2)
    assignment = assignment_from_labels(labels)
    plan = build_guided_plan(assignment, p=64, epoch_seed=0)
    assert len(plan.batches) == 2
    diag = validate_plan(plan, assignment)
    assert diag.distinct_per_batch == [64, 64]
    assert diag.violations == 0


def test_single_cluster_degenerates_to_chunking():
    labels = np.zeros(100, dtype=np.int64)
    assignment = assignment_from_labels(labels, k=1)
    plan = build_guided_plan(assignment, p=64, epoch_seed=1)
    assert [len(b) for b in plan.batches] == [64, 36]
    diag = validate_plan(plan, assignment)
    assert diag.violations == 64 * 63 // 2 + 36 * 35 // 2


def test_guided_short_final_batch():
    labels = np.repeat(np.arange(5), 3)  # n=15, p=4 -> 3 full + one short
    assignment = assignment_from_labels(labels)
    plan = build_guided_plan(assignment, p=4, epoch_seed=2)
    sizes = [len(b) for b in plan.batches]
    assert sum(sizes) == 15
    assert all(s == 4 for s in sizes[:-1])
    validate_plan(plan, assignment)


def test_guided_full_batches_distinct_when_clusters_plentiful():
    # 10 balanced clusters, p=4: drawing from the fullest clusters keeps at
    # least p clusters nonempty until the very end, so every batch is distinct
    labels = np.repeat(np.arange(10), 8)
    assignment = assignment_from_labels(labels)
    plan = build_guided_plan(assignment, p=4, epoch_seed=3)
    diag = validate_plan(plan, assignment)
    assert all(d == len(b) for d, b in zip(diag.distinct_per_batch, plan.batches))
    assert diag.violations == 0


def test_guided_empty_assignment_gives_empty_plan():
    assignment = assignment_from_labels([], k=0)
    plan = build_guided_plan(assignment, p=8, epoch_seed=0)
    assert plan.batches == []


def test_guided_deterministic_and_seed_sensitive():
    labels = np.repeat(np.arange(8), 5)
    assignment = assignment_from_labels(labels)
    a = build_guided_plan(assignment, p=8, epoch_seed=7)
    b = build_guided_plan(assignment, p=8, epoch_seed=7)
    c = build_guided_plan(assignment, p=8, epoch_seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a.batches, b.batches))
    assert any(not np.array_equal(x, y) for x, y in zip(a.batches, c.batches))


def test_random_plan_partition_and_determinism():
    a = build_random_plan(4, 2, epoch_seed=5)
    b = build_random_plan(4, 2, epoch_seed=5)
    assert [len(x) for x in a.batches] == [2, 2]
    assert all(np.array_equal(x, y) for x, y in zip(a.batches, b.batches))
    assert sorted(np.concatenate(a.batches).tolist()) == [0, 1, 2, 3]


def test_random_plan_uneven_tail():
    plan = build_random_plan(5, 2, epoch_seed=0)
    assert [len(b) for b in plan.batches] == [2, 2, 1]


def test_random_plan_positionwise_uniform():
    # every index lands in every position with frequency ~1/10
    n, trials = 10, 10000
    counts = np.zeros((n, n), dtype=np.int64)
    for seed in range(trials):
        perm = np.concatenate(build_random_plan(n, n, epoch_seed=seed).batches)
        counts[perm, np.arange(n)] += 1
    expected = trials / n
    # binomial std ~ sqrt(trials * 0.1 * 0.9) = 30; 5 sigma ~ 150
    assert np.abs(counts - expected).max() < 150


def test_validate_plan_counts_single_violation():
    assignment = assignment_from_labels([3, 3, 1, 2])
    plan = BatchPlan(batches=[np.array([0, 1]), np.array([2, 3])], epoch_seed=0)
    diag = validate_plan(plan, assignment)
    assert diag.violations == 1
    assert diag.distinct_per_batch == [1, 2]


def test_validate_plan_rejects_repeats_and_missing():
    assignment = assignment_from_labels([0, 1, 0, 1])
    plan = BatchPlan(batches=[np.array([0, 0]), np.array([1, 2])], epoch_seed=0)
    with pytest.raises(PlanValidationError, match=r"repeated \[0\], missing \[3\]"):
        validate_plan(plan, assignment)


def test_validate_plan_rejects_out_of_range():
    assignment = assignment_from_labels([0, 1])
    plan = BatchPlan(batches=[np.array([0, 7])], epoch_seed=0)
    with pytest.raises(PlanValidationError, match="out-of-range"):
        validate_plan(plan, assignment)


def test_guided_beats_random_on_clustered_labels():
    # with 12 balanced clusters, guided batching eliminates collisions that
    # random batching incurs constantly
    labels = np.repeat(np.arange(12), 10)
    assignment = assignment_from_labels(labels)
    guided = validate_plan(build_guided_plan(assignment, p=12, epoch_seed=3), assignment)
    random_ = validate_plan(build_random_plan(len(labels), 12, epoch_seed=3), assignment)
    assert guided.violations == 0
    assert random_.violations > 10 * guided.violations + 5


@given(
    labels=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=200),
    p=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
@settings(max_examples=120, deadline=None)
def test_guided_plan_is_always_exact_partition(labels, p, seed):
    assignment = assignment_from_labels(labels)
    plan = build_guided_plan(assignment, p=p, epoch_seed=seed)
    diag = validate_plan(plan, assignment)  # raises on any partition defect
    assert sum(len(b) for b in plan.batches) == len(labels)
    assert all(len(b) <= p for b in plan.batches)
    assert all(len(b) == p for b in plan.batches[:-1])
    # exhaustion-regime bound still holds: distinct labels never exceed batch size
    assert all(d <= len(b) for d, b in zip(diag.distinct_per_batch, plan.batches))


@given(
    n=st.integers(min_value=1, max_value=300),
    p=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
@settings(max_examples=120, deadline=None)
def test_random_plan_is_always_exact_partition(n, p, seed):
    plan = build_random_plan(n, p, epoch_seed=seed)
    flat = np.concatenate(plan.batches)
    assert np.array_equal(np.sort(flat), np.arange(n))
