"""Batch plans: pseudo-label-stratified (guided) and uniform random.

The guided builder keeps drawing one image from each of the most
populated clusters, so a full batch holds as many distinct pseudo labels
as the distribution allows. Stratification is soft: once fewer clusters
than the batch size remain nonempty, batches are topped up from whatever
is left and repeated labels become possible.
"""

from dataclasses import dataclass

import numpy as np

from .cluster import PseudoLabelAssignment
from .seeds import derive_seed


class PlanValidationError(ValueError):
    """A plan is not an exact partition of the dataset indices."""


@dataclass
class BatchPlan:
    batches: list                # list of int64 arrays
    epoch_seed: int

    @property
    def num_indices(self):
        return sum(len(b) for b in self.batches)


@dataclass
class PlanDiagnostics:
    distinct_per_batch: list     # distinct pseudo-label count per batch
    violations: int              # same-label pairs sharing a batch, summed


def build_guided_plan(assignment: PseudoLabelAssignment, p=64, epoch_seed=0) -> BatchPlan:
    """Stratified sampling without replacement over pseudo labels.

    Per batch: draw one index from each of the p clusters with the most
    remaining members (ties to the lower cluster id); if fewer than p
    nonempty clusters remain, keep drawing from the fullest clusters,
    allowing repeats within the batch only in this exhaustion regime.
    """
    if p < 1:
        raise ValueError(f"batch size must be >= 1, got {p}")
    labels = assignment.labels
    n = len(labels)
    k = len(assignment.counts)
    rng = np.random.default_rng(derive_seed(epoch_seed, "guided-plan"))
    members = []
    for cluster in range(k):
        idx = np.flatnonzero(labels == cluster)
        rng.shuffle(idx)
        members.append(list(idx))
    remaining = np.array([len(m) for m in members], dtype=np.int64)
    cluster_ids = np.arange(k)
    batches = []
    total = n
    while total > 0:
        batch = []
        nonempty = cluster_ids[remaining > 0]
        # fullest clusters first, ties by cluster id
        order = nonempty[np.lexsort((nonempty, -remaining[nonempty]))]
        for cluster in order[:p]:
            batch.append(members[cluster].pop())
            remaining[cluster] -= 1
            total -= 1
        while len(batch) < p and total > 0:
            cluster = int(remaining.argmax())
            batch.append(members[cluster].pop())
            remaining[cluster] -= 1
            total -= 1
        batches.append(np.array(batch, dtype=np.int64))
    return BatchPlan(batches=batches, epoch_seed=epoch_seed)


def build_random_plan(n, p, epoch_seed=0) -> BatchPlan:
    """Seeded shuffle of 0..n-1 chunked into batches of p."""
    if p < 1:
        raise ValueError(f"batch size must be >= 1, got {p}")
    rng = np.random.default_rng(derive_seed(epoch_seed, "random-plan"))
    perm = rng.permutation(n).astype(np.int64)
    batches = [perm[start:start + p] for start in range(0, n, p)]
    return BatchPlan(batches=batches, epoch_seed=epoch_seed)


def validate_plan(plan: BatchPlan, assignment: PseudoLabelAssignment) -> PlanDiagnostics:
    """Check the exact-partition property and count same-label collisions."""
    n = assignment.n
    if plan.batches:
        flat = np.concatenate(plan.batches)
    else:
        flat = np.array([], dtype=np.int64)
    if len(flat) != n or not np.array_equal(np.sort(flat), np.arange(n)):
        seen = np.bincount(flat, minlength=n) if len(flat) and flat.max() < n else None
        if seen is None:
            offenders = sorted(set(int(i) for i in flat if i >= n))
            raise PlanValidationError(f"plan contains out-of-range indices {offenders[:10]}")
        repeated = np.flatnonzero(seen > 1).tolist()
        missing = np.flatnonzero(seen == 0).tolist()
        raise PlanValidationError(
            f"plan is not a partition: repeated {repeated[:10]}, missing {missing[:10]}")
    distinct, violations = [], 0
    for batch in plan.batches:
        batch_labels = assignment.labels[batch]
        counts = np.bincount(batch_labels)
        distinct.append(int((counts > 0).sum()))
        violations += int((counts * (counts - 1) // 2).sum())
    return PlanDiagnostics(distinct_per_batch=distinct, violations=violations)
