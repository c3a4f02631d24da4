"""k-means over latent representations, producing pseudo labels.

Lloyd iterations with k-means++ seeding. The pseudo labels exist only to
guide batch construction downstream; no ground-truth comparison metrics
are computed here.
"""

from dataclasses import dataclass

import numpy as np

from .seeds import derive_seed


@dataclass
class ClusterModel:
    centroids: np.ndarray        # (k, d)
    k: int
    inertia: float               # final within-cluster sum of squares
    iterations_run: int
    inertia_history: list        # inertia after each assignment step


@dataclass
class PseudoLabelAssignment:
    labels: np.ndarray           # (n,) ints in [0, k)
    counts: np.ndarray           # (k,) cluster sizes

    @property
    def n(self):
        return len(self.labels)


def _sq_distances(Y, y_sq, centroids):
    # ||y||^2 - 2 y.c + ||c||^2 via gemm, with y_sq = (Y * Y).sum(axis=1)
    # computed once per matrix; clamp tiny negatives from rounding
    d = y_sq[:, None] - 2.0 * (Y @ centroids.T) + (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(d, 0.0)


def _plusplus_init(Y, y_sq, k, rng):
    n = len(Y)
    centroids = np.empty((k, Y.shape[1]), dtype=np.float64)
    centroids[0] = Y[rng.integers(n)]
    closest = _sq_distances(Y, y_sq, centroids[:1]).reshape(-1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all points coincide with chosen centroids; any pick works
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centroids[i] = Y[idx]
        closest = np.minimum(closest, _sq_distances(Y, y_sq, centroids[i:i + 1]).reshape(-1))
    return centroids


def kmeans_fit(Y, k=64, seed=0, max_iter=300, tol=1e-4) -> ClusterModel:
    """Lloyd's algorithm; deterministic per seed, every cluster nonempty."""
    Y = np.asarray(Y, dtype=np.float64)
    n = len(Y)
    if n < k:
        raise ValueError(f"need at least k={k} points, got {n}")
    rng = np.random.default_rng(derive_seed(seed, "kmeans"))
    y_sq = (Y * Y).sum(axis=1)
    centroids = _plusplus_init(Y, y_sq, k, rng)
    inertia_history = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        dists = _sq_distances(Y, y_sq, centroids)
        labels = dists.argmin(axis=1)
        point_d = dists[np.arange(n), labels]
        # re-seed empty clusters to the farthest point from its centroid
        for cluster in range(k):
            if not (labels == cluster).any():
                far = point_d.argmax()
                labels[far] = cluster
                point_d[far] = 0.0
        inertia_history.append(float(point_d.sum()))
        new_centroids = np.empty_like(centroids)
        for cluster in range(k):
            new_centroids[cluster] = Y[labels == cluster].mean(axis=0)
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol:
            break
    final = _sq_distances(Y, y_sq, centroids)
    final_labels = final.argmin(axis=1)
    inertia = float(final[np.arange(n), final_labels].sum())
    inertia_history.append(inertia)
    return ClusterModel(centroids=centroids, k=k, inertia=inertia,
                        iterations_run=iterations, inertia_history=inertia_history)


def assign(model: ClusterModel, Y) -> PseudoLabelAssignment:
    """Nearest-centroid labels; ties resolve to the lowest cluster index."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape[1] != model.centroids.shape[1]:
        raise ValueError(f"points have {Y.shape[1]} dims, centroids have "
                         f"{model.centroids.shape[1]}")
    labels = _sq_distances(Y, (Y * Y).sum(axis=1), model.centroids).argmin(axis=1)
    counts = np.bincount(labels, minlength=model.k)
    return PseudoLabelAssignment(labels=labels.astype(np.int64), counts=counts)


def pseudo_label_table(assignment: PseudoLabelAssignment):
    """(image_index, cluster_label) rows in image-index order."""
    return [(int(i), int(label)) for i, label in enumerate(assignment.labels)]
