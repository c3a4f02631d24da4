"""k-means fitting, assignment, and the pseudo-label table."""

import warnings

import numpy as np
import pytest

from gcontrast.cluster import PseudoLabelAssignment, assign, kmeans_fit, pseudo_label_table

from helpers import nearest_center_labels


def three_blobs(seed=0, per_blob=50, sigma=0.3):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.concatenate([c + rng.normal(0, sigma, size=(per_blob, 2)) for c in centers])
    truth = np.repeat(np.arange(3), per_blob)
    return points, truth


def partitions_agree(a, b):
    """True when two labelings induce the same partition (up to relabeling)."""
    a, b = np.asarray(a), np.asarray(b)
    mapping = {}
    for la, lb in zip(a, b):
        if la in mapping and mapping[la] != lb:
            return False
        mapping[la] = lb
    return len(set(mapping.values())) == len(mapping)


def test_k1_centroid_is_column_mean():
    rng = np.random.default_rng(1)
    Y = rng.normal(size=(20, 4))
    model = kmeans_fit(Y, k=1, seed=0)
    np.testing.assert_allclose(model.centroids[0], Y.mean(axis=0), rtol=1e-12)
    labels = assign(model, Y).labels
    assert (labels == 0).all()


def test_repeated_distinct_points_reach_zero_inertia():
    base = np.array([[0.0, 0.0], [5.0, 5.0], [-3.0, 4.0], [8.0, -2.0]])
    Y = np.repeat(base, 6, axis=0)
    model = kmeans_fit(Y, k=4, seed=3)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)
    labels = assign(model, Y).labels
    groups = labels.reshape(4, 6)
    assert all(len(set(g)) == 1 for g in groups)
    assert len(set(groups[:, 0])) == 4


@pytest.mark.parametrize("seed", range(5))
def test_three_blob_fixture_recovered(seed):
    points, truth = three_blobs(seed=42)
    model = kmeans_fit(points, k=3, seed=seed)
    got = assign(model, points)
    assert partitions_agree(got.labels, truth)
    # library assignment agrees with the exhaustive nearest-center oracle
    oracle = nearest_center_labels(points, model.centroids)
    np.testing.assert_array_equal(got.labels, oracle)


def test_assign_matches_fit_labels_on_blobs():
    points, _ = three_blobs(seed=7)
    model = kmeans_fit(points, k=3, seed=1)
    again = assign(model, points)
    oracle = nearest_center_labels(points, model.centroids)
    np.testing.assert_array_equal(again.labels, oracle)


def test_rejects_fewer_points_than_clusters():
    with pytest.raises(ValueError, match="at least k=5"):
        kmeans_fit(np.zeros((3, 2)), k=5, seed=0)


def test_assign_dimension_mismatch():
    model = kmeans_fit(np.random.default_rng(0).normal(size=(10, 3)), k=2, seed=0)
    with pytest.raises(ValueError, match="dims"):
        assign(model, np.zeros((4, 5)))


def test_point_on_centroid_gets_its_label():
    model = kmeans_fit(np.random.default_rng(2).normal(size=(30, 2)), k=8, seed=0)
    got = assign(model, model.centroids[5:6])
    assert got.labels[0] == 5


def test_equidistant_tie_breaks_to_lower_index():
    model = kmeans_fit(np.array([[0.0, 0.0]] * 4 + [[2.0, 0.0]] * 4), k=2, seed=0)
    # order centroids so we know which index is which
    order = np.argsort(model.centroids[:, 0])
    lo, hi = order[0], order[1]
    midpoint = (model.centroids[lo] + model.centroids[hi]) / 2.0
    got = assign(model, midpoint[None, :])
    assert got.labels[0] == min(lo, hi)


def test_inertia_monotone_nonincreasing():
    points, _ = three_blobs(seed=5, per_blob=40, sigma=2.5)
    model = kmeans_fit(points, k=6, seed=2)
    hist = model.inertia_history
    for before, after in zip(hist, hist[1:]):
        assert after <= before * (1 + 1e-6)


def test_every_cluster_nonempty_after_fit():
    # far more clusters than natural groups forces re-seeding to kick in
    rng = np.random.default_rng(9)
    Y = rng.normal(size=(40, 2))
    model = kmeans_fit(Y, k=20, seed=4)
    counts = assign(model, Y).counts
    assert (counts > 0).all()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("points", [np.zeros((10, 3)), np.array([[5.0, 5.0]] + [[0.0, 0.0]] * 9)],
                         ids=["all-equal", "one-outlier"])
def test_reseeding_never_empties_the_cluster_it_takes_from(points, seed):
    # coinciding k-means++ centroids leave clusters empty; re-seeding one
    # from a singleton cluster would average an empty slice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = kmeans_fit(points, k=3, seed=seed, max_iter=300)
    assert np.isfinite(model.centroids).all()
    assert model.iterations_run < 300


def test_fit_deterministic_per_seed():
    points, _ = three_blobs(seed=11)
    a = kmeans_fit(points, k=3, seed=5)
    b = kmeans_fit(points, k=3, seed=5)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_assign_equivariant_under_row_permutation():
    points, _ = three_blobs(seed=13)
    model = kmeans_fit(points, k=3, seed=0)
    perm = np.random.default_rng(3).permutation(len(points))
    direct = assign(model, points).labels
    permuted = assign(model, points[perm]).labels
    np.testing.assert_array_equal(permuted, direct[perm])


def test_pseudo_label_table_ordering():
    assignment = PseudoLabelAssignment(labels=np.array([2, 0, 1]), counts=np.array([1, 1, 1]))
    assert pseudo_label_table(assignment) == [(0, 2), (1, 0), (2, 1)]


def test_pseudo_label_table_empty():
    assignment = PseudoLabelAssignment(labels=np.array([], dtype=np.int64),
                                       counts=np.array([], dtype=np.int64))
    assert pseudo_label_table(assignment) == []
