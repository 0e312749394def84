"""Evaluation suite: sparseness, clustering accuracy, NMI, k-means, k-NN.

Clustering accuracy maps predicted cluster ids onto true class ids with an
exact optimal assignment on the confusion matrix, which also gives mutual
information its joint distribution, in bits so the NMI ratio is base-free.
k-means and k-NN take distances from the kernel in :mod:`tring.graph`.
"""

import numpy as np

from .graph import _bounded_sq_norms, _nearest, _row_blocks, _sq_norms, _squared_distances
from .tensor_ops import as_count, as_labels, as_tensor

__all__ = [
    "sparseness",
    "accuracy",
    "mutual_information",
    "entropy",
    "nmi",
    "kmeans",
    "knn_classify",
]


def sparseness(h):
    """Normalized L1/L2 sparseness in [0, 1].

    1 for a one-hot array, 0 for a constant one:
    (sqrt(n) - ||v||_1 / ||v||_2) / (sqrt(n) - 1) over the flattened entries.
    The ratio does not depend on scale, so both norms are taken of |v| over
    its maximum: no square overflows or underflows at either end of float64.
    That maximum is NaN or Inf exactly when an entry is, so the one check
    on it rejects those entries and an all-zero array alike.
    """
    v = np.abs(as_tensor(h).ravel())
    n = v.size
    if n < 2:
        raise ValueError("sparseness needs at least 2 entries")
    top = v.max()
    if not 0.0 < top < np.inf:
        raise ValueError(f"sparseness needs finite entries (no NaN or Inf), not all zero: "
                         f"max |entry| is {top}")
    v /= top
    l1, l2 = v.sum(), np.linalg.norm(v)
    root = np.sqrt(n)
    return float((root - l1 / l2) / (root - 1.0))


def _confusion(pred, truth):
    """Contingency counts of two labelings, ``as_labels`` each, of one length."""
    pred, truth = as_labels(pred), as_labels(truth)
    if pred.size != truth.size:
        raise ValueError(f"length mismatch: {pred.size} vs {truth.size}")
    pi, pred_inv = np.unique(pred, return_inverse=True)
    ti, truth_inv = np.unique(truth, return_inverse=True)
    c = np.zeros((pi.size, ti.size), dtype=np.int64)
    np.add.at(c, (pred_inv, truth_inv), 1)
    return c


def accuracy(pred, truth):
    """Clustering accuracy under the best cluster-to-class mapping.

    The mapping is the exact optimal assignment on the confusion matrix,
    so any relabeling of either side leaves the score unchanged.
    """
    # Imported on call: only scoring uses it, and scipy.optimize is slow to load.
    from scipy.optimize import linear_sum_assignment

    c = _confusion(pred, truth)
    rows, cols = linear_sum_assignment(c, maximize=True)
    return float(c[rows, cols].sum() / c.sum())


def entropy(labels):
    """Shannon entropy of a labeling, in bits."""
    labels = as_labels(labels)
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return float(-(p * np.log2(p)).sum())


def mutual_information(a, b):
    """Mutual information between two labelings, in bits (0*log 0 = 0)."""
    c = _confusion(a, b)
    joint = c / c.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    ratios = joint[mask] / (pa[:, None] * pb[None, :])[mask]
    return float((joint[mask] * np.log2(ratios)).sum())


def nmi(a, b):
    """Normalized mutual information MI / max(H(a), H(b)), clamped to [0, 1].

    Returns 0 whenever MI is 0, which covers single-cluster partitions.
    """
    mi = mutual_information(a, b)
    if mi <= 0.0:
        return 0.0
    return float(min(1.0, mi / max(entropy(a), entropy(b))))


def _features(rows, what):
    """``rows`` as a float64 matrix with one row per sample; 1-D is one feature per sample.

    Any other number of dimensions raises ``ValueError`` naming ``what``.
    """
    x = as_tensor(rows)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"{what} must be a 2-D matrix")
    return x


# Lloyd iterations per k-means run; a run that has not settled by then
# keeps its last assignment.
_LLOYD_ITERATIONS = 300


def _lloyd(x, sq, k, rng):
    """One k-means run on rows ``x`` of squared norms ``sq``: labels, wcss, per-step costs."""
    n, f = x.shape
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    # Bin c * f + j of a weighted bincount sums x[:, j] over cluster c in row order.
    bins = np.arange(f)
    labels = None
    history = []
    for _ in range(_LLOYD_ITERATIONS):
        d2 = _squared_distances(x, centers, sq, _sq_norms(centers))
        new_labels = d2.argmin(axis=1)
        cost = d2[np.arange(n), new_labels]
        counts = np.bincount(new_labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        while empty.size:
            # Re-seed the first empty cluster from the point currently
            # farthest from its own center, then look for the next one
            # after it (the move may have emptied a later cluster).  The
            # last member of an earlier cluster is never taken: that
            # cluster would stay empty and its center would be 0/0.
            c = int(empty[0])
            lone = (counts[new_labels] == 1) & (new_labels < c)
            far = int(np.argmax(np.where(lone, -np.inf, cost)))
            counts[new_labels[far]] -= 1
            counts[c] += 1
            centers[c] = x[far]
            new_labels[far] = c
            cost[far] = 0.0
            empty = c + 1 + np.flatnonzero(counts[c + 1 :] == 0)
        history.append(float(cost.sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums = np.bincount((labels[:, None] * f + bins).ravel(), weights=x.ravel(), minlength=k * f)
        centers = sums.reshape(k, f) / counts[:, None]
    d2 = _squared_distances(x, centers, sq, _sq_norms(centers))
    wcss = float(d2[np.arange(n), labels].sum())
    return labels, wcss, history


def kmeans(features, k, restarts=200, seed=0):
    """Lloyd's k-means with uniform distinct-row initialization.

    Parameters
    ----------
    features : ndarray, (n_samples, n_features)
        Rows are the points to cluster; a 1-D input is treated as one
        feature per sample.
    k : int
        Cluster count, 1 <= k <= n_samples.
    restarts : int
        Independent restarts, at least 1; the labeling with the lowest
        within-cluster sum of squares wins, first-come on ties.
    seed : int
        Root seed, at least 0; each restart derives its own generator from
        ``(seed, restart index)`` so the result depends only on
        ``(seed, restarts)`` and never on scheduling.

    Returns
    -------
    ndarray of int
        Cluster id per sample.
    """
    x = _features(features, "features")
    n = x.shape[0]
    k = as_count(k, "k", 1, n)
    restarts = as_count(restarts, "restarts", 1)
    seed = as_count(seed, "seed", 0)
    sq = _bounded_sq_norms(x, "features")
    # min keeps the first of equal wcss; _bounded_sq_norms keeps every wcss finite.
    runs = (_lloyd(x, sq, k, np.random.default_rng((seed, r))) for r in range(restarts))
    return min(runs, key=lambda run: run[1])[0]


def knn_classify(train, train_labels, test, k):
    """Majority-vote k-nearest-neighbor classification (Euclidean metric).

    The neighbors are the k nearest training rows, ties at the k-th
    distance going to the lower row index (the graph's rule).  Vote ties
    break toward the class with the smaller summed neighbor distance,
    added in neighbor order, then toward the lower class id.  Test rows
    are scored in blocks, so memory does not grow with test x train.
    ``train`` and ``test`` are read as :func:`kmeans` reads its features:
    a 1-D input is one feature per sample.
    """
    train = _features(train, "train features")
    test = _features(test, "test features")
    train_labels = as_labels(train_labels)
    if train.shape[0] != train_labels.size:
        raise ValueError("one label per training row required")
    if train.shape[1] != test.shape[1]:
        raise ValueError("train and test feature widths differ")
    k = as_count(k, "k", 1, train.shape[0])
    classes, train_class = np.unique(train_labels, return_inverse=True)
    n_cls = classes.size
    sq_train = _bounded_sq_norms(train, "train features")
    sq_test = _bounded_sq_norms(test, "test features")
    out = np.empty(test.shape[0], dtype=np.int64)
    for lo, hi in _row_blocks(test.shape[0], train.shape[0]):
        dist = np.sqrt(_squared_distances(test[lo:hi], train, sq_test[lo:hi], sq_train))
        neigh = _nearest(dist, k)
        # Bin r * n_cls + c tallies row r's votes for class c and, summed
        # in neighbor order, their distances.
        bins = (np.arange(hi - lo)[:, None] * n_cls + train_class[neigh]).ravel()
        votes = np.bincount(bins, minlength=(hi - lo) * n_cls).reshape(-1, n_cls)
        sums = np.bincount(bins, weights=np.take_along_axis(dist, neigh, axis=1).ravel(),
                           minlength=(hi - lo) * n_cls).reshape(-1, n_cls)
        top = votes == votes.max(axis=1, keepdims=True)
        sums = np.where(top, sums, np.inf)
        # argmax takes the first, i.e. lowest, class among the remaining ties.
        out[lo:hi] = classes[np.argmax(top & (sums == sums.min(axis=1, keepdims=True)), axis=1)]
    return out
