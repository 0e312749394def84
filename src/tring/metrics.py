"""Evaluation suite: sparseness, clustering accuracy, NMI, k-means, k-NN.

Clustering accuracy maps predicted cluster ids onto true class ids with an
exact optimal assignment on the confusion matrix; mutual information is
measured in bits so the NMI ratio is base-free.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graph import _nearest, _row_blocks

__all__ = [
    "sparseness",
    "accuracy",
    "mutual_information",
    "entropy",
    "nmi",
    "kmeans",
    "knn_classify",
]


def _labels(a):
    a = np.asarray(a)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("labels must be a nonempty 1-D sequence")
    return a.astype(np.int64)


def sparseness(h):
    """Normalized L1/L2 sparseness in [0, 1].

    1 for a one-hot array, 0 for a constant one:
    (sqrt(n) - ||v||_1 / ||v||_2) / (sqrt(n) - 1) over the flattened entries.
    """
    v = np.asarray(h, dtype=np.float64).ravel()
    n = v.size
    if n < 2:
        raise ValueError("sparseness needs at least 2 entries")
    l2 = np.linalg.norm(v)
    if l2 == 0.0:
        raise ValueError("sparseness undefined for an all-zero array")
    l1 = np.abs(v).sum()
    root = np.sqrt(n)
    return float((root - l1 / l2) / (root - 1.0))


def _confusion(pred, truth):
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
    pred = _labels(pred)
    truth = _labels(truth)
    if pred.size != truth.size:
        raise ValueError(f"length mismatch: {pred.size} vs {truth.size}")
    c = _confusion(pred, truth)
    rows, cols = linear_sum_assignment(c, maximize=True)
    return float(c[rows, cols].sum()) / pred.size


def _joint_probs(a, b):
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    joint = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.float64)
    np.add.at(joint, (ai, bi), 1.0)
    return joint / n


def entropy(labels):
    """Shannon entropy of a labeling, in bits."""
    labels = _labels(labels)
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return float(-(p * np.log2(p)).sum())


def mutual_information(a, b):
    """Mutual information between two labelings, in bits (0*log 0 = 0)."""
    a = _labels(a)
    b = _labels(b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    joint = _joint_probs(a, b)
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


def _squared_distances(x, centers):
    d2 = (
        np.einsum("ij,ij->i", x, x)[:, None]
        + np.einsum("ij,ij->i", centers, centers)[None, :]
        - 2.0 * (x @ centers.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _lloyd(x, k, rng, max_iter=300):
    """One k-means run.  Returns (labels, wcss, per-iteration objectives)."""
    n, f = x.shape
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    # Bin c * f + j of a weighted bincount sums x[:, j] over cluster c in row order.
    bins = np.arange(f)
    labels = None
    history = []
    for _ in range(max_iter):
        d2 = _squared_distances(x, centers)
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
    d2 = _squared_distances(x, centers)
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
        Independent restarts; the labeling with the lowest within-cluster
        sum of squares wins, first-come on ties.
    seed : int
        Root seed; each restart derives its own generator from
        ``(seed, restart index)`` so the result depends only on
        ``(seed, restarts)`` and never on scheduling.

    Returns
    -------
    ndarray of int
        Cluster id per sample.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    n = x.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} samples")
    best_labels, best_wcss = None, np.inf
    for r in range(int(restarts)):
        rng = np.random.default_rng((seed, r))
        labels, wcss, _ = _lloyd(x, k, rng)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels


def knn_classify(train, train_labels, test, k):
    """Majority-vote k-nearest-neighbor classification (Euclidean metric).

    The neighbors are the k nearest training rows, ties at the k-th
    distance going to the lower row index (the graph's rule).  Vote ties
    break toward the class with the smaller summed neighbor distance,
    added in neighbor order, then toward the lower class id.  Test rows
    are scored in blocks, so memory does not grow with test x train.
    """
    train = np.atleast_2d(np.asarray(train, dtype=np.float64))
    test = np.atleast_2d(np.asarray(test, dtype=np.float64))
    train_labels = _labels(train_labels)
    if train.shape[0] != train_labels.size:
        raise ValueError("one label per training row required")
    if train.shape[1] != test.shape[1]:
        raise ValueError("train and test feature widths differ")
    k = int(k)
    if not 1 <= k <= train.shape[0]:
        raise ValueError(f"k={k} out of range for {train.shape[0]} training rows")
    classes, train_class = np.unique(train_labels, return_inverse=True)
    n_cls = classes.size
    out = np.empty(test.shape[0], dtype=np.int64)
    for lo, hi in _row_blocks(test.shape[0], train.shape[0]):
        dist = np.sqrt(_squared_distances(test[lo:hi], train))
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
