"""Reference implementations that the tests check the library against.

Each piece of math that more than one test module checks, or that the
benchmark's checks also write, is defined here once: the ring's trace
contraction, central finite differences, the dense subproblem objective,
clustering accuracy by permutation search, mutual information, entropy
and NMI from counts, all-pairs distances, the mutual p-NN graph and
brute-force k-NN.  They are written from the definitions, loop by loop,
and import only the standard library and numpy, never ``tring``, so no
library change can move a reference with it.

The file does not match ``test_*.py``, so pytest does not collect it;
pytest's default ``prepend`` import mode puts ``tests/`` on ``sys.path``,
so a test module reads ``from oracles import trace_oracle``.
"""

import itertools
import math

import numpy as np


def trace_oracle(cores):
    """Elementwise reconstruction: trace of the product of lateral slices."""
    cores = list(cores)
    dims = tuple(c.shape[1] for c in cores)
    out = np.empty(dims)
    for idx in itertools.product(*map(range, dims)):
        m = cores[0][:, idx[0], :]
        for n in range(1, len(cores)):
            m = m @ cores[n][:, idx[n], :]
        out[idx] = np.trace(m)
    return out


def fd_gradient(objective, g, h=1e-6):
    """Central finite differences of ``objective`` at ``g``, entry by entry."""
    grad = np.zeros_like(g)
    for idx in np.ndindex(g.shape):
        e = np.zeros_like(g)
        e[idx] = h
        grad[idx] = (objective(g + e) - objective(g - e)) / (2.0 * h)
    return grad


def subproblem_objective(g, s2, xn, h=None, beta=0.0):
    """½‖X₍ₙ₎ − G Sᵀ‖², plus ½β·tr(Gᵀ H G) when a Laplacian ``h`` is given.

    ``h`` is anything that supports ``h @ g``: a dense or sparse Laplacian,
    or a graph object that applies one.
    """
    val = 0.5 * np.linalg.norm(xn - g @ s2.T) ** 2
    if h is not None:
        val += 0.5 * beta * float(np.vdot(g, h @ g))
    return val


def accuracy_oracle(pred, truth):
    """Best match count over all permutations of a padded confusion matrix."""
    pl = np.unique(pred)
    tl = np.unique(truth)
    size = max(pl.size, tl.size)
    c = np.zeros((size, size), dtype=int)
    for p, t in zip(pred, truth):
        c[np.flatnonzero(pl == p)[0], np.flatnonzero(tl == t)[0]] += 1
    best = max(
        sum(c[i, perm[i]] for i in range(size))
        for perm in itertools.permutations(range(size))
    )
    return best / len(pred)


def mi_oracle(a, b):
    """Dict-based mutual information in bits."""
    n = len(a)
    pa, pb, pab = {}, {}, {}
    for x, y in zip(a, b):
        pa[x] = pa.get(x, 0) + 1
        pb[y] = pb.get(y, 0) + 1
        pab[(x, y)] = pab.get((x, y), 0) + 1
    total = 0.0
    for (x, y), cnt in pab.items():
        pj = cnt / n
        total += pj * math.log2(pj / ((pa[x] / n) * (pb[y] / n)))
    return total


def entropy_oracle(a):
    """Dict-based Shannon entropy in bits."""
    n = len(a)
    counts = {}
    for x in a:
        counts[x] = counts.get(x, 0) + 1
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def nmi_oracle(a, b):
    """Mutual information over the larger entropy, clipped to [0, 1]."""
    mi = mi_oracle(a, b)
    return 0.0 if mi <= 0 else min(1.0, mi / max(entropy_oracle(a), entropy_oracle(b)))


def distance_oracle(x):
    """Euclidean distances between every pair of sample slices ``x[..., i]``."""
    n = x.shape[-1]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = np.linalg.norm((x[..., i] - x[..., j]).ravel())
    return d


def mutual_knn_oracle(dist, p):
    """Mutual p-NN adjacency from a stable argsort of every row, self excluded."""
    n = dist.shape[0]
    member = np.zeros((n, n), dtype=bool)
    for i in range(n):
        row = dist[i].copy()
        row[i] = np.inf
        member[i, np.argsort(row, kind="stable")[:p]] = True
    return (member & member.T).astype(np.float64)


def knn_oracle(train, train_labels, test, k):
    """Per-row stable argsort; most votes, then smallest distance sum
    (added in neighbor order), then lowest class id."""
    out = []
    for row in test:
        dist = np.sqrt(((train - row) ** 2).sum(axis=1))
        votes = {}
        for j in np.argsort(dist, kind="stable")[:k]:
            cnt, total = votes.get(int(train_labels[j]), (0, 0.0))
            votes[int(train_labels[j])] = (cnt + 1, total + dist[j])
        out.append(min(votes, key=lambda c: (-votes[c][0], votes[c][1], c)))
    return np.array(out)
