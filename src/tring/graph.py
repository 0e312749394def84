"""Mutual p-nearest-neighbor sample graphs and their combinatorial Laplacians.

Samples are the slices of the data tensor along its last dimension, where
``fit`` expects them too.  Edges are binary and mutual: i and j are joined
iff each lies among the other's p nearest neighbors under Frobenius
distance.  The graph is built once on the raw data and held fixed during
optimization.

There is one graph type, :class:`NeighborGraph`, and it is the Laplacian
the solver applies: an immutable CSR copy of D - W with its spectral norm
(``tensor_ops.spectral_norm``) taken once, plus the adjacency (as CSR: a
mutual p-NN graph has at most p*n edges) and the degrees.
``neighbor_graph``, the one way to build a graph from data, computes
each pair's distance once, from the upper block triangle of the distance
matrix in blocks of about 2**20 entries, and keeps only each sample's p
nearest so far: O(n*p) memory plus one block, never an n x n array.  Only
reading a graph's dense ``w`` or ``laplacian`` view builds one.  Its
distance kernel and its (distance, index) selection rule are the ones
k-means and k-NN in :mod:`tring.metrics` use.
"""

from functools import cached_property

import numpy as np
from scipy import sparse

from .tensor_ops import as_count, as_tensor, spectral_norm, unfold_tr

__all__ = [
    "NeighborGraph",
    "neighbor_graph",
]

# Distances computed per row block; bounds the graph build's working memory.
_BLOCK = 1 << 20


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _frozen_csr(matrix):
    """A float64 CSR copy of a dense or sparse ``matrix`` whose arrays are read-only.

    Its entries are read by the ``as_tensor`` rule, a sparse matrix's too.
    """
    csr = sparse.csr_array(matrix if sparse.issparse(matrix) else as_tensor(matrix), copy=True)
    csr.data = as_tensor(csr.data)
    for arr in (csr.data, csr.indices, csr.indptr):
        _read_only(arr)
    return csr


def _sq_norms(rows):
    """Squared Euclidean norm of each row of a matrix."""
    return np.einsum("ij,ij->i", rows, rows)


def _bounded_sq_norms(rows, what):
    """``_sq_norms(rows)`` if the n rows pass the distance kernel's one input rule.

    The rule, ``|row|^2 <= finfo.max / (4 n)``, fails NaN and Inf too.  A
    squared distance between rows, or a row and a mean of rows, is then at
    most ``2|a|^2 + 2|b|^2 <= 4 max|row|^2``, so a sum of up to n of them is
    finite: k-means' cost, wcss and centre sums, k-NN's distance sums.  A
    per-row bound would not do: rows at +-a with |a|^2 near max / 4 have
    finite distances, but their k = 1 cost overflows.
    """
    sq = _sq_norms(rows)
    limit = np.finfo(np.float64).max / (4 * max(len(sq), 1))
    if not np.all(sq <= limit):
        raise ValueError(f"{what} must be finite with squared row norms at most {limit:.3g} "
                         "(float64 max / 4n): larger are too large for float64 distances")
    return sq


def _squared_distances(a, b, sq_a, sq_b):
    """Squared Euclidean distances between the rows of ``a`` and of ``b``.

    Computed as ``|a|^2 + |b|^2 - 2 a.b`` from the rows' squared norms
    ``sq_a`` and ``sq_b``, which callers compute once and reuse, and
    clipped at 0 where rounding takes the difference below it.
    """
    d2 = np.add.outer(sq_a, sq_b)
    gram = a @ b.T
    gram *= 2.0
    d2 -= gram
    np.maximum(d2, 0.0, out=d2)
    return d2


def _row_blocks(rows, cols):
    """``(lo, hi)`` bounds of row blocks of about ``_BLOCK`` entries each."""
    step = max(1, _BLOCK // cols)
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _entries(mask):
    """Row and column indices of the true entries of a 2-D ``mask``.

    ``np.nonzero``'s order, from one flat scan, which is many times faster
    than ``np.nonzero`` on a 2-D mask with few true entries.
    """
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _first(rows, cols, dist, p):
    """The first p candidates of each row by (distance, column).

    ``rows``, ``cols`` and ``dist`` list candidate entries, at least p for
    every row named.  Returns the kept columns and distances as two arrays
    with p per row, one row per distinct row index in ascending order.
    This is the one selection rule of the graph and of k-NN: equal to the
    first p of a stable argsort of each row, so ties go to the lower column.
    """
    order = np.lexsort((cols, dist, rows))
    rows = rows[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    order = order[rank < p]
    return cols[order].reshape(-1, p), dist[order].reshape(-1, p)


def _nearest(dist, p):
    """Column indices of the p smallest entries of each row of ``dist``.

    Ordered by (distance, column) as in :func:`_first`.  Every entry tied
    with a row's p-th smallest value stays a candidate, however many there
    are.
    """
    kth = np.partition(dist, p - 1, axis=1)[:, p - 1 : p]
    rows, cols = _entries(dist <= kth)
    return _first(rows, cols, dist[rows, cols], p)[0]


def neighbor_graph(x, p):
    """Mutual p-nearest-neighbor graph over the sample slices of ``x``.

    Samples lie along the last dimension.  ``w[i, j] = 1`` iff j is among
    the p nearest neighbors of i AND i is among the p nearest neighbors of
    j, under Frobenius distance.  Self is excluded from neighbor sets;
    distance ties break toward the lower sample index so the graph is
    reproducible.

    Each pair's distance is computed once, and serves both samples.  The
    rows come in ``_row_blocks``.  A first pass takes each block against
    itself, the diagonal blocks of the distance matrix: the p-th smallest
    distance of a row there bounds its p-th nearest over all samples.  A
    second pass takes each block against the later samples only, the upper
    block triangle, and keeps an entry for its row if it is within the
    row's bound and for its column if it is within the column's; ties with
    a bound are kept.  Each row holds only its p nearest so far by
    (distance, column), and its bound falls to the p-th of them.  Memory is
    O(n*p) for the kept neighbors plus one block of about ``_BLOCK``
    distances; no n x n array is formed.
    """
    x = as_tensor(x)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("a sample graph needs at least 2 samples")
    flat = unfold_tr(x, x.ndim - 1)
    n = flat.shape[0]
    p = as_count(p, "neighbor count p", 1, n - 1)
    sq = _bounded_sq_norms(flat, "sample data")
    # Each row's p nearest so far by (distance, column); column n marks an
    # empty slot, whose inf leaves the row unbounded.  The two passes meet
    # every row with all n - 1 >= p others at finite distance: none stays empty.
    near = np.full((n, p), n, dtype=np.int64)
    near_dist = np.full((n, p), np.inf)

    def keep(rows, cols, dist):
        touched = np.unique(rows)
        near[touched], near_dist[touched] = _first(
            np.concatenate([np.repeat(touched, p), rows]),
            np.concatenate([near[touched].ravel(), cols]),
            np.concatenate([near_dist[touched].ravel(), dist]), p)

    def distances(lo, hi, start, stop):
        dist = _squared_distances(flat[lo:hi], flat[start:stop], sq[lo:hi], sq[start:stop])
        return np.sqrt(dist, out=dist)

    blocks = _row_blocks(n, n)
    for lo, hi in blocks:
        dist = distances(lo, hi, lo, hi)
        np.fill_diagonal(dist, np.inf)  # no sample is its own neighbor
        bound = np.partition(dist, p - 1, axis=1)[:, p - 1 : p] if hi - lo >= p else np.inf
        rows, cols = _entries(dist <= bound)
        keep(lo + rows, lo + cols, dist[rows, cols])
    for lo, hi in blocks[:-1]:
        dist = distances(lo, hi, hi, n)
        bound = near_dist[:, p - 1]
        rows, cols = _entries(dist <= bound[lo:hi, None])
        t_rows, t_cols = _entries(dist <= bound[hi:])
        keep(np.concatenate([lo + rows, hi + t_cols]), np.concatenate([hi + cols, lo + t_rows]),
             np.concatenate([dist[rows, cols], dist[t_rows, t_cols]]))
    # Sorted rows make the CSR canonical, so the product's rows come out sorted.
    near.sort(axis=1)
    directed = sparse.csr_array((np.ones(n * p), near.ravel(), np.arange(0, n * p + 1, p)),
                                shape=(n, n))
    w = directed.multiply(directed.T)
    degree = np.diff(w.indptr).astype(np.float64)
    return NeighborGraph(w, degree, sparse.diags_array(degree, format="csr") - w)


class NeighborGraph:
    """A sample graph: its Laplacian D - W, which the solver applies, plus W.

    ``matrix`` is the graph's own float64 CSR copy of the Laplacian, with
    read-only arrays, and ``graph @ g`` is a dense ndarray.  ``norm`` is
    ``spectral_norm`` of the matrix, taken on first use and kept, so every
    fit on one graph shares it.  ``adjacency`` (W as read-only CSR) and
    ``degree`` make O(n*p) memory in all; the dense read-only n x n views
    ``w`` and ``laplacian`` are built on each access and not kept.  No
    attribute can be reassigned.

    ``neighbor_graph`` builds one from data.  Built by hand,
    ``NeighborGraph(w=..., degree=..., laplacian=...)`` from dense or
    sparse arrays, a graph applies the square ``laplacian`` given, not
    checked against ``w``: that is how a custom Laplacian reaches the
    solver.  A Laplacian of any other shape, or with a NaN or Inf entry,
    raises ``ValueError``, as does any of the three inputs, dense or
    sparse, whose dtype is not real numbers (the ``as_tensor`` rule).  The
    graph keeps read-only float64 copies of what it is given.
    """

    def __init__(self, w, degree, laplacian):
        shape = np.shape(laplacian)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"Laplacian must be square, got shape {shape}")
        matrix = _frozen_csr(laplacian)
        if not np.all(np.isfinite(matrix.data)):
            raise ValueError("Laplacian must be finite (no NaN or Inf)")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "adjacency", _frozen_csr(w))
        object.__setattr__(self, "degree", _read_only(np.array(as_tensor(degree))))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a NeighborGraph is immutable")

    def __matmul__(self, g):
        return self.matrix @ g

    @cached_property
    def norm(self):
        return spectral_norm(self.matrix)

    @property
    def n_samples(self):
        """Rows of the Laplacian the graph applies: one per sample."""
        return self.matrix.shape[0]

    @property
    def w(self):
        return _read_only(self.adjacency.toarray())

    @property
    def laplacian(self):
        return _read_only(self.matrix.toarray())
