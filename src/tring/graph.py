"""Mutual p-nearest-neighbor sample graphs and their combinatorial Laplacians.

Samples are the slices of the data tensor along its last dimension, where
``fit`` expects them too.  Edges are binary and mutual: i and j are joined
iff each lies among the other's p nearest neighbors under Frobenius
distance.  The graph is built once on the raw data and held fixed during
optimization.

A mutual p-NN graph has at most p*n edges, so a :class:`NeighborGraph`
holds its adjacency as CSR.  ``neighbor_graph``, the one way to build a
graph from data, computes distances in row blocks of about 2**20 entries
and never holds an n x n array; only reading a graph's dense ``w`` or
``laplacian`` view builds one.
Its distance kernel and p-nearest selection are the ones k-means and k-NN
in :mod:`tring.metrics` use.  The solver applies the fixed Laplacian
through a :class:`LaplacianOperator`: a CSR matrix with its spectral norm
taken once.
"""

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .tensor_ops import as_tensor, gram_norm, unfold_tr, with_margin

__all__ = [
    "NeighborGraph",
    "LaplacianOperator",
    "neighbor_graph",
    "laplacian_norm",
    "laplacian_operator",
]

# Distances computed per row block; bounds the graph build's working memory.
_BLOCK = 1 << 20


def _read_only(arr):
    arr.flags.writeable = False
    return arr


class NeighborGraph:
    """Binary symmetric adjacency W, its degree vector, and the Laplacian D - W.

    The graph holds ``adjacency`` (W as a read-only CSR array) and
    ``degree``: O(n*p) memory.  ``w`` and ``laplacian`` are dense read-only
    n x n arrays built on every access and not kept, so only a caller that
    reads them pays for them; the solver does not.  ``operator`` is the
    Laplacian as a :class:`LaplacianOperator`, built from adjacency and
    degree on first use and kept, so every fit on one graph shares its CSR
    matrix and its norm.  Its entries are stored in the order that
    ``csr_array`` gives the dense ``laplacian``.

    A graph can also be built by hand from dense arrays,
    ``NeighborGraph(w=..., degree=..., laplacian=...)``.  Its operator is
    then built from the ``laplacian`` given, which is not checked against
    ``w``.  The arrays passed in are made read-only, like the graph's own,
    and no attribute of a graph can be reassigned.
    """

    def __init__(self, w, degree, laplacian):
        w, degree, laplacian = (_read_only(np.asarray(a)) for a in (w, degree, laplacian))
        self._hold(sparse.csr_array(w, dtype=np.float64), degree)
        # Fills the cached ``operator`` ahead of first use.
        object.__setattr__(self, "operator", LaplacianOperator(laplacian))

    @classmethod
    def _from_adjacency(cls, adjacency):
        graph = cls.__new__(cls)
        graph._hold(adjacency, np.diff(adjacency.indptr).astype(np.float64))
        return graph

    def _hold(self, adjacency, degree):
        for arr in (adjacency.data, adjacency.indices, adjacency.indptr, degree):
            _read_only(arr)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a NeighborGraph is immutable")

    @property
    def n_samples(self):
        return self.degree.size

    @property
    def w(self):
        return _read_only(self.adjacency.toarray())

    @property
    def laplacian(self):
        return _read_only(self.operator.matrix.toarray())

    @cached_property
    def operator(self):
        return LaplacianOperator(sparse.diags_array(self.degree, format="csr") - self.adjacency)


def _sq_norms(rows):
    """Squared Euclidean norm of each row of a matrix."""
    return np.einsum("ij,ij->i", rows, rows)


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


def _nearest(dist, p):
    """Column indices of the p smallest entries of each row of ``dist``.

    Ordered by (distance, column), so equal to the first p columns of a
    stable argsort of each row: ties go to the lower index.  To keep that
    rule exact, every entry tied with a row's p-th smallest value stays a
    candidate, however many there are.
    """
    kth = np.partition(dist, p - 1, axis=1)[:, p - 1 : p]
    rows, cols = np.nonzero(dist <= kth)
    if rows.size < p * dist.shape[0]:
        raise ValueError("NaN distance: data non-finite or too large for float64")
    order = np.lexsort((cols, dist[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    return cols[rank < p].reshape(-1, p)


def neighbor_graph(x, p):
    """Mutual p-nearest-neighbor graph over the sample slices of ``x``.

    Samples lie along the last dimension.  ``w[i, j] = 1`` iff j is among
    the p nearest neighbors of i AND i is among the p nearest neighbors of
    j, under Frobenius distance.  Self is excluded from neighbor sets;
    distance ties break toward the lower sample index so the graph is
    reproducible.  Distances are taken in row blocks, never as an n x n
    array.
    """
    x = as_tensor(x)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("a sample graph needs at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample data must be finite (no NaN or Inf)")
    flat = unfold_tr(x, x.ndim - 1)
    sq = _sq_norms(flat)
    n = flat.shape[0]
    p = int(p)
    if not 1 <= p < n:
        raise ValueError(f"neighbor count p={p} out of range for {n} samples")
    nbrs = np.empty((n, p), dtype=np.int64)
    for lo, hi in _row_blocks(n, n):
        dist = _squared_distances(flat[lo:hi], flat, sq[lo:hi], sq)
        np.sqrt(dist, out=dist)
        dist[np.arange(hi - lo), np.arange(lo, hi)] = np.inf  # no sample is its own neighbor
        nbrs[lo:hi] = _nearest(dist, p)
    src = np.repeat(np.arange(n, dtype=np.int64), p)
    edges = np.intersect1d(src * n + nbrs.ravel(), nbrs.ravel() * n + src, assume_unique=True)
    rows, cols = np.divmod(edges, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return NeighborGraph._from_adjacency(
        sparse.csr_array((np.ones(edges.size), cols, indptr), shape=(n, n))
    )


def laplacian_norm(h):
    """Spectral norm of a symmetric positive semidefinite matrix ``h``.

    That norm is the top eigenvalue, found by Lanczos (ARPACK) from a
    seeded start vector and raised by the relative margin
    ``tensor_ops.NORM_MARGIN`` so that it never falls below the true
    value.  A matrix with no nonzero entry (a graph without edges) gives
    0; a 1x1 matrix, too small for ARPACK, is solved densely.
    """
    h = sparse.csr_array(h)
    n = h.shape[0]
    if h.count_nonzero() == 0:
        return 0.0
    if n < 2:
        return gram_norm(h.toarray())
    v0 = np.random.default_rng(0).standard_normal(n)
    return with_margin(float(eigsh(h, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]))


class LaplacianOperator:
    """A fixed graph Laplacian, given dense or sparse, held as a CSR matrix.

    ``op @ g`` returns a dense ndarray, so the operator stands in for the
    dense Laplacian in products.  ``norm`` is ``laplacian_norm`` of the
    matrix, computed on first use and kept.
    """

    def __init__(self, laplacian):
        if not sparse.issparse(laplacian):
            laplacian = as_tensor(laplacian)
        if laplacian.ndim != 2 or laplacian.shape[0] != laplacian.shape[1]:
            raise ValueError(f"Laplacian must be square, got shape {laplacian.shape}")
        self.matrix = sparse.csr_array(laplacian)

    @property
    def shape(self):
        return self.matrix.shape

    def __matmul__(self, g):
        return self.matrix @ g

    @cached_property
    def norm(self):
        return laplacian_norm(self.matrix)


def laplacian_operator(h):
    """``h`` as a :class:`LaplacianOperator`; an operator is returned as is."""
    return h if isinstance(h, LaplacianOperator) else LaplacianOperator(h)
