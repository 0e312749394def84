"""Mutual p-nearest-neighbor sample graphs and their combinatorial Laplacians.

Samples are the slices of the data tensor along its sample dimension (the
last one by convention).  Edges are binary and mutual: i and j are joined
iff each lies among the other's p nearest neighbors under Frobenius
distance.  The graph is built once on the raw data and held fixed during
optimization.  The solver applies that fixed Laplacian through a
:class:`LaplacianOperator`: a CSR copy (a mutual p-NN graph has at most
p*n edges) with its spectral norm taken once.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .tensor_ops import as_tensor, gram_norm, unfold_classical, with_margin

__all__ = [
    "NeighborGraph",
    "LaplacianOperator",
    "pairwise_distances",
    "knn_graph",
    "neighbor_graph",
    "laplacian_quadratic",
    "laplacian_norm",
    "laplacian_operator",
]


@dataclass(frozen=True)
class NeighborGraph:
    """Symmetric binary adjacency, degree vector, and Laplacian D - W.

    ``operator`` is the Laplacian as a :class:`LaplacianOperator`, built on
    first use and kept, so every fit on one graph shares its CSR copy and
    its norm.  So that it cannot go stale, the three arrays are made
    read-only on construction; an array passed in must not be changed
    through another view of its memory either.
    """

    w: np.ndarray
    degree: np.ndarray
    laplacian: np.ndarray

    def __post_init__(self):
        for name in ("w", "degree", "laplacian"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_samples(self):
        return self.w.shape[0]

    @cached_property
    def operator(self):
        return LaplacianOperator(self.laplacian)


def pairwise_distances(x, sample_mode=-1):
    """Frobenius distances between the sample slices of ``x``.

    Returns the symmetric (n_samples, n_samples) distance matrix with an
    exactly zero diagonal.
    """
    x = as_tensor(x)
    mode = sample_mode % x.ndim
    n = x.shape[mode]
    if n < 2:
        raise ValueError("pairwise distances need at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample data must be finite (no NaN or Inf)")
    flat = unfold_classical(x, mode)
    sq = np.einsum("ij,ij->i", flat, flat)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (flat @ flat.T)
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def knn_graph(dist, p):
    """Mutual p-nearest-neighbor graph from a distance matrix.

    ``w[i, j] = 1`` iff j is among the p nearest neighbors of i AND i is
    among the p nearest neighbors of j.  Self is excluded from neighbor
    sets; distance ties break toward the lower sample index so the graph
    is reproducible.
    """
    dist = as_tensor(dist)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    n = dist.shape[0]
    if not np.array_equal(dist, dist.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diagonal(dist) != 0.0):
        raise ValueError("distance matrix must have a zero diagonal")
    p = int(p)
    if not 1 <= p < n:
        raise ValueError(f"neighbor count p={p} out of range for {n} samples")
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    order = np.argsort(masked, axis=1, kind="stable")
    member = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), p)
    member[rows, order[:, :p].ravel()] = True
    w = (member & member.T).astype(np.float64)
    degree = w.sum(axis=1)
    laplacian = np.diag(degree) - w
    return NeighborGraph(w=w, degree=degree, laplacian=laplacian)


def neighbor_graph(x, p, sample_mode=-1):
    """Convenience: mutual p-NN graph over the sample slices of ``x``."""
    return knn_graph(pairwise_distances(x, sample_mode), p)


def laplacian_quadratic(h, g):
    """Trace of ``g.T @ h @ g``.

    For a combinatorial Laplacian ``h`` this equals half the edge-weighted
    sum of squared row differences of ``g``, hence is >= 0.
    """
    h = as_tensor(h)
    g = as_tensor(g)
    if g.ndim == 1:
        g = g[:, None]
    if h.shape[0] != h.shape[1] or h.shape[1] != g.shape[0]:
        raise ValueError(f"shape mismatch: h {h.shape} vs g {g.shape}")
    return float(np.vdot(g, h @ g))


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
    """A fixed graph Laplacian held as a CSR matrix.

    ``op @ g`` returns a dense ndarray, so the operator stands in for the
    dense Laplacian in products.  ``norm`` is ``laplacian_norm`` of the
    matrix, computed on first use and kept.
    """

    def __init__(self, laplacian):
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
