"""Tensor ring core chains: construction, subchain merging, reconstruction.

A ring factorization of an order-``d`` tensor is a cyclic chain of ``d``
third-order cores; core ``n`` has shape ``(ranks[n], dims[n], ranks[n+1])``
with the trailing rank of the last core wrapping back to the leading rank
of the first, and every dimension and rank at least 1.  Element
``(i_1, ..., i_d)`` of the represented tensor is the trace of the product
of the cores' lateral slices at those indices.  :class:`TRCores` is the
one rule for that shape: every function here that takes a ring reads it
through ``TRCores(cores)``, so a list of arrays and a checked ring are
read alike, and a chain that is not a ring fails there with
``ValueError``.

The matricized identity used by the solver reads, for every mode ``n``::

    unfold_tr(X, n) == core_unfold2(core_n) @ build_subchain(cores, n).T

where ``build_subchain(cores, n)`` is the mode-2 unfolding of the
subchain that merges all cores except ``n``: the subchain enters the
algorithm through that matrix alone, so it is the only form built.  The
identity only holds because the subchain's row enumeration (cyclic, first
merged dimension fastest) and the shared ``(r_n slow, r_{n+1} fast)``
column pairing are fixed consistently with :mod:`tring.tensor_ops`.

:func:`build_subchain` returns fresh memory, or writes into a caller's
workspace: the solver's fit builds each mode's subchain into one buffer
of its own.  The values are the same bit for bit.
"""

import math

import numpy as np

from .tensor_ops import as_count, as_tensor, fold_tr

__all__ = [
    "TRCores",
    "init_random",
    "build_subchain",
    "core_unfold2",
    "core_fold2",
    "reconstruct",
    "relative_error",
    "feature_matrix",
    "basis_tensors",
]


class TRCores(tuple):
    """Ordered cyclic chain of third-order cores: a tuple that checks its ring.

    This is the one rule by which every function here reads a ring.  Core
    ``n`` must hold real numbers, by the :func:`tring.tensor_ops.as_tensor`
    rule, and have shape ``(r_n, i_n, r_{n+1})``, with ``r_d == r_0``
    closing the ring and every dimension and rank >= 1; it is copied to
    float64.  Anything else raises ``ValueError``.  A ``TRCores`` argument
    comes back unchanged, as ``tuple(t) is t`` does.  The ring records
    nothing beside its cores: ``nonneg`` reads, on each access, whether
    every entry is >= 0, and a NaN entry reads False.  ``==`` and ``hash``
    are by identity, not element-wise over arrays.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __new__(cls, cores):
        if type(cores) is cls:
            return cores
        cores = [np.array(as_tensor(c)) for c in cores]
        if not cores:
            raise ValueError("need at least one core")
        for n, c in enumerate(cores):
            if c.ndim != 3:
                raise ValueError(f"core {n} must be third order, got {c.ndim}")
        d = len(cores)
        for n in range(d):
            nxt = (n + 1) % d
            if cores[n].shape[2] != cores[nxt].shape[0]:
                raise ValueError(f"rank chain broken: core {n} trailing rank {cores[n].shape[2]} "
                                 f"!= core {nxt} leading rank {cores[nxt].shape[0]}")
        self = super().__new__(cls, cores)
        _chain_shape(self.dims, self.ranks)
        return self

    def _replace(self, n, core):
        """This ring with core ``n`` replaced by ``core``: no copy, no check.

        ``core`` must be a float64 array of core ``n``'s shape, so the chain
        stays a ring.  :func:`tring.solver.fit` updates its ring by this
        step, so each subchain build reads the ring as it is.
        """
        return tuple.__new__(type(self), self[:n] + (core,) + self[n + 1:])

    @property
    def nonneg(self):
        return all(np.all(c >= 0) for c in self)

    @property
    def dims(self):
        return tuple(c.shape[1] for c in self)

    @property
    def ranks(self):
        return tuple(c.shape[0] for c in self)

    def __repr__(self):
        return f"TRCores(dims={self.dims}, ranks={self.ranks}, nonneg={self.nonneg})"


def _chain_shape(dims, ranks):
    """``(dims, ranks)`` as tuples of ints, if they can shape a ring; else ``ValueError``.

    Every dimension and rank must be an integer >= 1, one rank per dimension.
    """
    dims = tuple(as_count(i, "dimension", 1) for i in dims)
    ranks = tuple(as_count(r, "rank", 1) for r in ranks)
    if len(dims) != len(ranks):
        raise ValueError(f"{len(ranks)} ranks for an order-{len(dims)} tensor")
    return dims, ranks


def init_random(dims, ranks, seed):
    """Random nonnegative cores: |N(0, 1)| entries, deterministic per seed, an integer >= 0.

    Gaussian draws pass through absolute value so the chain is a valid
    nonnegative starting point while keeping the unit scale.
    """
    dims, ranks = _chain_shape(dims, ranks)
    rng = np.random.default_rng(as_count(seed, "seed", 0))
    d = len(dims)
    cores = [
        np.abs(rng.standard_normal((ranks[n], dims[n], ranks[(n + 1) % d])))
        for n in range(d)
    ]
    return TRCores(cores)


def build_subchain(cores, mode, workspace=None):
    """Mode-2 unfolding of the subchain merging all cores except ``mode``.

    Contracts cores ``mode+1, ..., d-1, 0, ..., mode-1`` in cyclic order
    over their shared rank dimensions.  The result has shape
    ``(prod of remaining dims, r_mode * r_{mode+1})``: rows enumerate the
    merged dimensions in that cyclic order, the first one varying fastest,
    and columns pair ``(r_mode slow, r_{mode+1} fast)``.  It is the
    C-contiguous ``(rows, r_mode, r_{mode+1})`` chain the merges build,
    read as a matrix.

    ``workspace`` is a 1-D float64 array with at least as many entries as
    the subchain (the other dims times ``r_mode * r_{mode+1}``), or ``None``
    (the default) for fresh memory on every call.  Given one, the subchain
    is a view of its head, valid until the next build into it, and bitwise
    the fresh build.  Only the final merge (for two cores, the one
    transposed copy) goes there: it is the only full-size write, since
    every earlier merge lacks the last core's dimension.
    """
    cores = TRCores(cores)
    d = len(cores)
    if d < 2:
        raise ValueError("subchain requires at least two cores")
    mode = as_count(mode, "mode", 0, d - 1)
    order = [(mode + j) % d for j in range(1, d)]
    first = cores[order[0]].transpose(1, 2, 0)
    acc = _chain_buffer(first.shape, workspace if d == 2 else None)
    acc[...] = first
    for idx in order[1:]:
        acc = _merge(acc, cores[idx], workspace if idx == order[-1] else None)
    return acc.reshape(len(acc), -1)


def _chain_buffer(shape, workspace):
    """A C-contiguous float64 array of ``shape``: fresh, or the head of ``workspace``.

    ``workspace`` must be a 1-D float64 ndarray of at least that many
    entries; anything else raises ``ValueError``.
    """
    if workspace is None:
        return np.empty(shape)
    size = math.prod(shape)
    if not (isinstance(workspace, np.ndarray) and workspace.dtype == np.float64
            and workspace.ndim == 1 and workspace.size >= size):
        raise ValueError(f"workspace must be a 1-D float64 array of at least {size} entries")
    return workspace[:size].reshape(shape)


def _merge(acc, core, workspace=None):
    """Append ``core`` to a ``(middle, r, r_head)`` chain as its slowest index.

    Returns the ``(size * middle, r_next, r_head)`` chain, C-contiguous,
    in fresh memory or at the head of ``workspace``.  One batched GEMM
    writes it in that layout: block ``i`` is
    ``acc (middle, r * r_head) @ kron(core[:, i, :], I_head)``, i.e.
    ``out[i][m, b, a] = sum_k acc[m, k, a] * core[k, i, b]``.
    """
    middle, r, r_head = acc.shape
    size, r_next = core.shape[1], core.shape[2]
    # order="C": numpy's default keeps a C-contiguous core's layout, and the
    # reshape below would then copy the block matrix.
    kron = np.einsum("kib,ac->ikabc", core, np.eye(r_head), order="C")
    out = _chain_buffer((size, middle, r_next * r_head), workspace)
    np.matmul(acc.reshape(middle, r * r_head), kron.reshape(size, r * r_head, -1), out=out)
    return out.reshape(size * middle, r_next, r_head)


def core_unfold2(core):
    """Mode-2 unfolding of one core, columns paired (r_n slow, r_{n+1} fast)."""
    core = as_tensor(core)
    if core.ndim != 3:
        raise ValueError("core must be third order")
    return core.transpose(1, 0, 2).reshape(core.shape[1], -1)


def core_fold2(m, r_left, size, r_right):
    """Exact inverse of :func:`core_unfold2` for a (r_left, size, r_right) core."""
    m = as_tensor(m)
    r_left, r_right = as_count(r_left, "rank", 1), as_count(r_right, "rank", 1)
    size = as_count(size, "dimension", 1)
    if m.shape != (size, r_left * r_right):
        raise ValueError(
            f"matrix shape {m.shape} does not match core ({r_left}, {size}, {r_right})"
        )
    return m.reshape(size, r_left, r_right).transpose(1, 0, 2)


def reconstruct(cores):
    """Contract the full ring back into a dense tensor.

    Computed as one subchain merge followed by a single matrix product
    (O(d) chain contractions) rather than the elementwise trace formula,
    which costs a slice product per entry; the trace form survives only as
    a test oracle.
    """
    cores = TRCores(cores)
    if len(cores) == 1:
        return np.trace(cores[0], axis1=0, axis2=2)
    return fold_tr(core_unfold2(cores[0]) @ build_subchain(cores, 0).T, 0, cores.dims)


def relative_error(x, cores):
    """Frobenius-relative reconstruction error ||x - ring(cores)|| / ||x||.

    ``x`` must have the ring's shape, and a norm that is finite and not
    zero; a shape that would broadcast against the ring, a NaN or Inf
    entry, an overflowing norm or an all-zero ``x`` raises ``ValueError``.
    Both norms are BLAS ``nrm2``, which scales as it sums, so data near
    the ends of the float64 range neither overflows nor underflows unless
    the norm itself does.
    """
    # Imported on call: no CLI command uses it, and scipy.linalg is slow to load.
    import scipy.linalg

    x = as_tensor(x)
    cores = TRCores(cores)
    if x.shape != cores.dims:
        raise ValueError(f"tensor shape {x.shape} does not match the ring's shape {cores.dims}")
    norm_x = scipy.linalg.norm(x.ravel(), check_finite=False)
    if not 0.0 < norm_x < np.inf:
        raise ValueError(f"tensor must be finite (no NaN or Inf) with a norm in (0, inf): "
                         f"relative error undefined for norm {norm_x}")
    return float(scipy.linalg.norm((x - reconstruct(cores)).ravel(), check_finite=False) / norm_x)


def feature_matrix(cores):
    """Per-sample feature rows: mode-2 unfolding of the last core.

    With samples stored along the final tensor dimension, the last core's
    unfolding has one row per sample and ``r_d * r_1`` feature columns.
    """
    return core_unfold2(TRCores(cores)[-1])


def basis_tensors(cores):
    """Per-feature basis stack: the ring with the last core replaced by a
    unit indicator on each feature column in turn.

    Contracting that indicator against the remaining cores just reads the
    columns of the subchain unfolding, so basis f is column f folded back
    to the non-sample dimensions.
    """
    cores = TRCores(cores)
    sub2 = build_subchain(cores, len(cores) - 1)
    return [
        sub2[:, f].reshape(cores.dims[:-1], order="F") for f in range(sub2.shape[1])
    ]
