"""Dense tensor algebra primitives shared by every other module.

Tensors are plain ``numpy.ndarray`` objects holding 64-bit floats in
row-major (C) memory order.  Mode indices are 0-based.  The cyclic
unfolding below enumerates the trailing multi-index with the *first* listed
dimension varying fastest; it must agree with the subchain enumeration in
:mod:`tring.ring` for the matricized ring identity to hold exactly, so this
order is frozen and covered by golden tests.  That unfolding is F-ordered,
and the same memory read in C order is the unfolding one mode earlier, so
:func:`_unfoldings` gives the solver every mode's unfolding in ceil(d/2)
transposed copies: one per even mode, and each odd mode a C-ordered view
of the next mode's copy.

Every spectral norm the solver takes, of a subchain Gram or of a graph
Laplacian, is :func:`spectral_norm` of a symmetric PSD matrix: the
Lipschitz constants need no other.
"""

import math
import operator

import numpy as np
from scipy import sparse

__all__ = [
    "as_tensor",
    "unfold_tr",
    "fold_tr",
    "spectral_norm",
]

# Relative margin added to a computed top eigenvalue: LAPACK and Lanczos can
# end an ulp or two below the true value (1.9999999999999998 for 2.0), and a
# step size from an underestimated Lipschitz constant can overshoot.
NORM_MARGIN = 1e-10


def _real(x):
    """``np.asarray(x)``, if its dtype holds real numbers: bool, integer or floating point.

    Any other dtype (complex, text, bytes, datetime, object) raises one
    ``ValueError`` that names it, rather than being truncated, parsed or
    read as NaN.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ValueError(f"data must be real numbers (bool, integer or floating point), "
                         f"got dtype {x.dtype}")
    return x


def as_tensor(x):
    """``x`` as a float64 ndarray: the one float64 cast of every array the library reads.

    Bool, integer and floating-point data is cast, and a float64 ndarray
    comes back as the same object, not a copy.  Any other dtype raises
    ``ValueError`` naming it: see :func:`_real`.
    """
    return _real(x).astype(np.float64, copy=False)


def as_count(value, name, lo=None, hi=None):
    """``value`` as a Python int in ``[lo, hi]``; a float such as 2.7 is rejected, not truncated.

    Ints and numpy integers pass (``operator.index``); anything else
    raises ``ValueError`` naming the count.  So does an int below ``lo``
    or above ``hi``, when given: ``"{name} must be an integer >= {lo},
    got {n}"`` for a lower bound alone, ``"{name}={n} out of range [{lo},
    {hi}]"`` for both.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if hi is not None and not lo <= n <= hi:
        raise ValueError(f"{name}={n} out of range [{lo}, {hi}]")
    if lo is not None and n < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {n}")
    return n


def _is_finite(value):
    """Whether ``value`` is a finite real number; ``False``, not ``TypeError``, for any other."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def as_labels(a):
    """Nonempty 1-D ``a`` as int64 labels; a float label must hold an int64 value exactly.

    ``a`` must hold real numbers by the :func:`as_tensor` rule, but is not
    cast to float64 first, so an int64 label above 2**53 keeps its value.
    """
    a = _real(a)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("labels must be a nonempty 1-D sequence")
    if a.dtype.kind == "f":
        bad = (a != np.trunc(a)) | ~(np.abs(a) < 2.0**63)
        if bad.any():
            raise ValueError(f"labels must be integer-valued, got {a[bad][0]}")
    return a.astype(np.int64)


def unfold_tr(x, mode):
    """Cyclic mode-``mode`` matricization.

    Equals the classical mode-0 unfolding after circularly permuting
    dimensions so that ``mode`` comes first: columns enumerate the
    remaining dimensions in cyclic order starting at ``mode + 1``, with
    that one varying fastest.
    """
    x = as_tensor(x)
    d = x.ndim
    mode = as_count(mode, "mode", 0, d - 1)
    axes = tuple(range(mode, d)) + tuple(range(mode))
    y = np.transpose(x, axes)
    return y.reshape(x.shape[mode], -1, order="F")


def _unfoldings(x):
    """Every mode's cyclic unfolding of ``x``, in ``ceil(d/2)`` copies of ``x``.

    ``unfold_tr(x, m)`` is F-ordered, with ``m`` varying fastest; read in C
    order, the same memory is ``unfold_tr(x, m - 1)``.  So each even mode
    (the last one too when ``d`` is odd) gets a copy, and each odd mode ``n``
    a C-ordered view of mode ``(n + 1) % d``'s.  Both unfoldings of a matrix
    are views of it already, and stay so.
    """
    d = x.ndim
    if d == 2:
        return [unfold_tr(x, 0), unfold_tr(x, 1)]
    out = [unfold_tr(x, n) if n % 2 == 0 else None for n in range(d)]
    for n in range(1, d, 2):
        out[n] = out[(n + 1) % d].reshape(-1, order="F").reshape(x.shape[n], -1)
    return out


def fold_tr(m, mode, shape):
    """Exact inverse of :func:`unfold_tr` for the given shape."""
    m = as_tensor(m)
    shape = tuple(as_count(s, "dimension") for s in shape)
    d = len(shape)
    mode = as_count(mode, "mode", 0, d - 1)
    perm_shape = shape[mode:] + shape[:mode]
    if m.shape != (shape[mode], int(np.prod(perm_shape[1:], dtype=np.int64))):
        raise ValueError(f"matrix shape {m.shape} does not match target {shape}")
    y = m.reshape(perm_shape, order="F")
    inv_axes = tuple((i - mode) % d for i in range(d))
    return np.transpose(y, inv_axes)


def spectral_norm(m):
    """Spectral norm of a symmetric positive semidefinite matrix, dense or sparse.

    That norm is the top eigenvalue, clipped at 0 and raised by a
    relative margin of ``NORM_MARGIN`` so that it never falls below the
    true value.  A sparse matrix with no nonzero entry (a graph without
    edges) gives 0.  A dense matrix, or a 1x1 sparse one (too small for
    ARPACK), goes through ``eigvalsh``; any other sparse one through
    Lanczos (ARPACK ``eigsh``) from a seeded start vector.  The matrix
    must be finite.
    """
    if sparse.issparse(m) and m.count_nonzero() == 0:
        return 0.0
    if sparse.issparse(m) and m.shape[0] > 1:
        # Imported on call: only a graph needs it, and it is slow to load.
        from scipy.sparse.linalg import eigsh

        v0 = np.random.default_rng(0).standard_normal(m.shape[0])
        top = eigsh(m, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
    else:
        top = np.linalg.eigvalsh(m.toarray() if sparse.issparse(m) else m)[-1]
    return max(float(top), 0.0) * (1.0 + NORM_MARGIN)
