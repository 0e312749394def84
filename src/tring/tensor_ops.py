"""Dense tensor algebra primitives shared by every other module.

Tensors are plain ``numpy.ndarray`` objects holding 64-bit floats in
row-major (C) memory order.  Mode indices are 0-based.  The cyclic
unfolding below enumerates the trailing multi-index with the *first* listed
dimension varying fastest; it must agree with the subchain enumeration in
:mod:`tring.ring` for the matricized ring identity to hold exactly, so this
order is frozen and covered by golden tests.

Spectral norms are taken of symmetric PSD matrices only, by ``gram_norm``
(and ``graph.laplacian_norm`` for a Laplacian): the Lipschitz constants
need no other.
"""

import numpy as np

__all__ = [
    "as_tensor",
    "unfold_tr",
    "fold_tr",
    "gram_norm",
]

# Relative margin added to a computed top eigenvalue: LAPACK and Lanczos can
# end an ulp or two below the true value (1.9999999999999998 for 2.0), and a
# step size from an underestimated Lipschitz constant can overshoot.
NORM_MARGIN = 1e-10


def as_tensor(x):
    """Coerce to a float64 ndarray without copying when already one."""
    return np.asarray(x, dtype=np.float64)


def unfold_tr(x, mode):
    """Cyclic mode-``mode`` matricization.

    Equals the classical mode-0 unfolding after circularly permuting
    dimensions so that ``mode`` comes first: columns enumerate the
    remaining dimensions in cyclic order starting at ``mode + 1``, with
    that one varying fastest.
    """
    x = as_tensor(x)
    d = x.ndim
    if not 0 <= mode < d:
        raise ValueError(f"mode {mode} out of range for order-{d} tensor")
    axes = tuple(range(mode, d)) + tuple(range(mode))
    y = np.transpose(x, axes)
    return y.reshape(x.shape[mode], -1, order="F")


def fold_tr(m, mode, shape):
    """Exact inverse of :func:`unfold_tr` for the given shape."""
    m = as_tensor(m)
    shape = tuple(int(s) for s in shape)
    d = len(shape)
    if not 0 <= mode < d:
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    perm_shape = shape[mode:] + shape[:mode]
    if m.shape != (shape[mode], int(np.prod(perm_shape[1:], dtype=np.int64))):
        raise ValueError(f"matrix shape {m.shape} does not match target {shape}")
    y = m.reshape(perm_shape, order="F")
    inv_axes = tuple((i - mode) % d for i in range(d))
    return np.transpose(y, inv_axes)


def gram_norm(gram):
    """Spectral norm of a symmetric positive semidefinite matrix (a Gram).

    That norm is the top eigenvalue, taken by ``eigvalsh`` and raised by a
    relative margin of ``NORM_MARGIN`` so that it never falls below the
    true value.  The matrix must be finite.
    """
    return with_margin(float(np.linalg.eigvalsh(gram)[-1]))


def with_margin(top):
    """A computed top eigenvalue, clipped at 0 and raised by ``NORM_MARGIN``."""
    return max(top, 0.0) * (1.0 + NORM_MARGIN)
