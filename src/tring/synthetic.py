"""Synthetic tensors for desk-scale experiments.

Two generators: exactly ring-decomposable nonnegative tensors (ground
truth by construction, for recovery experiments) and multi-class "blob"
stacks whose sample slices cluster by construction (for clustering and
classification experiments).
"""

import math

import numpy as np

from .ring import init_random, reconstruct
from .tensor_ops import as_count

__all__ = ["ring_tensor", "blob_tensor"]


def ring_tensor(dims, ranks, seed):
    """Nonnegative tensor generated exactly by a random ring.

    Returns ``(tensor, cores)``; fitting with the true ranks can drive the
    reconstruction error to zero.
    """
    cores = init_random(dims, ranks, seed)
    return reconstruct(cores), cores


def blob_tensor(slice_dims, n_classes, per_class, noise=0.05, seed=0):
    """Stack of noisy copies of per-class prototype slices, samples last.

    Each class gets a uniform-random nonnegative prototype; every sample
    is that prototype plus uniform noise of amplitude ``noise``, so
    classes stay well separated when ``noise`` is small.  Samples are
    grouped contiguously by class (class 0 first), which keeps per-class
    prefix splits trivial.

    Returns ``(tensor, labels)`` with tensor shape ``(*slice_dims,
    n_classes * per_class)``.
    """
    slice_dims = tuple(as_count(s, "slice dimension") for s in slice_dims)
    if any(s < 1 for s in slice_dims):
        raise ValueError(f"slice dimensions must be >= 1, got {slice_dims}")
    if as_count(n_classes, "n_classes") < 1 or as_count(per_class, "per_class") < 1:
        raise ValueError("need at least one class and one sample per class")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    prototypes = rng.random((n_classes,) + slice_dims)
    n = n_classes * per_class
    x = np.empty(slice_dims + (n,))
    labels = np.empty(n, dtype=np.int64)
    for c in range(n_classes):
        for s in range(per_class):
            idx = c * per_class + s
            x[..., idx] = prototypes[c] + noise * rng.random(slice_dims)
            labels[idx] = c
    return x, labels
