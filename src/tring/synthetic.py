"""Synthetic tensors for desk-scale experiments.

Two generators: exactly ring-decomposable nonnegative tensors (ground
truth by construction, for recovery experiments) and multi-class "blob"
stacks whose sample slices cluster by construction (for clustering and
classification experiments).
"""

import numpy as np

from .ring import init_random, reconstruct
from .tensor_ops import _is_finite, as_count

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
    n_classes * per_class)``, deterministic per ``seed``, an integer >= 0.
    """
    slice_dims = tuple(as_count(s, "slice dimension", 1) for s in slice_dims)
    n_classes = as_count(n_classes, "n_classes", 1)
    per_class = as_count(per_class, "per_class", 1)
    if not (_is_finite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(as_count(seed, "seed", 0))
    prototypes = rng.random((n_classes,) + slice_dims)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    x = prototypes[labels] + noise * rng.random((labels.size,) + slice_dims)
    return np.ascontiguousarray(np.moveaxis(x, 0, -1)), labels
