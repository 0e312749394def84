"""Seeded input generators for the benchmark workloads.

The generators are written here rather than taken from ``tring.synthetic``
so that two commits of the library are always measured on byte-identical
inputs.  They also write the on-disk formats (``.ten`` tensors, label
files, binary PGM images) with their own encoders, so reading them back
through ``tring`` is checked against an independent writer.
"""

from pathlib import Path

import numpy as np

TEN_MAGIC = b"TEN1"


def ring_contract(cores):
    """Dense tensor of a ring: ``X[i1..id] = trace(G1[:, i1, :] ... Gd[:, id, :])``.

    One einsum over the whole chain, independent of ``tring.reconstruct``.
    """
    d = len(cores)
    letters = "abcdefghijklmnopqrstuvwxyz"
    ranks, dims = letters[:d], letters[d : 2 * d].upper()
    terms = [ranks[n] + dims[n] + ranks[(n + 1) % d] for n in range(d)]
    return np.einsum(",".join(terms) + "->" + dims, *cores, optimize=True)


def write_ten(path, x):
    """Encode a float64 tensor in the ``TEN1`` container."""
    x = np.ascontiguousarray(x, dtype="<f8")
    header = TEN_MAGIC + np.uint32(x.ndim).astype("<u4").tobytes()
    header += np.asarray(x.shape, dtype="<u8").tobytes()
    Path(path).write_bytes(header + x.tobytes())


def write_label_file(path, labels):
    Path(path).write_text("".join(f"{int(v)}\n" for v in labels))


def write_pgm(path, img):
    h, w = img.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def _gauss(grid, center, sigma):
    return np.exp(-0.5 * ((grid - center) / sigma) ** 2)


def turntable_images(seed, n_classes=20, poses=72, size=128, noise=8.0):
    """COIL-20-like corpus: ``n_classes`` objects seen at ``poses`` angles.

    Each object is a class-specific radial profile (two bright rings, which
    rotation leaves unchanged) plus three off-centre blobs; pose ``j``
    rotates the blobs by ``360 * j / poses`` degrees about the image centre,
    as a turntable would, and every image gets Gaussian pixel noise.
    Returns a uint8 array of shape ``(n_classes * poses, size, size)`` and
    the class of each image, grouped by class.
    """
    rng = np.random.default_rng(seed)
    grid = np.arange(size) - (size - 1) / 2.0
    rho = np.hypot(grid[:, None], grid[None, :])
    images = np.empty((n_classes * poses, size, size), dtype=np.uint8)
    for c in range(n_classes):
        ring_r = rng.uniform(0.0, 45.0, 2)
        ring_w = rng.uniform(3.0, 9.0, 2)
        ring_a = rng.uniform(0.4, 1.0, 2)
        profile = sum(a * _gauss(rho, r, w) for a, r, w in zip(ring_a, ring_r, ring_w))
        radius = rng.uniform(10.0, 40.0, 3)
        phase = rng.uniform(0.0, 2.0 * np.pi, 3)
        sigma = rng.uniform(4.0, 8.0, 3)
        amp = rng.uniform(0.2, 0.6, 3)
        for j in range(poses):
            theta = phase + 2.0 * np.pi * j / poses
            img = profile.copy()
            for b in range(3):
                cy, cx = radius[b] * np.sin(theta[b]), radius[b] * np.cos(theta[b])
                img += amp[b] * np.outer(_gauss(grid, cy, sigma[b]), _gauss(grid, cx, sigma[b]))
            img = 230.0 * img / img.max() + rng.normal(0.0, noise, (size, size))
            images[c * poses + j] = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return images, np.repeat(np.arange(n_classes), poses)


def write_image_corpus(root, images, classes):
    """One subdirectory per class, named so lexicographic order is class order."""
    root = Path(root)
    counts = {}
    for img, c in zip(images, classes):
        cdir = root / f"obj{int(c):02d}"
        if c not in counts:
            cdir.mkdir(parents=True)
            counts[c] = 0
        write_pgm(cdir / f"pose{counts[c]:03d}.pgm", img)
        counts[c] += 1


def colour_blobs(seed, slice_dims=(16, 16, 3), n_classes=20, per_class=150, noise=1.0):
    """Samples-last stack of noisy copies of per-class uniform prototypes.

    Sample = prototype + ``noise`` * U[0, 1) per entry, grouped by class.
    Returns ``(tensor, labels)``.
    """
    rng = np.random.default_rng(seed)
    prototypes = rng.random((n_classes,) + tuple(slice_dims))
    labels = np.repeat(np.arange(n_classes), per_class)
    samples = prototypes[labels] + noise * rng.random((labels.size,) + tuple(slice_dims))
    return np.moveaxis(samples, 0, -1).copy(), labels
