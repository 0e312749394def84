"""Binary PGM/PPM handling, area-average resizing, and corpus ingestion.

Supports the raw (binary) netpbm formats only: P5 grayscale and P6 color,
8- or 16-bit samples, with ``#`` header comments.  Intensities load as
floats in [0, 1].
"""

import functools
from pathlib import Path

import numpy as np

from .fileio import FileFormatError, atomic_write_bytes

__all__ = [
    "read_pnm",
    "write_pgm",
    "write_ppm",
    "area_resize",
    "ingest_images",
    "to_uint8",
    "montage",
]


def read_pnm(path):
    """Load a binary PGM (P5) or PPM (P6) image as floats in [0, 1]."""
    data = Path(path).read_bytes()
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            c = data[pos]
            if c == ord("#"):
                while pos < len(data) and data[pos] != ord("\n"):
                    pos += 1
            elif chr(c).isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not chr(data[pos]).isspace():
            pos += 1
        if start == pos:
            raise FileFormatError(f"{path}: truncated header")
        return data[start:pos]

    magic = token()
    if magic not in (b"P5", b"P6"):
        raise FileFormatError(f"{path}: unsupported format {magic!r} (need P5/P6)")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed header") from exc
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise FileFormatError(f"{path}: bad dimensions or maxval")
    pos += 1  # single whitespace byte separates header from raster
    channels = 3 if magic == b"P6" else 1
    count = width * height * channels
    dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
    if len(data) - pos < count * dtype.itemsize:
        raise FileFormatError(f"{path}: truncated raster data")
    raw = np.frombuffer(data, dtype, count=count, offset=pos)
    img = raw.astype(np.float64) / maxval
    if channels == 3:
        return img.reshape(height, width, 3)
    return img.reshape(height, width)


def _write_pnm(path, img, magic):
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("expected uint8 pixel data")
    h, w = img.shape[:2]
    header = f"{magic}\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + img.tobytes(order="C"))


def write_pgm(path, img):
    """Write a (h, w) uint8 array as binary PGM."""
    if np.asarray(img).ndim != 2:
        raise ValueError("PGM wants a 2-D grayscale array")
    _write_pnm(path, img, "P5")


def write_ppm(path, img):
    """Write a (h, w, 3) uint8 array as binary PPM."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("PPM wants a (h, w, 3) array")
    _write_pnm(path, img, "P6")


@functools.lru_cache(maxsize=32)
def _overlap_weights(n_in, n_out):
    # Row o averages the input cells overlapping [o, o+1) * n_in / n_out,
    # weighted by overlap length; rows sum to 1.  Cached per size pair and
    # shared by every caller, so the array is read-only.
    scale = n_in / n_out
    edges = np.arange(n_out + 1) * scale
    lo, hi = edges[:-1, None], edges[1:, None]
    i = np.arange(n_in)
    w = np.minimum(hi, i + 1) - np.maximum(lo, i)
    w[(i < np.floor(lo)) | (i >= np.ceil(hi))] = 0.0
    w /= scale
    w.flags.writeable = False
    return w


def area_resize(img, out_h, out_w):
    """Exact area-average resampling of a (h, w) or (h, w, 3) image."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise ValueError("expected a 2-D or 3-D image array")
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be positive")
    rows = _overlap_weights(img.shape[0], out_h)
    cols = _overlap_weights(img.shape[1], out_w)
    tmp = np.tensordot(rows, img, axes=(1, 0))
    out = np.tensordot(tmp, cols, axes=(1, 1))
    if img.ndim == 3:
        out = np.moveaxis(out, -1, 1)
    return out


def ingest_images(dir_path, height, width):
    """Load a class-per-subdirectory image corpus into one sample stack.

    Subdirectories of ``dir_path`` in lexicographic order define the
    classes (labels 0, 1, ...).  Every ``.pgm``/``.ppm`` file inside is
    rescaled to [0, 1], area-averaged down to ``height x width``, and
    stacked with samples along the last dimension: grayscale corpora give
    a (height, width, n) tensor, color ones (height, width, 3, n).  Mixing
    grayscale and color images is an error.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise ValueError(f"{dir_path}: not a directory")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise ValueError(f"{dir_path}: no class subdirectories")
    files, labels = [], []
    for ci, cdir in enumerate(class_dirs):
        found = sorted(
            f for f in cdir.iterdir() if f.suffix.lower() in (".pgm", ".ppm")
        )
        if not found:
            raise ValueError(f"{cdir}: no .pgm/.ppm images")
        files += found
        labels += [ci] * len(found)
    stack = None
    for j, f in enumerate(files):
        img = read_pnm(f)
        if stack is not None and img.ndim != stack.ndim - 1:
            raise ValueError(f"{f}: mixes color and grayscale images")
        small = area_resize(img, height, width)
        if stack is None:
            stack = np.empty(small.shape + (len(files),))
        stack[..., j] = small
    return stack, np.asarray(labels, dtype=np.int64)


def to_uint8(img):
    """Min-max scale an image to [0, 255]; negative entries render white."""
    img = np.asarray(img, dtype=np.float64)
    neg = img < 0
    vals = np.where(neg, 0.0, img)
    lo, hi = vals.min(), vals.max()
    scaled = (vals - lo) / (hi - lo) if hi > lo else np.zeros_like(vals)
    out = np.rint(scaled * 255.0).astype(np.uint8)
    out[neg] = 255
    return out


def montage(tiles, rows, cols):
    """Tile same-shaped uint8 images row-major onto a (rows*h, cols*w) canvas.

    Unused cells stay black.  The canvas is grayscale or color according
    to the tiles.
    """
    if not tiles:
        raise ValueError("no tiles to assemble")
    if rows * cols < len(tiles):
        raise ValueError(f"layout {rows}x{cols} smaller than {len(tiles)} tiles")
    shape = tiles[0].shape
    for t in tiles:
        if t.shape != shape:
            raise ValueError("all tiles must share one shape")
    h, w = shape[:2]
    canvas = np.zeros((rows * h, cols * w) + shape[2:], dtype=np.uint8)
    for i, t in enumerate(tiles):
        r, c = divmod(i, cols)
        canvas[r * h : (r + 1) * h, c * w : (c + 1) * w] = t
    return canvas
