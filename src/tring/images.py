"""Binary PGM/PPM handling, area-average resizing, and corpus ingestion.

Supports the raw (binary) netpbm formats only: P5 grayscale and P6 color,
8- or 16-bit samples, with ``#`` header comments.  Intensities load as
floats in [0, 1].
"""

import functools
import re
from pathlib import Path

import numpy as np

from .fileio import FileFormatError, atomic_write_bytes
from .tensor_ops import as_count, as_tensor

__all__ = [
    "read_pnm",
    "write_pnm",
    "area_resize",
    "ingest_images",
    "to_uint8",
    "montage",
]


# A header token with the separators and comments before it.  The separators
# are the bytes str.isspace accepts; a comment runs from "#" to the end of its
# line, and a "#" inside a token is part of the token.
_SPACE = rb"\t-\r\x1c-\x1f \x85\xa0"
_TOKEN = re.compile(rb"(?:[%s]|#[^\n]*)*([^%s]*)" % (_SPACE, _SPACE))


def read_pnm(path):
    """Load a binary PGM (P5) or PPM (P6) image as floats in [0, 1].

    A sample above the header's maxval raises ``FileFormatError``.
    """
    data = Path(path).read_bytes()
    pos = 0

    def token():
        nonlocal pos
        match = _TOKEN.match(data, pos)
        pos = match.end()
        if not match[1]:
            raise FileFormatError(f"{path}: truncated header")
        return match[1]

    def number():
        field = token()  # ASCII digits: int() alone also reads b"1_0" as 10, and b"+1"
        if not field.isdigit():
            raise FileFormatError(f"{path}: malformed header")
        return int(field)

    magic = token()
    if magic not in (b"P5", b"P6"):
        raise FileFormatError(f"{path}: unsupported format {magic!r} (need P5/P6)")
    width, height, maxval = number(), number(), number()
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise FileFormatError(f"{path}: bad dimensions or maxval")
    pos += 1  # single whitespace byte separates header from raster
    channels = 3 if magic == b"P6" else 1
    count = width * height * channels
    dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
    if len(data) - pos < count * dtype.itemsize:
        raise FileFormatError(f"{path}: truncated raster data")
    raw = np.frombuffer(data, dtype, count=count, offset=pos)
    if maxval < np.iinfo(dtype).max and raw.max() > maxval:
        raise FileFormatError(f"{path}: sample {raw.max()} above maxval {maxval}")
    img = raw.astype(np.float64) / maxval
    if channels == 3:
        return img.reshape(height, width, 3)
    return img.reshape(height, width)


def write_pnm(path, img):
    """Write a uint8 image as binary PGM (P5) if (h, w), or PPM (P6) if (h, w, 3)."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("expected uint8 pixel data")
    if img.ndim == 2:
        magic = "P5"
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = "P6"
    else:
        raise ValueError(f"PNM wants a (h, w) or (h, w, 3) array, got shape {img.shape}")
    h, w = img.shape[:2]
    header = f"{magic}\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + img.tobytes(order="C"))


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
    img = as_tensor(img)
    if img.ndim not in (2, 3):
        raise ValueError("expected a 2-D or 3-D image array")
    out_h, out_w = as_count(out_h, "output height", 1), as_count(out_w, "output width", 1)
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
    grayscale and color images is an error.  The output size is checked
    before any file is read.
    """
    height, width = as_count(height, "output height", 1), as_count(width, "output width", 1)
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
    """Min-max scale an image to [0, 255]; negative entries render white.

    A NaN or Inf entry raises ``ValueError``: it has no place on the scale.
    """
    img = as_tensor(img)
    if not np.all(np.isfinite(img)):
        raise ValueError("image must be finite (no NaN or Inf)")
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
    rows, cols = as_count(rows, "rows", 1), as_count(cols, "cols", 1)
    as_count(rows * cols, f"cells in layout {rows}x{cols}", len(tiles))
    shape = tiles[0].shape
    for t in tiles:
        if t.shape != shape:
            raise ValueError("all tiles must share one shape")
        if t.dtype != np.uint8:
            raise ValueError(f"tiles must be uint8, got {t.dtype}")
    h, w = shape[:2]
    canvas = np.zeros((rows * h, cols * w) + shape[2:], dtype=np.uint8)
    for i, t in enumerate(tiles):
        r, c = divmod(i, cols)
        canvas[r * h : (r + 1) * h, c * w : (c + 1) * w] = t
    return canvas
