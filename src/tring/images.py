"""Binary PGM/PPM handling, area-average resizing, and corpus ingestion.

Supports the raw (binary) netpbm formats only: P5 grayscale and P6 color,
8- or 16-bit samples, with ``#`` header comments.  Intensities load as
floats in [0, 1].
"""

import functools
import math
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


# The header: magic, width, height and maxval, each after any run of
# separators and comments.  The separators are the bytes str.isspace accepts;
# a comment runs from "#" to the end of its line, and a "#" inside a token is
# part of the token.  An empty group is a token missing at the end of the data.
_SPACE = rb"\t-\r\x1c-\x1f \x85\xa0"
_HEADER = re.compile((rb"(?:[%s]|#[^\n]*)*([^%s]*)" % (_SPACE, _SPACE)) * 4)


def read_pnm(path):
    """Load a binary PGM (P5) or PPM (P6) image as floats in [0, 1].

    A sample above the header's maxval raises ``FileFormatError``.
    """
    data = Path(path).read_bytes()
    header = _HEADER.match(data)
    for i, field in enumerate(header.groups()):
        if not field:
            raise FileFormatError(f"{path}: truncated header")
        if i == 0 and field not in (b"P5", b"P6"):
            raise FileFormatError(f"{path}: unsupported format {field!r} (need P5/P6)")
        # ASCII digits: int() alone also reads b"1_0" as 10, and b"+1".
        if i > 0 and not field.isdigit():
            raise FileFormatError(f"{path}: malformed header")
    width, height, maxval = map(int, header.groups()[1:])
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise FileFormatError(f"{path}: bad dimensions or maxval")
    pos = header.end() + 1  # single whitespace byte separates header from raster
    shape = (height, width, 3) if header[1] == b"P6" else (height, width)
    count = math.prod(shape)
    dtype = np.dtype("u1") if maxval < 256 else np.dtype(">u2")
    if len(data) - pos < count * dtype.itemsize:
        raise FileFormatError(f"{path}: truncated raster data")
    raw = np.frombuffer(data, dtype, count=count, offset=pos)
    if maxval < np.iinfo(dtype).max and raw.max() > maxval:
        raise FileFormatError(f"{path}: sample {raw.max()} above maxval {maxval}")
    return (raw.astype(np.float64) / maxval).reshape(shape)


def write_pnm(path, img):
    """Write a uint8 image as binary PGM (P5) if (h, w), or PPM (P6) if (h, w, 3).

    Anything ``read_pnm`` would refuse, such as an image without pixels,
    raises ``ValueError`` and writes nothing.
    """
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("expected uint8 pixel data")
    if img.ndim < 2 or img.shape[2:] not in ((), (3,)) or img.size == 0:
        raise ValueError(
            f"PNM wants a (h, w) or (h, w, 3) array with pixels, got shape {img.shape}"
        )
    h, w = img.shape[:2]
    header = f"{'P6' if img.ndim == 3 else 'P5'}\n{w} {h}\n255\n".encode("ascii")
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
    """Exact area-average resampling of a (h, w) or (h, w, 3) image.

    An image without pixels raises ``ValueError`` naming its empty side.
    """
    img = as_tensor(img)
    if img.ndim not in (2, 3):
        raise ValueError("expected a 2-D or 3-D image array")
    if img.size == 0:
        side = ("height", "width", "channel count")[img.shape.index(0)]
        raise ValueError(f"cannot resize an image of {side} 0 (shape {img.shape})")
    out_h, out_w = as_count(out_h, "output height", 1), as_count(out_w, "output width", 1)
    h, w = img.shape[:2]
    rows = _overlap_weights(h, out_h)
    cols = _overlap_weights(w, out_w)
    # rows @ img @ cols.T for every channel layout (grey has one channel):
    # the channels ride as extra columns of the first product and as extra
    # rows, channel-major, of the second.
    tmp = (rows @ img.reshape(h, -1)).reshape(out_h, w, -1).swapaxes(1, 2)
    out = tmp.reshape(-1, w) @ cols.T
    return out.reshape(out_h, -1, out_w).swapaxes(1, 2).reshape((out_h, out_w) + img.shape[2:])


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
        small = area_resize(read_pnm(f), height, width)
        if stack is None:
            stack = np.empty(small.shape + (len(files),))
        elif small.ndim != stack.ndim - 1:
            raise ValueError(f"{f}: mixes color and grayscale images")
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
