"""Binary tensor container and label-file I/O.

Tensor container layout (little-endian throughout):

    bytes 0..3    magic ``b"TEN1"``
    bytes 4..7    u32 tensor order d
    next 8*d      u64 dimension sizes
    rest          float64 values in row-major order

Loads reject any size mismatch (including trailing bytes) and any NaN/Inf
value.  All writes go through a temp-file rename so readers never see a
partial file.
"""

import hashlib
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .tensor_ops import as_labels, as_tensor

__all__ = [
    "FileFormatError",
    "write_tensor",
    "read_tensor",
    "write_labels",
    "read_labels",
    "atomic_write_bytes",
    "sha256_file",
]

MAGIC = b"TEN1"


class FileFormatError(Exception):
    """Malformed or inconsistent on-disk data."""


def atomic_write_bytes(path, data):
    """Write ``data`` to ``path`` via a same-directory temp file + rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(path, x):
    """Serialize a dense float tensor; refuses what ``read_tensor`` refuses, writing nothing.

    That is order 0, a dimension of size 0 and non-finite values, each a ``FileFormatError``.
    Data that is not real numbers raises ``as_tensor``'s ``ValueError``, before any write too.
    """
    x = as_tensor(x)
    if x.ndim < 1:
        raise FileFormatError("refusing to write an order-0 tensor: the container holds order >= 1")
    if 0 in x.shape:
        raise FileFormatError(
            f"refusing to write shape {x.shape}: the container holds dimension sizes >= 1"
        )
    if not np.all(np.isfinite(x)):
        raise FileFormatError("refusing to write non-finite values")
    header = MAGIC + np.uint32(x.ndim).astype("<u4").tobytes()
    header += np.asarray(x.shape, dtype="<u8").tobytes()
    atomic_write_bytes(path, header + x.astype("<f8").tobytes(order="C"))


def read_tensor(path):
    """Load a tensor written by :func:`write_tensor`, validating strictly."""
    data = Path(path).read_bytes()
    if len(data) < 8 or data[:4] != MAGIC:
        raise FileFormatError(f"{path}: not a TEN1 tensor file")
    d = int(np.frombuffer(data, "<u4", count=1, offset=4)[0])
    if d < 1:
        raise FileFormatError(f"{path}: tensor order must be >= 1, got {d}")
    if len(data) < 8 + 8 * d:
        raise FileFormatError(f"{path}: truncated header")
    dims = np.frombuffer(data, "<u8", count=d, offset=8).astype(np.int64)
    if np.any(dims < 1):
        raise FileFormatError(f"{path}: dimension sizes must be >= 1")
    count = math.prod(int(v) for v in dims)  # Python ints: no int64 wrap-around
    expected = 8 + 8 * d + 8 * count
    if len(data) != expected:
        raise FileFormatError(
            f"{path}: payload length {len(data)} does not match declared "
            f"sizes (expected {expected})"
        )
    values = np.frombuffer(data, "<f8", count=count, offset=8 + 8 * d)
    if not np.all(np.isfinite(values)):
        raise FileFormatError(f"{path}: contains NaN or Inf values")
    return values.reshape(tuple(dims)).copy()


def write_labels(path, labels):
    """Write one integer label per line; a label such as 0.5 raises ``ValueError``."""
    text = "".join(f"{v}\n" for v in as_labels(labels).tolist())
    atomic_write_bytes(path, text.encode("ascii"))


def _int64(text):
    """``int(text)`` for an optional sign then ASCII digits within int64, else ``ValueError``."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()) or not -(2**63) <= int(text) < 2**63:
        raise ValueError(text)  # int() alone also reads "1_0" as 10, and other scripts' digits
    return int(text)


def read_labels(path):
    """Read one ``_int64`` label per line, UTF-8 (a byte-order mark is skipped); no blank lines."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not a text labels file ({exc.reason})") from exc
    labels = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            raise FileFormatError(f"{path}: blank line {i + 1}")
        try:
            labels.append(_int64(line))
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad label on line {i + 1}: {line!r}") from exc
    if not labels:
        raise FileFormatError(f"{path}: no labels")
    return np.asarray(labels, dtype=np.int64)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
