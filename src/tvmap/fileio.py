"""On-disk formats: the TNSR1 binary tensor container, PGM previews, CSV,
and the text form of every value the commands write or read
(:func:`format_value`, :func:`parse_value`, :func:`parse_list`).

TNSR1 layout (all integers little-endian):

==========  =====================================================
bytes       meaning
==========  =====================================================
4           magic ``TNSR``
1           version, must be 1
1           dtype code: 0 = float64, 1 = complex128
1           ndim
4 * ndim    dims as uint32, listed outermost first
payload     float64 values, C order with the time axis outermost;
            complex elements stored as (re, im) pairs
==========  =====================================================

Round trips are bit-exact; readers reject non-finite payloads.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_MAGIC = b"TNSR"
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<c16")}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.complex128): 1}


def write_tensor(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODES:
        raise ValueError(f"{path}: unsupported dtype {arr.dtype}")
    code = _CODES[arr.dtype]
    header = _MAGIC + struct.pack("<BBB", 1, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.astype(_DTYPES[code], copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a TNSR1 file; a short header, a payload of any other length than
    the dims give, or a non-finite value raises ``ValueError`` naming it."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a TNSR1 file")
    if len(raw) < 7:
        raise ValueError(f"{path}: header truncated at {len(raw)} bytes")
    version, code, ndim = struct.unpack_from("<BBB", raw, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    if code not in _DTYPES:
        raise ValueError(f"{path}: unknown dtype code {code}")
    offset = 7 + 4 * ndim
    if len(raw) < offset:
        raise ValueError(f"{path}: header truncated at {len(raw)} bytes, "
                         f"{ndim} dims need {offset}")
    dims = struct.unpack_from(f"<{ndim}I", raw, 7)
    size = math.prod(dims) * _DTYPES[code].itemsize
    if len(raw) - offset != size:
        raise ValueError(f"{path}: payload has {len(raw) - offset} bytes, "
                         f"dims {dims} need {size}")
    arr = np.frombuffer(raw, dtype=_DTYPES[code], offset=offset)
    arr = arr.reshape(dims).copy()
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: payload contains non-finite values")
    return arr


def write_pgm_frames(prefix, arr: np.ndarray) -> list[Path]:
    """8-bit binary PGM per frame, magnitude min-max normalized per frame."""
    arr = np.abs(np.asarray(arr))
    if arr.ndim == 2:
        arr = arr[None]
    paths = []
    for t, frame in enumerate(arr):
        lo, hi = float(frame.min()), float(frame.max())
        scale = 255.0 / (hi - lo) if hi > lo else 0.0
        pix = np.round((frame - lo) * scale).astype(np.uint8)
        path = Path(f"{prefix}_{t:03d}.pgm")
        with open(path, "wb") as fh:
            fh.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode())
            fh.write(pix.tobytes(order="C"))
        paths.append(path)
    return paths


def write_csv(path, header: list[str], rows) -> None:
    """Header row, then each row by :func:`format_value`, LF line endings."""
    text = "".join(format_value(row) + "\n" for row in [header, *rows])
    Path(path).write_bytes(text.encode())


def format_value(value) -> str:
    """The text :func:`parse_value` reads back: a float (numpy's too) by
    ``repr(float(value))``, its shortest exact form; a list or tuple as its
    items so formatted and joined by commas; anything else by ``str``."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ",".join(map(format_value, value))
    return str(value)


def parse_value(kind, key: str, raw: str):
    """Type the text ``raw`` of ``key`` as ``kind`` (a dataclass field's
    annotation): int, float, a tuple of floats read by :func:`parse_list`,
    or str as given."""
    if kind is tuple:
        return tuple(parse_list(float, key, raw))
    return _typed(kind, key, raw, raw) if kind in (int, float) else raw


def parse_list(kind, key: str, raw: str) -> list:
    """The comma-separated items of ``raw``, the text of ``key`` (a config
    key or a list option), each typed as ``kind``; blank items are skipped."""
    return [_typed(kind, key, raw, item) for item in raw.split(",") if item.strip()]


def _typed(kind, key: str, raw: str, item: str):
    try:
        return kind(item)
    except ValueError as exc:
        raise ValueError(f"cannot parse {key} = {raw!r}") from exc


@contextmanager
def named(source):
    """Prefix ``<source>: `` to a ``ValueError`` raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc
