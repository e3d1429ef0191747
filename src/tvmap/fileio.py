"""On-disk formats: the TNSR1 binary tensor container, PGM previews, CSV.

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
from pathlib import Path

import numpy as np

_MAGIC = b"TNSR"
_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<c16")}
_CODES = {np.dtype(np.float64): 0, np.dtype(np.complex128): 1}


def write_tensor(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODES:
        if np.iscomplexobj(arr):
            arr = np.ascontiguousarray(arr, dtype=np.complex128)
        else:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
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


def format_float(v) -> str:
    """Shortest round-trip decimal form; used for every CSV value."""
    return repr(float(v))


def write_csv(path, header: list[str], rows) -> None:
    """Comma-separated, header row, '.' decimal, LF line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else format_float(c) for c in row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode())
