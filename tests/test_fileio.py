import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvmap.cli import main
from tvmap.fileio import (
    format_value,
    parse_value,
    read_tensor,
    write_csv,
    write_pgm_frames,
    write_tensor,
)


def test_roundtrip_real_3d(tmp_path, rng):
    arr = rng.standard_normal((3, 5, 4))
    path = tmp_path / "a.tnsr"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_roundtrip_complex(tmp_path, rng):
    arr = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    path = tmp_path / "c.tnsr"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, arr)


def test_roundtrip_bytes_identical(tmp_path, rng):
    arr = rng.standard_normal((2, 3, 3))
    p1, p2 = tmp_path / "x1.tnsr", tmp_path / "x2.tnsr"
    write_tensor(p1, arr)
    write_tensor(p2, read_tensor(p1))
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=25, deadline=None)
@given(
    ndim=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
    cplx=st.booleans(),
)
def test_roundtrip_random_shapes(tmp_path_factory, ndim, seed, cplx):
    r = np.random.default_rng(seed)
    shape = tuple(int(v) for v in r.integers(1, 6, size=ndim))
    arr = r.standard_normal(shape)
    if cplx:
        arr = arr + 1j * r.standard_normal(shape)
    path = tmp_path_factory.mktemp("t") / "r.tnsr"
    write_tensor(path, arr)
    assert np.array_equal(read_tensor(path), arr)


def test_header_layout(tmp_path):
    arr = np.arange(6.0).reshape(2, 3, 1)
    path = tmp_path / "h.tnsr"
    write_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"TNSR"
    assert raw[4] == 1  # version
    assert raw[5] == 0  # float64
    assert raw[6] == 3  # ndim
    dims = np.frombuffer(raw[7:19], dtype="<u4")
    assert tuple(dims) == (2, 3, 1)
    payload = np.frombuffer(raw[19:], dtype="<f8")
    assert np.array_equal(payload, arr.ravel())  # C order, t outermost


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_, np.complex64])
def test_write_rejects_other_dtypes(tmp_path, dtype):
    # no silent conversion: only float64 and complex128 have a dtype code
    path = tmp_path / "x.tnsr"
    with pytest.raises(ValueError, match=f"x.tnsr: unsupported dtype {np.dtype(dtype)}"):
        write_tensor(path, np.zeros((2, 3), dtype=dtype))
    assert not path.exists()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.tnsr"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_tensor(path)


def test_nonfinite_rejected(tmp_path):
    path = tmp_path / "nan.tnsr"
    arr = np.array([np.nan])
    import struct

    with open(path, "wb") as fh:
        fh.write(b"TNSR" + struct.pack("<BBB", 1, 0, 1) + struct.pack("<I", 1))
        fh.write(arr.tobytes())
    with pytest.raises(ValueError):
        read_tensor(path)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=3),
    cplx=st.booleans(),
    cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    extra=st.binary(min_size=1, max_size=24),
    extend=st.booleans(),
)
def test_truncated_or_extended_file_rejected(tmp_path_factory, shape, cplx, cut, extra,
                                             extend):
    # any strict prefix of a valid file (header or payload cut short) and any
    # valid file with bytes after its payload: ValueError naming the file
    arr = np.arange(float(np.prod(shape))).reshape(shape) * (1 + 1j if cplx else 1)
    path = tmp_path_factory.mktemp("t") / "bad.tnsr"
    write_tensor(path, arr)
    raw = path.read_bytes()
    path.write_bytes(raw + extra if extend else raw[: int(cut * len(raw))])
    with pytest.raises(ValueError, match="bad.tnsr"):
        read_tensor(path)


@pytest.mark.parametrize("case, raw", [
    ("header", b"TNSR\x01"),
    ("dims", b"TNSR\x01\x00\x02" + b"\x03\x00\x00\x00"),
    ("payload", b"TNSR\x01\x00\x01" + b"\x02\x00\x00\x00" + bytes(8)),
    ("trailing", b"TNSR\x01\x00\x01" + b"\x01\x00\x00\x00" + bytes(9)),
])
def test_malformed_tensor_exits_2_naming_file(tmp_path, capsys, case, raw):
    path = tmp_path / f"{case}.tnsr"
    path.write_bytes(raw)
    assert main(["preview", str(path)]) == 2
    assert f"{case}.tnsr" in capsys.readouterr().err


def test_pgm_frames(tmp_path, rng):
    arr = rng.random((2, 4, 5))
    paths = write_pgm_frames(tmp_path / "prev", arr)
    assert len(paths) == 2
    raw = paths[0].read_bytes()
    assert raw.startswith(b"P5\n5 4\n255\n")
    assert len(raw) == len(b"P5\n5 4\n255\n") + 20


def test_csv_format(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(path, ["iter", "value"], [(1.0, 0.5), (2.0, float("inf"))])
    text = path.read_bytes().decode()
    assert text == "iter,value\n1.0,0.5\n2.0,inf\n"


def test_format_float_roundtrip():
    for v in [0.1, 1 / 3, 1e-17, 12345.678]:
        assert float(format_value(v)) == v


@pytest.mark.parametrize("kind, value, text", [
    (float, 0.1, "0.1"),
    (float, np.float64(0.1), "0.1"),
    (int, 7, "7"),
    (str, "x_y_t", "x_y_t"),
    (tuple, (0.05, 1 / 3, 4.0), "0.05,0.3333333333333333,4.0"),
])
def test_value_text_roundtrip(kind, value, text):
    assert format_value(value) == text
    assert parse_value(kind, "key", format_value(value)) == value
