import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from panopticore import tensor_io
from panopticore.core import CategorySpec, DatasetSpec
from panopticore.tensor_io import (
    BadMagicError,
    PayloadLengthError,
    SpecFormatError,
    TensorIoError,
    UnsupportedVersionError,
    _map_tensor,
    read_spec,
    read_tensor,
    write_spec,
    write_tensor,
)


def test_header_arithmetic_40_bytes(tmp_path):
    # 4 magic + 2 version + 1 dtype + 1 ndim + 2*4 dims + 6*4 payload = 40.
    path = tmp_path / "map.pdlt"
    write_tensor(np.arange(6, dtype=np.uint32).reshape(2, 3), path)
    assert path.stat().st_size == 40


def test_round_trip_each_dtype(tmp_path):
    rng = np.random.default_rng(0)
    arrays = [
        rng.integers(0, 2**16, size=(5, 7)).astype(np.uint16),
        rng.integers(0, 2**32, size=(3, 4)).astype(np.uint32),
        rng.random((6, 2)).astype(np.float32),
    ]
    for i, array in enumerate(arrays):
        path = tmp_path / f"t{i}.pdlt"
        write_tensor(array, path)
        back = read_tensor(path)
        assert back.dtype == array.dtype
        assert np.array_equal(back, array)


def test_offsets_stored_as_h_w_2(tmp_path):
    offsets = np.zeros((4, 5, 2), dtype=np.float32)
    path = tmp_path / "off.pdlt"
    write_tensor(offsets, path)
    assert read_tensor(path).shape == (4, 5, 2)


def test_write_is_deterministic(tmp_path):
    array = np.arange(12, dtype=np.float32).reshape(3, 4)
    write_tensor(array, tmp_path / "a.pdlt")
    write_tensor(array, tmp_path / "b.pdlt")
    assert (tmp_path / "a.pdlt").read_bytes() == (tmp_path / "b.pdlt").read_bytes()


def test_golden_bytes(tmp_path):
    path = tmp_path / "g.pdlt"
    write_tensor(np.array([[1, 2], [3, 4]], dtype=np.uint16), path)
    want = (
        b"PDLT"
        + b"\x01\x00"  # version 1
        + b"\x01"  # dtype uint16
        + b"\x02"  # ndim 2
        + b"\x02\x00\x00\x00\x02\x00\x00\x00"  # dims 2x2
        + b"\x01\x00\x02\x00\x03\x00\x04\x00"  # payload little-endian
    )
    assert path.read_bytes() == want


def test_truncated_payload_length_error(tmp_path):
    path = tmp_path / "t.pdlt"
    write_tensor(np.zeros((2, 3), dtype=np.uint32), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(PayloadLengthError):
        read_tensor(path)


def test_trailing_bytes_payload_length_error(tmp_path):
    path = tmp_path / "t.pdlt"
    write_tensor(np.zeros((2, 3), dtype=np.uint32), path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(PayloadLengthError, match="payload is 25 bytes, expected 24"):
        read_tensor(path)


def test_truncated_dims_payload_length_error(tmp_path):
    path = tmp_path / "t.pdlt"
    write_tensor(np.zeros((2, 3), dtype=np.uint32), path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(PayloadLengthError, match="truncated header"):
        read_tensor(path)


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "t.pdlt"
    write_tensor(np.arange(6, dtype=np.uint16).reshape(2, 3), path)
    before = path.read_bytes()
    real_write = os.write
    calls = []

    def failing_write(fd, data):
        calls.append(len(data))
        if len(calls) == 2:  # the header went out; fail inside the payload
            real_write(fd, bytes(data)[:5])
            raise OSError(28, "No space left on device")
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", failing_write)
    with pytest.raises(TensorIoError, match="No space left"):
        write_tensor(np.ones((40, 30), dtype=np.float32), path)
    monkeypatch.undo()
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.pdlt"]


def test_write_leaves_no_temporary_file(tmp_path):
    write_tensor(np.zeros((3, 4, 2), dtype=np.float32), tmp_path / "o.pdlt")
    write_tensor(np.ones((3, 4, 2), dtype=np.float32), tmp_path / "o.pdlt")
    assert [p.name for p in tmp_path.iterdir()] == ["o.pdlt"]
    assert (read_tensor(tmp_path / "o.pdlt") == 1).all()


def test_bad_magic_error(tmp_path):
    path = tmp_path / "m.pdlt"
    write_tensor(np.zeros((2, 3), dtype=np.uint32), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        read_tensor(path)


def test_bad_version_error(tmp_path):
    path = tmp_path / "v.pdlt"
    write_tensor(np.zeros((2, 3), dtype=np.uint32), path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError):
        read_tensor(path)


def test_errors_are_distinct_types():
    assert issubclass(BadMagicError, TensorIoError)
    assert issubclass(UnsupportedVersionError, TensorIoError)
    assert issubclass(PayloadLengthError, TensorIoError)
    assert len({BadMagicError, UnsupportedVersionError, PayloadLengthError}) == 3


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(TensorIoError, match="dtype"):
        write_tensor(np.zeros((2, 2), dtype=np.float64), tmp_path / "x.pdlt")


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(TensorIoError, match="cannot read"):
        read_tensor(tmp_path / "absent.pdlt")


GRIDS = hnp.arrays(
    dtype=st.sampled_from([np.uint16, np.uint32, np.float32]),
    shape=hnp.array_shapes(min_dims=2, max_dims=3, min_side=1, max_side=8),
    elements=st.integers(0, 1000),
)


@settings(max_examples=30, deadline=None)
@given(array=GRIDS)
def test_round_trip_property(array, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "t.pdlt"
    write_tensor(array, path)
    assert np.array_equal(read_tensor(path), array)


# ---------------------------------------------------------------------------
# the mapped reader


@settings(max_examples=30, deadline=None)
@given(array=GRIDS)
def test_mapped_read_equals_read_tensor(array, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "t.pdlt"
    write_tensor(array, path)
    mapped, copied = _map_tensor(path), read_tensor(path)
    assert (mapped.dtype, mapped.shape) == (copied.dtype, copied.shape)
    assert mapped.dtype.isnative and mapped.flags.aligned
    assert mapped.tobytes() == copied.tobytes()
    assert not mapped.flags.writeable
    assert copied.flags.writeable


def _blob(tmp_path):
    path = tmp_path / "t.pdlt"
    write_tensor(np.arange(6, dtype=np.uint32).reshape(2, 3), path)
    return path, path.read_bytes()


HEADER_FAULTS = {
    "bad magic": lambda b: b"NOPE" + b[4:],
    "empty file": lambda b: b"",
    "bad version": lambda b: b[:4] + b"\x09" + b[5:],
    "unknown dtype code": lambda b: b[:6] + b"\x07" + b[7:],
    "bad rank": lambda b: b[:7] + b"\x04" + b[8:],
    "truncated dims": lambda b: b[:10],
    "short payload": lambda b: b[:-4],
    "trailing bytes": lambda b: b + b"\0",
}


@pytest.mark.parametrize("fault", sorted(HEADER_FAULTS) + ["missing file"])
def test_mapped_read_raises_what_read_tensor_raises(tmp_path, fault):
    path, blob = _blob(tmp_path)
    if fault == "missing file":
        path.unlink()
    else:
        path.write_bytes(HEADER_FAULTS[fault](blob))
    with pytest.raises(TensorIoError) as copied:
        read_tensor(path)
    with pytest.raises(TensorIoError) as mapped:
        _map_tensor(path)
    assert type(mapped.value) is type(copied.value)
    assert str(mapped.value) == str(copied.value)


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (2, 0, 5)])
def test_mapped_read_of_empty_payload(tmp_path, shape):
    path = tmp_path / "e.pdlt"
    write_tensor(np.zeros(shape, dtype=np.float32), path)
    got = _map_tensor(path)
    assert got.shape == shape and got.dtype == np.float32
    assert got.dtype.isnative and got.tobytes() == b""
    assert not got.flags.writeable


def test_mapped_read_of_a_file_truncated_after_its_header_check(tmp_path, monkeypatch):
    # A foreign writer shrinks the file between the size check and the map.
    path, blob = _blob(tmp_path)

    class ShortMap(bytearray):
        closed = False

        def close(self):
            self.closed = True

    maps = []

    def short_mmap(fileno, length, access):
        maps.append(ShortMap(blob[:-4]))
        return maps[-1]

    monkeypatch.setattr(tensor_io.mmap, "mmap", short_mmap)
    with pytest.raises(PayloadLengthError, match="payload ends 4 bytes short") as e:
        _map_tensor(path)
    assert str(path) in str(e.value)
    assert maps[0].closed


def test_mapped_read_of_a_read_only_file(tmp_path):
    path, _ = _blob(tmp_path)
    path.chmod(0o444)
    assert np.array_equal(_map_tensor(path), np.arange(6).reshape(2, 3))


def test_write_over_a_mapped_file_leaves_the_mapped_bytes(tmp_path):
    path, _ = _blob(tmp_path)
    mapped = _map_tensor(path)
    write_tensor(np.full((2, 3), 9, dtype=np.uint32), path)
    assert mapped.tobytes() == np.arange(6, dtype=np.uint32).tobytes()
    assert (_map_tensor(path) == 9).all()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_dropping_a_mapped_array_releases_its_map(tmp_path):
    path, _ = _blob(tmp_path)
    _map_tensor(path)  # any lazily opened descriptors exist before the count
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        assert _map_tensor(path).sum() == 15
    assert len(os.listdir("/proc/self/fd")) == before


# ---------------------------------------------------------------------------
# dataset spec files


def cityscapes_like_spec():
    things = [24, 25, 26, 27, 28, 31, 32, 33]
    stuff = [7, 8, 11, 12, 13, 17, 19, 20, 21, 22, 23]
    categories = [CategorySpec(i, f"cat_{i}", True) for i in things] + [
        CategorySpec(i, f"cat_{i}", False) for i in stuff
    ]
    return DatasetSpec(
        categories=tuple(categories),
        ignore_label=255,
        label_divisor=1000,
        stuff_area_threshold=2048,
    )


def test_spec_round_trip(tmp_path):
    spec = cityscapes_like_spec()
    assert len(spec.categories) == 19 and len(spec.thing_ids) == 8
    path = tmp_path / "spec.json"
    write_spec(spec, path)
    back = read_spec(path)
    assert back == spec


def test_spec_duplicate_id_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"categories": [{"id": 1, "name": "a", "is_thing": true},'
        ' {"id": 1, "name": "b", "is_thing": false}],'
        ' "ignore_label": 255, "label_divisor": 1000, "stuff_area_threshold": 0}'
    )
    with pytest.raises(SpecFormatError, match="duplicate"):
        read_spec(path)


def test_spec_divisor_too_small(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"categories": [{"id": 50, "name": "a", "is_thing": true}],'
        ' "ignore_label": 255, "label_divisor": 10, "stuff_area_threshold": 0}'
    )
    with pytest.raises(SpecFormatError, match="label_divisor"):
        read_spec(path)


def test_spec_missing_stuff_threshold_warns(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(
        '{"categories": [{"id": 1, "name": "a", "is_thing": true}],'
        ' "ignore_label": 255, "label_divisor": 1000}'
    )
    with pytest.warns(UserWarning, match="stuff_area_threshold"):
        spec = read_spec(path)
    assert spec.stuff_area_threshold == 0


def test_spec_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SpecFormatError, match="malformed"):
        read_spec(path)
