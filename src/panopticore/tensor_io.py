"""Bit-exact disk format for grids and the dataset-spec document.

Container layout (little-endian, no padding):

    magic   4 bytes  b"PDLT"
    version u16      currently 1
    dtype   u8       1 = uint16, 2 = uint32, 3 = float32
    ndim    u8       2 or 3
    dims    ndim*u32
    payload prod(dims) * itemsize bytes, row-major

Deterministic byte-for-byte: identical arrays produce identical files on any
platform. A write replaces the file atomically, so readers see the old or
the new container, never a partial one; of concurrent writes to one path,
the last rename wins.

Dataset specs travel as JSON with the fields of
:class:`~panopticore.core.DatasetSpec`.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .core import CategorySpec, DatasetSpec

__all__ = [
    "TensorIoError",
    "BadMagicError",
    "UnsupportedVersionError",
    "PayloadLengthError",
    "SpecFormatError",
    "write_tensor",
    "read_tensor",
    "write_spec",
    "read_spec",
]

MAGIC = b"PDLT"
VERSION = 1

_DTYPE_CODES = {
    np.dtype(np.uint16): 1,
    np.dtype(np.uint32): 2,
    np.dtype(np.float32): 3,
}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}


class TensorIoError(Exception):
    """Base class for container format problems."""


class BadMagicError(TensorIoError):
    pass


class UnsupportedVersionError(TensorIoError):
    pass


class PayloadLengthError(TensorIoError):
    pass


class SpecFormatError(ValueError):
    """A dataset-spec document failed to parse or validate."""


def write_tensor(grid: np.ndarray, path: str | Path) -> None:
    """Serialize a 2-D or 3-D grid; dtype must be uint16, uint32, or float32.

    The container is written to a temporary file in the same directory and
    renamed over ``path``, so an interrupted write leaves any previous file
    intact. A little-endian contiguous grid is written without a copy.
    """
    dtype = np.dtype(grid.dtype)
    if dtype not in _DTYPE_CODES:
        raise TensorIoError(
            f"unsupported dtype {dtype}; expected uint16, uint32, or float32"
        )
    if grid.ndim not in (2, 3):
        raise TensorIoError(f"unsupported rank {grid.ndim}; expected 2-D or 3-D")
    header = MAGIC + struct.pack(
        "<HBB", VERSION, _DTYPE_CODES[dtype], grid.ndim
    ) + struct.pack(f"<{grid.ndim}I", *grid.shape)
    payload = np.ascontiguousarray(grid, dtype=dtype.newbyteorder("<"))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            for chunk in (header, payload.reshape(-1).view(np.uint8)):
                view = memoryview(chunk)
                while view:
                    view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except OSError as e:
        raise TensorIoError(f"cannot write tensor to {path}: {e}") from e
    finally:
        tmp.unlink(missing_ok=True)  # gone already after a successful rename


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a container back into a native-endian array.

    The payload is read straight into the returned array. Raises
    :class:`PayloadLengthError` unless the file holds exactly the payload
    its header describes.
    """
    try:
        with open(path, "rb", buffering=0) as f:
            dims, dtype, _ = _read_header(f, path)
            data = np.empty(dims, dtype=dtype.newbyteorder("<"))
            view = memoryview(data.reshape(-1).view(np.uint8))
            while view:
                got = f.readinto(view)
                if not got:
                    raise PayloadLengthError(f"{path}: payload ends {len(view)} bytes short")
                view = view[got:]
            if f.read(1):
                raise PayloadLengthError(f"{path}: trailing bytes after the payload")
    except OSError as e:
        raise TensorIoError(f"cannot read tensor from {path}: {e}") from e
    return data if data.dtype.isnative else data.astype(dtype)


def _map_tensor(path: str | Path) -> np.ndarray:
    """Like :func:`read_tensor`, but a read-only array mapped over the payload.

    Pages are read from the page cache when first touched, not copied. A
    write by :func:`write_tensor` renames a new file over ``path`` and so
    leaves a mapped array's bytes alone; a foreign writer that truncates the
    file in place can make a later touch raise SIGBUS. On a big-endian host
    the payload is swapped into a copy.
    """
    try:
        with open(path, "rb", buffering=0) as f:
            dims, dtype, offset = _read_header(f, path)
            count = math.prod(dims)
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as e:
        raise TensorIoError(f"cannot read tensor from {path}: {e}") from e
    short = offset + count * dtype.itemsize - len(mapped)
    if short > 0:  # truncated since the header's size check
        mapped.close()
        raise PayloadLengthError(f"{path}: payload ends {short} bytes short")
    data = np.frombuffer(mapped, dtype.newbyteorder("<"), count, offset)
    data = data.astype(dtype, copy=False).reshape(dims)
    data.setflags(write=False)
    return data


def _read_header(f, path) -> tuple[tuple[int, ...], np.dtype, int]:
    """Check the header and the file size; return dims, dtype and the
    payload's byte offset, with ``f`` positioned there."""
    head = f.read(8)
    if len(head) < 8 or head[:4] != MAGIC:
        raise BadMagicError(f"{path}: not a tensor container (bad magic)")
    version, dtype_code, ndim = struct.unpack("<HBB", head[4:8])
    if version != VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported version {version}")
    if dtype_code not in _CODE_DTYPES:
        raise TensorIoError(f"{path}: unknown dtype code {dtype_code}")
    if ndim not in (2, 3):
        raise TensorIoError(f"{path}: unsupported rank {ndim}")
    raw_dims = f.read(4 * ndim)
    if len(raw_dims) < 4 * ndim:
        raise PayloadLengthError(f"{path}: truncated header")
    dims = struct.unpack(f"<{ndim}I", raw_dims)
    dtype = _CODE_DTYPES[dtype_code]
    offset = 8 + 4 * ndim  # a multiple of 4, so every dtype's payload is aligned
    expected = math.prod(dims) * dtype.itemsize
    size = os.fstat(f.fileno()).st_size - offset
    if size != expected:
        raise PayloadLengthError(f"{path}: payload is {size} bytes, expected {expected}")
    return dims, dtype, offset


def write_spec(spec: DatasetSpec, path: str | Path) -> None:
    """Write a dataset spec as deterministic JSON."""
    doc = {
        "categories": [
            {"id": c.id, "name": c.name, "is_thing": c.is_thing}
            for c in sorted(spec.categories, key=lambda c: c.id)
        ],
        "ignore_label": spec.ignore_label,
        "label_divisor": spec.label_divisor,
        "stuff_area_threshold": spec.stuff_area_threshold,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_spec(path: str | Path) -> DatasetSpec:
    """Parse and validate a dataset-spec document.

    A missing ``stuff_area_threshold`` defaults to 0 with a warning; any
    other malformed or inconsistent field raises :class:`SpecFormatError`
    naming the field.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise TensorIoError(f"cannot read spec from {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise SpecFormatError(f"{path}: malformed JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SpecFormatError(f"{path}: expected a JSON object at top level")
    for key in ("categories", "ignore_label"):
        if key not in doc:
            raise SpecFormatError(f"{path}: missing field {key!r}")
    if "stuff_area_threshold" not in doc:
        warnings.warn(
            f"{path}: stuff_area_threshold missing, defaulting to 0", stacklevel=2
        )
    categories = []
    for i, entry in enumerate(doc["categories"]):
        try:
            categories.append(
                CategorySpec(
                    id=int(entry["id"]),
                    name=str(entry.get("name", f"category_{entry['id']}")),
                    is_thing=bool(entry["is_thing"]),
                )
            )
        except (KeyError, TypeError, ValueError) as e:
            raise SpecFormatError(f"{path}: categories[{i}]: {e}") from e
    try:
        return DatasetSpec(
            categories=tuple(categories),
            ignore_label=int(doc["ignore_label"]),
            label_divisor=int(doc.get("label_divisor", 1000)),
            stuff_area_threshold=int(doc.get("stuff_area_threshold", 0)),
        )
    except (TypeError, ValueError) as e:
        raise SpecFormatError(f"{path}: {e}") from e
