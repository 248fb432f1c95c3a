"""Binary container for arrays: magic ``XLG1``, little-endian header, row-major payload.

Layout: 4 magic bytes, u32 array count, then per array a u16 name length,
the UTF-8 name, a u8 dtype code, a u8 rank, u64 dims, and the raw
little-endian row-major payload. float64 is the canonical dtype; int64 and
bool (stored as u8) are supported for labels and masks. ``save`` and
``load`` pair a container with the JSON manifest of its other fields.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"XLG1"

_DTYPE_CODES = {0: "<f8", 1: "<i8", 2: "u1"}
_CODE_FOR_KIND = {"f": 0, "i": 1, "b": 2}


class ContainerError(Exception):
    pass


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays to ``path`` in XLG1 format."""
    chunks = [MAGIC, struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        kind = arr.dtype.kind
        if kind == "u":
            kind = "i"
        if kind not in _CODE_FOR_KIND:
            raise ContainerError(f"unsupported dtype {arr.dtype} for array {name!r}")
        code = _CODE_FOR_KIND[kind]
        data = np.ascontiguousarray(arr.astype(_DTYPE_CODES[code], copy=False))
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<BB", code, data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}Q", *data.shape))
        chunks.append(data.tobytes(order="C"))
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read an XLG1 file back into a dict of arrays (bool arrays restored).
    Each payload is read straight into its array. A file shorter than its
    header declares raises ``ContainerError`` naming the path, the array and
    the missing byte count."""
    with open(path, "rb") as fh:
        def read(buffer, what):
            got = fh.readinto(buffer)
            if got < len(buffer):
                raise ContainerError(f"{path}: truncated in {what}: "
                                     f"{len(buffer) - got} bytes missing")
            return buffer

        def unpack(fmt, what):
            return struct.unpack(fmt, read(bytearray(struct.calcsize(fmt)), what))

        magic = fh.read(4)
        if magic != MAGIC:
            raise ContainerError(f"{path}: bad magic {magic!r}")
        (count,) = unpack("<I", "the array count")
        out: dict[str, np.ndarray] = {}
        for i in range(count):
            (nlen,) = unpack("<H", f"the name of array {i}")
            name = read(bytearray(nlen), f"the name of array {i}").decode("utf-8")
            code, ndim = unpack("<BB", f"the header of array {name!r}")
            if code not in _DTYPE_CODES:
                raise ContainerError(f"{path}: unknown dtype code {code}")
            shape = unpack(f"<{ndim}Q", f"the header of array {name!r}")
            arr = np.empty(shape, dtype=_DTYPE_CODES[code])
            read(arr.reshape(-1).view(np.uint8), f"array {name!r}")
            out[name] = arr.astype(bool) if code == 2 else arr
    return out


def files(path) -> list[str]:
    """A ``save`` pair's two files: the arrays at ``path``, the manifest at ``path.json``."""
    return [str(path), str(path) + ".json"]


def save(path, arrays: dict[str, np.ndarray], manifest: dict, meta: dict | None = None) -> None:
    """Write ``arrays`` to ``path`` and ``manifest`` beside it as JSON in
    ``path.json`` (``indent=2``, no trailing newline), stamped with the run's
    ``meta`` block under ``"meta"`` when one is given."""
    save_arrays(path, arrays)
    with open(files(path)[1], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest | {"meta": meta} if meta else manifest, fh, indent=2)


def load(path) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and the manifest of a ``save`` pair. The manifest is read
    first: ``ValueError`` naming ``path`` when it has none."""
    try:
        with open(files(path)[1], encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{path} has no manifest {files(path)[1]}") from None
    return load_arrays(path), manifest
