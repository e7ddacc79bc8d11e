"""The one binary record format behind every seqret artifact.

Checkpoints, vector stores, encoders and indexes are all records:

    magic   8 bytes  b"SEQREC01" (the last two bytes are the version)
    length  u32      byte length of the meta section
    meta    JSON     {"arrays": [[name, dtype, shape], ...], "kind": ...,
                      "meta": {...}}, utf-8, sorted keys, no spaces
    arrays  raw little-endian array bytes, C order, in meta order
    crc     u32      zlib.crc32 of every byte before it

Integers are little-endian.  Only the dtypes ``<f8``, ``<i8`` and
``|i1`` are allowed, and nothing is pickled, so equal inputs give equal
bytes.  ``read_record`` checks, in order, the size and magic, the
checksum, the meta, the kind, the section lengths and that no bytes
trail; any failure raises one ``ArtifactError`` naming the path.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

__all__ = ["ArtifactError", "pack_record", "write_record", "read_record"]

MAGIC = b"SEQREC01"
DTYPES = ("<f8", "<i8", "|i1")


class ArtifactError(ValueError):
    """A binary artifact is damaged, truncated or of the wrong kind."""


def pack_record(kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """The bytes ``write_record`` writes for these inputs."""
    blobs = [np.ascontiguousarray(a) for a in arrays.values()]
    for name, blob in zip(arrays, blobs):
        if blob.dtype.str not in DTYPES:
            raise ValueError(f"array {name!r}: dtype {blob.dtype.str} is not one of {DTYPES}")
    specs = [[name, blob.dtype.str, list(blob.shape)] for name, blob in zip(arrays, blobs)]
    header = json.dumps({"arrays": specs, "kind": kind, "meta": meta},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    pieces = [MAGIC, len(header).to_bytes(4, "little"), header,
              *(blob.reshape(-1).view(np.uint8) for blob in blobs)]
    crc = 0
    for piece in pieces:  # checksum the array views in place, not a joined copy
        crc = zlib.crc32(piece, crc)
    return b"".join([*pieces, crc.to_bytes(4, "little")])


def write_record(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(pack_record(kind, meta, arrays))


def _spec_ok(spec) -> bool:
    return (isinstance(spec, list) and len(spec) == 3 and isinstance(spec[0], str)
            and spec[1] in DTYPES and isinstance(spec[2], list)
            and all(type(n) is int and n >= 0 for n in spec[2]))


def read_record(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Meta and arrays of the ``kind`` record at ``path``."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 16 or buf[:8] != MAGIC:
        raise ArtifactError(f"{path}: not a seqret artifact, expected {kind}")
    body = memoryview(buf)[:-4]
    if zlib.crc32(body) != int.from_bytes(buf[-4:], "little"):
        raise ArtifactError(f"{path}: checksum mismatch (damaged or truncated {kind})")
    end = 12 + int.from_bytes(buf[8:12], "little")
    try:
        header = json.loads(bytes(body[12:end]))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        header = None
    if (not isinstance(header, dict) or set(header) != {"arrays", "kind", "meta"}
            or not isinstance(header["meta"], dict) or not isinstance(header["arrays"], list)
            or not all(_spec_ok(s) for s in header["arrays"])):
        raise ArtifactError(f"{path}: malformed meta section")
    if header["kind"] != kind:
        raise ArtifactError(f"{path}: is an artifact of kind {header['kind']!r}, "
                            f"expected {kind!r}")
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape in header["arrays"]:
        count = int(np.prod(shape))
        if end + np.dtype(dtype).itemsize * count > len(body):
            raise ArtifactError(f"{path}: array {name!r} runs past the end of the file")
        arrays[name] = np.frombuffer(body, dtype, count, end).reshape(shape).copy()
        end += arrays[name].nbytes
    if end != len(body):
        raise ArtifactError(f"{path}: {len(body) - end} bytes trail the last array")
    return header["meta"], arrays
