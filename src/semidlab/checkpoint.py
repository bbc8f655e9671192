"""Binary container for named parameter arrays.

Layout (version 1):

    bytes 0..7    magic ``b"SIDTC001"``
    bytes 8..11   little-endian uint32: header length n
    bytes 12..12+n UTF-8 JSON header
    remainder     float64 little-endian payload, arrays back to back

The header is ``{"version": 1, "meta": {...}, "params": [{"name":
str, "shape": [int, ...]}, ...]}`` and arrays appear in the payload in
header order. Values round-trip bit-exactly because the payload is the
raw float64 bytes.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"SIDTC001"
VERSION = 1


class CheckpointError(ValueError):
    """The file is not a valid parameter container."""


def save_checkpoint(path, params, meta=None) -> None:
    """Write named arrays (or tensors with a ``value`` attribute)."""
    entries = []
    blobs = []
    for name, arr in params.items():
        value = getattr(arr, "value", arr)
        value = np.asarray(value, dtype=np.float64)
        if not value.flags["C_CONTIGUOUS"]:
            value = np.ascontiguousarray(value)
        entries.append({"name": str(name), "shape": list(value.shape)})
        blobs.append(value.astype("<f8", copy=False).tobytes())
    header = json.dumps(
        {"version": VERSION, "meta": meta or {}, "params": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path):
    """Read a container; returns (dict name -> float64 array, meta dict).

    Raises CheckpointError on a foreign, truncated or inconsistent file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a semidlab checkpoint")
    if len(raw) < 12:
        raise CheckpointError(f"{path}: truncated header length")
    (hlen,) = struct.unpack("<I", raw[8:12])
    if 12 + hlen > len(raw):
        raise CheckpointError(f"{path}: truncated header ({len(raw) - 12} of {hlen} bytes)")
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
        version = header.get("version")
        if version == VERSION:
            entries = [(str(e["name"]), tuple(int(n) for n in e["shape"])) for e in header["params"]]
            meta = header["meta"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    params = {}
    offset = 12 + hlen
    for name, shape in entries:
        if any(n < 0 for n in shape):
            raise CheckpointError(f"{path}: negative dimension in shape {shape} of {name!r}")
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated payload at parameter {name!r}")
        params[name] = np.frombuffer(raw[offset:end], dtype="<f8").astype(np.float64).reshape(shape)
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after payload")
    return params, meta


def assign_checkpoint_params(params: dict, saved: dict, path) -> None:
    """Copy saved arrays into a model's parameter tensors, in place.

    The saved names must be exactly the model's and every shape must
    match; anything else raises CheckpointError before any copy, so a
    mismatched file never broadcasts into a table or half-loads.
    """
    missing = sorted(set(params) - set(saved))
    unexpected = sorted(set(saved) - set(params))
    if missing or unexpected:
        raise CheckpointError(f"{path}: parameter names differ (missing {missing}, unexpected {unexpected})")
    for name, value in saved.items():
        if value.shape != params[name].value.shape:
            raise CheckpointError(
                f"{path}: {name!r} has shape {value.shape}, the model expects {params[name].value.shape}"
            )
    for name, value in saved.items():
        params[name].value[:] = value
