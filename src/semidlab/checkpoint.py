"""Binary container for named numeric arrays.

Layout (version 1):

    bytes 0..7    magic ``b"SIDTC001"``
    bytes 8..11   little-endian uint32: header length n
    bytes 12..12+n UTF-8 JSON header
    remainder     little-endian payload, arrays back to back

The header is ``{"version": 1, "meta": {...}, "params": [{"name":
str, "shape": [int, ...], "dtype": "<f8" | "<i8"}, ...]}`` and arrays
appear in the payload in header order. Signed integer arrays are stored
as ``"<i8"`` (raw IDs near 2^62 do not fit in float64); everything else
as ``"<f8"``. An entry without ``dtype`` reads as ``"<f8"``, the only
type of files written before the field existed. Values round-trip
bit-exactly because the payload is the raw bytes.

Model parameters, item tables, user tables, Semantic ID tables and
event streams live in this container.

``int64_array`` is every module's one check for an integer array: a
value that is not an integer inside int64 raises the caller's own error.
``semid_table_arrays`` is every reader's one Semantic ID table check, and
``sorted_distinct`` the one dedupe (``np.unique`` imports numpy.ma, 1.7 MB).
``Config`` gives the configs kept in checkpoint meta one ``to_dict``
(tuples as lists) and one rule that their float values are finite;
``config_from_meta`` rebuilds them by constructor.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import struct

import numpy as np

MAGIC = b"SIDTC001"
VERSION = 1
DTYPES = {"<f8": np.float64, "<i8": np.int64}


class CheckpointError(ValueError):
    """The file is not a valid container, or not the arrays its reader expects."""


def int64_array(values, what: str, error) -> np.ndarray:
    """``values`` as an int64 array, uncopied if it is one; raises ``error``
    unless every value is an integer inside int64. For any other value numpy
    infers float64, object, uint64, a string or a bool dtype."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if array.size and not (kind == "i" or kind == "u" and array.max() < 2**63):
        raise error(f"{what} must be integers inside int64, got {array.dtype} values")
    return array.astype(np.int64, copy=False)


def semid_table_arrays(table: dict, error) -> tuple[np.ndarray, np.ndarray]:
    """A ``{raw_id: codes}`` table as int64 (N,) IDs and (N, L) codes in table order; raises
    ``error`` when code lengths differ or a key or code is not an integer inside int64."""
    lengths = {len(codes) for codes in table.values()}
    if len(lengths) > 1:
        raise error(f"Semantic ID code sequences differ in length: code lengths {sorted(lengths)}")
    raw_ids = int64_array(list(table), "Semantic ID table keys", error)
    # a flat list converts in about half the time of a list of tuples
    codes = int64_array(list(itertools.chain.from_iterable(table.values())), "codes", error)
    return raw_ids, codes.reshape(len(table), lengths.pop() if lengths else 0)


def sorted_distinct(values) -> np.ndarray:
    """The distinct values of a 1-D array, ascending, as ``np.unique`` gives them."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def save_checkpoint(path, params, meta=None) -> None:
    """Write named arrays (or tensors with a ``value`` attribute)."""
    entries = []
    blobs = []
    for name, arr in params.items():
        value = np.asarray(getattr(arr, "value", arr))
        dtype = "<i8" if value.dtype.kind == "i" else "<f8"
        entries.append({"name": str(name), "shape": list(value.shape), "dtype": dtype})
        blobs.append(np.asarray(value, dtype=dtype).tobytes())
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
    """Read a container; returns (dict name -> float64 or int64 array, meta dict).

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
            entries = [
                (str(e["name"]), tuple(e["shape"]), e.get("dtype", "<f8"))
                for e in header["params"]
            ]
            meta = header["meta"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header meta is {type(meta).__name__}, expected an object")
    params = {}
    offset = 12 + hlen
    for name, shape, dtype in entries:
        if dtype not in DTYPES:
            raise CheckpointError(f"{path}: unsupported dtype {dtype!r} of {name!r}")
        # bool is a subclass of int; JSON true must not read as a length of 1
        if any(type(n) is not int for n in shape):
            raise CheckpointError(f"{path}: non-integer dimension in shape {list(shape)} of {name!r}")
        if any(n < 0 for n in shape):
            raise CheckpointError(f"{path}: negative dimension in shape {shape} of {name!r}")
        # Python ints do not wrap; numpy refuses a shape whose nonzero
        # dimensions span more bytes than an intp holds, even when empty
        if 8 * math.prod(n or 1 for n in shape) > np.iinfo(np.intp).max:
            raise CheckpointError(f"{path}: shape {shape} of {name!r} is too large")
        count = math.prod(shape)
        end = offset + 8 * count
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated payload at parameter {name!r}")
        params[name] = np.frombuffer(raw[offset:end], dtype=dtype).astype(DTYPES[dtype]).reshape(shape)
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after payload")
    return params, meta


def check_arrays(path, saved: dict, expected: dict) -> None:
    """Check saved arrays against ``{name: (dtype, shape)}``.

    A ``None`` dimension in an expected shape matches any length. The
    names must be exactly the expected ones; anything else raises
    CheckpointError.
    """
    missing = sorted(set(expected) - set(saved))
    unexpected = sorted(set(saved) - set(expected))
    if missing or unexpected:
        raise CheckpointError(f"{path}: array names differ (missing {missing}, unexpected {unexpected})")
    for name, (dtype, shape) in expected.items():
        value = saved[name]
        if value.dtype != DTYPES[dtype]:
            raise CheckpointError(f"{path}: {name!r} is {value.dtype}, expected {np.dtype(DTYPES[dtype])}")
        if len(value.shape) != len(shape) or any(e is not None and e != n for n, e in zip(value.shape, shape)):
            raise CheckpointError(f"{path}: {name!r} has shape {value.shape}, expected {shape}")


def assign_checkpoint_params(params: dict, saved: dict, path) -> None:
    """Copy saved arrays into a model's parameter tensors, in place.

    The saved names must be exactly the model's, and every entry must be
    float64 with the model's shape; anything else raises CheckpointError
    before any copy, so a mismatched file never broadcasts into a table
    or half-loads.
    """
    check_arrays(path, saved, {name: ("<f8", p.value.shape) for name, p in params.items()})
    for name, value in saved.items():
        params[name].value[:] = value


class Config:
    """Base of the dataclass configs; ``to_dict`` writes tuples as lists and
    ``check_finite``, which every ``__post_init__`` calls, refuses NaN and infinite floats."""

    def check_finite(self, error) -> None:
        """Raise ``error`` unless every float field, tuple entries included, is finite."""
        for name, value in dataclasses.asdict(self).items():
            entries = value if isinstance(value, (tuple, list)) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                raise error(f"{name} must be finite, got {value!r}")

    def to_dict(self) -> dict:
        return {name: list(v) if isinstance(v, tuple) else v for name, v in dataclasses.asdict(self).items()}


def config_from_meta(path, meta: dict, key: str, config_cls):
    """Rebuild the ``Config`` a model checkpoint keeps in ``meta[key]``.

    Raises CheckpointError when the entry is missing, is not a mapping,
    or names a field ``config_cls`` does not have.
    """
    saved = meta.get(key)
    if not isinstance(saved, dict):
        raise CheckpointError(f"{path}: meta has no {key!r} mapping")
    unknown = sorted(set(saved) - {f.name for f in dataclasses.fields(config_cls)})
    if unknown:
        raise CheckpointError(f"{path}: {key!r} has unknown fields {unknown}")
    return config_cls(**saved)
