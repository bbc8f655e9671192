"""Binary container for named numeric arrays.

Layout (version 1):

    bytes 0..7    magic ``b"SIDTC001"``
    bytes 8..11   little-endian uint32: header length n
    bytes 12..12+n UTF-8 JSON header
    remainder     little-endian payload, arrays back to back

The header is ``{"version": 1, "meta": {...}, "params": [{"name":
str, "shape": [int, ...], "dtype": str}, ...]}``, with a dtype from
``DTYPES``, and arrays appear in the payload in header order. Float64
and unsigned integer arrays keep their dtype (a Semantic ID table
stores its codes in the narrowest unsigned one). Other signed integer
arrays are stored as ``"<i8"`` (raw IDs near 2^62 do not fit in
float64); everything else as ``"<f8"``. An entry without ``dtype``
reads as ``"<f8"``, the only type of files written before the field
existed. Values round-trip bit-exactly because the payload is the raw
bytes.

Model parameters, item tables, user tables, Semantic ID tables and
event streams live in this container.

``check_arrays`` is every loader's one check of the arrays a file must
hold, lengths that several arrays share included.
``int64_array`` is every module's one check for an integer array, and
``integer`` the one check for a single integer: a value that is not an
integer (inside int64, for an array) raises the caller's own error.
``semid_table_arrays`` is every reader's one Semantic ID table check,
``sorted_distinct`` the one dedupe (``np.unique`` imports numpy.ma, 1.7 MB)
and ``scatter_rows`` the one scatter-add of rows.
``Config`` gives the configs kept in checkpoint meta one ``to_dict``
(tuples as lists) and one rule that their float values are finite;
``config_from_meta`` rebuilds them by constructor.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct

import numpy as np

MAGIC = b"SIDTC001"
VERSION = 1
DTYPES = {
    "<f8": np.float64, "<i8": np.int64, "|u1": np.uint8, "<u2": np.uint16, "<u4": np.uint32, "<u8": np.uint64,
}


class CheckpointError(ValueError):
    """The file is not a valid container, or not the arrays its reader expects."""


_BOOL_TYPES = (bool, np.bool_)


def int64_array(values, what: str, error) -> np.ndarray:
    """``values`` as an int64 array, uncopied if it is one; raises ``error``
    unless every value is an integer inside int64. For any other value numpy
    infers float64, object, uint64, a string or a bool dtype, except for a
    bool among the ints of a flat list or tuple, which it reads as 0 or 1:
    the entries that read 0 or 1 are checked for one."""
    array = np.asarray(values)
    kind = array.dtype.kind
    if array.size and not (kind == "i" or kind == "u" and array.max() < 2**63):
        raise error(f"{what} must be integers inside int64, got {array.dtype} values")
    if kind == "i" and array.ndim == 1 and isinstance(values, (list, tuple)):
        if any(type(values[i]) in _BOOL_TYPES for i in np.flatnonzero(array >> 1 == 0).tolist()):
            raise error(f"{what} must be integers inside int64, got a bool")
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


def scatter_rows(idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``np.add.at`` of the rows of ``values`` (E, d) into (n, d) zeros at
    rows ``idx``, bit for bit, in about a third of its time.

    ``bincount`` over flat cell indices adds each cell's terms in entry
    order, starting from +0.0, as ``add.at`` does; -0.0 terms included.
    Only which NaN a cell keeps where two NaNs meet follows each loop's
    operand order, which ``add.at`` itself varies with d, so a result
    that holds a NaN is computed by ``add.at`` instead.
    """
    d = values.shape[1]
    if values.size:  # bincount gives int64 zeros for no cells
        cells = (idx[:, None] * d + np.arange(d)).ravel()
        out = np.bincount(cells, weights=values.ravel(), minlength=n * d).reshape(n, d)
        if not np.isnan(out).any():
            return out
    out = np.zeros((n, d))
    np.add.at(out, idx, values)
    return out


def save_checkpoint(path, params, meta=None) -> None:
    """Write named arrays (or tensors with a ``value`` attribute).

    Each array is written from its own buffer, without a byte copy; one
    that is not already a C-contiguous array of a ``DTYPES`` dtype is
    converted first: a signed integer array to int64, anything else to
    float64.
    """
    entries = []
    values = []
    for name, arr in params.items():
        value = np.asarray(getattr(arr, "value", arr))
        dtype = value.dtype.str
        if dtype not in DTYPES:
            dtype = "<i8" if value.dtype.kind == "i" else "<f8"
        entries.append({"name": str(name), "shape": list(value.shape), "dtype": dtype})
        # unlike np.ascontiguousarray, this keeps a 0-d array 0-d
        values.append(np.asarray(value, dtype=dtype, order="C"))
    header = json.dumps(
        {"version": VERSION, "meta": meta or {}, "params": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for value in values:
            fh.write(value)


def load_checkpoint(path):
    """Read a container; returns (dict name -> array of its ``DTYPES`` dtype, meta dict).

    The preamble and header are read first, and every entry's dtype and
    shape, and the payload size against the file's, are checked before
    any array is allocated; each array is then read straight from the
    file into its own writable native array. Raises CheckpointError on a
    foreign, truncated or inconsistent file.
    """
    with open(path, "rb") as fh:
        preamble = fh.read(12)
        if preamble[:8] != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a semidlab checkpoint")
        if len(preamble) < 12:
            raise CheckpointError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", preamble[8:])
        raw_header = fh.read(hlen)
        if len(raw_header) < hlen:
            raise CheckpointError(f"{path}: truncated header ({len(raw_header)} of {hlen} bytes)")
        try:
            header = json.loads(raw_header.decode("utf-8"))
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
        size = os.fstat(fh.fileno()).st_size
        end = 12 + hlen
        for name, shape, dtype in entries:
            # a JSON list or object is unhashable: test the type before the lookup
            if not isinstance(dtype, str) or dtype not in DTYPES:
                raise CheckpointError(f"{path}: unsupported dtype {dtype!r} of {name!r}")
            # bool is a subclass of int; JSON true must not read as a length of 1
            if any(type(n) is not int for n in shape):
                raise CheckpointError(f"{path}: non-integer dimension in shape {list(shape)} of {name!r}")
            if any(n < 0 for n in shape):
                raise CheckpointError(f"{path}: negative dimension in shape {shape} of {name!r}")
            # Python ints do not wrap; numpy refuses a shape whose nonzero
            # dimensions span more bytes than an intp holds, even when empty
            itemsize = np.dtype(DTYPES[dtype]).itemsize
            if itemsize * math.prod(n or 1 for n in shape) > np.iinfo(np.intp).max:
                raise CheckpointError(f"{path}: shape {shape} of {name!r} is too large")
            end += itemsize * math.prod(shape)
            if end > size:
                raise CheckpointError(f"{path}: truncated payload at parameter {name!r}")
        if end != size:
            raise CheckpointError(f"{path}: trailing bytes after payload")
        params = {}
        for name, shape, dtype in entries:
            count = math.prod(shape)
            # a file cut short since the size check reads fewer values
            value = np.fromfile(fh, dtype, count)
            if value.size != count:
                raise CheckpointError(f"{path}: truncated payload at parameter {name!r}")
            # a no-op on a little-endian machine
            params[name] = value.astype(DTYPES[dtype], copy=False).reshape(shape)
    return params, meta


def check_arrays(path, saved: dict, expected: dict) -> None:
    """Check saved arrays against ``{name: (dtype, shape)}``.

    ``dtype`` is a ``DTYPES`` key, or a tuple of the keys it may be. In
    an expected shape, an int dimension must match exactly, ``None``
    matches any length, and a string names a length: every array that
    uses the name must have the same length there (``"N"`` for the rows
    of an item table, say). The names must be exactly the expected ones;
    anything else raises CheckpointError, a named length naming both
    arrays and both lengths.
    """
    missing = sorted(set(expected) - set(saved))
    unexpected = sorted(set(saved) - set(expected))
    if missing or unexpected:
        raise CheckpointError(f"{path}: array names differ (missing {missing}, unexpected {unexpected})")
    lengths = {}  # length name -> (first array that uses it, its length there)
    for name, (dtype, shape) in expected.items():
        value = saved[name]
        allowed = [np.dtype(DTYPES[d]) for d in ((dtype,) if isinstance(dtype, str) else dtype)]
        if value.dtype not in allowed:
            raise CheckpointError(f"{path}: {name!r} is {value.dtype}, expected {' or '.join(map(str, allowed))}")
        fixed = [(n, e) for n, e in zip(value.shape, shape) if not isinstance(e, str)]
        if len(value.shape) != len(shape) or any(e not in (None, n) for n, e in fixed):
            raise CheckpointError(f"{path}: {name!r} has shape {value.shape}, expected {shape}")
        for n, e in zip(value.shape, shape):
            if isinstance(e, str):
                first, length = lengths.setdefault(e, (name, n))
                if n != length:
                    raise CheckpointError(f"{path}: length {e} is {length} in {first!r} but {n} in {name!r}")


class Config:
    """Base of the dataclass configs; ``to_dict`` writes tuples as lists.

    Every ``__post_init__`` calls ``check_integers``, which refuses a bool
    or a non-integer in an integer field, and ``check_finite``, which
    refuses NaN and infinite floats.
    """

    def check_integers(self, error) -> None:
        """Raise ``error`` unless every field annotated ``int``, and every
        entry of one annotated ``tuple[int, ...]``, is an int or a numpy
        integer and not a bool; store them as Python ints, a tuple as a tuple.

        Annotations are read as written (the config modules postpone their
        evaluation), and an integer tuple may be None when its annotation allows it.
        """
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                setattr(self, f.name, integer(value, f.name, error))
            elif f.type.startswith("tuple[int") and not (value is None and f.type.endswith("| None")):
                if not isinstance(value, (tuple, list)):
                    raise error(f"{f.name} must be a tuple of integers, got {value!r}")
                setattr(self, f.name, tuple(integer(v, f.name, error) for v in value))

    def check_finite(self, error) -> None:
        """Raise ``error`` unless every float field, tuple entries included, is finite."""
        for name, value in dataclasses.asdict(self).items():
            entries = value if isinstance(value, (tuple, list)) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                raise error(f"{name} must be finite, got {value!r}")

    def to_dict(self) -> dict:
        return {name: list(v) if isinstance(v, tuple) else v for name, v in dataclasses.asdict(self).items()}


def integer(value, name: str, error) -> int:
    """``value`` as an int; raises ``error`` for a bool or a non-integer."""
    # bool is a subclass of int; numpy integers are not
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} takes integers only, got {value!r}")
    return int(value)


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
