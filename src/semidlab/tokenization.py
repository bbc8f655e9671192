"""Mappings from identifiers to embedding-table row indices.

Three families: individual embeddings (one row per raw ID), random
hashing (seeded integer mix modulo the table size), and Semantic ID
lookups that expand an item's hierarchical codes into one or more rows
via a token parameterization.

Every token parameterization follows one window rule. An index reads a
window of an item's codes (first code, code count) as a base-K number by
Horner's rule and adds the window's block offset:

* trigram and fourgram: one window, (0, 3, 0) or (0, 4, 0);
* all-bigrams: (t, 2, t*K^2) for t = 0..L-2;
* prefix-ngram: (0, d, (K^d - K)/(K - 1)) for d = 1..D, so each depth
  owns the K^d indices past the shallower depths.

Every lookup maps one ID to a list of rows with ``rows`` and a flat
sequence of N IDs to an N-by-G integer array with ``rows_batch``, where
G is the lookup's ``output_count``; both give the same rows for the same
ID. A 0-d or a nested ``rows_batch`` input raises ConfigurationError.

Raw IDs and codes are int64 values, and pre-hash indices stay below
2^62. ``checkpoint.int64_array``'s rule decides what a raw ID is on
every path: a value that is not an integer inside int64 (1.9, True,
np.float64(1.0), "7", 2^63) in ``rows``, ``rows_batch`` or a vocabulary
key raises ConfigurationError rather than taking another ID's rows, as
does an index space K^(L+1) that reaches 2^62; a Semantic ID table
refuses one as a key when it is built. A codebook
size, prefix depth, table size or hash seed that is a bool or not an
integer raises it too (``checkpoint.integer``), and both hashed lookups
hold their table size to one range, [1, 2^63), the values
``int64_array`` takes, so their scalar and array paths agree. Each
mapping has one array implementation; ``RandomHash.rows`` and
``SemanticIdLookup.rows`` keep a per-ID path (a scalar hash, a dict
lookup, numpy only for an ID that is not an exact ``int``) because one
ID through numpy costs several times more, and callers that map one ID
at a time, such as the corpus tokenizer benchmark, would pay it per ID.

A Semantic ID lookup reads a ``checkpoint.SemanticIdTable`` and keeps
no copy of its IDs or codes: ``rows`` finds an ID through the table's ID
-> position dict, and ``rows_batch`` finds a batch by one
``searchsorted`` over the table's ascending ID order. Lookups built over
one table share both indexes, whatever their parameterization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .checkpoint import int64_array, integer, sorted_distinct

log = logging.getLogger(__name__)
_MISSING = "raw id %d missing from Semantic ID table; using all-zeros code"

VARIANTS = ("trigram", "fourgram", "all_bigrams", "prefix_ngram")


class ConfigurationError(ValueError):
    """Parameterization and code length are incompatible."""


@dataclass(frozen=True)
class TokenParameterization:
    """Rule turning a code sequence into pre-hash table indices.

    ``codebook_size`` is the number of distinct values per code position;
    ``prefix_depth`` only applies to the prefix-ngram variant. Both are
    stored as ints; a bool or a non-integer raises ConfigurationError.
    """

    variant: str
    codebook_size: int
    prefix_depth: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown parameterization variant {self.variant!r}")
        for name in ("codebook_size", "prefix_depth"):
            object.__setattr__(self, name, integer(getattr(self, name), name, ConfigurationError))
        if self.codebook_size < 2:
            raise ConfigurationError("codebook_size must be at least 2")
        if self.variant == "prefix_ngram" and self.prefix_depth < 1:
            raise ConfigurationError("prefix_ngram needs prefix_depth >= 1")

    def _windows(self, levels: int) -> list[tuple[int, int, int]]:
        """(first code, code count, offset) of each index for a length-``levels`` code."""
        k = self.codebook_size
        if self.variant == "prefix_ngram":
            if self.prefix_depth > levels:
                raise ConfigurationError(
                    f"prefix_ngram depth {self.prefix_depth} exceeds code length {levels}"
                )
            return [(0, d, (k**d - k) // (k - 1)) for d in range(1, self.prefix_depth + 1)]
        width = {"trigram": 3, "fourgram": 4, "all_bigrams": 2}[self.variant]
        if levels < width:
            raise ConfigurationError(f"{self.variant} needs at least {width} code levels, got {levels}")
        if self.variant == "all_bigrams":
            return [(t, 2, t * k * k) for t in range(levels - 1)]
        return [(0, width, 0)]

    def output_count(self, levels: int) -> int:
        """Number of indices emitted for a length-``levels`` code."""
        return len(self._windows(levels))


def _raw_id(raw_id) -> int:
    """One raw ID as an int under ``int64_array``'s rule; an exact int skips numpy."""
    if type(raw_id) is int and -(2**63) <= raw_id < 2**63:
        return raw_id
    return int(int64_array(raw_id, "raw id", ConfigurationError))


def _raw_ids(raw_ids) -> np.ndarray:
    """A flat sequence of raw IDs as an int64 array under ``int64_array``'s rule."""
    ids = int64_array(raw_ids, "raw ids", ConfigurationError)
    if ids.ndim != 1:
        raise ConfigurationError(f"raw ids must be a flat sequence, got shape {ids.shape}")
    return ids


def parameterize(codes, p: TokenParameterization) -> list[int]:
    """Expand one code sequence into pre-hash indices, one per window."""
    return parameterize_batch([codes], p)[0].tolist()


def parameterize_batch(codes, p: TokenParameterization) -> np.ndarray:
    """``parameterize`` over each row of an N-by-L code matrix.

    Returns an N-by-G int64 array whose column g reads window g. Every
    pre-hash index lies below K^(L+1); an index space that reaches 2^62
    raises ConfigurationError, which keeps the indices and their partial
    sums inside int64.
    """
    codes = int64_array(codes, "codes", ConfigurationError)
    if codes.ndim != 2:
        raise ConfigurationError(f"expected an N-by-L code matrix, got shape {codes.shape}")
    k = p.codebook_size
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise ConfigurationError(f"code outside [0, {k})")
    windows = p._windows(codes.shape[1])
    if k ** (codes.shape[1] + 1) >= 2**62:
        raise ConfigurationError(
            f"index space {k}^{codes.shape[1] + 1} reaches 2^62; pre-hash indices must stay inside int64"
        )
    out = np.empty((codes.shape[0], len(windows)), dtype=np.int64)
    for g, (first, count, offset) in enumerate(windows):
        acc = codes[:, first]
        for t in range(first + 1, first + count):
            acc = acc * k + codes[:, t]  # Horner's rule
        out[:, g] = acc + offset
    return out


def fit_to_table_batch(indices, table_size: int) -> np.ndarray:
    """Fold an N-by-G pre-hash index array into table rows without
    cross-position collisions.

    Position g (0-based) owns the disjoint row block
    [g*floor(H/G), (g+1)*floor(H/G)) and folds its index into that block
    by modulo, so two different positions can never share a row.
    """
    indices = np.asarray(indices, dtype=np.int64)
    output_count = indices.shape[1]
    if table_size < output_count:
        raise ConfigurationError(f"table size {table_size} smaller than position count {output_count}")
    block = table_size // output_count
    return np.arange(output_count, dtype=np.int64) * block + indices % block


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """Finalizer of the splitmix64 generator; a bijection on 64-bit ints."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``_splitmix64`` over a uint64 array; uint64 arithmetic wraps mod 2^64."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _table_size(value) -> int:
    """A hashed lookup's table size as an int; raises ConfigurationError
    unless it is an integer in [1, 2^63)."""
    size = integer(value, "table size", ConfigurationError)
    if not 1 <= size < 2**63:
        raise ConfigurationError(f"table size must lie in [1, 2^63), got {size}")
    return size


class RandomHash:
    """Seeded well-mixing hash of raw IDs into [0, H).

    The seed is mixed once and xored into every key, so the map is a
    fixed pure function for a given (seed, H) across processes.
    """

    kind = "random_hash"

    def __init__(self, table_size: int, seed: int = 0):
        self.table_size = _table_size(table_size)
        self.seed_mix = _splitmix64(integer(seed, "hash seed", ConfigurationError) & _MASK64)
        self.output_count = 1

    def rows(self, raw_id: int) -> list[int]:
        return [_splitmix64((_raw_id(raw_id) & _MASK64) ^ self.seed_mix) % self.table_size]

    def rows_batch(self, raw_ids) -> np.ndarray:
        # the uint64 view of an int64 ID is its value modulo 2^64, as in ``rows``
        x = _raw_ids(raw_ids).view(np.uint64)
        x = _splitmix64_array(x ^ np.uint64(self.seed_mix))
        return (x % np.uint64(self.table_size)).astype(np.int64)[:, None]


class IndividualEmbedding:
    """One dedicated row per raw ID seen in training.

    IDs outside the training vocabulary map to a single reserved row at
    the end of the table, which never receives gradient during training.
    """

    kind = "individual"

    def __init__(self, vocabulary):
        self._ids = sorted_distinct(int64_array(list(vocabulary), "vocabulary ids", ConfigurationError))
        self.unseen_row = self._ids.size
        self.table_size = self._ids.size + 1
        self.output_count = 1

    def rows(self, raw_id: int) -> list[int]:
        return self.rows_batch([raw_id])[0].tolist()

    def rows_batch(self, raw_ids) -> np.ndarray:
        """Rows found by binary search in the sorted vocabulary."""
        ids = _raw_ids(raw_ids)
        pos = np.searchsorted(self._ids, ids)
        found = pos < self._ids.size
        found[found] = self._ids[pos[found]] == ids[found]
        return np.where(found, pos, self.unseen_row)[:, None]


class SemanticIdLookup:
    """Semantic ID lookup: assignment table, then parameterize, then fit.

    ``id_table`` is a ``checkpoint.SemanticIdTable``. The constructor
    expands every code once into an (N+1)-by-G row array: row i holds
    the rows of the table's i-th ID, and the last row those of the
    all-zeros fallback code. ``rows`` and ``rows_batch`` find an ID's row
    through the table's shared indexes. An empty table, a code outside
    [0, K) or an index space K^(L+1) at or past 2^62 raises
    ConfigurationError here, not at the first lookup.

    Items missing from the assignment table fall back to the all-zeros
    code with a logged warning; the simulator assigns codes at item
    birth, so hitting the fallback indicates a misconfigured run.
    """

    kind = "semantic_id"

    def __init__(self, id_table, parameterization: TokenParameterization, table_size: int):
        if not id_table:
            raise ConfigurationError("empty Semantic ID table")
        self.table = id_table
        codes = self.table.codes
        self.levels = codes.shape[1]
        self.parameterization = parameterization
        self.output_count = parameterization.output_count(self.levels)
        self.table_size = _table_size(table_size)
        self._position = self.table.position
        pre = parameterize_batch(np.vstack([codes, np.zeros(self.levels, dtype=np.int64)]), parameterization)
        self._rows = fit_to_table_batch(pre, self.table_size)

    def rows(self, raw_id: int) -> list[int]:
        raw_id = _raw_id(raw_id)
        pos = self._position.get(raw_id)
        if pos is None:
            log.warning(_MISSING, raw_id)
            pos = -1  # the fallback code's row
        return self._rows[pos].tolist()

    def rows_batch(self, raw_ids) -> np.ndarray:
        ids = _raw_ids(raw_ids)
        at = self.table.positions(ids)
        for raw_id in ids[at == len(self.table)].tolist():
            log.warning(_MISSING, raw_id)
        return self._rows[at]
