"""Mappings from identifiers to embedding-table row indices.

Three families: individual embeddings (one row per raw ID), random
hashing (seeded integer mix modulo the table size), and Semantic ID
lookups that expand an item's hierarchical codes into one or more rows
via a token parameterization.

Every lookup maps one ID to a list of rows with ``rows`` and a sequence
of N IDs to an N-by-G integer array with ``rows_batch``, where G is the
lookup's ``output_count``; both give the same rows for the same ID.

Raw IDs and codes are int64 values, and pre-hash indices stay below
2^62: a raw ID outside int64, in ``rows``, in ``rows_batch`` or as a
table or vocabulary key, and a parameterization whose index space
K^(L+1) reaches 2^62 raise ConfigurationError. So each mapping has one
array implementation. Its array entry points (``parameterize_batch``,
the ``RandomHash`` and ``IndividualEmbedding`` ``rows_batch``, the
vocabulary) raise it for a non-integer such as 1.5 or "7" too.
``RandomHash.rows`` and ``SemanticIdLookup.rows`` keep a per-ID path (a
scalar hash, a dict lookup, a scalar int64 check) because a single ID
through numpy costs several times more, and callers that map one ID at
a time, such as the corpus tokenizer benchmark, would pay that per ID.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .checkpoint import int64_array

log = logging.getLogger(__name__)

VARIANTS = ("trigram", "fourgram", "all_bigrams", "prefix_ngram")


class ConfigurationError(ValueError):
    """Parameterization and code length are incompatible."""


@dataclass(frozen=True)
class TokenParameterization:
    """Rule turning a code sequence into pre-hash table indices.

    ``codebook_size`` is the number of distinct values per code position;
    ``prefix_depth`` only applies to the prefix-ngram variant.
    """

    variant: str
    codebook_size: int
    prefix_depth: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown parameterization variant {self.variant!r}")
        if self.codebook_size < 2:
            raise ConfigurationError("codebook_size must be at least 2")
        if self.variant == "prefix_ngram" and self.prefix_depth < 1:
            raise ConfigurationError("prefix_ngram needs prefix_depth >= 1")

    def output_count(self, levels: int) -> int:
        """Number of indices emitted for a length-``levels`` code."""
        if self.variant == "trigram":
            if levels < 3:
                raise ConfigurationError(f"trigram needs at least 3 code levels, got {levels}")
            return 1
        if self.variant == "fourgram":
            if levels < 4:
                raise ConfigurationError(f"fourgram needs at least 4 code levels, got {levels}")
            return 1
        if self.variant == "all_bigrams":
            if levels < 2:
                raise ConfigurationError(f"all_bigrams needs at least 2 code levels, got {levels}")
            return levels - 1
        if self.prefix_depth > levels:
            raise ConfigurationError(
                f"prefix_ngram depth {self.prefix_depth} exceeds code length {levels}"
            )
        return self.prefix_depth


def _check_int64(value: int, what: str) -> None:
    if not -(2**63) <= value < 2**63:
        raise ConfigurationError(f"{what} {value} outside int64")


def parameterize(codes, p: TokenParameterization) -> list[int]:
    """Expand one code sequence into pre-hash indices.

    Prefix-ngram emits one index per prefix depth 1..n; each depth-i
    index enumerates all K^i possible prefixes of that depth, offset past
    the shallower depths, so deeper prefixes never collide with shallower
    ones before table fitting.
    """
    return parameterize_batch([codes], p)[0].tolist()


def parameterize_batch(codes, p: TokenParameterization) -> np.ndarray:
    """``parameterize`` over each row of an N-by-L code matrix.

    Returns an N-by-G int64 array. Every pre-hash index lies below
    K^(L+1); an index space that reaches 2^62 raises ConfigurationError,
    which keeps the indices and their partial sums inside int64.
    """
    codes = int64_array(codes, "codes", ConfigurationError)
    if codes.ndim != 2:
        raise ConfigurationError(f"expected an N-by-L code matrix, got shape {codes.shape}")
    k = p.codebook_size
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise ConfigurationError(f"code outside [0, {k})")
    g = p.output_count(codes.shape[1])
    if k ** (codes.shape[1] + 1) >= 2**62:
        raise ConfigurationError(
            f"index space {k}^{codes.shape[1] + 1} reaches 2^62; pre-hash indices must stay inside int64"
        )
    if p.variant == "trigram":
        return (k * k * codes[:, 0] + k * codes[:, 1] + codes[:, 2])[:, None]
    if p.variant == "fourgram":
        return (k**3 * codes[:, 0] + k * k * codes[:, 1] + k * codes[:, 2] + codes[:, 3])[:, None]
    if p.variant == "all_bigrams":
        pos = np.arange(g, dtype=np.int64)
        return k * k * pos + k * codes[:, :-1] + codes[:, 1:]
    out = np.empty((codes.shape[0], g), dtype=np.int64)
    acc = np.zeros(codes.shape[0], dtype=np.int64)
    for depth in range(g):
        # sum_t k^(depth-t) * (codes[t] + 1) by Horner's rule
        acc = acc * k + codes[:, depth] + 1
        out[:, depth] = acc - 1
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


class RandomHash:
    """Seeded well-mixing hash of raw IDs into [0, H).

    The seed is mixed once and xored into every key, so the map is a
    fixed pure function for a given (seed, H) across processes.
    """

    kind = "random_hash"

    def __init__(self, table_size: int, seed: int = 0):
        if table_size < 1:
            raise ConfigurationError("table size must be positive")
        self.table_size = int(table_size)
        self.seed_mix = _splitmix64(int(seed) & _MASK64)
        self.output_count = 1

    def rows(self, raw_id: int) -> list[int]:
        raw_id = int(raw_id)
        _check_int64(raw_id, "raw id")
        return [_splitmix64((raw_id & _MASK64) ^ self.seed_mix) % self.table_size]

    def rows_batch(self, raw_ids) -> np.ndarray:
        # the uint64 view of an int64 ID is its value modulo 2^64, as in ``rows``
        x = int64_array(raw_ids, "raw ids", ConfigurationError).view(np.uint64)
        x = _splitmix64_array(x ^ np.uint64(self.seed_mix))
        return (x % np.uint64(self.table_size)).astype(np.int64)[:, None]


class IndividualEmbedding:
    """One dedicated row per raw ID seen in training.

    IDs outside the training vocabulary map to a single reserved row at
    the end of the table, which never receives gradient during training.
    """

    kind = "individual"

    def __init__(self, vocabulary):
        # sort and drop repeats; ``np.unique`` would import numpy.ma
        # (about 1.7 MB resident) on first use
        ids = np.sort(int64_array(list(vocabulary), "vocabulary ids", ConfigurationError))
        first = np.ones(ids.size, dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        self._ids = ids[first]
        self.unseen_row = self._ids.size
        self.table_size = self._ids.size + 1
        self.output_count = 1

    def rows(self, raw_id: int) -> list[int]:
        return self.rows_batch([raw_id])[0].tolist()

    def rows_batch(self, raw_ids) -> np.ndarray:
        """Rows found by binary search in the sorted vocabulary."""
        ids = int64_array(raw_ids, "raw ids", ConfigurationError)
        pos = np.searchsorted(self._ids, ids)
        found = pos < self._ids.size
        found[found] = self._ids[pos[found]] == ids[found]
        return np.where(found, pos, self.unseen_row)[:, None]


class SemanticIdLookup:
    """Semantic ID lookup: assignment table, then parameterize, then fit.

    The constructor expands every code once into an (N+1)-by-G row
    array: row i holds the rows of the table's i-th ID, and the last row
    those of the all-zeros fallback code. ``rows`` and ``rows_batch``
    read from it through one ID-to-position dict. A key outside int64, a
    code outside [0, K) or an index space K^(L+1) at or past 2^62 raises
    ConfigurationError here, not at the first lookup.

    Items missing from the assignment table fall back to the all-zeros
    code with a logged warning; the simulator assigns codes at item
    birth, so hitting the fallback indicates a misconfigured run.
    """

    kind = "semantic_id"

    def __init__(self, id_table, parameterization: TokenParameterization, table_size: int):
        if not id_table:
            raise ConfigurationError("empty Semantic ID table")
        lengths = {len(c) for c in id_table.values()}
        if len(lengths) != 1:
            raise ConfigurationError(f"inconsistent code lengths in table: {sorted(lengths)}")
        self.levels = lengths.pop()
        self.parameterization = parameterization
        self.output_count = parameterization.output_count(self.levels)
        self.table_size = int(table_size)
        # min and max check the keys without copying them into new int
        # objects, which the dict would keep alive beside the table's own
        self._position = dict(zip(map(int, id_table), range(len(id_table))))
        _check_int64(min(self._position), "Semantic ID table key")
        _check_int64(max(self._position), "Semantic ID table key")
        self._fallback = len(id_table)
        pre = parameterize_batch([*id_table.values(), (0,) * self.levels], parameterization)
        self._rows = fit_to_table_batch(pre, self.table_size)

    def _index(self, raw_id) -> int:
        raw_id = int(raw_id)
        pos = self._position.get(raw_id)
        if pos is None:
            _check_int64(raw_id, "raw id")
            log.warning("raw id %d missing from Semantic ID table; using all-zeros code", raw_id)
            return self._fallback
        return pos

    def rows(self, raw_id: int) -> list[int]:
        return self._rows[self._index(raw_id)].tolist()

    def rows_batch(self, raw_ids) -> np.ndarray:
        return self._rows[np.array([self._index(i) for i in raw_ids], dtype=np.intp)]
