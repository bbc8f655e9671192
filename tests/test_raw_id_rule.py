"""One raw-ID rule on every lookup path, and one dedupe.

* A value that is not an integer inside int64 raises ConfigurationError
  in every lookup's ``rows`` and ``rows_batch``, and as a Semantic ID
  table key given that error; an ``np.int64`` ID maps like the ``int``
  of the same value.
* ``checkpoint.sorted_distinct`` equals ``np.unique``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import semid_table
from semidlab.checkpoint import sorted_distinct
from semidlab.tokenization import (
    ConfigurationError,
    IndividualEmbedding,
    RandomHash,
    SemanticIdLookup,
    TokenParameterization,
)

PREFIX3 = TokenParameterization("prefix_ngram", 4, 3)
LOOKUPS = {
    "random_hash": lambda: RandomHash(100, seed=1),
    "individual": lambda: IndividualEmbedding([1, 2, 3]),
    "semantic_id": lambda: SemanticIdLookup(semid_table({1: (0, 1, 2), 2: (3, 3, 3)}), PREFIX3, 30),
}
NOT_AN_ID = [1.9, True, np.float64(1.0), "7", 2**63]
NOT_AN_ID_NAMES = ["fraction", "bool", "numpy-float", "string", "2**63"]


@pytest.mark.parametrize("raw_id", NOT_AN_ID, ids=NOT_AN_ID_NAMES)
@pytest.mark.parametrize("kind", sorted(LOOKUPS))
def test_rows_refuses_a_value_that_is_not_an_int64(kind, raw_id):
    with pytest.raises(ConfigurationError, match="int64"):
        LOOKUPS[kind]().rows(raw_id)


@pytest.mark.parametrize("raw_id", NOT_AN_ID, ids=NOT_AN_ID_NAMES)
@pytest.mark.parametrize("kind", sorted(LOOKUPS))
def test_rows_batch_refuses_a_value_that_is_not_an_int64(kind, raw_id):
    with pytest.raises(ConfigurationError, match="int64"):
        LOOKUPS[kind]().rows_batch([raw_id])


@pytest.mark.parametrize("kind", sorted(LOOKUPS))
def test_numpy_int64_ids_map_like_ints(kind):
    lookup = LOOKUPS[kind]()
    ids = [1, 2, 3, -5, 2**63 - 1]
    for raw_id in ids:
        assert lookup.rows(np.int64(raw_id)) == lookup.rows(raw_id)
    assert lookup.rows_batch(np.array(ids, dtype=np.int64)).tolist() == lookup.rows_batch(ids).tolist()


@pytest.mark.parametrize("kind", sorted(LOOKUPS))
def test_fraction_beside_integer_ids_is_refused_not_truncated(kind):
    with pytest.raises(ConfigurationError, match="int64"):
        LOOKUPS[kind]().rows_batch([1, 1.9])


@pytest.mark.parametrize("table", [{1.5: (0, 1, 2)}, {1.5: (0, 1, 2), 2: (3, 3, 3)}])
def test_table_keyed_by_a_fraction_raises_at_construction(table):
    with pytest.raises(ConfigurationError, match="int64"):
        SemanticIdLookup(semid_table(table, ConfigurationError), PREFIX3, 30)


INT64_EXTREMES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(INT64_EXTREMES), st.integers(-5, 5), st.integers(-(2**63), 2**63 - 1))))
def test_sorted_distinct_matches_np_unique(values):
    array = np.array(values, dtype=np.int64)
    got = sorted_distinct(array)
    assert got.dtype == np.int64
    assert got.tolist() == np.unique(array).tolist()
