"""One raw-ID rule on every lookup path, one Semantic ID table check, and
one dedupe.

* A value that is not an integer inside int64 raises ConfigurationError
  in every lookup's ``rows`` and ``rows_batch``, and as a table key; an
  ``np.int64`` ID maps like the ``int`` of the same value.
* ``checkpoint.semid_table_arrays`` is the check of every table reader,
  so a ragged table gives one message under each reader's error type.
* ``checkpoint.sorted_distinct`` equals ``np.unique``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidlab.analysis import click_loss_analog
from semidlab.checkpoint import semid_table_arrays, sorted_distinct
from semidlab.rqvae import RqVaeConfigError, save_semid_table
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
    "semantic_id": lambda: SemanticIdLookup({1: (0, 1, 2), 2: (3, 3, 3)}, PREFIX3, 30),
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
        SemanticIdLookup(table, PREFIX3, 30)


def test_lookup_keeps_the_table_key_objects():
    table = {10**12 + i: (0, 1, 2) for i in range(3)}
    lookup = SemanticIdLookup(table, PREFIX3, 30)
    assert all(a is b for a, b in zip(lookup._position, table))


RAGGED = {1: (0, 1, 2), 2: (0, 1), 3: (3, 3, 3)}


def ragged_messages(tmp_path) -> dict:
    """The error each table reader raises for ``RAGGED``, by reader."""
    readers = {
        "save_semid_table": lambda: save_semid_table(tmp_path / "semid.bin", dict(RAGGED), {}),
        "SemanticIdLookup": lambda: SemanticIdLookup(dict(RAGGED), PREFIX3, 30),
        # the table is checked before the model, items or users are read
        "click_loss_analog": lambda: click_loss_analog(
            None, None, None, dict(RAGGED), [], (1,), temperature=1.0, bias=0.0
        ),
    }
    out = {}
    for name, read in readers.items():
        with pytest.raises(ValueError) as info:
            read()
        out[name] = info.value
    return out


def test_ragged_table_raises_one_message_under_each_readers_error(tmp_path):
    errors = ragged_messages(tmp_path)
    assert type(errors["save_semid_table"]) is RqVaeConfigError
    assert type(errors["SemanticIdLookup"]) is ConfigurationError
    assert type(errors["click_loss_analog"]) is ValueError
    messages = {str(e) for e in errors.values()}
    assert len(messages) == 1
    (message,) = messages
    assert "differ in length" in message and "code lengths" in message and "[2, 3]" in message
    assert not (tmp_path / "semid.bin").exists()


def test_semid_table_arrays_keep_the_table_order():
    raw_ids, codes = semid_table_arrays({5: (1, 2), -3: (3, 4), 9: (5, 6)}, ValueError)
    assert raw_ids.dtype == codes.dtype == np.int64
    assert raw_ids.tolist() == [5, -3, 9]
    assert codes.tolist() == [[1, 2], [3, 4], [5, 6]]
    raw_ids, codes = semid_table_arrays({}, ValueError)
    assert raw_ids.shape == (0,) and codes.shape == (0, 0)


INT64_EXTREMES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(INT64_EXTREMES), st.integers(-5, 5), st.integers(-(2**63), 2**63 - 1))))
def test_sorted_distinct_matches_np_unique(values):
    array = np.array(values, dtype=np.int64)
    got = sorted_distinct(array)
    assert got.dtype == np.int64
    assert got.tolist() == np.unique(array).tolist()
