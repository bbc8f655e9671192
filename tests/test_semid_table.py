"""``checkpoint.SemanticIdTable``: the one Semantic ID table form from
``rqvae.assign`` and ``rqvae.load_semid_table`` to every reader.

* It reads as the ``{raw_id: codes}`` dict it holds: stored order,
  tuples of ints, dict equality in both directions.
* Its arrays are read-only and a repeated ID is refused.
* Lookups over one table share its indexes; ``rows_batch`` gives the
  scalar ``rows``, fallback and warnings included; ``positions`` of an
  array equal to the table's own IDs skips the binary search.
* The readers give the same bytes for a table and for the same IDs and
  codes in another stored order, and none of them walks the table as a
  mapping.
"""

import logging

import numpy as np
import pytest

from oracles import semid_table
from semidlab.analysis import click_loss_analog, distribution_exports
from semidlab.checkpoint import SemanticIdTable, load_checkpoint
from semidlab.corpus import CorpusConfig, generate_items, generate_stream, generate_users
from semidlab.ranker import RankerConfig, RankerModel
from semidlab.rqvae import RqVaeConfig, RqVaeConfigError, RqVaeModel, assign, load_semid_table, save_semid_table
from semidlab.tokenization import VARIANTS, RandomHash, SemanticIdLookup, TokenParameterization

SOURCE = {97: (1, 2, 3), -5: (0, 0, 0), 2**63 - 1: (7, 1, 4), 12: (7, 1, 5)}


def test_round_trip_keeps_every_id_and_code_as_ints(tmp_path):
    save_semid_table(tmp_path / "semid.bin", semid_table(SOURCE), {})
    assert load_checkpoint(tmp_path / "semid.bin")[0]["codes"].dtype == np.uint8
    loaded, _ = load_semid_table(tmp_path / "semid.bin")
    assert isinstance(loaded, SemanticIdTable)
    assert loaded == SOURCE and SOURCE == loaded
    assert not loaded != SOURCE
    assert list(loaded) == sorted(SOURCE)
    assert dict(loaded) == SOURCE
    assert all(type(i) is int and all(type(c) is int for c in loaded[i]) for i in loaded)
    # a table in insertion order equals one in ascending order
    assert semid_table(SOURCE) == loaded


@pytest.mark.parametrize("changed", [{12: (7, 1, 6)}, {13: (7, 1, 5)}, {12: [7, 1, 5]}])
def test_a_changed_entry_makes_tables_unequal(changed):
    other = {**{k: v for k, v in SOURCE.items() if k != 12}, **changed}
    table = semid_table(SOURCE)
    assert table != other and other != table
    if all(isinstance(v, tuple) for v in other.values()):
        assert table != semid_table(other)


def test_tables_of_different_lengths_are_unequal():
    table = semid_table(SOURCE)
    shorter = dict(list(SOURCE.items())[:-1])
    assert table != shorter and table != semid_table(shorter)
    assert SemanticIdTable([], np.empty((0, 3))) == {} == semid_table({})
    assert table != [] and table != list(SOURCE)


def test_arrays_are_read_only():
    table = semid_table(SOURCE)
    for array in (table.raw_ids, table.codes, table.order):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert table.raw_ids.dtype == table.codes.dtype == np.int64


@pytest.mark.parametrize("raw_ids,codes,match", [
    ([3, 1, 3], [[0], [1], [2]], "repeats raw ID 3"),
    ([1, 2], [[0], [1], [2]], "expected"),
    ([1, 2], [0, 1], "expected"),
    ([1.5], [[0]], "int64"),
    ([1], [[0.5]], "int64"),
    ([1, 2], [[0, 1], [2]], "codes differ in length"),
])
def test_malformed_arrays_raise_the_callers_error(raw_ids, codes, match):
    with pytest.raises(RqVaeConfigError, match=match):
        SemanticIdTable(raw_ids, codes, RqVaeConfigError)


def _frozen_model():
    model = RqVaeModel.initialize(RqVaeConfig(levels=3, codebook_size=4, input_dim=5, latent_dim=3, seed=21))
    model.frozen = True
    return model


def test_positions_of_the_tables_own_ids_skip_the_search(monkeypatch):
    table = semid_table(SOURCE)
    n = len(table)

    def by_dict(ids):
        return [table.position.get(i, n) for i in ids.tolist()]

    searches = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: searches.append(1) or search(*a, **k))
    own = table.raw_ids.copy()
    assert table.positions(own).tolist() == by_dict(own) == list(range(n))
    assert not searches
    # permuted, partial, longer, one ID changed, and another shape: searched
    changed = own.copy()
    changed[1] = 5
    for k, ids in enumerate([own[::-1], own[:2], np.append(own, 5), changed, own.reshape(2, 2)]):
        assert table.positions(ids).tolist() == np.reshape(by_dict(ids.ravel()), ids.shape).tolist()
        assert len(searches) == k + 1
    assert semid_table({}).positions(np.zeros(0, dtype=np.int64)).tolist() == []


def test_assign_keeps_item_order():
    order = [42, -3, 2**62, 7, 0]
    items = {i: np.random.default_rng(abs(i) % 97).normal(size=5) for i in order}
    table, errors = assign(_frozen_model(), items)
    assert isinstance(table, SemanticIdTable) and errors == {}
    assert list(table) == order and table.raw_ids.tolist() == order
    assert table.codes.shape == (5, 3)


def test_assign_of_only_malformed_items_is_an_empty_table():
    table, errors = assign(_frozen_model(), {1: np.full(5, np.nan), 2: np.zeros(3)})
    assert isinstance(table, SemanticIdTable) and len(table) == 0 and table == {}
    assert list(errors) == [1, 2]


def test_assign_refuses_two_items_that_read_as_one_id():
    with pytest.raises(RqVaeConfigError, match="repeats raw ID 1"):
        assign(_frozen_model(), {1: np.zeros(5), 1.5: np.ones(5)})


def test_lookups_over_one_table_share_its_indexes():
    table = semid_table({i: (i % 4, i // 4 % 4, i // 16 % 4) for i in range(64)})
    a = SemanticIdLookup(table, TokenParameterization("prefix_ngram", 4, 3), 30)
    b = SemanticIdLookup(table, TokenParameterization("trigram", 4), 64)
    assert a.table is b.table is table
    assert a._position is b._position is table.position


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_batch_equals_rows_with_one_warning_per_missing_id(variant, caplog):
    table = semid_table({i * 3: (i % 4, i // 4 % 4, i // 16 % 4, 1) for i in range(40)})
    lookup = SemanticIdLookup(table, TokenParameterization(variant, 4, 2), 50)
    # present, missing (between, below and above the table's IDs) and repeated
    ids = [0, 3, 1, 3, -7, 1, 200, 117, 0]
    with caplog.at_level(logging.WARNING, logger="semidlab.tokenization"):
        batch = lookup.rows_batch(ids)
    assert [r.args for r in caplog.records] == [(1,), (-7,), (1,), (200,)]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="semidlab.tokenization"):
        assert batch.tolist() == [lookup.rows(i) for i in ids]
    assert len(caplog.records) == 4
    assert batch[2].tolist() == batch[4].tolist() == batch[6].tolist()


def _click_setup(seed=7):
    cfg = CorpusConfig(n_items=1200, embedding_dim=8, n_users=50, n_train_events=1500,
                       n_eval_events=400, history_capacity=4, seed=seed)
    items = generate_items(cfg)
    users = generate_users(cfg)
    stream = generate_stream(items, users, cfg)
    # a partial table in shuffled order, so both ID indexes matter
    rng = np.random.default_rng(seed)
    keep = np.flatnonzero(rng.random(len(items.raw_ids)) < 0.7)
    rng.shuffle(keep)
    semid = SemanticIdTable(items.raw_ids[keep], np.stack([items.top, items.mid % 4, items.leaf % 4], axis=1)[keep])
    model = RankerModel.initialize(
        RankerConfig(d_m=4, history_length=4, top_mlp=(8,), seed=seed), RandomHash(64, seed=1), RandomHash(64, seed=2)
    )
    return cfg, items, users, stream, semid, model


def _readers(table, setup):
    """Every table reader's output for ``table``, as bytes or plain values."""
    cfg, items, users, stream, _, model = setup
    clicks = click_loss_analog(
        model, items, users, table, stream.eval[-20:], (1, 2, 3),
        temperature=cfg.temperature, bias=cfg.ctr_bias, set_size=4, pool_size=60, seed=7,
    )
    exports = distribution_exports(items, stream.train, table)
    flat = {k: v for k, v in exports.items() if not isinstance(v, tuple)}
    flat.update({f"{k}.{i}": a for k, v in exports.items() if isinstance(v, tuple) for i, a in enumerate(v)})
    # every item, the ones the table lacks included; their warnings are muted
    logging.disable(logging.WARNING)
    try:
        rows = [
            SemanticIdLookup(table, TokenParameterization(v, 64, 2), 3 * 64**2).rows_batch(items.raw_ids).tobytes()
            for v in ("trigram", "all_bigrams", "prefix_ngram")
        ]
    finally:
        logging.disable(logging.NOTSET)
    # repr tells -0.0 from 0.0, as == does not
    return repr(clicks), {k: np.asarray(v).tobytes() for k, v in flat.items()}, rows


def test_readers_ignore_the_stored_order(tmp_path):
    setup = _click_setup()
    table = setup[4]
    # the same IDs and codes in ascending ID order, as a loaded file holds them
    twin = SemanticIdTable(table.raw_ids[table.order], table.codes[table.order])
    assert twin == table and not np.array_equal(twin.raw_ids, table.raw_ids)
    got = _readers(table, setup)
    assert got == _readers(twin, setup)
    assert "'n_swaps': 0" not in got[0]
    save_semid_table(tmp_path / "table.bin", table, {})
    save_semid_table(tmp_path / "twin.bin", twin, {})
    assert (tmp_path / "table.bin").read_bytes() == (tmp_path / "twin.bin").read_bytes()


class NoConversions(SemanticIdTable):
    """A table that refuses to be walked as a mapping."""

    def items(self):
        raise AssertionError("items() walks the table")

    def values(self):
        raise AssertionError("values() walks the table")

    def __iter__(self):
        raise AssertionError("iter() walks the table")


def test_readers_take_a_tables_arrays_without_walking_it(tmp_path):
    setup = _click_setup()
    plain = setup[4]
    table = NoConversions(plain.raw_ids, plain.codes)
    clicks, exports, rows = _readers(table, setup)
    save_semid_table(tmp_path / "semid.bin", table, {})
    assert load_semid_table(tmp_path / "semid.bin")[0] == plain
    assert (clicks, exports, rows) == _readers(plain, setup)
