"""Rules every module shares, each with one implementation.

* ``checkpoint.int64_array``: every writer and array lookup entry point
  refuses a value that is not an integer inside int64, with its own
  module's error, before a file is opened.
* ``checkpoint.Config``: one ``to_dict`` for the three configs, and
  ``config_from_meta`` rebuilds them through the constructor.
* ``corpus.inject_aa_pairs`` copies every ``ItemTable`` field.
"""

import dataclasses
import json

import numpy as np
import pytest

from semidlab.checkpoint import config_from_meta, int64_array
from semidlab.corpus import (
    DAY,
    CorpusConfig,
    CorpusConfigError,
    ImpressionEvent,
    ItemTable,
    generate_items,
    inject_aa_pairs,
    save_events,
    save_items,
)
from semidlab.ranker import RankerConfig
from semidlab.rqvae import RqVaeConfig, RqVaeConfigError, save_semid_table
from semidlab.runfiles import config_hash
from semidlab.tokenization import (
    ConfigurationError,
    IndividualEmbedding,
    RandomHash,
    TokenParameterization,
    parameterize_batch,
)

# ---------------------------------------------------------------------------
# int64_array and its callers

NOT_INT64 = [0.5, 2**63, -(2**63) - 1, "7"]
INT_ITEM_FIELDS = ["raw_ids", "top", "mid", "leaf", "birth", "death"]


def three_items(**fields) -> ItemTable:
    table = ItemTable(
        raw_ids=np.array([11, 12, 13], dtype=np.int64),
        embeddings=np.zeros((3, 2)),
        top=np.zeros(3, dtype=np.int64),
        mid=np.zeros(3, dtype=np.int64),
        leaf=np.zeros(3, dtype=np.int64),
        birth=np.array([0, 1, 2], dtype=np.int64),
        death=np.array([5, 6, 7], dtype=np.int64),
        weight=np.full(3, 1 / 3),
        bias=np.zeros(3),
    )
    return dataclasses.replace(table, **fields)


def item_field_writer(name):
    def write(path, value):
        save_items(path, three_items(**{name: [2, value, 3]}), {"seed": 1})
    return write


# caller -> (error type, call that puts ``value`` into the caller's input;
# a writer's call receives the path it must not create)
WRITERS = {
    **{f"save_items.{name}": (CorpusConfigError, item_field_writer(name)) for name in INT_ITEM_FIELDS},
    "save_events.field": (
        CorpusConfigError,
        lambda path, v: save_events(path, [ImpressionEvent(0, v, 3, 17, 1, ())], {"seed": 1}),
    ),
    "save_events.history": (
        CorpusConfigError,
        lambda path, v: save_events(path, [ImpressionEvent(0, 10, 3, 17, 1, ((17, v),))], {"seed": 1}),
    ),
    "save_semid_table.raw_id": (RqVaeConfigError, lambda path, v: save_semid_table(path, {v: (1, 2)}, {})),
    "save_semid_table.code": (RqVaeConfigError, lambda path, v: save_semid_table(path, {0: (1, v)}, {})),
}
LOOKUPS = {
    "parameterize_batch": lambda v: parameterize_batch([[0, 1, 2], [1, v, 0]], TokenParameterization("trigram", 4)),
    "RandomHash.rows_batch": lambda v: RandomHash(100, seed=1).rows_batch([1, v]),
    "IndividualEmbedding": lambda v: IndividualEmbedding([1, v]),
    "IndividualEmbedding.rows_batch": lambda v: IndividualEmbedding([1, 2]).rows_batch([1, v]),
}


@pytest.mark.parametrize("value", NOT_INT64, ids=["half", "2**63", "below-int64", "string"])
@pytest.mark.parametrize("caller", sorted(WRITERS) + sorted(LOOKUPS))
def test_every_caller_refuses_a_value_that_is_not_an_int64(tmp_path, caller, value):
    if caller in WRITERS:
        error, write = WRITERS[caller]
        path = tmp_path / "out.bin"
        with pytest.raises(error, match="int64"):
            write(path, value)
        assert not path.exists()
    else:
        with pytest.raises(ConfigurationError, match="int64"):
            LOOKUPS[caller](value)


def test_item_birth_that_is_not_an_integer_is_refused_not_truncated(tmp_path):
    path = tmp_path / "items.bin"
    with pytest.raises(CorpusConfigError, match="integers inside int64"):
        save_items(path, three_items(birth=np.array([0.5, 1.0, 2.7])), {"seed": 1})
    assert not path.exists()


def test_array_lookups_refuse_fractional_ids():
    with pytest.raises(ConfigurationError, match="integers inside int64"):
        RandomHash(100, seed=0).rows_batch([1.9])
    with pytest.raises(ConfigurationError, match="integers inside int64"):
        IndividualEmbedding([1.5, 2.5])
    with pytest.raises(ConfigurationError, match="integers inside int64"):
        IndividualEmbedding([1, 2]).rows_batch(np.array([1.0]))


@pytest.mark.parametrize("values, expected", [
    ([], []),
    ([-(2**63), 0, 2**63 - 1], [-(2**63), 0, 2**63 - 1]),
    (np.array([3, 4], dtype=np.int32), [3, 4]),
    (np.array([0, 2**63 - 1], dtype=np.uint64), [0, 2**63 - 1]),
    (np.array([7], dtype=np.uint8), [7]),
    ([[1, 2], [3, 4]], [[1, 2], [3, 4]]),
])
def test_int64_array_keeps_every_integer_inside_int64(values, expected):
    out = int64_array(values, "values", ValueError)
    assert out.dtype == np.int64
    assert out.tolist() == expected


def test_int64_array_returns_an_int64_array_uncopied():
    ids = np.arange(5, dtype=np.int64)
    assert int64_array(ids, "ids", ValueError) is ids


class OwnError(ValueError):
    pass


@pytest.mark.parametrize("values", [
    np.array([2**63], dtype=np.uint64), [True, False], [1.0], ["1"], [object()], [2**64],
])
def test_int64_array_raises_the_callers_error(values):
    with pytest.raises(OwnError, match="^ids must be integers inside int64"):
        int64_array(values, "ids", OwnError)


# ---------------------------------------------------------------------------
# one to_dict for every config

CONFIGS = [
    (
        CorpusConfig(branching=(2, 3, 5), level_scales=(2.0, 0.5, 0.25, 0.125), zipf_exponent=1.25, seed=7),
        {
            "n_items": 20000, "embedding_dim": 16, "branching": [2, 3, 5],
            "level_scales": [2.0, 0.5, 0.25, 0.125], "zipf_exponent": 1.25, "head_fraction": 0.001,
            "head_share_target": 0.25, "median_lifetime_days": 6.0, "horizon_days": 5.0,
            "initial_cohort_fraction": 0.5, "n_users": 2000, "history_capacity": 8, "temperature": 6.0,
            "ctr_bias": -2.5, "bias_scale": 1.5, "train_days": 4.0, "eval_hours": 6.0,
            "n_train_events": 100000, "n_eval_events": 10000, "seed": 7,
        },
    ),
    (
        RqVaeConfig(hidden_sizes=(12, 6), levels=4, seed=3),
        {
            "levels": 4, "codebook_size": 64, "input_dim": 16, "latent_dim": 8, "commitment_weight": 0.5,
            "hidden_sizes": [12, 6], "learning_rate": 0.002, "epochs": 20, "batch_size": 256,
            "optimizer": "adam", "kmeans_iters": 25, "seed": 3,
        },
    ),
    (
        RankerConfig(top_mlp=(16, 8, 4), aggregation="pma", seed=5),
        {
            "d_m": 16, "aggregation": "pma", "d_s": 32, "history_length": 8, "n_ts_buckets": 32,
            "top_mlp": [16, 8, 4], "learning_rate": 0.01, "batch_size": 32, "optimizer": "adam", "seed": 5,
        },
    ),
]
CONFIG_IDS = [type(cfg).__name__ for cfg, _ in CONFIGS]


@pytest.mark.parametrize("config, expected", CONFIGS, ids=CONFIG_IDS)
def test_to_dict_lists_every_field_in_order_with_tuples_as_lists(config, expected):
    d = config.to_dict()
    assert d == expected
    assert list(d) == [f.name for f in dataclasses.fields(config)]


@pytest.mark.parametrize("config_cls, digest", [
    (CorpusConfig, "92d9fbdad79fab1a"), (RqVaeConfig, "45a1bbac7a840acf"), (RankerConfig, "06c29ea9a4b3b8f2"),
])
def test_default_config_hash_is_pinned(config_cls, digest):
    assert config_hash(config_cls().to_dict()) == digest


@pytest.mark.parametrize("config, expected", CONFIGS, ids=CONFIG_IDS)
def test_config_from_meta_rebuilds_an_equal_config_with_tuples(config, expected):
    meta = json.loads(json.dumps({"config": config.to_dict()}))
    rebuilt = config_from_meta("ckpt", meta, "config", type(config))
    assert rebuilt == config
    for name, value in expected.items():
        if isinstance(value, list):
            assert getattr(rebuilt, name) == tuple(value)
            assert type(getattr(rebuilt, name)) is tuple, name


# ---------------------------------------------------------------------------
# A/A copies follow the ItemTable dataclass


def test_aa_copies_share_every_field_but_their_fresh_raw_ids():
    cfg = CorpusConfig(n_items=300, n_users=10, n_train_events=100, n_eval_events=10, seed=4)
    items = generate_items(cfg)
    extended, pairs = inject_aa_pairs(items, 40, (0, int(cfg.horizon_days * DAY)), seed=9)
    n = len(items)
    assert len(extended) == n + len(pairs) == n + 40
    position = {raw_id: i for i, raw_id in enumerate(extended.raw_ids.tolist())}
    originals = [position[o] for o, _ in pairs]
    copies = [position[c] for _, c in pairs]
    assert copies == list(range(n, n + len(pairs)))
    for f in dataclasses.fields(ItemTable):
        before, after = getattr(items, f.name), getattr(extended, f.name)
        assert after.dtype == before.dtype, f.name
        assert np.array_equal(after[:n], before), f.name
        if f.name != "raw_ids":
            assert np.array_equal(after[copies], before[originals]), f.name
    fresh = extended.raw_ids[n:]
    assert len(set(extended.raw_ids.tolist())) == len(extended)
    assert not set(fresh.tolist()) & set(items.raw_ids.tolist())
