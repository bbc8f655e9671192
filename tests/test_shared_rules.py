"""Rules every module shares, each with one implementation.

* ``checkpoint.int64_array``: every writer and array lookup entry point
  refuses a value that is not an integer inside int64, with its own
  module's error, before a file is opened; a bool among the ints of a
  list or tuple is refused too. A Semantic ID table applies it when it
  is built, under its caller's error, so no such table reaches a lookup
  or a writer. Every ``rows_batch`` takes a flat sequence of IDs only.
* ``checkpoint.Config``: one ``to_dict`` for the three configs, one rule
  for their integer fields, and ``config_from_meta`` rebuilds them
  through the constructor.
* ``checkpoint.integer``: the configs' rule for one integer also holds
  at the lookups' constructors (``TokenParameterization``'s codebook size
  and prefix depth, ``RandomHash``'s and ``SemanticIdLookup``'s table
  size, the hash seed) and so at ``ranker.build_lookup``'s spec: a bool
  or a non-integer raises ConfigurationError instead of being truncated.
  It holds too at ``ranker.train_one_epoch``'s NE window,
  ``corpus.inject_aa_pairs``' count and seed and
  ``analysis.click_loss_analog``'s seed, each with its module's error.
  Both hashed lookups, and so ``build_lookup``, take a table size in
  [1, 2^63) only, on which their scalar and array paths agree.
* ``corpus.inject_aa_pairs`` copies every ``ItemTable`` field.
* ``metrics.logistic``: the one overflow-free logistic, behind
  ``tensor.bce_with_logits``' gradient, ``ranker.forward_batch``'s
  probabilities and the label oracle ``corpus.ground_truth_ctr``.
* ``tensor.check_optimizer``: the configs and the optimizers refuse an
  unknown optimizer name and a learning rate that is not a finite
  number at least +0.0, each with its own error and the same message.
* ``TokenParameterization``'s window rule: every variant's indices are
  windows of the codes read as base-K numbers, each at its block offset.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from semidlab import tensor as T
from semidlab.analysis import click_loss_analog
from semidlab.checkpoint import SemanticIdTable, config_from_meta, int64_array
from semidlab.corpus import (
    DAY,
    CorpusConfig,
    CorpusConfigError,
    ImpressionEvent,
    ItemTable,
    generate_items,
    ground_truth_ctr,
    inject_aa_pairs,
    save_events,
    save_items,
)
from semidlab.metrics import logistic
from semidlab.ranker import (
    RankerConfig,
    RankerConfigError,
    RankerModel,
    build_lookup,
    forward_batch,
    train_one_epoch,
)
from semidlab.rqvae import RqVaeConfig, RqVaeConfigError, save_semid_table
from semidlab.runfiles import config_hash
from semidlab.tokenization import (
    ConfigurationError,
    IndividualEmbedding,
    RandomHash,
    SemanticIdLookup,
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
    # the table a writer is given refuses the value when it is built
    "SemanticIdTable.raw_id": (
        RqVaeConfigError,
        lambda path, v: save_semid_table(path, SemanticIdTable([v], [[1, 2]], RqVaeConfigError), {}),
    ),
    "SemanticIdTable.code": (
        RqVaeConfigError,
        lambda path, v: save_semid_table(path, SemanticIdTable([0], [[1, v]], RqVaeConfigError), {}),
    ),
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


# a bool among the ints of a list or tuple, which numpy reads as 0 or 1
PREFIX_NGRAM = TokenParameterization("prefix_ngram", 4, prefix_depth=3)
SEMID = SemanticIdTable([1, 2], [[0, 1, 2], [3, 2, 1]])
BOOL_CALLERS = {
    "RandomHash.rows_batch": lambda: RandomHash(100, seed=1).rows_batch([2, True]),
    "RandomHash.rows_batch.tuple": lambda: RandomHash(100, seed=1).rows_batch((np.False_, 5)),
    "SemanticIdLookup.rows_batch": lambda: SemanticIdLookup(SEMID, PREFIX_NGRAM, 64).rows_batch([2, True]),
    "SemanticIdTable.key": lambda: SemanticIdTable([True, 2], [[1, 2, 3], [3, 2, 1]], ConfigurationError),
    "IndividualEmbedding": lambda: IndividualEmbedding([True, 2]),
    "IndividualEmbedding.rows_batch": lambda: IndividualEmbedding([1, 2]).rows_batch([2, True]),
}


@pytest.mark.parametrize("caller", sorted(BOOL_CALLERS))
def test_every_lookup_refuses_a_bool_among_ints(caller):
    with pytest.raises(ConfigurationError, match="integers inside int64, got a bool"):
        BOOL_CALLERS[caller]()


def test_ints_that_read_0_or_1_are_not_bools():
    assert int64_array([0, 1, 2**62, 1], "ids", OwnError).tolist() == [0, 1, 2**62, 1]
    assert int64_array((np.int64(1), 0), "ids", OwnError).tolist() == [1, 0]
    lookup = SemanticIdLookup(SemanticIdTable([0, 1], [[1, 0, 3], [3, 1, 0]]), PREFIX_NGRAM, 64)
    assert lookup.rows_batch([1, 0]).tolist() == [lookup.rows(1), lookup.rows(0)]


FLAT_LOOKUPS = {
    "RandomHash": lambda: RandomHash(100, seed=1),
    "IndividualEmbedding": lambda: IndividualEmbedding([1, 2, 3, 4]),
    "SemanticIdLookup": lambda: SemanticIdLookup(
        SemanticIdTable([1, 2, 3, 4], [[i % 4, 0, 1] for i in range(1, 5)]), PREFIX_NGRAM, 64
    ),
}


@pytest.mark.parametrize("ids", [
    [[1, 2], [3, 4]], np.array([[1, 2], [3, 4]]), [[1]], np.ones((1, 1, 2), dtype=np.int64), 3, np.int64(3),
], ids=["nested-list", "2-d", "1-by-1", "3-d", "int", "numpy-int"])
@pytest.mark.parametrize("lookup", sorted(FLAT_LOOKUPS))
def test_rows_batch_takes_a_flat_sequence_only(lookup, ids):
    with pytest.raises(ConfigurationError, match="flat sequence"):
        FLAT_LOOKUPS[lookup]().rows_batch(ids)


def test_array_input_keeps_its_dtype_rule():
    with pytest.raises(OwnError, match="got bool values"):
        int64_array(np.array([True, False]), "ids", OwnError)
    ids = np.array([1, 0, 2])
    assert int64_array(ids, "ids", OwnError) is ids


# ---------------------------------------------------------------------------
# integer config fields

NOT_INTEGERS = [
    (CorpusConfig, CorpusConfigError, "n_items", 300.5),
    (CorpusConfig, CorpusConfigError, "seed", 2.0),
    (CorpusConfig, CorpusConfigError, "branching", (4, 4.5, 4)),
    (CorpusConfig, CorpusConfigError, "branching", None),
    (RankerConfig, RankerConfigError, "d_m", 4.5),
    (RankerConfig, RankerConfigError, "batch_size", True),
    (RankerConfig, RankerConfigError, "history_length", np.True_),
    (RankerConfig, RankerConfigError, "top_mlp", (64, True)),
    (RankerConfig, RankerConfigError, "top_mlp", 64),
    (RqVaeConfig, RqVaeConfigError, "codebook_size", 4.5),
    (RqVaeConfig, RqVaeConfigError, "levels", "3"),
    (RqVaeConfig, RqVaeConfigError, "hidden_sizes", (12.0,)),
]


@pytest.mark.parametrize("config_cls, error, name, value", NOT_INTEGERS)
def test_configs_refuse_a_bool_or_non_integer_in_an_integer_field(config_cls, error, name, value):
    with pytest.raises(error, match=name):
        config_cls(**{name: value})


@pytest.mark.parametrize("config_cls, fields", [
    (CorpusConfig, {"n_items": np.int64(20_000), "branching": [np.int32(4), 4, np.uint8(4)]}),
    (RankerConfig, {"d_m": np.int64(16), "top_mlp": (np.int16(64), 32)}),
    (RqVaeConfig, {"codebook_size": np.int64(64), "hidden_sizes": None}),
])
def test_numpy_integers_pass_as_python_ints_and_keep_the_hash(config_cls, fields):
    config = config_cls(**fields)
    assert config == config_cls()
    assert config_hash(config.to_dict()) == config_hash(config_cls().to_dict())
    for name in fields:
        value = getattr(config, name)
        assert all(type(v) is int for v in value) if isinstance(value, tuple) else type(value) is int


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


# ---------------------------------------------------------------------------
# checkpoint.integer at the entry points that take one integer

def small_model() -> RankerModel:
    return RankerModel.initialize(RankerConfig(d_m=2, top_mlp=(2,)), RandomHash(16, seed=1), RandomHash(16, seed=2))


# caller -> (error type, call that passes ``value`` as the caller's integer)
SINGLE_INTEGERS = {
    "TokenParameterization.codebook_size": (ConfigurationError, lambda v: TokenParameterization("prefix_ngram", v, 1)),
    "TokenParameterization.prefix_depth": (ConfigurationError, lambda v: TokenParameterization("prefix_ngram", 4, v)),
    "RandomHash.table_size": (ConfigurationError, lambda v: RandomHash(v)),
    "RandomHash.seed": (ConfigurationError, lambda v: RandomHash(100, seed=v)),
    "SemanticIdLookup.table_size": (
        ConfigurationError,
        lambda v: SemanticIdLookup(SEMID, TokenParameterization("trigram", 4), v),
    ),
    "build_lookup.random_hash.table_size": (
        ConfigurationError,
        lambda v: build_lookup({"kind": "random_hash", "table_size": v}),
    ),
    "build_lookup.hash_seed": (
        ConfigurationError,
        lambda v: build_lookup({"kind": "random_hash", "table_size": 100, "hash_seed": v}),
    ),
    **{
        f"build_lookup.semantic_id.{name}": (
            ConfigurationError,
            lambda v, name=name: build_lookup(
                {"kind": "semantic_id", "codebook_size": 4, "prefix_depth": 2, "table_size": 64, name: v},
                semid_table=SEMID,
            ),
        )
        for name in ("codebook_size", "prefix_depth", "table_size")
    },
    # 2.5 raised TypeError from ``range`` and True ran as a window of 1
    "train_one_epoch.ne_window": (RankerConfigError, lambda v: train_one_epoch(small_model(), [], ne_window=v)),
    # a seed of 2.7 drew seed 2's copies; a count of 2.5 raised numpy's TypeError
    "inject_aa_pairs.count": (CorpusConfigError, lambda v: inject_aa_pairs(three_items(), v, (0, 10), seed=1)),
    "inject_aa_pairs.seed": (CorpusConfigError, lambda v: inject_aa_pairs(three_items(), 2, (0, 10), seed=v)),
    # True ran as seed 1; no context events, so a valid seed scores nothing
    "click_loss_analog.seed": (
        ValueError,
        lambda v: click_loss_analog(
            small_model(), three_items(), None, SEMID, [], (1,), temperature=1.0, bias=0.0, seed=v
        ),
    ),
}


@pytest.mark.parametrize("value", [4.5, 64.0, True, np.float64(3.0), "4", None])
@pytest.mark.parametrize("caller", sorted(SINGLE_INTEGERS))
def test_single_integer_entry_points_refuse_a_bool_or_non_integer(caller, value):
    error, call = SINGLE_INTEGERS[caller]
    with pytest.raises(error, match="integers only"):
        call(value)


# the lookups' numpy integers: test_numpy_integer_sizes_pass_as_python_ints
@pytest.mark.parametrize(
    "caller", ["click_loss_analog.seed", "inject_aa_pairs.count", "inject_aa_pairs.seed", "train_one_epoch.ne_window"]
)
def test_numpy_integers_pass_the_run_entry_points(caller):
    SINGLE_INTEGERS[caller][1](np.int64(2))


TABLE_SIZES = {
    "RandomHash": lambda v: RandomHash(v, seed=1),
    "SemanticIdLookup": lambda v: SemanticIdLookup(SEMID, TokenParameterization("trigram", 4), v),
    "build_lookup.random_hash": lambda v: build_lookup({"kind": "random_hash", "table_size": v, "hash_seed": 1}),
    "build_lookup.semantic_id": lambda v: build_lookup(
        {"kind": "semantic_id", "variant": "trigram", "codebook_size": 4, "table_size": v}, semid_table=SEMID
    ),
}


@pytest.mark.parametrize("value", [0, -1, 2**63, 2**70, np.uint64(2**63)])
@pytest.mark.parametrize("caller", sorted(TABLE_SIZES))
def test_table_size_outside_one_to_two_to_the_63_is_refused(caller, value):
    # 2^70 once built a RandomHash whose rows worked and whose rows_batch
    # raised OverflowError, and a SemanticIdLookup raised OverflowError
    with pytest.raises(ConfigurationError, match=r"table size must lie in \[1, 2\^63\)"):
        TABLE_SIZES[caller](value)


@pytest.mark.parametrize("caller", sorted(TABLE_SIZES))
@pytest.mark.parametrize("size", [1, 2**63 - 1])
def test_table_size_bounds_map_alike_on_both_paths(caller, size):
    lookup = TABLE_SIZES[caller](size)
    assert lookup.table_size == size
    ids = [1, 2] if "semantic" in caller.lower() else [1, 2, -(2**63), 2**63 - 1]
    rows = lookup.rows_batch(ids)
    assert rows.tolist() == [lookup.rows(i) for i in ids]
    assert ((0 <= rows) & (rows < size)).all()


def test_fractional_lookup_sizes_and_seeds_are_refused_not_truncated():
    # K = 4.5 gave prefix indices [1, 11] where K = 4 gives [1, 10], and
    # RandomHash(100.9, seed=1.5) mapped exactly like RandomHash(100, seed=1)
    with pytest.raises(ConfigurationError):
        TokenParameterization("prefix_ngram", 4.5, 2)
    with pytest.raises(ConfigurationError):
        RandomHash(100.9, seed=1)
    with pytest.raises(ConfigurationError):
        RandomHash(100, seed=1.5)


def test_numpy_integer_sizes_pass_as_python_ints():
    p = TokenParameterization("prefix_ngram", np.int64(4), np.int32(2))
    assert p == TokenParameterization("prefix_ngram", 4, 2)
    assert type(p.codebook_size) is int and type(p.prefix_depth) is int
    ids = np.arange(-50, 50, dtype=np.int64)
    np.testing.assert_array_equal(
        RandomHash(np.int64(100), seed=np.uint8(3)).rows_batch(ids), RandomHash(100, seed=3).rows_batch(ids)
    )
    lookup = SemanticIdLookup(SEMID, p, np.int64(64))
    assert type(lookup.table_size) is int
    np.testing.assert_array_equal(lookup.rows_batch([1, 2]), SemanticIdLookup(SEMID, p, 64).rows_batch([1, 2]))


def test_a_numpy_codebook_size_cannot_wrap_past_the_index_space_guard():
    # as an int64, (2^16)^4 wraps to 0 and would pass the K^(L+1) < 2^62 guard
    p = TokenParameterization("trigram", np.int64(2**16))
    with pytest.raises(ConfigurationError, match="reaches 2"):
        parameterize_batch([[0, 0, 0]], p)


# ---------------------------------------------------------------------------
# one logistic


def test_one_logistic_behind_the_engine_and_the_label_oracle():
    x = np.array([-800.0, -30.5, -1.0, -0.0, 0.0, 1e-300, 2.5, 30.5, 800.0])
    s = logistic(x)
    assert s[0] == 0.0 and s[-1] == 1.0 and s[3] == s[4] == 0.5
    logits = T.parameter(x)
    T.backward(T.bce_with_logits(logits, np.zeros_like(x)))
    assert logits.grad.tobytes() == (s * (1.0 / x.size)).tobytes()
    pref = np.array([[1.0, 0.0]] * x.size)
    emb = np.stack([x, np.zeros_like(x)], axis=1)
    ctr = ground_truth_ctr(pref, emb, 1.0, 0.0)
    assert ctr.tobytes() == np.clip(s, 1e-12, 1 - 1e-12).tobytes()
    assert ground_truth_ctr(pref[0], emb[6], 1.0, 0.0).shape == ()
    cfg = RankerConfig(d_m=4, aggregation="transformer", history_length=3, top_mlp=(4,))
    model = RankerModel.initialize(cfg, RandomHash(16, seed=1), RandomHash(16, seed=2))
    events = [ImpressionEvent(i, 100 + i, 0, 10 + i, i % 2, ((3, 50), (4, 20))[: i % 3]) for i in range(5)]
    out = forward_batch(model, events)
    assert out.probabilities.tobytes() == logistic(out.logits.value)[:, 0].tobytes()


# ---------------------------------------------------------------------------
# one window rule for every token parameterization

# (variant, K, L, prefix depth) -> (first code, code count, offset) per index
WINDOWS = {
    ("trigram", 5, 4, 0): [(0, 3, 0)],
    ("fourgram", 3, 5, 0): [(0, 4, 0)],
    ("all_bigrams", 4, 4, 0): [(0, 2, 0), (1, 2, 16), (2, 2, 32)],
    ("prefix_ngram", 4, 3, 3): [(0, 1, 0), (0, 2, 4), (0, 3, 20)],
    ("prefix_ngram", 7, 4, 2): [(0, 1, 0), (0, 2, 7)],
}


@pytest.mark.parametrize("case", sorted(WINDOWS), ids=lambda c: "-".join(map(str, c)))
def test_each_index_reads_a_code_window_as_a_base_k_number_at_its_offset(case):
    variant, k, levels, depth = case
    codes = np.random.default_rng(k * levels).integers(0, k, size=(40, levels))
    want = [
        [offset + sum(int(row[first + i]) * k ** (count - 1 - i) for i in range(count))
         for first, count, offset in WINDOWS[case]]
        for row in codes
    ]
    p = TokenParameterization(variant, k, depth)
    assert p.output_count(levels) == len(WINDOWS[case])
    assert parameterize_batch(codes, p).tolist() == want


@pytest.mark.parametrize("variant, depth, levels, message", [
    ("trigram", 0, 2, "trigram needs at least 3 code levels, got 2"),
    ("fourgram", 0, 3, "fourgram needs at least 4 code levels, got 3"),
    ("all_bigrams", 0, 1, "all_bigrams needs at least 2 code levels, got 1"),
    ("prefix_ngram", 4, 3, "prefix_ngram depth 4 exceeds code length 3"),
])
def test_a_code_too_short_for_its_windows_raises_the_variant_message(variant, depth, levels, message):
    p = TokenParameterization(variant, 4, depth)
    for call in (lambda: p.output_count(levels), lambda: parameterize_batch(np.zeros((2, levels), dtype=np.int64), p)):
        with pytest.raises(ConfigurationError) as info:
            call()
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# one optimizer-settings rule

def optimizer_entry_points(kind, lr):
    """(build, error) for each place an optimizer name and rate come in."""
    return [
        (lambda: RankerConfig(optimizer=kind, learning_rate=lr), RankerConfigError),
        (lambda: RqVaeConfig(optimizer=kind, learning_rate=lr), RqVaeConfigError),
        (lambda: T.make_optimizer(kind, [], lr), ValueError),
    ]


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("lr", ["0.01", -0.0, -1e-3])
def test_every_entry_point_refuses_the_same_learning_rates(kind, lr):
    entries = optimizer_entry_points(kind, lr) + [(lambda: T.OPTIMIZERS[kind]([], lr), ValueError)]
    for build, error in entries:
        with pytest.raises(error, match=r"learning rate must be finite and not negative \(-0.0 included\)"):
            build()


@pytest.mark.parametrize("kind", ["adamw", "Adam", ["adam"], None])
def test_every_entry_point_refuses_the_same_optimizer_names(kind):
    for build, error in optimizer_entry_points(kind, 0.01):
        with pytest.raises(error, match=re.escape(f"unknown optimizer {kind!r}; known: ['adam', 'sgd']")):
            build()
