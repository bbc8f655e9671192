"""Ranker forward semantics, aggregation modules, training, evaluation."""

import numpy as np
import pytest

from semidlab import tensor as T
from semidlab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from semidlab.corpus import ImpressionEvent
from semidlab.metrics import SingleClassError, normalized_entropy
from semidlab.ranker import (
    EvalResult,
    RankerConfig,
    RankerConfigError,
    RankerModel,
    _aggregate,
    _history_block,
    build_lookup,
    evaluate,
    forward,
    forward_batch,
    load_predictions,
    load_ranker,
    save_predictions,
    save_ranker,
    score,
    train_one_epoch,
    ts_bucket,
)
from semidlab.tokenization import ConfigurationError, RandomHash, SemanticIdLookup, TokenParameterization

from fdcheck import assert_grads_close, fd_grad
from oracles import semid_table
from reference_ranker import sparse_embed


def event(item_id=5, history=(), ts=10_000, user=0, label=0, eid=0):
    return ImpressionEvent(eid, ts, user, item_id, label, tuple(history))


def make_model(aggregation="bypass", T_len=4, d_m=4, seed=0, d_s=32, H=16):
    cfg = RankerConfig(
        d_m=d_m, aggregation=aggregation, d_s=d_s, history_length=T_len,
        top_mlp=(8,), batch_size=4, learning_rate=1e-2, seed=seed,
    )
    return RankerModel.initialize(cfg, RandomHash(H, seed=1), RandomHash(H, seed=2))


class TestSparseEmbed:
    """The pooled per-ID embedding of the per-event oracle, and the same
    rows gathered from ``rows_batch`` the way the batched ranker does."""

    def test_singleton_single_row(self):
        table = T.constant(np.arange(20.0).reshape(5, 4))
        lk = RandomHash(5, seed=0)
        out = sparse_embed({7}, lk, table)
        np.testing.assert_array_equal(out.value, table.value[lk.rows(7)[0]])
        np.testing.assert_array_equal(T.gather_groups(table, lk.rows_batch([7])).value[0], out.value)

    def test_multiset_collapses_to_set(self):
        table = T.constant(np.arange(20.0).reshape(5, 4))
        lk = RandomHash(5, seed=0)
        a = sparse_embed([7, 7], lk, table)
        b = sparse_embed([7], lk, table)
        np.testing.assert_array_equal(a.value, b.value)
        batched = T.gather_groups(table, lk.rows_batch([7, 7])).value
        np.testing.assert_array_equal(batched, [b.value, b.value])

    def test_empty_feature_is_zero_vector(self):
        table = T.constant(np.ones((5, 4)))
        np.testing.assert_array_equal(sparse_embed([], RandomHash(5), table).value, np.zeros(4))
        np.testing.assert_array_equal(T.gather_groups(table, [[-1]]).value, np.zeros((1, 4)))

    def test_prefix_lookup_sums_three_rows(self):
        table_vals = np.random.default_rng(0).normal(size=(30, 8))
        table = T.constant(table_vals)
        lk = SemanticIdLookup(semid_table({1: (0, 1, 2)}), TokenParameterization("prefix_ngram", 4, 3), 30)
        rows = lk.rows(1)
        assert len(rows) == 3
        out = sparse_embed({1}, lk, table)
        np.testing.assert_allclose(out.value, table_vals[rows].sum(axis=0), rtol=1e-15)
        np.testing.assert_array_equal(T.gather_groups(table, lk.rows_batch([1])).value[0], out.value)


class TestHistoryEmbedding:
    def test_empty_history_gives_identical_pad_rows(self):
        model = make_model(T_len=3)
        x, pad = _history_block(model, [event(history=()), event(history=((3, 9000),))])
        assert x.value.shape == (2, 3, 4)
        assert pad[0].all()
        np.testing.assert_array_equal(pad[1], [False, True, True])
        np.testing.assert_array_equal(x.value[0, 0], x.value[0, 1])
        np.testing.assert_array_equal(x.value[0, 0], x.value[0, 2])
        np.testing.assert_array_equal(x.value[1, 1], x.value[0, 0])

    def test_overlong_history_drops_oldest(self):
        model = make_model(T_len=2)
        hist = ((30, 9000), (20, 8000), (10, 7000))  # most-recent-first
        x, pad = _history_block(model, [event(history=hist), event(history=hist[:2])])
        assert not pad.any()
        np.testing.assert_array_equal(x.value[0], x.value[1])

    def test_identical_histories_identical_matrix(self):
        model = make_model(T_len=4)
        hist = ((3, 9000), (9, 5000))
        x, _ = _history_block(model, [event(history=hist, user=1), event(history=hist, user=2)])
        np.testing.assert_array_equal(x.value[0], x.value[1])

    def test_ts_buckets_are_log_spaced(self):
        assert ts_bucket(0, 32) == 0
        assert ts_bucket(59, 32) == 0
        assert ts_bucket(61, 32) == 1
        assert ts_bucket(10**9, 32) < 32
        assert ts_bucket(-5, 32) == 0


class TestBypass:
    def test_identity_weight_passes_through(self):
        model = make_model("bypass", T_len=3)
        model.params["agg.w"].value[:] = np.eye(4)
        x, _ = _history_block(model, [event(history=((3, 9000),)), event(history=())])
        out, attn = _aggregate(model, x)
        assert attn is None
        np.testing.assert_array_equal(out.value, x.value)

    def test_zero_weight_gives_zeros(self):
        model = make_model("bypass", T_len=3)
        model.params["agg.w"].value[:] = 0.0
        x, _ = _history_block(model, [event(history=((3, 9000),))])
        out, _ = _aggregate(model, x)
        np.testing.assert_array_equal(out.value, np.zeros((1, 3, 4)))

    def test_zero_history_prediction_ignores_history_tables(self):
        model = make_model("bypass", T_len=3)
        e = event(history=())
        before = forward(model, e).probability
        model.params["history_table"].value[:] += 5.0
        model.params["ts_table"].value[:] -= 3.0
        assert forward(model, e).probability == before
        row = model.target_lookup.rows(e.item_id)[0]
        model.params["target_table"].value[row] += 0.5
        assert forward(model, e).probability != before


class TestTransformer:
    def test_single_position_attention_is_identity(self):
        model = make_model("transformer", T_len=1)
        x, _ = _history_block(model, [event(history=((3, 9000),)), event(history=())])
        out, attn = _aggregate(model, x)
        np.testing.assert_allclose(attn.value, [[[1.0]], [[1.0]]], rtol=0, atol=0)

    def test_attention_rows_sum_to_one(self):
        model = make_model("transformer", T_len=5)
        res = forward(model, event(history=((3, 9000), (9, 5000))))
        np.testing.assert_allclose(res.attention.sum(axis=1), 1.0, atol=1e-9)
        assert res.attention.shape == (5, 5)
        batch = forward_batch(model, [event(history=()), event(history=((3, 9000),) * 7)])
        assert batch.attention.shape == (2, 5, 5)
        np.testing.assert_allclose(batch.attention.sum(axis=2), 1.0, atol=1e-9)

    def test_permutation_equivariance_without_positions(self):
        model = make_model("transformer", T_len=3, seed=4)
        model.params["pos_embed"].value[:] = 0.0
        hist = ((3, 9000), (9, 5000), (17, 2000))
        perm = [2, 0, 1]
        x, _ = _history_block(model, [event(history=hist), event(history=tuple(hist[i] for i in perm))])
        np.testing.assert_array_equal(x.value[1], x.value[0][perm])
        out, attn = _aggregate(model, x)
        np.testing.assert_allclose(out.value[1], out.value[0][perm], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            attn.value[1], attn.value[0][np.ix_(perm, perm)], rtol=1e-10, atol=1e-12
        )


class TestPooledAttention:
    def test_output_row_count_is_seed_count_regardless_of_history_length(self):
        for t_len in (1, 4, 7):
            model = make_model("pma", T_len=t_len)
            x, _ = _history_block(model, [event(history=((3, 9000),)), event(history=())])
            out, attn = _aggregate(model, x)
            assert out.value.shape == (2, 32, 4)
            assert attn.value.shape == (2, 32, t_len)
            np.testing.assert_allclose(attn.value.sum(axis=2), 1.0, atol=1e-9)

    def test_identical_seeds_identical_output_rows(self):
        model = make_model("pma", T_len=4, d_s=3)
        model.params["agg.seeds"].value[:] = model.params["agg.seeds"].value[0]
        x, _ = _history_block(model, [event(history=((3, 9000), (9, 5000))), event(history=())])
        out, _ = _aggregate(model, x)
        for b in range(2):
            np.testing.assert_array_equal(out.value[b, 0], out.value[b, 1])
            np.testing.assert_array_equal(out.value[b, 0], out.value[b, 2])


class TestForward:
    def test_probability_in_open_interval(self):
        model = make_model("bypass")
        p = forward(model, event(history=((3, 9000),))).probability
        assert 0.0 < p < 1.0

    @pytest.mark.parametrize("agg,m", [("bypass", 5), ("transformer", 5), ("pma", 33)])
    def test_interaction_layer_width(self, agg, m):
        # m vectors enter the interaction layer: m(m-1)/2 dot products
        # concatenated with the m*d_m flattened vectors
        model = make_model(agg, T_len=4, d_m=4)
        expected = m * (m - 1) // 2 + m * 4
        assert model.params["top.0.w"].value.shape[0] == expected

    def test_aa_pair_bit_exact_under_semantic_id_target(self):
        table = semid_table({111: (1, 2, 3), 222: (1, 2, 3), 333: (0, 1, 1)})
        lookup = SemanticIdLookup(table, TokenParameterization("prefix_ngram", 4, 3), 30)
        cfg = RankerConfig(d_m=4, history_length=3, top_mlp=(8,), seed=9)
        model = RankerModel.initialize(cfg, lookup, RandomHash(16, seed=2))
        hist = ((333, 9_000),)
        p_orig = forward(model, event(item_id=111, history=hist)).probability
        p_copy = forward(model, event(item_id=222, history=hist)).probability
        assert p_orig == p_copy  # bit-exact

    def test_random_hash_target_breaks_aa_equality(self):
        model = make_model("bypass", H=1024, seed=3)
        hist = ((333, 9_000),)
        p1 = forward(model, event(item_id=111, history=hist)).probability
        p2 = forward(model, event(item_id=222, history=hist)).probability
        assert p1 != p2


def toy_events(n=2, seed=0, t_len=4):
    rng = np.random.default_rng(seed)
    events = []
    for i in range(n):
        hist = tuple(
            (int(rng.integers(0, 50)), 10_000 - 1000 * (j + 1)) for j in range(int(rng.integers(0, t_len + 1)))
        )
        events.append(event(item_id=int(rng.integers(0, 50)), history=hist, label=int(rng.integers(0, 2)), eid=i))
    return events


@pytest.mark.parametrize("agg", ["bypass", "transformer", "pma"])
def test_end_to_end_gradients_match_finite_differences(agg):
    """Full-model gradient check on a 2-event batch (T=4, d_m=4)."""
    model = make_model(agg, T_len=4, d_m=4, seed=1, d_s=3, H=8)
    events = toy_events(2, seed=2)
    labels = np.array([[float(e.label)] for e in events])

    def loss_graph():
        return T.bce_with_logits(forward_batch(model, events).logits, labels)

    loss = loss_graph()
    T.zero_grads(model.params.values())
    T.backward(loss)

    def scalar():
        return float(loss_graph().value)

    for name, p in model.params.items():
        if p.grad is None:
            continue
        fd = fd_grad(scalar, p.value, h=1e-5)
        assert_grads_close(p.grad, fd, rtol=1e-4, floor=1e-7)


class TestTraining:
    def test_zero_learning_rate_preserves_ne(self):
        model = make_model("bypass", seed=5)
        events = toy_events(40, seed=6)
        # ensure both classes present
        events[0].label, events[1].label = 0, 1
        ne_before = evaluate(model, events).ne
        cfg_params = {n: p.value.copy() for n, p in model.params.items()}
        model.config.learning_rate = 0.0
        train_one_epoch(model, events)
        for name, p in model.params.items():
            assert np.array_equal(p.value, cfg_params[name])
        assert evaluate(model, events).ne == ne_before

    def test_all_positive_confident_batch_loss_near_zero(self):
        logit = T.constant(np.full((4, 1), 20.0))
        loss = T.bce_with_logits(logit, np.ones((4, 1)))
        assert float(loss.value) < 1e-8

    def test_same_seed_identical_final_parameters(self):
        events = toy_events(60, seed=7)
        a = make_model("bypass", seed=8)
        b = make_model("bypass", seed=8)
        train_one_epoch(a, events)
        train_one_epoch(b, events)
        for name in a.params:
            assert np.array_equal(a.params[name].value, b.params[name].value)

    def test_training_reduces_loss_on_learnable_stream(self):
        # labels perfectly determined by the target item: learnable signal
        rng = np.random.default_rng(9)
        events = [
            event(item_id=int(i % 6), history=(), ts=1000 + i, label=int(i % 6 < 3), eid=i)
            for i in range(400)
        ]
        rng.shuffle(events)
        model = make_model("bypass", H=64, seed=10)
        ne_before = evaluate(model, events).ne
        train_one_epoch(model, events)
        assert evaluate(model, events).ne < ne_before

    @pytest.mark.parametrize("ne_window", [0, -5])
    def test_ne_window_below_one_is_refused(self, ne_window):
        model = make_model("bypass", seed=11)
        before = {n: p.value.copy() for n, p in model.params.items()}
        with pytest.raises(RankerConfigError, match="ne_window"):
            train_one_epoch(model, toy_events(10, seed=11), ne_window=ne_window)
        for name, p in model.params.items():
            assert np.array_equal(p.value, before[name])

    def test_ne_curve_is_logged(self):
        events = toy_events(50, seed=11)
        model = make_model("bypass", seed=11)
        result = train_one_epoch(model, events, ne_window=20)
        assert len(result.ne_curve) >= 1
        assert all("ne" in entry for entry in result.ne_curve)


class TestEvaluate:
    def test_hand_ne_case(self):
        assert normalized_entropy([1, 0], [0.5, 0.5]) == 1.0

    def test_single_class_raises(self):
        model = make_model()
        events = [event(label=1, eid=i) for i in range(5)]
        with pytest.raises(SingleClassError):
            evaluate(model, events)

    @pytest.mark.parametrize("aggregation", ["bypass", "pma"])
    def test_no_events_score_empty_but_do_not_evaluate(self, aggregation):
        model = make_model(aggregation, T_len=3, d_s=4)
        probabilities, attentions = score(model, [], keep_attention=True)
        assert probabilities.dtype == np.float64 and probabilities.shape == (0,) and attentions is None
        assert train_one_epoch(model, []).ne_curve == []
        with pytest.raises(ValueError, match="empty evaluation stream"):
            evaluate(model, [])

    def test_ne_invariant_to_order(self):
        model = make_model(seed=12)
        events = toy_events(60, seed=13)
        events[0].label, events[1].label = 0, 1
        ne1 = evaluate(model, events).ne
        ne2 = evaluate(model, list(reversed(events))).ne
        assert ne1 == pytest.approx(ne2, rel=1e-12)

    def test_attention_capture(self):
        model = make_model("pma", T_len=3, d_s=4)
        events = toy_events(6, seed=14)
        events[0].label, events[1].label = 0, 1
        res = evaluate(model, events, keep_attention=True)
        a, pad = res.attentions
        assert a.shape == (6, 4, 3) and pad.shape == (6, 3) and pad.dtype == bool
        assert evaluate(model, events).attentions is None
        assert evaluate(make_model("bypass", T_len=3), events, keep_attention=True).attentions is None


class TestPersistence:
    def test_ranker_checkpoint_round_trip(self, tmp_path):
        model = make_model("transformer", seed=15)
        events = toy_events(30, seed=16)
        events[0].label, events[1].label = 0, 1
        train_one_epoch(model, events)
        ne = evaluate(model, events).ne
        save_ranker(tmp_path / "r.ckpt", model, meta={"seed": 15})
        loaded, meta = load_ranker(tmp_path / "r.ckpt", model.target_lookup, model.history_lookup)
        assert meta["seed"] == 15
        assert evaluate(loaded, events).ne == ne

    def test_load_rejects_shape_mismatch_without_broadcasting(self, tmp_path):
        model = make_model("bypass", seed=15, H=16)
        save_ranker(tmp_path / "r.ckpt", model)
        params, meta = load_checkpoint(tmp_path / "r.ckpt")
        params["target_table"] = params["target_table"][:1]  # (1, d) would broadcast into (H, d)
        save_checkpoint(tmp_path / "bad.ckpt", params, meta=meta)
        with pytest.raises(CheckpointError, match="target_table"):
            load_ranker(tmp_path / "bad.ckpt", model.target_lookup, model.history_lookup)

    def test_load_rejects_lookup_of_another_table_size(self, tmp_path):
        model = make_model("bypass", seed=15, H=16)
        save_ranker(tmp_path / "r.ckpt", model)
        with pytest.raises(CheckpointError):
            load_ranker(tmp_path / "r.ckpt", RandomHash(32, seed=1), model.history_lookup)

    @pytest.mark.parametrize("change", ["missing", "unexpected"])
    def test_load_rejects_parameter_name_mismatch(self, tmp_path, change):
        model = make_model("transformer", seed=15)
        save_ranker(tmp_path / "r.ckpt", model)
        params, meta = load_checkpoint(tmp_path / "r.ckpt")
        if change == "missing":
            del params["agg.wq"]
        else:
            params["agg.extra"] = np.zeros(3)
        save_checkpoint(tmp_path / "bad.ckpt", params, meta=meta)
        with pytest.raises(CheckpointError, match="names differ"):
            load_ranker(tmp_path / "bad.ckpt", model.target_lookup, model.history_lookup)

    @pytest.mark.parametrize("change", ["missing", "not_a_mapping", "removed_field"])
    def test_load_rejects_missing_or_unknown_config(self, tmp_path, change):
        model = make_model("transformer", seed=15)
        save_ranker(tmp_path / "r.ckpt", model)
        params, meta = load_checkpoint(tmp_path / "r.ckpt")
        if change == "missing":
            del meta["ranker_config"]
        elif change == "not_a_mapping":
            meta["ranker_config"] = "transformer"
        else:
            meta["ranker_config"]["d_a"] = model.config.d_m  # the attention width knob is gone
        save_checkpoint(tmp_path / "bad.ckpt", params, meta=meta)
        with pytest.raises(CheckpointError, match="ranker_config"):
            load_ranker(tmp_path / "bad.ckpt", model.target_lookup, model.history_lookup)

    @pytest.mark.parametrize("aggregation", ["bypass", "transformer", "pma"])
    def test_load_wraps_the_saved_arrays_without_drawing(self, tmp_path, monkeypatch, aggregation):
        model = make_model(aggregation, seed=19)
        events = toy_events(12, seed=20)
        events[0].label, events[1].label = 0, 1
        train_one_epoch(model, events)
        save_ranker(tmp_path / "r.ckpt", model)

        def no_draws(*args, **kwargs):
            raise AssertionError("loading drew from a generator")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded, _ = load_ranker(tmp_path / "r.ckpt", model.target_lookup, model.history_lookup)
        monkeypatch.undo()
        assert loaded.frozen and list(loaded.params) == list(model.params)
        for name, p in loaded.params.items():
            assert p.name == name and p.requires_grad
            assert p.value.dtype == np.float64 and p.value.flags.c_contiguous
            assert p.value.tobytes() == model.params[name].value.tobytes()
        assert [r.prediction for r in evaluate(loaded, events).records] == [
            r.prediction for r in evaluate(model, events).records
        ]

    @pytest.mark.parametrize("change", ["shape", "missing", "unexpected"])
    def test_load_mismatch_raises_before_any_parameter_exists(self, tmp_path, monkeypatch, change):
        model = make_model("pma", seed=15)
        save_ranker(tmp_path / "r.ckpt", model)
        params, meta = load_checkpoint(tmp_path / "r.ckpt")
        if change == "shape":
            params["agg.seeds"] = params["agg.seeds"][:-1]
        elif change == "missing":
            del params["top.0.b"]
        else:
            params["agg.wq"] = np.zeros((4, 4))  # a Transformer projection PMA does not have
        save_checkpoint(tmp_path / "bad.ckpt", params, meta=meta)

        def no_parameters(*args, **kwargs):
            raise AssertionError("a parameter was built before the check")

        monkeypatch.setattr(T, "parameter", no_parameters)
        with pytest.raises(CheckpointError):
            load_ranker(tmp_path / "bad.ckpt", model.target_lookup, model.history_lookup)

    def test_prediction_dump_round_trip(self, tmp_path):
        model = make_model(seed=17)
        events = toy_events(20, seed=18)
        events[0].label, events[1].label = 0, 1
        res = evaluate(model, events)
        save_predictions(tmp_path / "p.tsv", res.records, {"config_hash": "h", "seed": "17"})
        loaded, meta = load_predictions(tmp_path / "p.tsv")
        assert meta["config_hash"] == "h"
        for a, b in zip(loaded, res.records):
            assert (a.event_id, a.label, a.item_id) == (b.event_id, b.label, b.item_id)
            assert a.prediction == b.prediction  # repr round-trip is exact

    def test_build_lookup_specs(self):
        rh = build_lookup({"kind": "random_hash", "table_size": 100, "hash_seed": 3})
        assert rh.rows(5) == rh.rows(5)
        ie = build_lookup({"kind": "individual"}, vocabulary=[1, 2, 3])
        assert ie.table_size == 4
        sem = build_lookup(
            {"kind": "semantic_id", "table_size": 30, "variant": "prefix_ngram",
             "prefix_depth": 3, "codebook_size": 4},
            semid_table=semid_table({1: (0, 1, 2)}),
        )
        assert len(sem.rows(1)) == 3

    def test_frozen_model_rejects_training(self):
        model = make_model()
        model.frozen = True
        with pytest.raises(RankerConfigError):
            train_one_epoch(model, toy_events(4))


@pytest.mark.parametrize("fields", [
    {"batch_size": 0}, {"aggregation": "pma", "d_s": 0}, {"n_ts_buckets": 0}, {"top_mlp": (8, 0)},
    {"top_mlp": (-1,)}, {"learning_rate": -0.01}, {"learning_rate": float("nan")},
    {"learning_rate": float("inf")}, {"learning_rate": -0.0}, {"optimizer": "Adam"}, {"optimizer": "adamw"},
    {"optimizer": ["adam"]},
])
def test_config_rejects_empty_or_negative_sizes(fields):
    with pytest.raises(RankerConfigError):
        RankerConfig(**fields)


def test_config_keeps_seed_count_unchecked_without_pma_and_zero_learning_rate():
    cfg = RankerConfig(aggregation="transformer", d_s=0, learning_rate=0.0, top_mlp=())
    assert (cfg.d_s, cfg.learning_rate, cfg.top_mlp) == (0, 0.0, ())


# age buckets against the integer rule: bucket b holds ages of at least
# 60 * (2^b - 1) s, up to the corpus horizon
HORIZON_S = 5 * 86_400
AGE_THRESHOLDS = [60 * (2**b - 1) for b in range(1, 64) if 60 * (2**b - 1) <= HORIZON_S]


def integer_bucket(age: int, n_buckets: int) -> int:
    return min(n_buckets - 1, sum(t <= max(age, 0) for t in AGE_THRESHOLDS))


@pytest.mark.parametrize("n_buckets", [1, 2, 8, 32, 64, 200])
def test_ts_bucket_matches_integer_thresholds_at_every_edge(n_buckets):
    ages = {0, 1, HORIZON_S, -1, -59, -60, -61, -HORIZON_S, -(10**12)}
    ages.update(t + step for t in AGE_THRESHOLDS for step in (-1, 0, 1))
    mismatches = [(a, ts_bucket(a, n_buckets), integer_bucket(a, n_buckets)) for a in sorted(ages)
                  if ts_bucket(a, n_buckets) != integer_bucket(a, n_buckets)]
    assert mismatches == []
    assert len(AGE_THRESHOLDS) == 12  # 60 s .. 68.3 h, all inside the horizon


# every bucket start below 2^63: b = 1 .. 57
INT64_THRESHOLDS = [60 * (2**b - 1) for b in range(1, 64) if 60 * (2**b - 1) < 2**63]


@pytest.mark.parametrize("n_buckets", [1, 32, 57, 58, 64, 200])
def test_ts_bucket_on_int64_array_matches_scalars_up_to_int64_max(n_buckets):
    ages = {-(2**63), -1, 0, 2**63 - 1}
    ages.update(t + step for t in INT64_THRESHOLDS for step in (-1, 0, 1))
    ages = sorted(ages)
    buckets = ts_bucket(np.array(ages, dtype=np.int64), n_buckets)
    assert buckets.tolist() == [ts_bucket(a, n_buckets) for a in ages]
    # Python-int thresholds cannot wrap, so any wrapped int64 threshold shows here
    assert buckets.tolist() == [min(n_buckets - 1, sum(t <= a for t in INT64_THRESHOLDS)) for a in ages]
    assert (np.diff(buckets) >= 0).all()
    assert buckets[-1] == min(n_buckets - 1, 57)
    assert len(INT64_THRESHOLDS) == 57


@pytest.mark.parametrize("history", [((1.9, 9000),), ((True, 9000),), ((2**63, 9000),), ((3, 900.5),)])
def test_non_integer_history_raises_configuration_error(history):
    model = make_model()
    with pytest.raises(ConfigurationError):
        forward_batch(model, [event(history=history)])
