"""The minibatch ranker against the per-event oracle in ``reference_ranker``.

Predictions, attention and NE curves must agree within 1e-12 and the
trained parameters within 1e-9, for every history module and every
lookup family, over empty, short, full and over-long histories, a
partial last minibatch and NE windows that end inside a minibatch.
"""

import logging

import numpy as np
import pytest

import reference_ranker as ref
from oracles import semid_table
from semidlab import analysis, ranker
from semidlab.corpus import CorpusConfig, ImpressionEvent, generate_items, generate_stream, generate_users
from semidlab.ranker import RankerConfig, RankerModel
from semidlab.tokenization import IndividualEmbedding, RandomHash, SemanticIdLookup, TokenParameterization

T_LEN = 4
PRED_TOL = 1e-12
PARAM_TOL = 1e-9

# codes for IDs 0..44; IDs 45..49 take the all-zeros fallback
SEMID_TABLE = semid_table({
    i: tuple(int(c) for c in np.random.default_rng([5, i]).integers(0, 4, size=3)) for i in range(45)
})

LOOKUPS = {
    "random_hash": lambda: RandomHash(16, seed=1),
    # IDs 40..49 are outside the vocabulary and share the reserved row
    "individual": lambda: IndividualEmbedding(range(40)),
    "prefix_ngram": lambda: SemanticIdLookup(SEMID_TABLE, TokenParameterization("prefix_ngram", 4, 3), 30),
}

CASES = [(agg, lk) for agg in ("bypass", "transformer", "pma") for lk in LOOKUPS]


@pytest.fixture(autouse=True)
def _quiet_fallback_warnings():
    logging.disable(logging.WARNING)
    yield
    logging.disable(logging.NOTSET)


def model_pair(agg, lookup, batch_size=4, seed=3):
    cfg = RankerConfig(
        d_m=4, aggregation=agg, d_s=3, history_length=T_LEN, top_mlp=(8,),
        batch_size=batch_size, learning_rate=1e-2, seed=seed,
    )
    make = LOOKUPS[lookup]
    return RankerModel.initialize(cfg, make(), make()), RankerModel.initialize(cfg, make(), make())


def events(n, seed):
    """Time-ordered events; the first four have empty, short, full and
    over-long histories, the rest random lengths; both labels occur."""
    rng = np.random.default_rng(seed)
    lengths = [0, 1, T_LEN, T_LEN + 2] + [int(rng.integers(0, T_LEN + 3)) for _ in range(n - 4)]
    out = []
    for i, length in enumerate(lengths):
        ts = 100_000 + 50 * i
        hist = tuple((int(rng.integers(0, 50)), ts - 600 * (j + 1) - int(rng.integers(0, 500))) for j in range(length))
        out.append(ImpressionEvent(i, ts, i % 3, int(rng.integers(0, 50)), int(i % 3 == 0), hist))
    return out


def assert_records_close(got, want):
    assert [(r.event_id, r.label, r.item_id) for r in got] == [(r.event_id, r.label, r.item_id) for r in want]
    np.testing.assert_allclose([r.prediction for r in got], [r.prediction for r in want], rtol=0, atol=PRED_TOL)


@pytest.mark.parametrize("agg,lookup", CASES)
def test_forward_batch_matches_per_event_forward(agg, lookup):
    model, _ = model_pair(agg, lookup)
    batch = events(13, seed=1)
    out = ranker.forward_batch(model, batch)
    assert out.probabilities.shape == (13,) and out.logits.shape == (13, 1)
    for i, e in enumerate(batch):
        want = ref.forward(model, e)
        assert abs(out.probabilities[i] - want.probability) <= PRED_TOL
        np.testing.assert_array_equal(out.pad_positions[i], want.pad_positions)
        if want.attention is None:
            assert out.attention is None
        else:
            np.testing.assert_allclose(out.attention[i], want.attention, rtol=0, atol=PRED_TOL)
        single = ranker.forward(model, e)
        assert abs(single.probability - want.probability) <= PRED_TOL
        assert single.logit.shape == (1, 1)


@pytest.mark.parametrize("agg,lookup", CASES)
def test_training_and_evaluation_match_per_event_path(agg, lookup):
    batched, oracle = model_pair(agg, lookup, batch_size=4)
    train = events(23, seed=2)  # five full minibatches and one of three
    got = ranker.train_one_epoch(batched, train, ne_window=5)
    want = ref.train_one_epoch(oracle, train, ne_window=5)
    assert [c["events_seen"] for c in got.ne_curve] == [c["events_seen"] for c in want.ne_curve]
    assert len(got.ne_curve) >= 3
    np.testing.assert_allclose([c["ne"] for c in got.ne_curve], [c["ne"] for c in want.ne_curve], rtol=0, atol=PRED_TOL)
    for name, p in batched.params.items():
        np.testing.assert_allclose(p.value, oracle.params[name].value, rtol=0, atol=PARAM_TOL, err_msg=name)

    held_out = events(11, seed=3)
    got_ev = ranker.evaluate(batched, held_out, keep_attention=True)
    want_ev = ref.evaluate(oracle, held_out, keep_attention=True)
    assert_records_close(got_ev.records, want_ev.records)
    assert abs(got_ev.ne - want_ev.ne) <= PRED_TOL
    assert len(got_ev.attentions) == len(want_ev.attentions)
    for (a, pad), (b, pad_b) in zip(got_ev.attentions, want_ev.attentions):
        np.testing.assert_allclose(a, b, rtol=0, atol=PRED_TOL)
        np.testing.assert_array_equal(pad, pad_b)


def test_partial_last_batch_keeps_per_event_weight():
    # one event with batch_size 4 steps with a quarter of the event's
    # gradient, exactly as the per-event path does
    batched, oracle = model_pair("bypass", "random_hash", batch_size=4)
    batched.config.optimizer = oracle.config.optimizer = "sgd"
    batched.config.learning_rate = oracle.config.learning_rate = 0.5
    one = events(5, seed=4)[3:4]
    ranker.train_one_epoch(batched, one)
    ref.train_one_epoch(oracle, one)
    for name, p in batched.params.items():
        np.testing.assert_allclose(p.value, oracle.params[name].value, rtol=0, atol=PARAM_TOL, err_msg=name)


def test_evaluate_chunking_does_not_change_predictions():
    model, _ = model_pair("transformer", "prefix_ngram", batch_size=32)
    stream = events(37, seed=5)
    whole = ranker.evaluate(model, stream, keep_attention=True)
    model.config.batch_size = 5
    chunked = ranker.evaluate(model, stream, keep_attention=True)
    assert_records_close(chunked.records, whole.records)
    assert len(chunked.attentions) == len(whole.attentions) == 37
    for (attn, pads), (want_attn, want_pads) in zip(chunked.attentions, whole.attentions):
        np.testing.assert_allclose(attn, want_attn, rtol=0, atol=PRED_TOL)
        np.testing.assert_array_equal(pads, want_pads)


def test_forward_batch_rejects_empty_batch():
    model, _ = model_pair("bypass", "random_hash")
    with pytest.raises(ValueError):
        ranker.forward_batch(model, [])


def test_click_loss_matches_per_event_scoring(monkeypatch):
    cfg = CorpusConfig(n_items=1200, embedding_dim=8, n_users=50, n_train_events=1500,
                       n_eval_events=400, history_capacity=4, seed=7)
    items = generate_items(cfg)
    users = generate_users(cfg)
    stream = generate_stream(items, users, cfg)
    semid = semid_table({
        int(x): (int(items.top[i]), int(items.mid[i] % 4), int(items.leaf[i] % 4))
        for i, x in enumerate(items.raw_ids)
    })
    rcfg = RankerConfig(d_m=4, history_length=4, top_mlp=(8,), aggregation="pma", d_s=3, seed=7)
    model = RankerModel.initialize(rcfg, RandomHash(64, seed=1), RandomHash(64, seed=2))

    def run():
        return analysis.click_loss_analog(
            model, items, users, semid, stream.eval[:15], depths=(1, 2, 3),
            temperature=cfg.temperature, bias=cfg.ctr_bias, set_size=4, pool_size=60, seed=7,
        )

    batched = run()

    def per_event(model, context, item_ids):
        # each candidate as its own event on the context, one graph each
        return np.array([
            ref.forward(model, ImpressionEvent(
                context.event_id, context.timestamp, context.user_id, int(item), 0, context.history,
            )).probability
            for item in item_ids
        ])

    monkeypatch.setattr(ranker, "score_candidates", per_event)
    assert run() == batched
