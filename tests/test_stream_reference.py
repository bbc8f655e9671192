"""``corpus.generate_stream`` against the per-event deque reference, with
its CTR drawn in blocks of the default size and of 7 events, and the
history sharing its memory rests on."""

import pytest

import oracles
from semidlab import corpus
from semidlab.corpus import CorpusConfig, generate_items, generate_stream, generate_users


def tiny_config(**overrides):
    base = dict(
        n_items=600,
        embedding_dim=4,
        n_users=40,
        n_train_events=1500,
        n_eval_events=300,
        history_capacity=4,
        seed=1,
    )
    base.update(overrides)
    return CorpusConfig(**base)


def both_streams(cfg):
    items, users = generate_items(cfg), generate_users(cfg)
    return generate_stream(items, users, cfg), oracles.generate_stream(items, users, cfg)


def assert_same_stream(got, want):
    assert got.train_end == want.train_end
    assert type(got.train_end) is int
    assert got.train == want.train
    assert got.eval == want.eval
    for e in got.train + got.eval:
        fields = (e.event_id, e.timestamp, e.user_id, e.item_id, e.label)
        assert all(type(v) is int for v in fields)
        assert type(e.history) is tuple
        assert all(type(v) is int for entry in e.history for v in entry)


@pytest.mark.parametrize(
    "seed, ctr_block",
    [pytest.param(seed, None, id=str(seed)) for seed in (1, 2, 5)]
    # a block of 7 events: 258 blocks per stream, the last one short
    + [pytest.param(seed, 7, id=f"{seed}-ctr-block-7") for seed in (1, 2, 5)],
)
def test_stream_equals_reference(seed, ctr_block, monkeypatch):
    if ctr_block is not None:
        monkeypatch.setattr(corpus, "CTR_BLOCK", ctr_block)
    got, want = both_streams(tiny_config(seed=seed))
    assert sum(e.label for e in want.train + want.eval) > 0
    assert_same_stream(got, want)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(history_capacity=1),
        dict(n_users=1),
        dict(n_train_events=1, n_eval_events=1),
    ],
    ids=["capacity-1", "one-user", "one-train-one-eval"],
)
def test_edge_configs_equal_reference(overrides):
    got, want = both_streams(tiny_config(**overrides))
    assert_same_stream(got, want)


def test_user_without_clicks_keeps_an_empty_history():
    cfg = tiny_config(n_users=400, n_train_events=300, n_eval_events=100)
    got, want = both_streams(cfg)
    events = got.train + got.eval
    seen = {e.user_id for e in events}
    clickers = {e.user_id for e in events if e.label == 1}
    silent = seen - clickers
    assert silent, "the config must give some user events but no click"
    assert all(e.history == () for e in events if e.user_id in silent)
    assert_same_stream(got, want)


def test_events_between_clicks_share_one_history():
    cfg = tiny_config(n_users=20)
    got, _ = both_streams(cfg)
    events = got.train + got.eval
    last = {}
    shared = 0
    for e in events:
        prev = last.get(e.user_id)
        if prev is not None and prev.label == 0:
            assert e.history is prev.history
            shared += 1
        last[e.user_id] = e
    assert shared > 0
    clicks = sum(e.label for e in events)
    assert len({id(e.history) for e in events}) <= cfg.n_users + clicks
    assert len({id(e.item_id) for e in events}) == len({e.item_id for e in events})
    assert len({id(e.user_id) for e in events}) == len({e.user_id for e in events})
