"""``ranker.score_candidates`` against ``ranker.score`` over the expanded events.

A candidate pool shares one context (timestamp and history), so the
history module runs once per context. The scores must equal those of
``score`` on one event per candidate byte for byte, for every history
module and lookup family, over empty, short, full and over-long
histories and pools of 0, 1, ``batch_size`` and ``batch_size + 1``
candidates. That holds while no matrix product over the context has a
single row; with a one-row product (history_length 1, or d_s 1 for
pooled attention) BLAS's matrix-vector kernel rounds differently, and the
scores agree with the per-event oracle within its 1e-12 instead.
"""

import numpy as np
import pytest

import reference_ranker as ref
from oracles import semid_table
from semidlab import analysis, ranker
from semidlab.corpus import CorpusConfig, ImpressionEvent, generate_items, generate_stream, generate_users
from semidlab.ranker import RankerConfig, RankerModel
from semidlab.tokenization import RandomHash
from test_ranker_batched import CASES, LOOKUPS, PRED_TOL, T_LEN, _quiet_fallback_warnings, events  # noqa: F401

BATCH = 4
POOLS = [0, 1, BATCH, BATCH + 1]


def model(agg, lookup, history_length=T_LEN, d_s=3, seed=3):
    cfg = RankerConfig(
        d_m=4, aggregation=agg, d_s=d_s, history_length=history_length, top_mlp=(8,),
        batch_size=BATCH, seed=seed,
    )
    return RankerModel.initialize(cfg, LOOKUPS[lookup](), LOOKUPS[lookup]())


def expanded(context, item_ids):
    """One event per candidate: the context with the candidate as target."""
    return [
        ImpressionEvent(context.event_id, context.timestamp, context.user_id, int(item), 0, context.history)
        for item in item_ids
    ]


def contexts_and_pools(seed):
    """(context, candidate IDs) pairs: the first four contexts have empty,
    short, full and over-long histories; every context meets every pool size."""
    rng = np.random.default_rng(seed)
    return [(c, rng.integers(0, 50, size=n)) for c in events(4, seed) for n in POOLS]


@pytest.mark.parametrize("agg,lookup", CASES)
def test_equals_score_over_the_expanded_events_byte_for_byte(agg, lookup):
    m = model(agg, lookup)
    for context, item_ids in contexts_and_pools(seed=11):
        got = ranker.score_candidates(m, context, item_ids)
        want, _ = ranker.score(m, expanded(context, item_ids))
        assert got.shape == (len(item_ids),)
        assert got.tobytes() == want.tobytes(), (len(context.history), len(item_ids))
        assert ranker.score_candidates(m, context, item_ids.tolist()).tobytes() == want.tobytes()


@pytest.mark.parametrize("agg,lookup", CASES)
@pytest.mark.parametrize("history_length,d_s", [(1, 3), (T_LEN, 1), (1, 1)])
def test_one_row_context_products_agree_with_the_per_event_oracle(agg, lookup, history_length, d_s):
    m = model(agg, lookup, history_length=history_length, d_s=d_s)
    for context, item_ids in contexts_and_pools(seed=13):
        got = ranker.score_candidates(m, context, item_ids)
        want = [ref.forward(m, e).probability for e in expanded(context, item_ids)]
        np.testing.assert_allclose(got, want, rtol=0, atol=PRED_TOL)


def test_click_loss_runs_the_history_module_once_per_scored_context(monkeypatch):
    cfg = CorpusConfig(n_items=1200, embedding_dim=8, n_users=50, n_train_events=1500,
                       n_eval_events=400, history_capacity=4, seed=7)
    items = generate_items(cfg)
    users = generate_users(cfg)
    stream = generate_stream(items, users, cfg)
    semid = semid_table({
        int(x): (int(items.top[i]), int(items.mid[i] % 4), int(items.leaf[i] % 4))
        for i, x in enumerate(items.raw_ids)
    })
    # pools of 60 in minibatches of 8: eight candidate chunks per context
    rcfg = RankerConfig(d_m=4, history_length=4, top_mlp=(8,), aggregation="pma", d_s=3, batch_size=8, seed=7)
    m = RankerModel.initialize(rcfg, RandomHash(64, seed=1), RandomHash(64, seed=2))
    contexts = stream.eval[:15]
    set_size = 4
    scored = sum(int(items.alive_mask(e.timestamp).sum()) >= set_size + 1 for e in contexts)
    assert scored > 0
    calls = []
    aggregate = ranker._aggregate

    def counting(model, x):
        calls.append(x.shape[0])
        return aggregate(model, x)

    monkeypatch.setattr(ranker, "_aggregate", counting)
    analysis.click_loss_analog(
        m, items, users, semid, contexts, (1, 2, 3),
        temperature=cfg.temperature, bias=cfg.ctr_bias, set_size=set_size, pool_size=60, seed=7,
    )
    assert calls == [1] * scored
