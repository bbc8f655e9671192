"""Per-event ranker graph: the oracle for ``semidlab.ranker``.

Each event is its own graph. The history is a T-by-d matrix built from
every lookup's per-ID ``rows``, attention is a plain matrix product,
and training backpropagates event by event, stepping the optimizer
every ``batch_size`` events. The batched ranker must reproduce these
predictions, NE curves and parameters.
"""

import math

import numpy as np

from semidlab import tensor as T
from semidlab.metrics import PREDICTION_CLIP, normalized_entropy
from semidlab.ranker import (
    EvalResult,
    ForwardResult,
    PredictionRecord,
    TrainResult,
    ts_bucket,
)


def groups_index(groups) -> np.ndarray:
    """Ragged row groups as an N-by-G index array padded with -1."""
    width = max([1] + [len(g) for g in groups])
    out = np.full((len(groups), width), -1, dtype=np.intp)
    for i, g in enumerate(groups):
        out[i, : len(g)] = g
    return out


def sparse_embed(feature_ids, lookup, table: T.Tensor) -> T.Tensor:
    """Pooled embedding of a set of raw IDs: the sum of every ID's rows.

    The set is deduplicated and ordered; an empty set gives zeros.
    """
    rows = []
    for raw_id in sorted({int(x) for x in feature_ids}):
        rows.extend(lookup.rows(raw_id))
    return T.reshape(T.gather_groups(table, groups_index([rows])), (table.value.shape[1],))


def history_matrix(model, event):
    cfg = model.config
    t = cfg.history_length
    hist = list(event.history[:t])
    n_real = len(hist)
    item_groups = [model.history_lookup.rows(item) for item, _ in hist] + [()] * (t - n_real)
    ts_groups = [(ts_bucket(event.timestamp - ts, cfg.n_ts_buckets),) for _, ts in hist] + [()] * (t - n_real)
    pad_groups = [()] * n_real + [(0,)] * (t - n_real)
    p = model.params
    x = T.add(
        T.add(
            T.gather_groups(p["history_table"], groups_index(item_groups)),
            T.gather_groups(p["ts_table"], groups_index(ts_groups)),
        ),
        T.gather_groups(p["pad_embed"], groups_index(pad_groups)),
    )
    if cfg.aggregation != "bypass":
        x = T.add(x, p["pos_embed"])
    return x, np.array([False] * n_real + [True] * (t - n_real))


def aggregate(model, x):
    cfg = model.config
    p = model.params
    if cfg.aggregation == "bypass":
        return T.matmul(x, p["agg.w"]), None
    normed = T.layernorm(x, p["agg.ln1.g"], p["agg.ln1.b"])
    keys = T.matmul(normed, p["agg.wk"])
    values = T.matmul(normed, p["agg.wv"])
    inv_sqrt = 1.0 / math.sqrt(cfg.d_m)
    if cfg.aggregation == "transformer":
        queries = T.matmul(normed, p["agg.wq"])
        attn = T.softmax_rows(T.scale(T.matmul(queries, T.transpose(keys)), inv_sqrt))
        x1 = T.add(T.matmul(attn, values), x)
    else:
        attn = T.softmax_rows(T.scale(T.matmul(p["agg.seeds"], T.transpose(keys)), inv_sqrt))
        x1 = T.add(T.matmul(attn, values), p["agg.seeds"])
    normed2 = T.layernorm(x1, p["agg.ln2.g"], p["agg.ln2.b"])
    h = T.relu(T.add_rowvec(T.matmul(normed2, p["agg.mlp.0.w"]), p["agg.mlp.0.b"]))
    h = T.add_rowvec(T.matmul(h, p["agg.mlp.1.w"]), p["agg.mlp.1.b"])
    return T.add(h, x1), attn


def forward(model, event) -> ForwardResult:
    x, pad_mask = history_matrix(model, event)
    agg, attn = aggregate(model, x)
    target = T.gather_groups(model.params["target_table"], groups_index([model.target_lookup.rows(event.item_id)]))
    vectors = T.concat_along([target, agg], axis=-2)
    pairs = T.pairwise_dot_upper(vectors)
    flat = [T.reshape(pairs, (1, pairs.value.size)), T.reshape(vectors, (1, vectors.value.size))]
    h = T.concat_along(flat, axis=1)
    n_layers = len(model.config.top_mlp) + 1
    for i in range(n_layers):
        h = T.add_rowvec(T.matmul(h, model.params[f"top.{i}.w"]), model.params[f"top.{i}.b"])
        if i < n_layers - 1:
            h = T.relu(h)
    return ForwardResult(
        probability=float(T.sigmoid(h).value[0, 0]),
        logit=h,
        attention=None if attn is None else attn.value.copy(),
        pad_positions=pad_mask,
    )


def train_one_epoch(model, events, ne_window: int = 5000) -> TrainResult:
    cfg = model.config
    opt = T.make_optimizer(cfg.optimizer, list(model.params.values()), cfg.learning_rate)
    curve = []
    window = []
    pending = 0
    opt.zero_grad()
    for i, event in enumerate(events):
        out = forward(model, event)
        loss = T.bce_with_logits(out.logit, np.array([[float(event.label)]]))
        T.backward(T.scale(loss, 1.0 / cfg.batch_size))
        pending += 1
        if pending == cfg.batch_size:
            opt.step()
            opt.zero_grad()
            pending = 0
        window.append((event.label, out.probability))
        if len(window) == ne_window:
            labels = np.array([l for l, _ in window], dtype=float)
            preds = np.array([p for _, p in window])
            if 0.0 < labels.mean() < 1.0:
                curve.append({"events_seen": i + 1, "ne": normalized_entropy(labels, preds)})
            window = []
    if pending:
        opt.step()
        opt.zero_grad()
    return TrainResult(ne_curve=curve)


def evaluate(model, events, keep_attention: bool = False) -> EvalResult:
    records, attentions = [], []
    for event in events:
        out = forward(model, event)
        prediction = min(max(out.probability, PREDICTION_CLIP), 1.0 - PREDICTION_CLIP)
        records.append(PredictionRecord(event.event_id, event.label, prediction, event.item_id))
        if keep_attention and out.attention is not None:
            attentions.append((out.attention, out.pad_positions))
    ne = normalized_entropy([r.label for r in records], [r.prediction for r in records])
    return EvalResult(ne=ne, records=records, attentions=attentions)
