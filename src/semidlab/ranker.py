"""DLRM-style CTR ranker with a contextualized user-history module.

Three stacked sections: embedding lookups for the target item and the
history items (sum-pooled over each lookup's rows), an aggregation
module over the history sequence (Bypass linear map, a pre-norm
single-head Transformer layer, or pooled attention with learnable seed
queries), and an interaction layer taking all pairwise dot products of
the collected vectors followed by an MLP and a sigmoid.

History sequences are most-recent-first. Positions beyond the real
history hold a learned pad embedding; attention is deliberately not
masked over pads, so pad-attention statistics are measurable. Each
history entry adds the row of its age bucket: bucket b holds integer
ages of at least 60 * (2^b - 1) s, capped at b = 57, the last bucket an
int64 age reaches. One ``np.searchsorted`` buckets a minibatch's ages.

A minibatch of B events is scored as one graph (``forward_batch``).
Each lookup turns the batch's IDs into an integer row array, with -1
where a position has no row, and one ``gather_groups`` per table builds
the B-by-T-by-d history block and the B-by-1-by-d targets. The
aggregation module and the interaction run on the batch axis, and the
top MLP maps the B interaction rows to B logits. The top MLP and the
Transformer block's position-wise MLP are ``mlp.mlp`` stacks named
``top`` and ``agg.mlp``. Training, evaluation and the analyses all
score through this one path; frozen-model scoring (``score``) runs in
minibatches of ``batch_size``, so one graph of at most that many events
is alive at a time.

``param_layout`` writes the model's parameters down once (name, shape,
init rule, in creation order). ``RankerModel.initialize`` draws them from
it; ``load_ranker`` checks a checkpoint's arrays against it and wraps
them as they are, without drawing a model first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import (
    Config,
    config_from_meta,
    int64_array,
    load_checkpoint,
    save_checkpoint,
)
from .metrics import PREDICTION_CLIP, normalized_entropy
from .mlp import ParamSpec, init_params, load_params, mlp, mlp_layout
from .runfiles import ArtifactMismatchError, field_error, read_table, write_table
from .tokenization import (
    ConfigurationError,
    IndividualEmbedding,
    RandomHash,
    SemanticIdLookup,
    TokenParameterization,
)

AGGREGATIONS = ("bypass", "transformer", "pma")


class RankerConfigError(ValueError):
    pass


@dataclass
class RankerConfig(Config):
    d_m: int = 16
    aggregation: str = "bypass"
    d_s: int = 32  # number of learnable seed queries for pooled attention
    history_length: int = 8
    n_ts_buckets: int = 32
    top_mlp: tuple[int, ...] = (64, 32)
    learning_rate: float = 1e-2
    batch_size: int = 32
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        self.check_integers(RankerConfigError)
        self.check_finite(RankerConfigError)
        if self.aggregation not in AGGREGATIONS:
            raise RankerConfigError(f"unknown aggregation {self.aggregation!r}")
        if not isinstance(self.optimizer, str) or self.optimizer not in T.OPTIMIZERS:
            raise RankerConfigError(f"unknown optimizer {self.optimizer!r}; known: {sorted(T.OPTIMIZERS)}")
        if min(self.history_length, self.d_m, self.n_ts_buckets, self.batch_size) < 1:
            raise RankerConfigError("history_length, d_m, n_ts_buckets and batch_size must be positive")
        if self.aggregation == "pma" and self.d_s < 1:
            raise RankerConfigError("pooled attention needs at least one seed query (d_s)")
        if math.copysign(1.0, self.learning_rate) < 0:
            raise RankerConfigError("learning_rate must not be negative (-0.0 included)")
        if any(w < 1 for w in self.top_mlp):
            raise RankerConfigError(f"top_mlp widths must be positive, got {self.top_mlp}")


# transformer-block position-wise MLP width, relative to d_m
_BLOCK_MLP_RATIO = 4


@dataclass
class RankerModel:
    config: RankerConfig
    target_lookup: object
    history_lookup: object
    params: dict = field(default_factory=dict)
    frozen: bool = False

    @classmethod
    def initialize(cls, config: RankerConfig, target_lookup, history_lookup) -> "RankerModel":
        layout = param_layout(config, target_lookup, history_lookup)
        params = init_params(layout, np.random.default_rng([config.seed, 0]))
        return cls(config=config, target_lookup=target_lookup, history_lookup=history_lookup, params=params)


def param_layout(config: RankerConfig, target_lookup, history_lookup) -> list[ParamSpec]:
    """Every parameter of the model the config and lookups describe, in
    creation order, which is also the order ``initialize`` draws them in."""
    d = config.d_m
    t = config.history_length

    def matrix(name, rows, std=0.05):  # rows by d_m
        return ParamSpec(name, (rows, d), std=std)

    layout = [
        matrix("target_table", target_lookup.table_size),
        matrix("history_table", history_lookup.table_size),
        matrix("ts_table", config.n_ts_buckets),
        matrix("pad_embed", 1),
    ]
    if config.aggregation == "bypass":
        layout.append(matrix("agg.w", d, std=1.0 / math.sqrt(d)))
        m = t + 1
    else:
        layout.append(matrix("pos_embed", t))
        projections = ("wk", "wv") if config.aggregation == "pma" else ("wq", "wk", "wv")
        layout += [matrix(f"agg.{name}", d, std=1.0 / math.sqrt(d)) for name in projections]
        for ln in ("ln1", "ln2"):
            layout += [ParamSpec(f"agg.{ln}.g", (d,), fill=1.0), ParamSpec(f"agg.{ln}.b", (d,))]
        layout += mlp_layout("agg.mlp", [d, _BLOCK_MLP_RATIO * d, d])
        if config.aggregation == "pma":
            layout.append(matrix("agg.seeds", config.d_s, std=1.0 / math.sqrt(d)))
            m = config.d_s + 1
        else:
            m = t + 1
    interaction_dim = m * (m - 1) // 2 + m * d
    return layout + mlp_layout("top", [interaction_dim, *config.top_mlp, 1])


# where bucket b >= 1 starts; 60 * (2^58 - 1) s is past the largest int64
AGE_THRESHOLDS = np.array([60 * (2**b - 1) for b in range(1, 58)], dtype=np.int64)


def ts_bucket(age_seconds, n_buckets: int):
    """Age bucket of an int or of each entry of an int64 array, at most
    n_buckets - 1; bucket 0 holds ages under a minute, negative ones too."""
    return np.minimum(np.searchsorted(AGE_THRESHOLDS, age_seconds, side="right"), n_buckets - 1)


@dataclass
class ForwardResult:
    probability: float
    logit: T.Tensor
    attention: np.ndarray | None  # rows sum to 1; None for bypass
    pad_positions: np.ndarray  # bool mask over source positions


@dataclass
class BatchResult:
    probabilities: np.ndarray  # (B,)
    logits: T.Tensor  # (B, 1)
    attention: np.ndarray | None  # (B, rows, T), rows sum to 1; None for bypass
    pad_positions: np.ndarray  # (B, T) bool


def _history_block(model: RankerModel, events) -> tuple[T.Tensor, np.ndarray]:
    """B-by-T-by-d history embeddings and the B-by-T pad mask.

    A real position sums its item's lookup rows and its age bucket's
    row; a pad position takes the pad embedding. Histories longer than
    T keep their T most recent entries.
    """
    cfg = model.config
    t = cfg.history_length
    histories = [event.history[:t] for event in events]
    pad_mask = np.arange(t) >= np.array([len(h) for h in histories])[:, None]
    item_ids = [item for h in histories for item, _ in h]
    ages = [event.timestamp - ts for event, h in zip(events, histories) for _, ts in h]
    buckets = np.full((len(events), t), -1, dtype=np.intp)
    buckets[~pad_mask] = ts_bucket(int64_array(ages, "history ages", ConfigurationError), cfg.n_ts_buckets)
    item_rows = np.full((len(events), t, model.history_lookup.output_count), -1, dtype=np.intp)
    item_rows[~pad_mask] = model.history_lookup.rows_batch(item_ids)
    p = model.params
    x = T.add(
        T.add(
            T.gather_groups(p["history_table"], item_rows),
            T.gather_groups(p["ts_table"], buckets[..., None]),
        ),
        T.gather_groups(p["pad_embed"], np.where(pad_mask, 0, -1)[..., None]),
    )
    if cfg.aggregation != "bypass":
        x = T.add_rowvec(x, p["pos_embed"])
    return x, pad_mask


def _aggregate(model: RankerModel, x: T.Tensor) -> tuple[T.Tensor, T.Tensor | None]:
    """History module over a B-by-T-by-d block; returns the B-by-rows-by-d
    output and the B-by-rows-by-T attention (None for bypass)."""
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
        attn = T.softmax_rows(T.scale(T.bmm(queries, T.transpose(keys)), inv_sqrt))
        x1 = T.add(T.bmm(attn, values), x)
    else:
        attn = T.softmax_rows(T.scale(T.bmm(p["agg.seeds"], T.transpose(keys)), inv_sqrt))
        x1 = T.add_rowvec(T.bmm(attn, values), p["agg.seeds"])
    x2 = T.add(mlp(p, "agg.mlp", T.layernorm(x1, p["agg.ln2.g"], p["agg.ln2.b"])), x1)
    return x2, attn


def forward_batch(model: RankerModel, events) -> BatchResult:
    """Score a minibatch of impressions as one graph."""
    events = list(events)
    if not events:
        raise ValueError("empty minibatch")
    x, pad_mask = _history_block(model, events)
    agg, attn = _aggregate(model, x)
    target_rows = model.target_lookup.rows_batch([e.item_id for e in events])
    target = T.gather_groups(model.params["target_table"], target_rows[:, None, :])
    vectors = T.concat_along([target, agg], axis=-2)
    interactions = T.pairwise_dot_upper(vectors)
    b, r, d = vectors.shape
    h = mlp(model.params, "top", T.concat_along([interactions, T.reshape(vectors, (b, r * d))], axis=1))
    return BatchResult(
        probabilities=T.sigmoid(h).value[:, 0],
        logits=h,
        attention=None if attn is None else attn.value,
        pad_positions=pad_mask,
    )


def forward(model: RankerModel, event) -> ForwardResult:
    """Score one impression; keeps the attention matrix for analysis."""
    out = forward_batch(model, [event])
    return ForwardResult(
        probability=float(out.probabilities[0]),
        logit=out.logits,
        attention=None if out.attention is None else out.attention[0],
        pad_positions=out.pad_positions[0],
    )


@dataclass(slots=True)
class PredictionRecord:
    event_id: int
    label: int
    prediction: float
    item_id: int


@dataclass
class TrainResult:
    ne_curve: list  # trailing-window NE over the training pass


def _backward_batch(model: RankerModel, batch, labels: np.ndarray) -> np.ndarray:
    """Forward and backward over a minibatch; returns the (B,) probabilities.

    Each event's loss is divided by ``batch_size``, a short last batch
    included. The graph is dropped on return, before the optimizer
    step allocates its temporaries.
    """
    out = forward_batch(model, batch)
    loss = T.bce_with_logits(out.logits, labels[:, None])
    T.backward(T.scale(loss, len(batch) / model.config.batch_size))
    return out.probabilities


def train_one_epoch(model: RankerModel, events, ne_window: int = 5000) -> TrainResult:
    """One sequential pass of minibatch cross-entropy training.

    Events must already be time-ordered. Each minibatch is one graph and
    one optimizer step. Each full window of ``ne_window`` events with
    both labels gives an NE point from the events' pre-update
    predictions (progressive validation).
    """
    if model.frozen:
        raise RankerConfigError("model is frozen")
    if ne_window < 1:
        raise RankerConfigError(f"ne_window must be at least 1, got {ne_window}")
    cfg = model.config
    events = list(events)
    labels = np.array([e.label for e in events], dtype=float)
    preds = np.empty(len(events))
    opt = T.make_optimizer(cfg.optimizer, model.params.values(), cfg.learning_rate)
    opt.zero_grad()
    for start in range(0, len(events), cfg.batch_size):
        batch = slice(start, start + cfg.batch_size)
        preds[batch] = _backward_batch(model, events[batch], labels[batch])
        opt.step()
        opt.zero_grad()
    curve = []
    for end in range(ne_window, len(events) + 1, ne_window):
        window = slice(end - ne_window, end)
        if 0.0 < labels[window].mean() < 1.0:
            curve.append({"events_seen": end, "ne": normalized_entropy(labels[window], preds[window])})
    return TrainResult(ne_curve=curve)


@dataclass
class EvalResult:
    ne: float
    records: list
    attentions: list  # (attention matrix, pad mask) pairs when requested


def score(model: RankerModel, events, keep_attention: bool = False) -> tuple[np.ndarray, list]:
    """Frozen-model probabilities, scored in minibatches of ``batch_size``.

    Only one minibatch graph is alive at a time. With ``keep_attention``
    the (attention matrix, pad mask) pair of every event comes back too
    (none for bypass).
    """
    events = list(events)
    probabilities = []
    attentions = []
    size = model.config.batch_size
    for start in range(0, len(events), size):
        out = forward_batch(model, events[start : start + size])
        probabilities.append(out.probabilities)
        if keep_attention and out.attention is not None:
            attentions.extend(zip(out.attention, out.pad_positions))
        del out  # drop this chunk's graph before the next one is built
    return np.concatenate(probabilities), attentions


def evaluate(model: RankerModel, events, keep_attention: bool = False) -> EvalResult:
    """Frozen-model scoring through ``score``; NE per the segment's own
    base rate.

    Raises SingleClassError when the stream holds only one label class
    rather than returning a silent NaN.
    """
    events = list(events)
    if not events:
        raise ValueError("empty evaluation stream")
    probabilities, attentions = score(model, events, keep_attention)
    probabilities = np.clip(probabilities, PREDICTION_CLIP, 1.0 - PREDICTION_CLIP)
    records = [
        PredictionRecord(event.event_id, event.label, prob, event.item_id)
        for event, prob in zip(events, probabilities.tolist())
    ]
    ne = normalized_entropy([event.label for event in events], probabilities)
    return EvalResult(ne=ne, records=records, attentions=attentions)


# ---------------------------------------------------------------------------
# lookup construction from serializable specs


def build_lookup(spec: dict, *, vocabulary=None, semid_table=None):
    """Build a lookup function from its config-file description.

    ``spec`` keys: kind (individual | random_hash | semantic_id), plus
    table_size and hash_seed for hashing, or variant / prefix_depth /
    codebook_size and table_size for Semantic ID. The integer fields reach
    the lookups as given, which refuse a bool or a non-integer.
    """
    kind = spec["kind"]
    if kind == "individual":
        if vocabulary is None:
            raise ConfigurationError("individual embeddings need the training vocabulary")
        return IndividualEmbedding(vocabulary)
    if kind == "random_hash":
        return RandomHash(spec["table_size"], seed=spec.get("hash_seed", 0))
    if kind == "semantic_id":
        if semid_table is None:
            raise ConfigurationError("semantic_id lookup needs the Semantic ID table")
        p = TokenParameterization(
            spec.get("variant", "prefix_ngram"), spec["codebook_size"], spec.get("prefix_depth", 0)
        )
        return SemanticIdLookup(semid_table, p, spec["table_size"])
    raise ConfigurationError(f"unknown lookup kind {kind!r}")


# ---------------------------------------------------------------------------
# persistence


def save_ranker(path, model: RankerModel, meta: dict | None = None) -> None:
    meta = dict(meta or {})
    meta["ranker_config"] = model.config.to_dict()
    save_checkpoint(path, model.params, meta=meta)


def load_ranker(path, target_lookup, history_lookup) -> tuple[RankerModel, dict]:
    """Rebuild a model from a checkpoint plus reconstructed lookups.

    Raises CheckpointError when the meta holds no usable
    ``ranker_config``, or when the saved parameter names or shapes do not
    match the model the config and lookups describe.
    """
    saved, meta = load_checkpoint(path)
    config = config_from_meta(path, meta, "ranker_config", RankerConfig)
    params = load_params(path, saved, param_layout(config, target_lookup, history_lookup))
    model = RankerModel(config, target_lookup, history_lookup, params=params, frozen=True)
    return model, meta


PREDICTION_COLUMNS = ["event_id", "label", "prediction", "item_id", "segment"]


def save_predictions(path, records, meta: dict, tags: dict | None = None) -> None:
    """Per-example prediction dump; ``tags`` optionally labels events."""
    tags = tags or {}
    write_table(
        path,
        "predictions",
        meta,
        PREDICTION_COLUMNS,
        (
            [
                str(r.event_id),
                str(r.label),
                repr(float(r.prediction)),
                str(r.item_id),
                tags.get(r.event_id, "-"),
            ]
            for r in records
        ),
    )


def _parse_label(text: str) -> int:
    label = int(text)
    if label not in (0, 1):
        raise ValueError(f"label {label} is not 0 or 1")
    return label


def _parse_probability(text: str) -> float:
    p = float(text)
    if not 0.0 <= p <= 1.0:  # NaN fails too
        raise ValueError(f"prediction {p!r} is not in [0, 1]")
    return p


def load_predictions(path):
    """Read a dump written by ``save_predictions``; returns (records, meta),
    the meta values as strings. Raises ArtifactMismatchError on other
    columns, a field that does not parse, a label other than 0 or 1, or a
    prediction that is NaN or outside [0, 1]. ``segment`` is not read back."""
    meta, columns, rows = read_table(path, "predictions")
    if columns != PREDICTION_COLUMNS:
        raise ArtifactMismatchError(f"{path}: columns {columns}, expected {PREDICTION_COLUMNS}")
    parsers = (int, _parse_label, _parse_probability, int)
    try:
        records = [PredictionRecord(*(parse(text) for parse, text in zip(parsers, r))) for r in rows]
    except ValueError as exc:
        raise field_error(path, columns, rows, parsers) from exc
    return records, meta
