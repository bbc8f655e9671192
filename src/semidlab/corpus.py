"""Synthetic item corpus and impression-stream generator.

Reproduces the three pathologies the ranking experiments probe, with
ground truth attached so analyses can be checked against the generator:

* cardinality: many more items than embedding-table rows;
* impression skew: Zipf popularity weights, calibrated so the head
  fraction of items carries a target share of the mass;
* ID drifting: geometric item lifetimes plus continuous new-item births,
  so the live corpus turns over within days.

Item content embeddings come from a three-level nested Gaussian-mixture
hierarchy; the generator path of every item is kept as a label, which is
what cluster-purity and semantic-continuity oracles compare against.
Labels are drawn from a logistic model in the content embedding, so
semantically similar items have similar click-through rates by
construction.

Time is integer seconds from epoch 0; a day is 86400 seconds.

Item tables, user tables and event streams persist in the binary
container of ``checkpoint`` (bit-exact numeric arrays, integer fields as
int64). A value that is not an integer inside int64 in an integer field
(a ``birth`` of 0.5, say) raises CorpusConfigError before a file opens.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .checkpoint import CheckpointError, Config, check_arrays, int64_array, load_checkpoint, save_checkpoint
from .metrics import logistic

DAY = 86_400

# rng substream ids, mixed with the corpus seed
_S_IDS, _S_HIERARCHY, _S_LIFETIME, _S_WEIGHTS, _S_USERS, _S_STREAM, _S_AA, _S_BIAS = range(8)


def substream(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


class CorpusConfigError(ValueError):
    pass


@dataclass
class CorpusConfig(Config):
    """Everything the generator needs; serializable as a flat JSON object."""

    n_items: int = 20_000
    embedding_dim: int = 16
    branching: tuple[int, int, int] = (4, 4, 4)
    level_scales: tuple[float, float, float, float] = (1.0, 0.5, 0.25, 0.1)
    zipf_exponent: float | None = None  # None -> calibrate to the head target
    head_fraction: float = 0.001
    head_share_target: float = 0.25
    median_lifetime_days: float = 6.0
    horizon_days: float = 5.0
    initial_cohort_fraction: float = 0.5
    n_users: int = 2_000
    history_capacity: int = 8
    temperature: float = 6.0
    ctr_bias: float = -2.5
    bias_scale: float = 1.5
    train_days: float = 4.0
    eval_hours: float = 6.0
    n_train_events: int = 100_000
    n_eval_events: int = 10_000
    seed: int = 0

    def __post_init__(self):
        self.check_integers(CorpusConfigError)
        self.level_scales = tuple(float(s) for s in self.level_scales)
        self.check_finite(CorpusConfigError)
        if min(self.n_items, self.n_users, self.n_train_events, self.n_eval_events) <= 0:
            raise CorpusConfigError("item, user, and event counts must be positive")
        if len(self.branching) != 3 or min(self.branching) < 1:
            raise CorpusConfigError("branching must be three positive component counts")
        if len(self.level_scales) != 4:
            raise CorpusConfigError(f"level_scales must hold four scales, got {self.level_scales}")
        if self.temperature <= 0 or self.embedding_dim < 1:
            raise CorpusConfigError("temperature and embedding_dim must be positive")
        if self.horizon_days < 1.0:
            raise CorpusConfigError("horizon must be at least one day")
        if self.train_days + self.eval_hours / 24.0 > self.horizon_days + 1e-9:
            raise CorpusConfigError("train window plus eval window exceeds the horizon")
        if self.median_lifetime_days <= 0 or self.history_capacity < 1:
            raise CorpusConfigError("median lifetime and history capacity must be positive")
        if not 0.0 < self.initial_cohort_fraction <= 1.0:
            raise CorpusConfigError("initial cohort fraction must be in (0, 1]")


@dataclass
class ItemTable:
    """Struct-of-arrays view of the generated items."""

    raw_ids: np.ndarray  # int64, unique
    embeddings: np.ndarray  # n x d
    top: np.ndarray  # generator path labels per level
    mid: np.ndarray
    leaf: np.ndarray
    birth: np.ndarray  # int64 seconds
    death: np.ndarray  # int64 seconds, exclusive
    weight: np.ndarray  # popularity, sums to 1 over the original corpus
    bias: np.ndarray  # per-item CTR bias, a pure function of the embedding

    def __len__(self):
        return len(self.raw_ids)

    def alive_mask(self, t: int) -> np.ndarray:
        return (self.birth <= t) & (t < self.death)


@dataclass
class UserTable:
    preferences: np.ndarray  # n_users x d

    def __len__(self):
        return self.preferences.shape[0]


@dataclass(slots=True)
class ImpressionEvent:
    event_id: int
    timestamp: int
    user_id: int
    item_id: int  # raw item ID
    label: int
    history: tuple  # ((item_id, timestamp), ...) most-recent-first, len <= capacity


@dataclass
class Stream:
    train: list
    eval: list
    train_end: int  # first timestamp of the eval window


def _unique_raw_ids(n: int, rng: np.random.Generator, taken=()) -> np.ndarray:
    seen = set(int(x) for x in taken)
    out: list[int] = []
    while len(out) < n:
        for v in rng.integers(1, 2**62, size=n - len(out)):
            v = int(v)
            if v not in seen:
                seen.add(v)
                out.append(v)
    return np.asarray(out, dtype=np.int64)


def zipf_head_share(n_items: int, exponent: float, head_fraction: float) -> float:
    """Weight share of the top ``head_fraction`` of items under Zipf(exponent)."""
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    w = ranks ** (-float(exponent))
    m = max(1, int(round(head_fraction * n_items)))
    return float(w[:m].sum() / w.sum())


def calibrate_skew(config: CorpusConfig) -> float:
    """Binary-search the Zipf exponent for the configured head share.

    The head share is monotone nondecreasing in the exponent, so plain
    bisection converges; if even a uniform corpus exceeds the target the
    best achievable exponent (0) is returned with a warning.
    """
    n, frac, target = config.n_items, config.head_fraction, config.head_share_target
    lo, hi = 0.0, 8.0
    if zipf_head_share(n, lo, frac) >= target:
        warnings.warn(
            f"head target {target} unreachable: uniform weights already give "
            f"{zipf_head_share(n, lo, frac):.4f}; using exponent 0"
        )
        return lo
    while zipf_head_share(n, hi, frac) < target:
        hi *= 2.0
        if hi > 64.0:
            warnings.warn(f"head target {target} unreachable at corpus size {n}; using {hi}")
            return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if zipf_head_share(n, mid, frac) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_items(config: CorpusConfig) -> ItemTable:
    """Draw the item corpus: embeddings, lifetimes, births, popularity."""
    d = config.embedding_dim
    b1, b2, b3 = config.branching
    s_top, s_mid, s_leaf, s_item = config.level_scales

    rng = substream(config.seed, _S_HIERARCHY)
    top_means = rng.normal(0.0, s_top, size=(b1, d))
    mid_means = np.repeat(top_means, b2, axis=0) + rng.normal(0.0, s_mid, size=(b1 * b2, d))
    leaf_means = np.repeat(mid_means, b3, axis=0) + rng.normal(0.0, s_leaf, size=(b1 * b2 * b3, d))
    leaf = rng.integers(0, b1 * b2 * b3, size=config.n_items)
    embeddings = leaf_means[leaf] + rng.normal(0.0, s_item, size=(config.n_items, d))
    mid = leaf // b3
    top = mid // b2

    rng = substream(config.seed, _S_LIFETIME)
    # geometric lifetimes in whole days: P(alive after m days) = 0.5 at the
    # configured median m
    p_day = 1.0 - 0.5 ** (1.0 / config.median_lifetime_days)
    lifetime_days = rng.geometric(p_day, size=config.n_items)
    n_cohort = max(1, int(round(config.initial_cohort_fraction * config.n_items)))
    horizon_s = int(config.horizon_days * DAY)
    birth = np.zeros(config.n_items, dtype=np.int64)
    if config.n_items > n_cohort:
        # later arrivals: a Poisson process over the horizon, realized as
        # uniform arrival times given the fixed count
        birth[n_cohort:] = rng.integers(1, horizon_s, size=config.n_items - n_cohort)
    death = birth + lifetime_days.astype(np.int64) * DAY

    rng = substream(config.seed, _S_WEIGHTS)
    exponent = config.zipf_exponent
    if exponent is None:
        exponent = calibrate_skew(config)
    ranks = rng.permutation(config.n_items) + 1
    weight = ranks.astype(np.float64) ** (-float(exponent))
    weight /= weight.sum()

    # per-item CTR bias along a fixed random direction of embedding space:
    # a pure function of the content embedding, so exact copies and
    # same-content duplicates always share it
    direction = substream(config.seed, _S_BIAS).normal(size=d)
    direction /= np.linalg.norm(direction)
    bias = config.ctr_bias + config.bias_scale * (embeddings @ direction)

    raw_ids = _unique_raw_ids(config.n_items, substream(config.seed, _S_IDS))
    return ItemTable(
        raw_ids=raw_ids,
        embeddings=embeddings,
        top=top.astype(np.int64),
        mid=mid.astype(np.int64),
        leaf=leaf.astype(np.int64),
        birth=birth,
        death=death,
        weight=weight,
        bias=bias,
    )


def generate_users(config: CorpusConfig) -> UserTable:
    rng = substream(config.seed, _S_USERS)
    return UserTable(preferences=rng.normal(0.0, 1.0, size=(config.n_users, config.embedding_dim)))


# keeps the oracle away from degenerate 0/1 labels even for saturating logits
_CTR_CLIP = 1e-12


def ground_truth_ctr(preferences, embeddings, temperature: float, bias):
    """Label oracle: logistic in the content embedding, so semantically
    close items get close probabilities for the same user.

    Row-wise over the last axis: (N, d) preferences and embeddings give
    N probabilities, and one preference vector broadcasts against a
    block of embeddings (two vectors give a 0-d array). ``bias`` is the
    item's own bias term (see ``ItemTable.bias``), a scalar or one per
    row. Probabilities are clipped to [1e-12, 1 - 1e-12].
    """
    logits = np.einsum("...j,...j->...", preferences, embeddings) / float(temperature) + np.asarray(bias)
    return np.clip(logistic(logits), _CTR_CLIP, 1.0 - _CTR_CLIP)


def sample_items_at(rng: np.random.Generator, items: ItemTable, timestamps: np.ndarray) -> np.ndarray:
    """Sample one item per timestamp, weight-proportional among alive items.

    Rejection against the static weight distribution keeps the conditional
    law exact: resample until the candidate is alive at its timestamp.
    """
    cum = np.cumsum(items.weight)
    cum /= cum[-1]
    n = timestamps.size
    chosen = np.full(n, -1, dtype=np.int64)
    pending = np.arange(n)
    for _ in range(10_000):
        if pending.size == 0:
            return chosen
        cand = np.minimum(np.searchsorted(cum, rng.random(pending.size), side="right"), len(items) - 1)
        t = timestamps[pending]
        ok = (items.birth[cand] <= t) & (t < items.death[cand])
        chosen[pending[ok]] = cand[ok]
        pending = pending[~ok]
    raise RuntimeError("no alive item found for some timestamps after 10000 rounds")


def generate_stream(items: ItemTable, users: UserTable, config: CorpusConfig) -> Stream:
    """Sample the labeled impression stream and maintain user histories.

    Histories record positive interactions only (an engagement history),
    appended after the event so every snapshot is strictly causal.
    """
    rng = substream(config.seed, _S_STREAM)
    train_end = int(config.train_days * DAY)
    eval_end = train_end + int(config.eval_hours * 3600)
    ts = np.concatenate(
        [
            np.sort(rng.integers(0, train_end, size=config.n_train_events)),
            np.sort(rng.integers(train_end, eval_end, size=config.n_eval_events)),
        ]
    )
    user_ids = rng.integers(0, len(users), size=ts.size)
    item_idx = sample_items_at(rng, items, ts)
    ctr = ground_truth_ctr(
        users.preferences[user_ids],
        items.embeddings[item_idx],
        config.temperature,
        items.bias[item_idx],
    )
    labels = (rng.random(ts.size) < ctr).astype(np.int64)

    histories = [deque(maxlen=config.history_capacity) for _ in range(len(users))]
    train: list[ImpressionEvent] = []
    evals: list[ImpressionEvent] = []
    raw = items.raw_ids
    for eid in range(ts.size):
        u = int(user_ids[eid])
        t = int(ts[eid])
        item_id = int(raw[item_idx[eid]])
        label = int(labels[eid])
        snapshot = tuple(reversed(histories[u]))
        ev = ImpressionEvent(eid, t, u, item_id, label, snapshot)
        (train if eid < config.n_train_events else evals).append(ev)
        if label == 1:
            histories[u].append((item_id, t))
    return Stream(train=train, eval=evals, train_end=train_end)


def inject_aa_pairs(items: ItemTable, count: int, window: tuple[int, int], seed: int):
    """Create exact item copies under fresh raw IDs for A/A scoring.

    Copies share every ``ItemTable`` field of their original but
    ``raw_ids``: embedding, generator path, lifetime, weight and bias;
    they are created after stream generation so they can never appear in
    training events. Returns (extended item table, list of
    (original_id, copy_id)).
    """
    t0, t1 = window
    rng = substream(seed, _S_AA)
    alive = np.flatnonzero((items.birth < t1) & (items.death > t0))
    if alive.size == 0:
        raise ValueError("no items alive in the requested window")
    count = min(count, alive.size)
    originals = rng.choice(alive, size=count, replace=False)
    copy_ids = _unique_raw_ids(count, rng, taken=items.raw_ids)
    copies = {f.name: getattr(items, f.name)[originals] for f in fields(ItemTable)} | {"raw_ids": copy_ids}
    extended = ItemTable(**{name: np.concatenate([getattr(items, name), c]) for name, c in copies.items()})
    pairs = [(int(items.raw_ids[o]), int(c)) for o, c in zip(originals, copy_ids)]
    return extended, pairs


# ---------------------------------------------------------------------------
# persistence (see the module docstring)


# array name -> (container dtype, shape); None matches any length
_ITEM_ARRAYS = {
    "raw_ids": ("<i8", (None,)),
    "embeddings": ("<f8", (None, None)),
    "top": ("<i8", (None,)),
    "mid": ("<i8", (None,)),
    "leaf": ("<i8", (None,)),
    "birth": ("<i8", (None,)),
    "death": ("<i8", (None,)),
    "weight": ("<f8", (None,)),
    "bias": ("<f8", (None,)),
}
_USER_ARRAYS = {"preferences": ("<f8", (None, None))}


def save_items(path, items: ItemTable, meta: dict) -> None:
    arrays = {}
    for name, (dt, _) in _ITEM_ARRAYS.items():
        value = getattr(items, name)
        arrays[name] = int64_array(value, name, CorpusConfigError) if dt == "<i8" else np.asarray(value, dtype=dt)
    save_checkpoint(path, arrays, meta=meta)


def load_items(path):
    """Read an item table; CheckpointError on wrong names, types, shapes or lengths."""
    arrays, meta = load_checkpoint(path)
    check_arrays(path, arrays, _ITEM_ARRAYS)
    lengths = {name: a.shape[0] for name, a in arrays.items()}
    if len(set(lengths.values())) > 1:
        raise CheckpointError(f"{path}: item arrays differ in length: {lengths}")
    return ItemTable(**arrays), meta


def save_users(path, users: UserTable, meta: dict) -> None:
    save_checkpoint(path, {"preferences": np.asarray(users.preferences, dtype=np.float64)}, meta=meta)


def load_users(path):
    """Read a user table; CheckpointError on a wrong name, type or shape."""
    arrays, meta = load_checkpoint(path)
    check_arrays(path, arrays, _USER_ARRAYS)
    return UserTable(preferences=arrays["preferences"]), meta


# (N,) int64 arrays; the (E, 2) ``history`` holds the (item_id, timestamp)
# entries back to back, and event i owns the history_length[i] rows after
# those of the events before it, most recent first
_EVENT_COLUMNS = ("event_id", "timestamp", "user_id", "item_id", "label", "history_length")
_EVENT_ARRAYS = {name: ("<i8", (None,)) for name in _EVENT_COLUMNS} | {"history": ("<i8", (None, 2))}


def save_events(path, events, meta: dict) -> None:
    """Write any iterable of events as int64 arrays; a value that is not an
    integer inside int64 raises CorpusConfigError before the file is opened."""
    rows, history = [], []
    for e in events:
        rows.append((e.event_id, e.timestamp, e.user_id, e.item_id, e.label, len(e.history)))
        history.extend(e.history)
    columns = int64_array(rows, "event fields", CorpusConfigError).reshape(len(rows), 6)
    history = int64_array(history, "event history", CorpusConfigError).reshape(len(history), 2)
    save_checkpoint(path, dict(zip(_EVENT_COLUMNS, columns.T), history=history), meta=meta)


def load_events(path):
    """Read an event stream; returns (events, meta). Raises CheckpointError
    on wrong names, types or shapes, columns of different lengths, history
    lengths that are negative or do not sum to E, or a label not 0 or 1."""
    arrays, meta = load_checkpoint(path)
    check_arrays(path, arrays, _EVENT_ARRAYS)
    lengths = {name: len(arrays[name]) for name in _EVENT_COLUMNS}
    if len(set(lengths.values())) > 1:
        raise CheckpointError(f"{path}: event arrays differ in length: {lengths}")
    counts, history, labels = arrays["history_length"], arrays["history"], arrays["label"]
    if np.any(counts < 0):
        raise CheckpointError(f"{path}: negative history length {counts.min()}")
    # with every length at most E the int64 sum cannot wrap
    if np.any(counts > len(history)) or counts.sum() != len(history):
        raise CheckpointError(f"{path}: history lengths sum to {sum(counts.tolist())}, not {len(history)}")
    if np.any((labels != 0) & (labels != 1)):
        raise CheckpointError(f"{path}: labels must be 0 or 1, got {np.setdiff1d(labels, [0, 1]).tolist()}")
    entries = list(map(tuple, history.tolist()))
    columns = [arrays[name].tolist() for name in _EVENT_COLUMNS]
    rows = zip(*columns, np.cumsum(counts).tolist())
    return [ImpressionEvent(*f, tuple(entries[end - n : end])) for *f, n, end in rows], meta
