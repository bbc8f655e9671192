"""The benchmark's three workloads over semidlab's public functions.

Each workload has a set-up (its inputs and any frozen model it reads),
a measured phase that runs once per repetition, and output checks that
run after the clock stops. All inputs derive from the workload seed.
The corpus keeps the default ``CorpusConfig`` shape (20k items, 2k
users, 100k train and 10k eval events; tokenize-corpus draws a smaller
stream); table size 20k, ``d_m`` 16 and batch 32 are the
``RankerConfig`` defaults.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from semidlab import analysis, corpus, ranker, rqvae, runfiles, tokenization

TABLE_SIZE = 20_000
CODEBOOK_SIZE = 64
PREFIX_DEPTH = 3

# train-semid-transformer: events per repetition
TRAIN_EVENTS = 128
EVAL_EVENTS = 256

# score-hash-pma
BRIEF_TRAIN_EVENTS = 256
SCORE_EVAL_EVENTS = 512
DRIFT_WINDOW_EVENTS = 128
CLICK_CONTEXT_EVENTS = 3
CLICK_POOL_SIZE = 200
CLICK_SET_SIZE = 5
CLICK_DEPTHS = (1, 2, 3)
AA_PAIRS = 64

# share of clicked events in every event set the ranker trains on or
# scores; the stream's own click rate ranges from 3% to 35% over seeds
POSITIVE_SHARE = 1 / 8

# RQ-VAE epochs when the Semantic ID table is only an input (set-up of
# the ranker workloads)
SETUP_RQVAE_EPOCHS = 2

# tokenize-corpus: 2 RQ-VAE epochs and an 11k-event stream keep each
# stage near half a second (20 epochs take ~7 s; see README.md);
# fourgram needs four code levels
TOKENIZE_RQVAE_EPOCHS = 2
TOKENIZE_TRAIN_EVENTS = 10_000
TOKENIZE_EVAL_EVENTS = 1_000
TOKENIZE_LEVELS = 4
WARMUP_ITEMS = 5_000


# sizes of the two halves of the reference loop, about 0.7 ms each
REFERENCE_STEPS = 15_000
REFERENCE_OBJECTS = 2_500


def reference_s() -> float:
    """Time of a fixed pure-Python loop that calls nothing in semidlab.

    It samples the machine's speed at the moment it runs: on a shared VM
    the same code runs up to 1.6x slower for stretches of a minute or
    more (README.md). Integer arithmetic tracks the interpreter's speed,
    and building small dicts, tuples and lists tracks allocation, which
    slows more on the read-side workload. The garbage collector is off,
    so the heap the workload leaves behind does not change the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(REFERENCE_STEPS):
            total += i * i
        objects = {}
        for i in range(REFERENCE_OBJECTS):
            objects[(i, i & 7)] = [i, str(i)]
        total += sum(len(v) for v in objects.values())
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """Named consecutive stage times of one repetition.

    After each stage it samples ``reference_s`` outside the stage's time,
    so every repetition carries the machine's speed next to its stages.
    """

    def __init__(self):
        self.stages: dict[str, float] = {}
        self.references: list[float] = []
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        self.stages[stage] = time.perf_counter() - self._last
        self.references.append(reference_s())
        self._last = time.perf_counter()

    def rep(self, quality: float, outputs: dict) -> "Rep":
        return Rep(self.stages, quality, min(self.references), outputs)


@dataclass
class Rep:
    """One measured repetition: stage times, quality guard, the fastest
    reference sample taken next to its stages, and outputs."""

    stages: dict
    quality: float
    reference_s: float
    outputs: dict = field(default_factory=dict, repr=False)

    @property
    def wall_s(self) -> float:
        return sum(self.stages.values())


def _corpus_config(seed: int, **overrides) -> corpus.CorpusConfig:
    return corpus.CorpusConfig(seed=seed, **overrides)


def _semid_table(items: corpus.ItemTable, rq_config: rqvae.RqVaeConfig):
    model = rqvae.RqVaeModel.initialize(rq_config)
    curve = rqvae.train(model, items.embeddings)
    assignments, errors = rqvae.assign(model, dict(zip(items.raw_ids.tolist(), items.embeddings)))
    return assignments, errors, curve


def _prefix_lookup(assignments) -> tokenization.SemanticIdLookup:
    p = tokenization.TokenParameterization("prefix_ngram", CODEBOOK_SIZE, PREFIX_DEPTH)
    return tokenization.SemanticIdLookup(assignments, p, TABLE_SIZE)


# ---------------------------------------------------------------------------
# output checks; each returns a list of failure messages


def check_predictions(records, ne) -> list[str]:
    p = np.array([r.prediction for r in records])
    out = []
    if not (np.all(np.isfinite(p)) and np.all(p > 0.0) and np.all(p < 1.0)):
        out.append("predictions outside the open interval (0, 1)")
    if not math.isfinite(ne):
        out.append(f"eval NE is not finite: {ne}")
    return out


def check_rows(lookup, ids, rows=None) -> list[str]:
    """Every ID maps to ``output_count`` rows, row g inside block g."""
    g_count = lookup.output_count
    block = lookup.table_size // g_count
    rows = rows if rows is not None else [lookup.rows(i) for i in ids]
    for raw_id, r in zip(ids, rows):
        if len(r) != g_count or any(not g * block <= x < (g + 1) * block for g, x in enumerate(r)):
            return [f"{type(lookup).__name__}: id {raw_id} maps to rows {list(r)} outside its blocks"]
    return []


def event_set(pool, n: int, items: corpus.ItemTable, capacity: int, rng) -> list:
    """``n`` events from ``pool`` with a fixed label mix and full histories.

    The stream's click rate ranges from 3% to 35% over seeds, and a
    history holds clicks only. A plain slice of the stream would then
    change the work per event with the seed, and on a low-rate seed it
    can hold a single class, on which NE is undefined. The set takes the
    first ``n * POSITIVE_SHARE`` clicked events in pool order and the
    first unclicked ones for the rest, in stream order. Each short history
    is completed with items alive at the event, drawn from ``rng`` and
    stamped no later than the event's oldest real entry. The ranker pads
    short histories, so full ones carry the most rows.
    """
    n_pos = max(1, round(n * POSITIVE_SHARE))
    pos = [e for e in pool if e.label == 1][:n_pos]
    neg = [e for e in pool if e.label == 0][: n - n_pos]
    if len(pos) < n_pos or len(neg) < n - n_pos:
        raise ValueError(f"pool of {len(pool)} events lacks {n_pos} clicked and {n - n_pos} unclicked ones")
    out = []
    for e in sorted(pos + neg, key=lambda e: e.event_id):
        history = list(e.history[:capacity])
        if len(history) < capacity:
            alive = np.flatnonzero(items.alive_mask(e.timestamp))
            stamp = history[-1][1] if history else e.timestamp
            picks = rng.choice(alive, size=capacity - len(history), replace=False)
            history += [(int(items.raw_ids[i]), stamp) for i in picks]
        out.append(dataclasses.replace(e, history=tuple(history)))
    return out


def _event_item_ids(events) -> list[int]:
    ids = {e.item_id for e in events}
    for e in events:
        ids.update(item for item, _ in e.history)
    return sorted(ids)


# ---------------------------------------------------------------------------
# train-semid-transformer


class TrainSemidTransformer:
    name = "train-semid-transformer"
    quality = ("eval_ne", "ratio")
    rate_units = {"train_events_per_s": "1/s", "eval_events_per_s": "1/s"}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.corpus_config = _corpus_config(seed)
        self.rq_config = rqvae.RqVaeConfig(epochs=SETUP_RQVAE_EPOCHS, seed=seed)
        self.ranker_config = ranker.RankerConfig(aggregation="transformer", seed=seed)

    def config(self) -> dict:
        return {
            "corpus": self.corpus_config.to_dict(),
            "rqvae": self.rq_config.to_dict(),
            "ranker": self.ranker_config.to_dict(),
            "lookup": ["prefix_ngram", CODEBOOK_SIZE, PREFIX_DEPTH, TABLE_SIZE],
            "events": [TRAIN_EVENTS, EVAL_EVENTS],
        }

    def setup(self) -> list[str]:
        cfg = self.corpus_config
        items = corpus.generate_items(cfg)
        stream = corpus.generate_stream(items, corpus.generate_users(cfg), cfg)
        assignments, errors, _ = _semid_table(items, self.rq_config)
        self.lookup = _prefix_lookup(assignments)
        rng = np.random.default_rng([self.seed, 1])
        self.train_events = event_set(stream.train[::-1], TRAIN_EVENTS, items, cfg.history_capacity, rng)
        self.eval_events = event_set(stream.eval, EVAL_EVENTS, items, cfg.history_capacity, rng)
        return [f"assign errors: {len(errors)}"] if errors else []

    def run(self) -> Rep:
        sw = Stopwatch()
        model = ranker.RankerModel.initialize(self.ranker_config, self.lookup, self.lookup)
        sw.lap("init")
        ranker.train_one_epoch(model, self.train_events)
        sw.lap("train")
        ev = ranker.evaluate(model, self.eval_events)
        sw.lap("eval")
        return sw.rep(ev.ne, {"eval": ev})

    def rates(self, best: dict) -> dict:
        return {
            "train_events_per_s": len(self.train_events) / best["train"],
            "eval_events_per_s": len(self.eval_events) / best["eval"],
        }

    def check(self, rep: Rep) -> list[str]:
        ev = rep.outputs["eval"]
        ids = _event_item_ids(self.train_events + self.eval_events)
        return check_predictions(ev.records, ev.ne) + check_rows(self.lookup, ids)


# ---------------------------------------------------------------------------
# score-hash-pma


class ScoreHashPma:
    name = "score-hash-pma"
    quality = ("eval_ne", "ratio")
    rate_units = {"eval_events_per_s": "1/s", "candidates_per_s": "1/s"}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.corpus_config = _corpus_config(seed)
        self.rq_config = rqvae.RqVaeConfig(epochs=SETUP_RQVAE_EPOCHS, seed=seed)
        self.ranker_config = ranker.RankerConfig(aggregation="pma", seed=seed)
        self.checkpoint_path = os.path.join(workdir, "pma.ckpt")
        self.predictions_path = os.path.join(workdir, "predictions.tsv")

    def config(self) -> dict:
        return {
            "corpus": self.corpus_config.to_dict(),
            "rqvae": self.rq_config.to_dict(),
            "ranker": self.ranker_config.to_dict(),
            "lookup": ["random_hash", TABLE_SIZE, self.seed],
            "events": [BRIEF_TRAIN_EVENTS, SCORE_EVAL_EVENTS, DRIFT_WINDOW_EVENTS],
            "click_loss": [CLICK_CONTEXT_EVENTS, CLICK_POOL_SIZE, CLICK_SET_SIZE, list(CLICK_DEPTHS)],
            "aa_pairs": AA_PAIRS,
        }

    def setup(self) -> list[str]:
        cfg = self.corpus_config
        self.items = corpus.generate_items(cfg)
        self.users = corpus.generate_users(cfg)
        stream = corpus.generate_stream(self.items, self.users, cfg)
        self.semid_table, errors, _ = _semid_table(self.items, self.rq_config)
        self.lookup = tokenization.RandomHash(TABLE_SIZE, seed=self.seed)
        model = ranker.RankerModel.initialize(self.ranker_config, self.lookup, self.lookup)
        ranker.train_one_epoch(model, stream.train[-BRIEF_TRAIN_EVENTS:])
        self.meta = {"config_hash": runfiles.config_hash(self.config()), "seed": self.seed}
        ranker.save_ranker(self.checkpoint_path, model, meta=self.meta)
        self.trained = model

        rng = np.random.default_rng([self.seed, 2])
        capacity = cfg.history_capacity
        self.eval_events = event_set(stream.eval, SCORE_EVAL_EVENTS, self.items, capacity, rng)
        train = stream.train
        counts: dict = {}
        for e in train:
            counts[e.item_id] = counts.get(e.item_id, 0) + 1
        self.segments = analysis.build_segments(
            counts, self.items.raw_ids.tolist(), [e.item_id for e in self.eval_events]
        )
        self.tags = {e.event_id: self.segments.tag(e.item_id) for e in self.eval_events}
        # drift windows of a fixed event count: the oldest training events
        # and the newest ones; each window spans exactly its own events
        early = event_set(train, DRIFT_WINDOW_EVENTS, self.items, capacity, rng)
        late = event_set(train[::-1], DRIFT_WINDOW_EVENTS, self.items, capacity, rng)
        self.early = (early[0].timestamp, early[-1].timestamp + 1)
        self.late = (late[0].timestamp, late[-1].timestamp + 1)
        self.drift_events = early + late
        self.context_events = self.eval_events[:CLICK_CONTEXT_EVENTS]
        # candidate scorings click_loss_analog makes: a pool per context
        # event that has enough alive items
        alive = [int(self.items.alive_mask(e.timestamp).sum()) for e in self.context_events]
        self.candidates = sum(min(CLICK_POOL_SIZE, n) for n in alive if n >= CLICK_SET_SIZE + 1)
        window = (stream.train_end, self.eval_events[-1].timestamp + 1)
        _, pairs = corpus.inject_aa_pairs(self.items, AA_PAIRS, window, self.seed)
        self.aa_events = [
            (
                corpus.ImpressionEvent(-1, c.timestamp, c.user_id, orig, c.label, c.history),
                corpus.ImpressionEvent(-1, c.timestamp, c.user_id, copy, c.label, c.history),
            )
            for (orig, copy), c in zip(pairs, self.eval_events)
        ]
        return [f"assign errors: {len(errors)}"] if errors else []

    def prepare(self) -> None:
        """Reference scores of the trained model, for the reload check."""
        self.reference = ranker.evaluate(self.trained, self.eval_events)
        del self.trained

    def run(self) -> Rep:
        sw = Stopwatch()
        model, _ = ranker.load_ranker(self.checkpoint_path, self.lookup, self.lookup)
        sw.lap("load")
        ev = ranker.evaluate(model, self.eval_events, keep_attention=True)
        sw.lap("eval")
        ranker.save_predictions(self.predictions_path, ev.records, self.meta, self.tags)
        loaded, loaded_meta = ranker.load_predictions(self.predictions_path)
        segments = analysis.segment_ne(loaded, self.segments)
        sw.lap("dump")
        gap = analysis.drifting_gap(model, self.drift_events, self.early, self.late)
        sw.lap("drift")
        clicks = analysis.click_loss_analog(
            model, self.items, self.users, self.semid_table, self.context_events, CLICK_DEPTHS,
            temperature=self.corpus_config.temperature, bias=self.corpus_config.ctr_bias,
            set_size=CLICK_SET_SIZE, pool_size=CLICK_POOL_SIZE, seed=self.seed,
        )
        sw.lap("click")
        aa = analysis.aar_report(
            [(ranker.forward(model, a).probability, ranker.forward(model, b).probability) for a, b in self.aa_events]
        )
        attention = analysis.attention_metrics(ev.attentions)
        sw.lap("aa")
        return sw.rep(ev.ne, {
            "eval": ev, "loaded": loaded, "loaded_meta": loaded_meta, "segments": segments,
            "gap": gap, "clicks": clicks, "aa": aa, "attention": attention,
        })

    def rates(self, best: dict) -> dict:
        return {
            "eval_events_per_s": (len(self.eval_events) + len(self.drift_events)) / (best["eval"] + best["drift"]),
            "candidates_per_s": self.candidates / best["click"],
        }

    def check(self, rep: Rep) -> list[str]:
        out = rep.outputs
        ev = out["eval"]
        fails = check_predictions(ev.records, ev.ne)
        if not np.array_equal([r.prediction for r in ev.records], [r.prediction for r in self.reference.records]):
            fails.append("reloaded checkpoint does not score bit-identically to the saved model")
        if out["loaded"] != ev.records or out["loaded_meta"].get("config_hash") != self.meta["config_hash"]:
            fails.append("prediction dump does not round-trip")
        if out["segments"]["overall"]["ne"] != ev.ne:
            fails.append("segment NE over the reloaded dump differs from the eval NE")
        finite = [out["gap"]["gap"], out["aa"]["mean_abs"], out["attention"]["entropy"]]
        if not all(math.isfinite(v) for v in finite):
            fails.append(f"non-finite analysis output: {finite}")
        if out["clicks"][CLICK_DEPTHS[0]]["n_swaps"] == 0:
            fails.append("click-loss analog made no swaps")
        ids = _event_item_ids(self.eval_events + self.drift_events)
        return fails + check_rows(self.lookup, ids)


# ---------------------------------------------------------------------------
# tokenize-corpus


class TokenizeCorpus:
    name = "tokenize-corpus"
    quality = ("rqvae_recon", "loss")
    rate_units = {"rqvae_items_per_s": "1/s", "tokenize_items_per_s": "1/s"}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.corpus_config = _corpus_config(
            seed, n_train_events=TOKENIZE_TRAIN_EVENTS, n_eval_events=TOKENIZE_EVAL_EVENTS
        )
        self.rq_config = rqvae.RqVaeConfig(levels=TOKENIZE_LEVELS, epochs=TOKENIZE_RQVAE_EPOCHS, seed=seed)
        self.meta = {"config_hash": runfiles.config_hash(self.config()), "seed": seed}

    def config(self) -> dict:
        return {
            "corpus": self.corpus_config.to_dict(),
            "rqvae": self.rq_config.to_dict(),
            "parameterizations": [list(p) for p in self._parameterizations()],
            "random_hash": [TABLE_SIZE, self.seed],
        }

    @staticmethod
    def _parameterizations():
        return [(v, CODEBOOK_SIZE, PREFIX_DEPTH if v == "prefix_ngram" else 0) for v in tokenization.VARIANTS]

    def setup(self) -> list[str]:
        """A pass over a small corpus fills lazy initialisation and caches."""
        small = _corpus_config(self.seed, n_items=WARMUP_ITEMS, n_train_events=2_000, n_eval_events=200)
        rq = rqvae.RqVaeConfig(levels=TOKENIZE_LEVELS, epochs=TOKENIZE_RQVAE_EPOCHS, seed=self.seed)
        return self.check(self._pipeline(small, rq))

    def run(self) -> Rep:
        return self._pipeline(self.corpus_config, self.rq_config)

    def _pipeline(self, cfg, rq_config) -> Rep:
        events_path = os.path.join(self.workdir, "events.tsv")
        items_path = os.path.join(self.workdir, "items.tsv")
        table_path = os.path.join(self.workdir, "semid.tsv")
        sw = Stopwatch()
        items = corpus.generate_items(cfg)
        stream = corpus.generate_stream(items, corpus.generate_users(cfg), cfg)
        events = stream.train + stream.eval
        sw.lap("corpus")
        corpus.save_events(events_path, events, self.meta)
        sw.lap("events_save")
        loaded_events, _ = corpus.load_events(events_path)
        sw.lap("events_load")
        corpus.save_items(items_path, items, self.meta)
        sw.lap("items_save")
        corpus.load_items(items_path)
        sw.lap("items_load")
        model = rqvae.RqVaeModel.initialize(rq_config)
        curve = rqvae.train(model, items.embeddings)
        sw.lap("rqvae")
        ids = items.raw_ids.tolist()
        assignments, errors = rqvae.assign(model, dict(zip(ids, items.embeddings)))
        sw.lap("assign")
        lookups = {
            p[0]: tokenization.SemanticIdLookup(assignments, tokenization.TokenParameterization(*p), TABLE_SIZE)
            for p in self._parameterizations()
        }
        lookups["random_hash"] = tokenization.RandomHash(TABLE_SIZE, seed=self.seed)
        rows = []
        for name, lk in lookups.items():
            rows.append([lk.rows(i) for i in ids])
            sw.lap(f"rows.{name}")
        rqvae.save_semid_table(table_path, assignments, self.meta)
        loaded_table, _ = rqvae.load_semid_table(table_path)
        sw.lap("semid_io")
        analysis.distribution_exports(items, stream.train, assignments)
        sw.lap("exports")
        return sw.rep(curve[-1]["reconstruction"], {
            "ids": ids, "errors": errors, "lookups": list(lookups.values()), "rows": rows, "assignments": assignments,
            "loaded_table": loaded_table, "events": events, "loaded_events": loaded_events,
        })

    def rates(self, best: dict) -> dict:
        n = self.corpus_config.n_items
        return {
            "rqvae_items_per_s": n * self.rq_config.epochs / best["rqvae"],
            "tokenize_items_per_s": n / (best["assign"] + sum(v for k, v in best.items() if k.startswith("rows."))),
        }

    def check(self, rep: Rep) -> list[str]:
        # the item table round trip is left out until save_items keeps
        # ItemTable.bias
        out = rep.outputs
        fails = [f"assign errors: {len(out['errors'])}"] if out["errors"] else []
        for lk, r in zip(out["lookups"], out["rows"]):
            fails += check_rows(lk, out["ids"], r)
        if out["loaded_table"] != out["assignments"]:
            fails.append("Semantic ID table does not round-trip")
        if out["loaded_events"] != out["events"]:
            fails.append("event stream does not round-trip")
        if not math.isfinite(rep.quality):
            fails.append(f"RQ-VAE reconstruction loss is not finite: {rep.quality}")
        return fails


WORKLOADS = {w.name: w for w in (TrainSemidTransformer, ScoreHashPma, TokenizeCorpus)}
