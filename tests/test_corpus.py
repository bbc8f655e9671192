"""Generator-level oracles: skew calibration, drift, labels, stream shape."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from semidlab.checkpoint import CheckpointError, SemanticIdTable, load_checkpoint, save_checkpoint
from semidlab.corpus import (
    DAY,
    CorpusConfig,
    CorpusConfigError,
    ImpressionEvent,
    ItemTable,
    calibrate_skew,
    generate_items,
    generate_stream,
    generate_users,
    ground_truth_ctr,
    inject_aa_pairs,
    load_events,
    load_items,
    sample_items_at,
    save_events,
    save_items,
    substream,
    zipf_head_share,
)
from semidlab.rqvae import load_semid_table, save_semid_table
from semidlab.tokenization import RandomHash


def small_config(**overrides):
    base = dict(
        n_items=4000,
        embedding_dim=8,
        n_users=300,
        n_train_events=6000,
        n_eval_events=800,
        horizon_days=5.0,
        train_days=4.0,
        eval_hours=6.0,
        history_capacity=5,
        seed=11,
    )
    base.update(overrides)
    return CorpusConfig(**base)


class TestConfigValidation:
    def test_zero_horizon_rejected(self):
        with pytest.raises(CorpusConfigError):
            small_config(horizon_days=0.0)

    def test_windows_must_fit_horizon(self):
        with pytest.raises(CorpusConfigError):
            small_config(horizon_days=2.0, train_days=4.0)

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(CorpusConfigError):
            small_config(n_items=0)


@pytest.mark.parametrize("fields", [
    {"temperature": float("nan")}, {"temperature": 0.0}, {"temperature": -1.0}, {"embedding_dim": 0},
    {"level_scales": (1.0, 0.5)}, {"level_scales": (1.0, 0.5, float("inf"), 0.1)},
    {"median_lifetime_days": float("nan")}, {"train_days": float("nan")}, {"ctr_bias": float("-inf")},
    {"zipf_exponent": float("nan")},
])
def test_config_rejects_values_that_fail_late_or_silently(fields):
    with pytest.raises(CorpusConfigError):
        small_config(**fields)


class TestItemGeneration:
    def test_initial_cohort_survival_at_median(self):
        # half the starting corpus should be gone by the median lifetime
        fractions = []
        for seed in (1, 2, 3):
            cfg = small_config(n_items=10_000, median_lifetime_days=6.0, horizon_days=8.0, seed=seed)
            items = generate_items(cfg)
            cohort = items.birth == 0
            alive = items.death[cohort] > 6 * DAY
            fractions.append(alive.mean())
        for f in fractions:
            assert 0.48 <= f <= 0.52

    def test_survival_decays_monotonically(self):
        items = generate_items(small_config(n_items=8000))
        cohort = items.birth == 0
        curve = [(items.death[cohort] > d * DAY).mean() for d in range(0, 15)]
        assert curve[0] == 1.0
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_degenerate_hierarchy_is_tight(self):
        cfg = small_config(n_items=500, branching=(1, 1, 1))
        items = generate_items(cfg)
        assert set(items.top) == {0} and set(items.leaf) == {0}
        rng = np.random.default_rng(0)
        i, j = rng.integers(0, 500, size=(2, 200))
        dists = np.linalg.norm(items.embeddings[i] - items.embeddings[j], axis=1)
        # only the item-level noise remains: distances ~ sqrt(2)*0.1*sqrt(d)
        assert dists.mean() < 1.0

    def test_same_leaf_closer_than_different_top(self):
        items = generate_items(small_config(n_items=6000, seed=3))
        rng = np.random.default_rng(5)
        same_leaf, diff_top = [], []
        leaf = items.leaf
        top = items.top
        for _ in range(4000):
            i, j = rng.integers(0, len(items), size=2)
            d = np.linalg.norm(items.embeddings[i] - items.embeddings[j])
            if leaf[i] == leaf[j]:
                same_leaf.append(d)
            elif top[i] != top[j]:
                diff_top.append(d)
        assert len(same_leaf) > 10 and len(diff_top) > 10
        assert np.mean(same_leaf) < np.mean(diff_top)

    def test_raw_ids_unique(self):
        items = generate_items(small_config())
        assert len(set(items.raw_ids.tolist())) == len(items)

    def test_determinism_bit_for_bit(self):
        a = generate_items(small_config(seed=9))
        b = generate_items(small_config(seed=9))
        assert np.array_equal(a.raw_ids, b.raw_ids)
        assert np.array_equal(a.embeddings, b.embeddings)
        assert np.array_equal(a.death, b.death)
        assert np.array_equal(a.weight, b.weight)


class TestSkewCalibration:
    def test_uniform_exponent_gives_uniform_share(self):
        assert zipf_head_share(10_000, 0.0, 0.001) == pytest.approx(0.001)

    def test_share_monotone_in_exponent(self):
        grid = [zipf_head_share(50_000, s, 0.001) for s in np.linspace(0.0, 3.0, 13)]
        assert all(a <= b + 1e-12 for a, b in zip(grid, grid[1:]))

    def test_calibrated_head_share_in_band(self):
        cfg = small_config(n_items=50_000)
        exponent = calibrate_skew(cfg)
        share = zipf_head_share(cfg.n_items, exponent, cfg.head_fraction)
        assert 0.23 <= share <= 0.27

    def test_generated_weights_respect_calibration(self):
        cfg = small_config(n_items=30_000)
        items = generate_items(cfg)
        w = np.sort(items.weight)[::-1]
        m = int(round(cfg.head_fraction * cfg.n_items))
        assert 0.23 <= w[:m].sum() <= 0.27

    def test_unreachable_target_warns(self):
        cfg = small_config(n_items=100, head_fraction=0.5, head_share_target=0.25)
        with pytest.warns(UserWarning):
            calibrate_skew(cfg)


class TestGroundTruthCtr:
    def test_identical_embeddings_identical_probability(self):
        rng = np.random.default_rng(0)
        pref = rng.normal(size=8)
        emb = rng.normal(size=8)
        a = ground_truth_ctr(pref, emb, 4.0, -2.2)
        b = ground_truth_ctr(pref, emb.copy(), 4.0, -2.2)
        assert a == b

    def test_probability_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = ground_truth_ctr(rng.normal(size=8) * 10, rng.normal(size=8) * 10, 1.0, 0.0)
            assert 0.0 < p < 1.0

    def test_rows_match_single_vector_calls(self):
        rng = np.random.default_rng(2)
        prefs = rng.normal(size=(50, 16)) * 3
        embs = rng.normal(size=(50, 16))
        bias = rng.normal(size=50)
        rows = ground_truth_ctr(prefs, embs, 2.0, bias)
        single = [ground_truth_ctr(prefs[i], embs[i], 2.0, bias[i]) for i in range(50)]
        assert rows.shape == (50,)
        assert rows.tobytes() == np.array(single).tobytes()

    def test_one_preference_broadcasts_over_a_block(self):
        rng = np.random.default_rng(3)
        pref = rng.normal(size=16)
        embs = rng.normal(size=(7, 16)) * 40
        block = ground_truth_ctr(pref, embs, 1.0, -1.0)
        tiled = ground_truth_ctr(np.tile(pref, (7, 1)), embs, 1.0, np.full(7, -1.0))
        assert block.tobytes() == tiled.tobytes()
        assert np.all((block >= 1e-12) & (block <= 1.0 - 1e-12))

    def test_same_leaf_swap_changes_ctr_less_than_cross_top_swap(self):
        cfg = small_config(n_items=6000, seed=4)
        items = generate_items(cfg)
        users = generate_users(cfg)
        rng = np.random.default_rng(6)
        same_leaf_deltas, cross_top_deltas = [], []
        for _ in range(3000):
            u = rng.integers(0, len(users))
            i = rng.integers(0, len(items))
            base = ground_truth_ctr(users.preferences[u], items.embeddings[i], cfg.temperature, cfg.ctr_bias)
            same = np.flatnonzero(items.leaf == items.leaf[i])
            cross = np.flatnonzero(items.top != items.top[i])
            if same.size < 2 or cross.size == 0:
                continue
            j = int(rng.choice(same[same != i]))
            k = int(rng.choice(cross))
            pj = ground_truth_ctr(users.preferences[u], items.embeddings[j], cfg.temperature, cfg.ctr_bias)
            pk = ground_truth_ctr(users.preferences[u], items.embeddings[k], cfg.temperature, cfg.ctr_bias)
            same_leaf_deltas.append(abs(pj - base))
            cross_top_deltas.append(abs(pk - base))
        assert np.mean(same_leaf_deltas) < np.mean(cross_top_deltas)


class TestStream:
    def test_eval_strictly_after_train(self):
        cfg = small_config()
        stream = generate_stream(generate_items(cfg), generate_users(cfg), cfg)
        last_train = max(e.timestamp for e in stream.train)
        first_eval = min(e.timestamp for e in stream.eval)
        assert last_train < stream.train_end <= first_eval

    def test_history_snapshots_are_causal_and_capped(self):
        cfg = small_config(history_capacity=3)
        stream = generate_stream(generate_items(cfg), generate_users(cfg), cfg)
        for e in stream.train + stream.eval:
            assert len(e.history) <= 3
            for _, t in e.history:
                assert t < e.timestamp
            times = [t for _, t in e.history]
            assert times == sorted(times, reverse=True), "history must be most-recent-first"

    def test_history_contains_only_positive_interactions_of_that_user(self):
        cfg = small_config()
        stream = generate_stream(generate_items(cfg), generate_users(cfg), cfg)
        clicked = {}
        for e in stream.train + stream.eval:
            for item, t in e.history:
                assert (e.user_id, item, t) in clicked
            if e.label == 1:
                clicked[(e.user_id, e.item_id, e.timestamp)] = True

    def test_item_draws_follow_popularity_weights(self):
        # freeze drift out (everything born at 0, near-immortal), then
        # check segment shares against configured weights at 1e6 draws
        cfg = small_config(
            n_items=3000, median_lifetime_days=1e6, initial_cohort_fraction=1.0, seed=8
        )
        items = generate_items(cfg)
        rng = substream(cfg.seed, 99)
        ts = np.zeros(1_000_000, dtype=np.int64)
        idx = sample_items_at(rng, items, ts)
        counts = np.bincount(idx, minlength=len(items))
        order = np.argsort(-items.weight, kind="stable")
        wshare = np.cumsum(items.weight[order])
        cshare = np.cumsum(counts[order]) / counts.sum()
        for cut in (0.25, 0.75):
            k = int(np.searchsorted(wshare, cut))
            assert abs(cshare[k] - wshare[k]) < 0.02

    def test_segment_size_shares_stable_across_seeds(self):
        shares = []
        for seed in (21, 22, 23):
            cfg = small_config(
                n_items=20_000, median_lifetime_days=1e6, initial_cohort_fraction=1.0, seed=seed
            )
            items = generate_items(cfg)
            idx = sample_items_at(substream(seed, 99), items, np.zeros(1_000_000, dtype=np.int64))
            counts = np.bincount(idx, minlength=len(items))
            order = np.argsort(-counts, kind="stable")
            cum = np.cumsum(counts[order]) / counts.sum()
            head = np.searchsorted(cum, 0.25) + 1
            torso = np.searchsorted(cum, 0.75) + 1
            shares.append((head / len(items), torso / len(items)))
        heads = [s[0] for s in shares]
        torsos = [s[1] for s in shares]
        assert max(heads) <= 1.2 * min(heads) + 1e-9
        assert max(torsos) <= 1.2 * min(torsos) + 1e-9

    def test_stream_determinism(self):
        cfg = small_config()
        s1 = generate_stream(generate_items(cfg), generate_users(cfg), cfg)
        s2 = generate_stream(generate_items(cfg), generate_users(cfg), cfg)
        for a, b in zip(s1.train + s1.eval, s2.train + s2.eval):
            assert (a.event_id, a.timestamp, a.user_id, a.item_id, a.label, a.history) == (
                b.event_id,
                b.timestamp,
                b.user_id,
                b.item_id,
                b.label,
                b.history,
            )


class TestAaPairs:
    def test_copies_share_embedding_and_never_train(self):
        cfg = small_config()
        items = generate_items(cfg)
        users = generate_users(cfg)
        stream = generate_stream(items, users, cfg)
        window = (stream.train_end, stream.train_end + int(cfg.eval_hours * 3600))
        extended, pairs = inject_aa_pairs(items, 50, window, seed=cfg.seed)
        assert len(pairs) == 50
        train_ids = {e.item_id for e in stream.train}
        for orig, copy in pairs:
            assert copy not in train_ids
            (oi,), (ci,) = np.flatnonzero(extended.raw_ids == orig), np.flatnonzero(extended.raw_ids == copy)
            assert np.array_equal(extended.embeddings[oi], extended.embeddings[ci])
            assert extended.leaf[oi] == extended.leaf[ci]
            assert orig != copy

    def test_copy_random_hash_row_usually_differs(self):
        cfg = small_config()
        items = generate_items(cfg)
        window = (0, int(cfg.horizon_days * DAY))
        _, pairs = inject_aa_pairs(items, 200, window, seed=3)
        h = RandomHash(100, seed=0)
        differs = sum(h.rows(a) != h.rows(b) for a, b in pairs)
        # collision chance is 1/H per pair
        assert differs >= 180

    def test_a_window_with_no_item_alive_raises(self):
        items = generate_items(small_config())
        end = int(items.death.max())
        # items alive over [t0, t1) are born before t1 and die after t0
        for window in [(end, end + DAY), (-DAY, int(items.birth.min()))]:
            with pytest.raises(ValueError, match="no items alive in the requested window"):
                inject_aa_pairs(items, 5, window, seed=1)


class TestPersistence:
    def test_items_round_trip(self, tmp_path):
        items = generate_items(small_config(n_items=200))
        meta = {"config_hash": "deadbeef", "seed": "11"}
        save_items(tmp_path / "items.tsv", items, meta)
        loaded, meta2 = load_items(tmp_path / "items.tsv")
        assert meta2 == meta
        assert np.ptp(items.bias) > 0  # the per-item bias is not a constant
        for f in dataclasses.fields(ItemTable):
            a, b = getattr(loaded, f.name), getattr(items, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype, f.name
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    def test_users_regenerate_from_the_seed(self):
        # no user table is written: a run draws the same users again from the corpus seed
        users = generate_users(small_config(n_users=20))
        assert users.preferences.shape == (20, small_config().embedding_dim)
        again = generate_users(small_config(n_users=20, n_items=77, n_train_events=5))
        assert again.preferences.tobytes() == users.preferences.tobytes()
        other = generate_users(small_config(n_users=20, seed=small_config().seed + 1))
        assert not np.array_equal(other.preferences, users.preferences)

    def test_events_round_trip(self, tmp_path):
        cfg = small_config(n_items=500, n_train_events=300, n_eval_events=50)
        stream = generate_stream(generate_items(cfg), generate_users(cfg), cfg)
        save_events(tmp_path / "train.tsv", stream.train, {"config_hash": "x", "seed": "1"})
        loaded, _ = load_events(tmp_path / "train.tsv")
        assert len(loaded) == len(stream.train)
        for a, b in zip(loaded, stream.train):
            assert (a.event_id, a.timestamp, a.user_id, a.item_id, a.label, a.history) == (
                b.event_id,
                b.timestamp,
                b.user_id,
                b.item_id,
                b.label,
                b.history,
            )


# ---------------------------------------------------------------------------
# item tables and event streams in the binary container

INT64_EDGES = [2**62, -(2**62), 2**62 - 1, 2**63 - 1, -(2**63), 0, -1]
FLOAT_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -1e-310, np.inf, -np.inf]
int64_values = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT64_EDGES))
float_values = st.one_of(st.floats(width=64), st.sampled_from(FLOAT_EDGES))


@st.composite
def item_tables(draw):
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 5))

    def ints():
        return draw(hnp.arrays(np.int64, n, elements=int64_values))

    def floats(shape):
        return draw(hnp.arrays(np.float64, shape, elements=float_values))

    return ItemTable(
        raw_ids=draw(hnp.arrays(np.int64, n, elements=int64_values, unique=True)),
        embeddings=floats((n, d)),
        top=ints(),
        mid=ints(),
        leaf=ints(),
        birth=ints(),
        death=ints(),
        weight=floats(n),
        bias=floats(n),
    )


def assert_same_table(a, b):
    for f in dataclasses.fields(type(b)):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, f.name
            assert x.tobytes() == y.tobytes(), f.name  # -0.0, subnormals and NaN payloads too
        else:
            assert x == y, f.name


@settings(max_examples=40, deadline=None)
@given(items=item_tables(), seed=int64_values)
def test_item_table_round_trips_every_field(tmp_path_factory, items, seed):
    path = tmp_path_factory.mktemp("items") / "items.bin"
    meta = {"config_hash": "abc", "seed": seed}
    save_items(path, items, meta)
    loaded, meta2 = load_items(path)
    assert meta2 == meta
    assert_same_table(loaded, items)


@st.composite
def event_streams(draw):
    def event():
        n = draw(st.sampled_from([0, 8]) | st.integers(0, 8))
        history = tuple((draw(int64_values), draw(int64_values)) for _ in range(n))
        fields = [draw(int64_values) for _ in range(4)]
        return ImpressionEvent(*fields, draw(st.sampled_from([0, 1])), history)

    return [event() for _ in range(draw(st.integers(0, 6)))]


@settings(max_examples=60, deadline=None)
@given(events=event_streams(), seed=int64_values)
def test_event_stream_round_trips_every_field(tmp_path_factory, events, seed):
    path = tmp_path_factory.mktemp("events") / "events.bin"
    meta = {"config_hash": "abc", "seed": seed}
    save_events(path, events, meta)
    loaded, meta2 = load_events(path)
    assert meta2 == meta
    assert [dataclasses.astuple(e) for e in loaded] == [dataclasses.astuple(e) for e in events]
    assert all(type(v) is int for e in loaded for v in dataclasses.astuple(e)[:5])


class TestTableFiles:
    # each table kind's file and loader
    LOADERS = {"items.bin": load_items, "events.bin": load_events, "semid.bin": load_semid_table}

    def _items(self):
        return generate_items(small_config(n_items=50))

    def _save_tables(self, tmp_path):
        save_items(tmp_path / "items.bin", self._items(), {"seed": 1})
        events = [ImpressionEvent(i, 10 * i, 3, 17 + i, i % 2, ((17, i),) * (i % 3)) for i in range(8)]
        save_events(tmp_path / "events.bin", events, {"seed": 1})
        table = SemanticIdTable(np.arange(40), np.arange(120).reshape(40, 3) % 7)
        save_semid_table(tmp_path / "semid.bin", table, {"seed": 1})

    def test_foreign_file_raises(self, tmp_path):
        (tmp_path / "notes.txt").write_text("# seed=1\nnot a container\n", encoding="utf-8")
        for load in self.LOADERS.values():
            with pytest.raises(CheckpointError, match="bad magic"):
                load(tmp_path / "notes.txt")

    @pytest.mark.parametrize("cut", [4, 30, 200, -1])
    def test_truncated_file_raises(self, tmp_path, cut):
        self._save_tables(tmp_path)
        for name, load in self.LOADERS.items():
            path = tmp_path / name
            data = path.read_bytes()
            assert len(data) > cut
            path.write_bytes(data[:cut])
            with pytest.raises(CheckpointError):
                load(path)

    def test_one_table_is_not_the_other(self, tmp_path):
        self._save_tables(tmp_path)
        for name, load in self.LOADERS.items():
            for other in sorted(self.LOADERS.keys() - {name}):
                with pytest.raises(CheckpointError, match="names differ"):
                    load(tmp_path / other)

    def test_a_name_two_entries_share_raises(self, tmp_path):
        # the second array takes the first one's name, so one of them would be dropped
        self._save_tables(tmp_path)
        for name, load in self.LOADERS.items():
            path = tmp_path / name
            raw = path.read_bytes()
            (n,) = struct.unpack("<I", raw[8:12])
            header = json.loads(raw[12 : 12 + n])
            first, second = header["params"][:2]
            second["name"] = first["name"]
            new = json.dumps(header).encode("utf-8")
            path.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + n :])
            with pytest.raises(CheckpointError, match=rf"array names repeat: \['{first['name']}'\]"):
                load(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bias", lambda a: a[:-1]),  # one row short
            ("embeddings", lambda a: a[:, 0]),  # 1-D
            ("raw_ids", lambda a: a.astype(np.float64)),  # IDs would lose precision
            ("weight", lambda a: a.astype(np.int64)),
        ],
    )
    def test_wrong_shape_length_or_type_raises(self, tmp_path, field, value):
        items = self._items()
        arrays = {f: getattr(items, f) for f in
                  ("raw_ids", "embeddings", "top", "mid", "leaf", "birth", "death", "weight", "bias")}
        arrays[field] = value(arrays[field])
        save_checkpoint(tmp_path / "items.bin", arrays, meta={"seed": 1})
        with pytest.raises(CheckpointError, match=field):
            load_items(tmp_path / "items.bin")

    @pytest.mark.parametrize("field", ["embeddings", "death", "bias"])
    def test_arrays_that_disagree_on_the_row_count_name_both(self, tmp_path, field):
        items = self._items()
        arrays = {f.name: getattr(items, f.name) for f in dataclasses.fields(ItemTable)}
        arrays[field] = arrays[field][:-1]
        save_checkpoint(tmp_path / "items.bin", arrays, meta={"seed": 1})
        with pytest.raises(CheckpointError, match=f"length N is 50 in 'raw_ids' but 49 in '{field}'"):
            load_items(tmp_path / "items.bin")

    def test_event_history_must_be_a_matrix(self, tmp_path):
        path = tmp_path / "events.bin"
        save_events(path, [ImpressionEvent(0, 10, 3, 17, 1, ((17, 1),))], {"seed": 1})
        arrays, meta = load_checkpoint(path)
        save_checkpoint(path, arrays | {"history": arrays["history"].ravel()}, meta=meta)
        with pytest.raises(CheckpointError, match="'history' has shape"):
            load_events(path)
