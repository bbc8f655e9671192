"""Generator-level oracles: skew calibration, drift, labels, stream shape."""

import dataclasses

import numpy as np
import pytest

from semidlab.corpus import (
    DAY,
    CorpusConfig,
    CorpusConfigError,
    ItemTable,
    calibrate_skew,
    generate_items,
    generate_stream,
    generate_users,
    ground_truth_ctr,
    inject_aa_pairs,
    load_events,
    load_items,
    load_users,
    sample_items_at,
    save_events,
    save_items,
    save_users,
    substream,
    zipf_head_share,
)
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
            oi, ci = extended.index_of[orig], extended.index_of[copy]
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

    def test_users_round_trip(self, tmp_path):
        users = generate_users(small_config(n_users=20))
        save_users(tmp_path / "users.tsv", users, {"config_hash": "x", "seed": "1"})
        loaded, _ = load_users(tmp_path / "users.tsv")
        assert np.array_equal(loaded.preferences, users.preferences)

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
