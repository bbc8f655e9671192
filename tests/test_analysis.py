"""Metric definitions: NE, segments, drift, clusters, attention, AAR, exports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from semidlab.analysis import (
    MetricsReport,
    aar,
    aar_report,
    attention_metrics,
    build_segments,
    click_loss_analog,
    cluster_geometry,
    default_drift_windows,
    distribution_exports,
    drifting_gap,
    gini,
    long_retention,
    segment_ne,
)
from semidlab.corpus import (
    CorpusConfig,
    generate_items,
    generate_stream,
    generate_users,
)
from semidlab.metrics import SingleClassError, normalized_entropy
from semidlab.ranker import PredictionRecord, RankerConfig, RankerModel, evaluate
from semidlab.tokenization import RandomHash


class TestNormalizedEntropy:
    def test_base_rate_prediction_is_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = (rng.random(500) < 0.3).astype(float)
            if y.mean() in (0.0, 1.0):
                continue
            ne = normalized_entropy(y, np.full(500, y.mean()))
            assert abs(ne - 1.0) <= 1e-9

    def test_hand_case(self):
        assert normalized_entropy([1, 0], [0.5, 0.5]) == 1.0

    def test_perfect_predictions_near_zero(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        ne = normalized_entropy(y, np.where(y == 1, 1.0 - 1e-7, 1e-7))
        assert ne < 1e-5

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            normalized_entropy([1, 1, 1], [0.5, 0.5, 0.5])


def records_from(labels, preds, item_ids):
    return [
        PredictionRecord(i, int(l), float(p), int(x))
        for i, (l, p, x) in enumerate(zip(labels, preds, item_ids))
    ]


class TestSegments:
    def test_partition_counts_sum_to_total(self):
        counts = {1: 100, 2: 50, 3: 10, 4: 1, 5: 0}
        seg = build_segments(counts, universe=[1, 2, 3, 4, 5], eval_item_ids=[5, 6])
        assert seg.head | seg.torso | seg.tail == {1, 2, 3, 4, 5}
        assert not (seg.head & seg.torso) and not (seg.torso & seg.tail)
        # both the unseen-in-universe item and the eval-only id are new
        assert seg.new_items == {5, 6}

    @pytest.mark.parametrize("universe, eval_ids", [
        ([1, 1.9], [1]),  # 1.9 became item 1
        ([1, 2], [1.9]),
        (np.array([1.0, 2.0]), [1]),
        ([1, 2], [True]),
        ([1, 2**63], [1]),
    ])
    def test_non_integer_item_ids_are_refused_not_truncated(self, universe, eval_ids):
        with pytest.raises(ValueError, match="integers inside int64"):
            build_segments({1: 3}, universe=universe, eval_item_ids=eval_ids)

    def test_numpy_item_ids_give_the_segments_of_python_ints(self):
        counts = {1: 5, 2: 3, 3: 1}
        want = build_segments(counts, universe=[3, 1, 2], eval_item_ids=[2, 4])
        got = build_segments(counts, universe=np.array([3, 1, 2]), eval_item_ids=np.array([2, 4], dtype=np.int32))
        assert got == want
        assert all(type(x) is int for x in got.head | got.torso | got.tail | got.new_items)

    def test_new_items_disjoint_from_train_seen(self):
        counts = {1: 5}
        seg = build_segments(counts, universe=[1, 2], eval_item_ids=[1, 2])
        assert seg.new_items == {2}
        assert seg.train_seen == {1}

    def test_segment_ne_equals_one_under_segment_base_rates(self):
        counts = {1: 60, 2: 30, 3: 1}
        seg = build_segments(counts, universe=[1, 2, 3], eval_item_ids=[1, 2, 3])
        rng = np.random.default_rng(1)
        recs = []
        eid = 0
        for item, p in ((1, 0.5), (2, 0.25), (3, 0.75)):
            labels = (rng.random(400) < p).astype(int)
            base = labels.mean()
            for l in labels:
                recs.append(PredictionRecord(eid, int(l), float(base), item))
                eid += 1
        report = segment_ne(recs, seg)
        for name in ("head", "torso", "tail"):
            if report[name]["ne"] is not None:
                assert report[name]["ne"] == pytest.approx(1.0, abs=1e-9)
        total = sum(report[k]["count"] for k in ("head", "torso", "tail"))
        assert total == report["overall"]["count"]

    def test_single_class_segment_marked_unavailable(self):
        counts = {1: 10, 2: 5}
        seg = build_segments(counts, universe=[1, 2], eval_item_ids=[1, 2])
        recs = records_from([1, 1, 0], [0.5, 0.5, 0.5], [1, 1, 2])
        report = segment_ne(recs, seg)
        assert report["head"]["ne"] is None or report["tail"]["ne"] is None

    def test_calibrated_corpus_head_share_near_production_value(self):
        cfg = CorpusConfig(n_items=20_000, n_users=10, n_train_events=10, n_eval_events=10,
                           initial_cohort_fraction=1.0, median_lifetime_days=1e6, seed=2)
        items = generate_items(cfg)
        # impressions proportional to weights: use scaled weights as counts
        counts = {int(x): w for x, w in zip(items.raw_ids, items.weight * 1e6)}
        seg = build_segments(counts, universe=items.raw_ids.tolist(), eval_item_ids=[])
        n = len(items)
        head_share = len(seg.head) / n
        torso_share = len(seg.torso) / n
        tail_share = len(seg.tail) / n
        assert 0.0005 <= head_share <= 0.002  # ~0.1% of items carry 25%
        assert head_share < torso_share < tail_share
        assert tail_share > 0.7


class TestDriftGap:
    def _stream_model(self):
        cfg = CorpusConfig(n_items=800, embedding_dim=8, n_users=60, n_train_events=2500,
                           n_eval_events=300, history_capacity=4, seed=3)
        items = generate_items(cfg)
        users = generate_users(cfg)
        stream = generate_stream(items, users, cfg)
        rcfg = RankerConfig(d_m=4, history_length=4, top_mlp=(8,), seed=3)
        model = RankerModel.initialize(rcfg, RandomHash(64, seed=1), RandomHash(64, seed=2))
        return stream, model

    def test_identical_windows_zero_gap(self):
        stream, model = self._stream_model()
        win = (0, stream.train_end)
        out = drifting_gap(model, stream.train, win, win)
        assert out["gap"] == 0.0

    def test_constant_predictor_equal_base_rates_zero_gap(self):
        stream, model = self._stream_model()
        # constant predictions: zero all parameters so the logit is fixed
        for p in model.params.values():
            p.value[:] = 0.0
        # craft two windows with matched label counts so base rates agree
        events = stream.train
        early = [e for e in events if e.timestamp < stream.train_end // 2]
        late = [e for e in events if e.timestamp >= stream.train_end // 2]
        n_ones = min(sum(e.label for e in early), sum(e.label for e in late))
        n_zeros = min(sum(1 - e.label for e in early), sum(1 - e.label for e in late))
        assert n_ones > 0 and n_zeros > 0

        def matched(window):
            ones = [e for e in window if e.label == 1][:n_ones]
            zeros = [e for e in window if e.label == 0][:n_zeros]
            return sorted(ones + zeros, key=lambda e: e.event_id)

        from semidlab import ranker

        ne_early = ranker.evaluate(model, matched(early)).ne
        ne_late = ranker.evaluate(model, matched(late)).ne
        assert ne_early == pytest.approx(ne_late, abs=1e-12)

    def test_empty_window_rejected(self):
        stream, model = self._stream_model()
        with pytest.raises(ValueError):
            drifting_gap(model, stream.train, (0, 1), (0, stream.train_end))

    def test_default_windows_scale_with_horizon(self):
        end = 96 * 3600  # a 4-day horizon reproduces the reference windows
        early, late = default_drift_windows(end)
        assert early == (end - 48 * 3600, end - 42 * 3600)
        assert late == (end - 6 * 3600, end)
        early2, late2 = default_drift_windows(end // 4)
        assert early2 == (end // 4 - 12 * 3600, end // 4 - int(10.5 * 3600))
        assert late2 == (end // 4 - int(1.5 * 3600), end // 4)


class TestRetention:
    def test_zero_extra_data_zero_gain(self):
        assert long_retention({"rh": 0.9}, {"rh": 0.9}) == {"rh": 0.0}

    def test_deterministic(self):
        a = long_retention({"rh": 0.9, "semid": 0.8}, {"rh": 0.85, "semid": 0.7})
        b = long_retention({"rh": 0.9, "semid": 0.8}, {"rh": 0.85, "semid": 0.7})
        assert a == b
        assert a["semid"] == pytest.approx(-0.1)


class TestClusterGeometry:
    def test_singleton_partition_has_no_variance_clusters(self):
        emb = {i: np.array([float(i), 0.0]) for i in range(10)}
        partition = {i: i for i in range(10)}
        out = cluster_geometry(emb, partition)
        assert out["all"].variance_mean is None
        assert out["all"].distance_mean is not None

    def test_single_cluster_distance_unavailable(self):
        emb = {i: np.array([float(i), 0.0]) for i in range(10)}
        partition = {i: 0 for i in range(10)}
        out = cluster_geometry(emb, partition)
        assert out["all"].distance_mean is None
        assert out["all"].variance_mean is not None

    def test_semantic_partition_has_lower_variance_than_random(self):
        cfg = CorpusConfig(n_items=3000, embedding_dim=8, n_users=10, n_train_events=10,
                           n_eval_events=10, seed=4)
        items = generate_items(cfg)
        emb = {int(x): items.embeddings[i] for i, x in enumerate(items.raw_ids)}
        semantic = {int(x): int(items.leaf[i]) for i, x in enumerate(items.raw_ids)}
        rng = np.random.default_rng(5)
        random_part = {int(x): int(rng.integers(0, 64)) for x in items.raw_ids}
        sem_stats = cluster_geometry(emb, semantic)["all"]
        rnd_stats = cluster_geometry(emb, random_part)["all"]
        assert sem_stats.variance_mean < rnd_stats.variance_mean

    def test_small_cluster_group_filters_sizes(self):
        emb = {i: np.array([float(i % 7), 1.0]) for i in range(40)}
        partition = {i: ("big" if i < 25 else f"small{i % 3}") for i in range(40)}
        out = cluster_geometry(emb, partition, small_sizes=(4, 10))
        assert out["small"].n_clusters == 3
        assert out["top"].n_clusters == 4


class TestAttentionMetrics:
    def test_uniform_matrix_exact_values(self):
        s = 8
        a = np.full((s, s), 1.0 / s)
        pad = np.array([False] * 6 + [True] * 2)
        out = attention_metrics([(a, pad)])
        assert out["first"] == 1.0 / s
        assert out["pad"] == pytest.approx(2.0 / s, abs=1e-15)
        assert out["entropy"] == math.log2(s)  # exact for a power of two
        assert out["self"] == 1.0 / s

    def test_all_mass_on_padding(self):
        a = np.zeros((3, 4))
        a[:, 3] = 1.0
        out = attention_metrics([(a, np.array([False, False, False, True]))])
        assert out["pad"] == 1.0

    def test_identity_matrix(self):
        out = attention_metrics([(np.eye(5), np.zeros(5, dtype=bool))])
        assert out["self"] == 1.0
        assert out["entropy"] == 0.0  # 0 log 0 := 0

    def test_pooled_attention_has_no_self_metric(self):
        a = np.full((2, 5), 0.2)
        out = attention_metrics([(a, np.zeros(5, dtype=bool))])
        assert out["self"] is None


@st.composite
def attention_records(draw):
    """(matrix, pad mask) records over one to three shapes, square ones
    among them, with zero entries, and pads anywhere or as a suffix."""
    shapes = draw(st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 20)).map(lambda s: s if s[0] % 3 else (s[1], s[1])),
        min_size=1, max_size=3,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share, pad_share = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 1.0))
    records = []
    for _ in range(draw(st.integers(1, 40))):
        rows, cols = shapes[int(rng.integers(len(shapes)))]
        a = rng.random((rows, cols)) ** 3
        a[rng.random((rows, cols)) < zero_share] = 0.0
        a /= np.maximum(a.sum(axis=1, keepdims=True), 1e-300)
        if rng.random() < 0.5:
            pad = rng.random(cols) < pad_share
        else:
            pad = np.arange(cols) >= rng.integers(0, cols + 1)
        records.append((a, pad))
    return records


class TestAttentionMetricsAgainstTheLoop:
    @settings(max_examples=150, deadline=None)
    @given(records=attention_records())
    def test_equals_the_per_record_loop(self, records):
        assert attention_metrics(records) == oracles.attention_metrics(records)

    def test_mixed_shapes_average_per_record_values_in_input_order(self):
        rng = np.random.default_rng(3)
        records = []
        for shape in [(4, 8), (8, 8), (4, 8), (3, 9), (8, 8)] * 7:
            a = rng.random(shape)
            records.append((a / a.sum(axis=1, keepdims=True), rng.random(shape[1]) < 0.4))
        got = attention_metrics(records)
        assert got == oracles.attention_metrics(records)
        assert got["self"] is None
        square = [r for r in records if r[0].shape == (8, 8)]
        assert attention_metrics(square) == oracles.attention_metrics(square)
        assert attention_metrics(square)["self"] is not None

    def test_lists_and_int_masks_read_as_arrays(self):
        records = [([[0.5, 0.5], [1.0, 0.0]], [0, 1]), (np.eye(2), np.array([False, False]))]
        assert attention_metrics(records) == oracles.attention_metrics(records)

    def test_no_records_raises(self):
        with pytest.raises(ValueError, match="no attention records"):
            attention_metrics(iter([]))


class TestAar:
    def test_equal_predictions_zero(self):
        assert aar(0.4, 0.4) == 0.0

    def test_hand_case(self):
        assert aar(0.3, 0.1, eps=0.0) == pytest.approx(1.0)

    def test_antisymmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p1, p2 = rng.random(2)
            assert aar(p1, p2) == pytest.approx(-aar(p2, p1), rel=1e-12)

    def test_report_mean_abs(self):
        out = aar_report([(0.4, 0.4), (0.3, 0.1)])
        assert out["n_pairs"] == 2
        assert out["mean_abs"] == pytest.approx(0.5 * (2 * 0.2 / (0.4 + 1e-9)), rel=1e-6)


class TestClickLoss:
    def _setup(self, seed=7):
        cfg = CorpusConfig(n_items=1200, embedding_dim=8, n_users=50, n_train_events=1500,
                           n_eval_events=400, history_capacity=4, seed=seed)
        items = generate_items(cfg)
        users = generate_users(cfg)
        stream = generate_stream(items, users, cfg)
        # perfect-hierarchy codes straight from generator labels
        semid = {
            int(x): (int(items.top[i]), int(items.mid[i] % 4), int(items.leaf[i] % 4))
            for i, x in enumerate(items.raw_ids)
        }
        rcfg = RankerConfig(d_m=4, history_length=4, top_mlp=(8,), seed=seed)
        model = RankerModel.initialize(rcfg, RandomHash(64, seed=1), RandomHash(64, seed=2))
        return cfg, items, users, stream, semid, model

    def test_swap_with_exact_copy_changes_nothing(self):
        assert aar(0.2, 0.2) == 0.0  # degenerate guard
        cfg, items, users, stream, semid, model = self._setup()
        # rate formula: replacing an item by one with the same embedding
        # leaves the set CTR unchanged
        base = np.array([0.2, 0.3, 0.4])
        mutated = base.copy()
        rate = (mutated.mean() - base.mean()) / base.mean()
        assert rate == 0.0

    def test_deep_prefix_swaps_have_small_rates(self):
        cfg, items, users, stream, semid, model = self._setup()
        contexts = stream.eval[:25]
        report = click_loss_analog(
            model, items, users, semid, contexts, depths=(1, 3),
            temperature=cfg.temperature, bias=cfg.ctr_bias,
            set_size=4, pool_size=60, seed=7,
        )
        assert report[3]["n_swaps"] + report[3]["skipped"] > 0
        if report[1]["abs_click_loss_rate"] is not None and report[3]["abs_click_loss_rate"] is not None:
            assert report[3]["abs_click_loss_rate"] <= report[1]["abs_click_loss_rate"] + 0.05

    @pytest.mark.parametrize("seed", [7, 8, 9])
    @pytest.mark.parametrize("table", ["full", "partial", "partial_all_zero_codes"])
    def test_matches_the_dict_search_oracle(self, seed, table):
        cfg, items, users, stream, semid, model = self._setup(seed)
        if table != "full":
            # items missing from the table never count as candidates, even
            # when every code the table holds is 0, as a missing row reads
            kept = np.random.default_rng(seed).random(len(semid)) < 0.6
            semid = {raw: codes for (raw, codes), keep in zip(semid.items(), kept) if keep}
            if table == "partial_all_zero_codes":
                semid = dict.fromkeys(semid, (0, 0, 0))
        # the latest contexts, where many same-prefix items have died
        contexts = stream.eval[-20:]
        assert all((items.death <= e.timestamp).sum() > 100 for e in contexts)
        args = (model, items, users, semid, contexts, (1, 2, 3))
        kwargs = dict(temperature=cfg.temperature, bias=cfg.ctr_bias, set_size=4, pool_size=60, seed=seed)
        report = click_loss_analog(*args, **kwargs)
        assert report == oracles.click_loss_analog(*args, **kwargs)
        assert report[1]["n_swaps"] > 0

    @pytest.mark.parametrize("depths", [(0,), (1, 4), (-1,), (1.5,), (True,), (2.0,)])
    def test_refuses_a_depth_outside_the_code_levels_before_scoring(self, depths):
        cfg, items, users, stream, semid, _ = self._setup()
        # no model: scoring anything would fail with another error
        with pytest.raises(ValueError, match="depth"):
            click_loss_analog(
                None, items, users, semid, stream.eval[:3], depths,
                temperature=cfg.temperature, bias=cfg.ctr_bias, set_size=4, pool_size=60,
            )

    @pytest.mark.parametrize("seed", [7, 8])
    def test_matches_the_oracle_with_table_keys_out_of_item_order(self, seed):
        cfg, items, users, stream, semid, model = self._setup(seed)
        rng = np.random.default_rng(seed)
        # some items missing, the rest in shuffled order, and IDs of no item
        keys = [raw for raw in semid if rng.random() < 0.7]
        rng.shuffle(keys)
        table = {raw: semid[raw] for raw in keys}
        stray = int(items.raw_ids.max()) + 1
        table.update({stray: (0, 0, 0), -stray: semid[keys[0]]})
        args = (model, items, users, table, stream.eval[-20:], (1, 2, 3))
        kwargs = dict(temperature=cfg.temperature, bias=cfg.ctr_bias, set_size=4, pool_size=60, seed=seed)
        report = click_loss_analog(*args, **kwargs)
        assert report == oracles.click_loss_analog(*args, **kwargs)
        assert report[1]["n_swaps"] > 0

    def test_table_of_mixed_code_lengths_raises(self):
        cfg, items, users, stream, semid, model = self._setup()
        semid[int(items.raw_ids[0])] = (1, 2)
        with pytest.raises(ValueError, match="code lengths"):
            click_loss_analog(
                model, items, users, semid, stream.eval[:2], depths=(1,),
                temperature=cfg.temperature, bias=cfg.ctr_bias, set_size=4, pool_size=60,
            )


class TestDistributionExports:
    def _exports(self, seed=8):
        cfg = CorpusConfig(n_items=1500, embedding_dim=8, n_users=80, n_train_events=8000,
                           n_eval_events=500, history_capacity=4, seed=seed)
        items = generate_items(cfg)
        users = generate_users(cfg)
        stream = generate_stream(items, users, cfg)
        semid = {int(x): (int(items.top[i]), int(items.mid[i]), int(items.leaf[i]))
                 for i, x in enumerate(items.raw_ids)}
        return distribution_exports(items, stream.train, semid)

    def test_cumulative_curve_ends_at_one(self):
        out = self._exports()
        share, cum = out["impression_curve"]
        assert share[-1] == 1.0
        assert cum[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cum) >= -1e-15)

    def test_survival_starts_at_one_and_decays(self):
        out = self._exports()
        days, survival = out["survival_curve"]
        assert survival[0] == 1.0
        assert np.all(np.diff(survival) <= 1e-15)

    def test_semid_click_space_less_skewed(self):
        out = self._exports()
        assert out["gini_semid"] < out["gini_raw"]

    @pytest.mark.parametrize("seed", [8, 9])
    @pytest.mark.parametrize("table", ["full", "partial"])
    def test_matches_the_loop_oracle_exactly(self, seed, table):
        cfg = CorpusConfig(n_items=1500, embedding_dim=8, n_users=80, n_train_events=8000,
                           n_eval_events=500, history_capacity=4, seed=seed)
        items = generate_items(cfg)
        stream = generate_stream(items, generate_users(cfg), cfg)
        semid = {int(x): (int(items.top[i]), int(items.mid[i]), int(items.leaf[i]))
                 for i, x in enumerate(items.raw_ids)}
        if table == "partial":
            # clicks on items the table lacks count in raw-ID space only
            kept = np.random.default_rng(seed).random(len(semid)) < 0.7
            semid = {raw: codes for (raw, codes), keep in zip(semid.items(), kept) if keep}
        got = distribution_exports(items, stream.train, semid)
        want = oracles.distribution_exports(items, stream.train, semid)
        assert sorted(got) == sorted(want)
        for name in ("impression_curve", "survival_curve"):
            for g, w in zip(got[name], want[name]):
                assert np.asarray(g).tolist() == w, name
        for name in ("raw_click_counts", "semid_click_counts"):
            assert got[name].dtype == np.float64
            assert got[name].tolist() == want[name], name
        assert got["gini_raw"] == want["gini_raw"]
        assert got["gini_semid"] == want["gini_semid"]
        assert got["gini_raw"] > 0.0 and got["gini_semid"] > 0.0

    def test_gini_hand_values(self):
        assert gini([5, 5, 5, 5]) == 0.0
        n = 10
        assert gini([0] * (n - 1) + [1]) == pytest.approx((n - 1) / n)
        assert gini([]) == 0.0


class TestMetricsReport:
    def test_serialization_is_deterministic(self, tmp_path):
        report = MetricsReport(
            kind="segments",
            metrics={"overall_ne": 0.9312345, "head_ne": None, "n": 12},
            metadata={"config_hash": "abc", "seed": 7},
        )
        report.save(tmp_path / "r1")
        report.save(tmp_path / "r2")
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
        text = (tmp_path / "r1.json").read_text()
        assert "abc" in text and "overall_ne" in text
