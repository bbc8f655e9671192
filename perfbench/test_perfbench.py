"""Tests for the benchmark's own code: span arithmetic, op attribution,
patch restoration and the metric names it prints.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from semidlab import corpus, ranker, tensor  # noqa: E402
from semidlab.tokenization import RandomHash  # noqa: E402


def _span(name, start, end, parent, stage=None, in_ranker=False):
    return [name, stage, start, end, parent, in_ranker]


class TestSelfTime:
    def test_synthetic_tree(self):
        # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
        spans = [
            _span("a", 0.0, 10.0, None),
            _span("b", 1.0, 4.0, 0),
            _span("c", 2.0, 3.0, 1),
            _span("d", 5.0, 9.0, 0),
            _span("b", 11.0, 12.0, None),
        ]
        s = tracing.summarize(spans)
        assert s[("a", None, False)] == [1, 10.0, 3.0]
        assert s[("b", None, False)] == [2, 4.0, 3.0]
        assert s[("c", None, False)] == [1, 1.0, 1.0]
        assert s[("d", None, False)] == [1, 4.0, 4.0]
        assert tracing.top_level_seconds(spans) == 11.0
        # self times partition the top-level spans
        assert sum(v[2] for v in s.values()) == tracing.top_level_seconds(spans)

    def test_tracer_nesting_with_a_fake_clock(self):
        ticks = iter(range(100))
        tr = tracing.Tracer(clock=lambda: float(next(ticks)))
        outer = tr.begin("ranker.forward")  # t=0
        inner = tr.begin("op:matmul")  # t=1
        tr.end(inner)  # t=2
        tr.end(outer)  # t=3
        spans = tr.take()
        assert [s[4] for s in spans] == [None, 0]
        assert all(s[5] for s in spans)  # the op runs inside the ranker
        s = tracing.summarize(spans)
        assert s[("ranker.forward", None, True)] == [1, 3.0, 2.0]
        assert tr.spans == []

    def test_merge_adds_counts_and_times(self):
        total = {}
        part = {("x", None, False): [1, 2.0, 1.0]}
        tracing.merge_summaries(total, part)
        tracing.merge_summaries(total, part)
        assert total == {("x", None, False): [2, 4.0, 2.0]}


class TestAttribution:
    @pytest.mark.parametrize(
        "op, names, stages, expected",
        [
            ("gather_groups", ["history_table"], [None], "gather"),
            ("gather_groups", ["pad_embed"], [None], "gather"),
            ("add", ["", "pos_embed"], ["gather", None], "aggregation"),
            ("matmul", ["", "agg.wk"], ["aggregation", None], "aggregation"),
            ("add", ["", ""], ["aggregation", "gather"], "aggregation"),
            ("softmax_rows", [""], ["aggregation"], "aggregation"),
            ("concat_rows", ["", ""], ["gather", "aggregation"], "interaction"),
            ("pairwise_dot_upper", [""], ["interaction"], "interaction"),
            ("reshape", [""], ["interaction"], "interaction"),
            ("matmul", ["", "top.0.w"], ["interaction", None], "top_mlp"),
            ("relu", [""], ["top_mlp"], "top_mlp"),
            ("bce_with_logits", [""], ["top_mlp"], "loss"),
            ("scale", [""], ["loss"], "loss"),
            ("matmul", ["", "enc.0.w"], [None, None], None),
            ("gather_groups", ["codebook.0"], [None], None),
        ],
    )
    def test_rule(self, op, names, stages, expected):
        assert tracing.op_stage(op, names, stages) == expected

    def test_live_forward_and_backward(self):
        lookup = RandomHash(50, seed=1)
        model = ranker.RankerModel.initialize(ranker.RankerConfig(aggregation="transformer"), lookup, lookup)
        event = corpus.ImpressionEvent(0, 10_000, 0, 7, 1, ((3, 9_000), (4, 8_000)))
        originals = {name: getattr(tensor, name) for name in ("matmul", "backward", "make_optimizer")}
        tr = tracing.Tracer()
        patcher = tracing.Patcher(tr)
        patcher.install()
        tr.active = True
        try:
            ranker.train_one_epoch(model, [event])
        finally:
            tr.active = False
            patcher.restore()
        assert all(getattr(tensor, n) is f for n, f in originals.items())
        s = tracing.summarize(tr.take())
        fwd = {k[1] for k in s if k[0].startswith(tracing.OP_PREFIX)}
        bwd = {k[1] for k in s if k[0].startswith(tracing.BWD_PREFIX)}
        assert fwd == bwd == set(tracing.STAGES)
        assert s[("tensor.optimizer_step", None, True)][0] == 1
        assert s[(tracing.ROWS_SPAN, None, True)][0] == 3  # target plus two history items
        assert tr.counters["ranker.row_requests"] == 3
        assert tr.counters["tensor.grad_bytes"] > 0

    def test_restore_reports_a_leftover_wrapper(self):
        original = tensor.relu
        patcher = tracing.Patcher(tracing.Tracer())
        patcher.install()
        wrapper = tensor.relu
        patcher.restore()
        tensor.relu = wrapper
        try:
            with pytest.raises(tracing.TracePatchError, match="semidlab.tensor.relu"):
                tracing.Patcher(tracing.Tracer()).restore()
        finally:
            tensor.relu = original


class TestMetricNames:
    @pytest.fixture(scope="class")
    def bench(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units(self, bench):
        declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        assert declared == run.END_TO_END_UNITS

    def test_per_layer_names_and_units(self, bench):
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        assert declared == tracing.PER_LAYER_UNITS

    def test_layer_metrics_prints_every_per_layer_name(self):
        from collections import Counter

        values = tracing.layer_metrics({}, Counter(), 1, 0.0, 1.0, 1.0, 1.0)
        assert list(values) == list(tracing.PER_LAYER_UNITS)
        assert all(np.isfinite(v) for v in values.values())

    def test_workload_names_match(self, bench):
        import workloads

        assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


class TestEventSet:
    @pytest.fixture(scope="class")
    def items(self):
        return corpus.generate_items(corpus.CorpusConfig(n_items=200, n_users=10, seed=3))

    def test_fixed_label_mix_and_full_histories(self, items):
        import workloads

        t = int(items.birth.max())
        # one click in ten, histories of zero to two entries
        pool = [
            corpus.ImpressionEvent(i, t + i, 0, int(items.raw_ids[i]), int(i % 10 == 0),
                                   tuple((int(items.raw_ids[j]), t - j) for j in range(i % 3)))
            for i in range(200)
        ]
        alive = set(items.raw_ids[items.alive_mask(t)].tolist())
        chosen = workloads.event_set(pool, 64, items, 8, np.random.default_rng(0))
        assert len(chosen) == 64 and sum(e.label for e in chosen) == 8
        assert [e.event_id for e in chosen] == sorted(e.event_id for e in chosen)
        for e in chosen:
            real = pool[e.event_id].history
            assert len(e.history) == 8 and e.history[: len(real)] == real
            assert all(ts <= e.timestamp for _, ts in e.history)
            assert {item for item, _ in e.history[len(real):]} <= alive

    def test_a_single_class_pool_is_refused(self, items):
        import workloads

        pool = [corpus.ImpressionEvent(i, 0, 0, 1, 0, ()) for i in range(100)]
        with pytest.raises(ValueError, match="lacks"):
            workloads.event_set(pool, 16, items, 8, np.random.default_rng(0))


def test_reference_loop_leaves_the_collector_on():
    import gc

    import workloads

    assert gc.isenabled()
    assert workloads.reference_s() > 0.0
    assert gc.isenabled()
    assert run.at_reference_speed(2.0, 2 * run.REFERENCE_NOMINAL_S) == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tokenize-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
