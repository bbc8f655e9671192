"""Span tracer that wraps semidlab's public functions from outside.

The traced run patches module attributes and class methods of the
loaded ``semidlab`` modules, records one span per call, and restores
every binding afterwards. Nothing under ``src/`` is edited, and private
helpers are never wrapped, so the tracer keeps working when the ranker's
internals change.

A span is ``[name, stage, start, end, parent, in_ranker]``; ``parent``
is the index of the enclosing span or ``None`` at top level. Self time
is a span's duration minus the durations of its direct children.

Tensor ops are attributed to a ranker sub-layer (``STAGES``) by the
named parameters they read; an op with no named operand takes the
latest stage among its inputs. The stage of an op's output is carried
on the timing wrapper placed around the backward closure the op
returns, so the tracer keeps no per-tensor table.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

STAGES = ("gather", "aggregation", "interaction", "top_mlp", "loss")
_STAGE_RANK = {s: i for i, s in enumerate(STAGES)}

# public functions of semidlab.tensor that are not graph ops
_TENSOR_NON_OPS = frozenset({"parameter", "constant", "backward", "zero_grads", "make_optimizer"})

# span name -> (module, attribute) of the wrapped public function
WRAPPED_FUNCTIONS = {
    "corpus.generate_items": ("semidlab.corpus", "generate_items"),
    "corpus.generate_stream": ("semidlab.corpus", "generate_stream"),
    "rqvae.train": ("semidlab.rqvae", "train"),
    "rqvae.assign": ("semidlab.rqvae", "assign"),
    "rqvae.loss": ("semidlab.rqvae", "loss"),
    "rqvae.evaluate_loss": ("semidlab.rqvae", "evaluate_loss"),
    "rqvae.quantize_batch": ("semidlab.rqvae", "quantize_batch"),
    "tokenization.parameterize": ("semidlab.tokenization", "parameterize"),
    "ranker.forward": ("semidlab.ranker", "forward"),
    "ranker.evaluate": ("semidlab.ranker", "evaluate"),
    "ranker.train_one_epoch": ("semidlab.ranker", "train_one_epoch"),
    "analysis.drifting_gap": ("semidlab.analysis", "drifting_gap"),
    "analysis.click_loss_analog": ("semidlab.analysis", "click_loss_analog"),
    "analysis.segment_ne": ("semidlab.analysis", "segment_ne"),
    "analysis.aar_report": ("semidlab.analysis", "aar_report"),
    "analysis.attention_metrics": ("semidlab.analysis", "attention_metrics"),
    "analysis.distribution_exports": ("semidlab.analysis", "distribution_exports"),
    "checkpoint.save": ("semidlab.checkpoint", "save_checkpoint"),
    "checkpoint.load": ("semidlab.checkpoint", "load_checkpoint"),
    "runfiles.write_table": ("semidlab.runfiles", "write_table"),
    "runfiles.read_table": ("semidlab.runfiles", "read_table"),
    "tensor.backward": ("semidlab.tensor", "backward"),
    "tensor.make_optimizer": ("semidlab.tensor", "make_optimizer"),
}

ROWS_SPAN = "tokenization.rows"
OPTIMIZER_STEP_SPAN = "tensor.optimizer_step"
OP_PREFIX = "op:"
BWD_PREFIX = "bwd:"
_MARK = "__perfbench_wrapper__"


class TracePatchError(RuntimeError):
    """A wrapped binding was not restored, or a wrapped name is missing."""


# ---------------------------------------------------------------------------
# attribution rule


def name_stage(param_name: str):
    """Ranker sub-layer of a named parameter, or None for other names."""
    if param_name.endswith("_table") or param_name == "pad_embed":
        return "gather"
    if param_name.startswith("agg.") or param_name == "pos_embed":
        return "aggregation"
    if param_name.startswith("top."):
        return "top_mlp"
    return None


def latest_stage(stages):
    known = [s for s in stages if s is not None]
    return max(known, key=_STAGE_RANK.__getitem__) if known else None


def op_stage(op_name: str, operand_names, input_stages):
    """Stage of one tensor op.

    The op's own kind decides first (``concat_*`` and
    ``pairwise_dot_upper`` interact, ``bce_with_logits`` is the loss),
    then the named parameters it reads, then the latest stage among its
    inputs.
    """
    if op_name.startswith("concat_") or op_name == "pairwise_dot_upper":
        return "interaction"
    if op_name == "bce_with_logits":
        return "loss"
    named = latest_stage(name_stage(n) for n in operand_names if n)
    return named if named is not None else latest_stage(input_stages)


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """In-memory span recorder; wrappers record only while ``active``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._ranker_depth = 0

    def begin(self, name: str, stage=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        in_ranker = self._ranker_depth > 0 or name.startswith("ranker.")
        if name.startswith("ranker."):
            self._ranker_depth += 1
        self.spans.append([name, stage, self.clock(), None, parent, in_ranker])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = self.clock()
        self._stack.pop()
        if span[0].startswith("ranker."):
            self._ranker_depth -= 1

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, self.spans = self.spans, []
        return spans


def summarize(spans) -> dict:
    """Per-key [count, inclusive seconds, self seconds].

    The key is ``(name, stage, in_ranker)``. Children always end before
    their parent in a single-threaded run, so a span's self time is its
    duration minus the sum of its direct children's durations.
    """
    child = [0.0] * len(spans)
    for name, stage, start, end, parent, in_ranker in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, stage, start, end, parent, in_ranker) in enumerate(spans):
        acc = out[(name, stage, in_ranker)]
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child[i]
    return dict(out)


def top_level_seconds(spans) -> float:
    return sum(end - start for _, _, start, end, parent, _ in spans if parent is None)


def merge_summaries(total: dict, part: dict) -> None:
    for key, (n, incl, self_s) in part.items():
        acc = total.setdefault(key, [0, 0.0, 0.0])
        acc[0] += n
        acc[1] += incl
        acc[2] += self_s


# ---------------------------------------------------------------------------
# wrappers


class _TimedBackward:
    """Times one op's backward closure; ``stage`` marks the op's output."""

    __slots__ = ("fn", "name", "stage", "tracer")

    def __init__(self, fn, name, stage, tracer):
        self.fn = fn
        self.name = name
        self.stage = stage
        self.tracer = tracer

    def __call__(self, g):
        tr = self.tracer
        if not tr.active:
            return self.fn(g)
        idx = tr.begin(self.name, self.stage)
        try:
            grads = self.fn(g)
        finally:
            tr.end(idx)
        tr.counters["tensor.grad_bytes"] += sum(getattr(x, "nbytes", 0) for x in grads if x is not None)
        return grads


def _input_stage(t):
    return getattr(t._backward, "stage", None)


def _wrap_op(tracer, op_name, fn, tensor_cls):
    span_name = OP_PREFIX + op_name
    bwd_name = BWD_PREFIX + op_name

    @functools.wraps(fn)
    def op(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.begin(span_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if isinstance(out, tensor_cls):
            parents = out.parents
            stage = op_stage(op_name, [p.name for p in parents], [_input_stage(p) for p in parents])
            tracer.spans[idx][1] = stage
            tracer.counters["tensor.graph_nodes"] += 1
            if out._backward is not None:
                out._backward = _TimedBackward(out._backward, bwd_name, stage, tracer)
        return out

    setattr(op, _MARK, True)
    return op


def _wrap_call(tracer, span_name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if before is not None:
            args = before(tracer, args)
        idx = tracer.begin(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def _count_rows(tracer, rows):
    for row in rows:
        tracer.counters["runfiles.rows"] += 1
        yield row


def _before_write_table(tracer, args):
    args = list(args)
    args[4] = _count_rows(tracer, args[4])
    return tuple(args)


def _after_file(counter):
    def after(tracer, args, result):
        tracer.counters[counter] += os.path.getsize(args[0])

    return after


def _after_read_table(tracer, args, result):
    tracer.counters["runfiles.rows"] += len(result[2])
    tracer.counters["runfiles.bytes"] += os.path.getsize(args[0])


def _before_forward(tracer, args):
    model, event = args[0], args[1]
    # one target lookup plus one per kept history item
    tracer.counters["ranker.row_requests"] += 1 + min(len(event.history), model.config.history_length)
    return args


_HOOKS = {
    "runfiles.write_table": (_before_write_table, _after_file("runfiles.bytes")),
    "runfiles.read_table": (None, _after_read_table),
    "checkpoint.save": (None, _after_file("checkpoint.bytes")),
    "checkpoint.load": (None, _after_file("checkpoint.bytes")),
    "ranker.forward": (_before_forward, None),
}


class Patcher:
    """Installs the wrappers into every semidlab binding and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items()) if name == "semidlab" or name.startswith("semidlab.")]

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace every module-level binding of ``original``.

        Modules that imported the function by name hold their own
        binding, so each one is patched.
        """
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import semidlab.tensor as tensor
        import semidlab.tokenization as tokenization

        tr = self.tracer
        for span_name, (mod_name, attr) in WRAPPED_FUNCTIONS.items():
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                raise TracePatchError(f"{mod_name}.{attr} is missing; update WRAPPED_FUNCTIONS")
            if span_name == "tensor.make_optimizer":
                wrapper = self._wrap_make_optimizer(original)
            else:
                before, after = _HOOKS.get(span_name, (None, None))
                wrapper = _wrap_call(tr, span_name, original, before, after)
            self._patch_everywhere(original, wrapper)
        for op_name, fn in vars(tensor).copy().items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == tensor.__name__
                and not op_name.startswith("_")
                and op_name not in _TENSOR_NON_OPS
            ):
                self._patch_everywhere(fn, _wrap_op(tr, op_name, fn, tensor.Tensor))
        for cls in vars(tokenization).values():
            if inspect.isclass(cls) and "rows" in vars(cls):
                original = vars(cls)["rows"]
                self._saved.append((cls, "rows", original))
                setattr(cls, "rows", _wrap_call(tr, ROWS_SPAN, original))

    def _wrap_make_optimizer(self, original):
        tr = self.tracer

        @functools.wraps(original)
        def make_optimizer(*args, **kwargs):
            opt = original(*args, **kwargs)
            if tr.active:
                opt.step = _wrap_call(tr, OPTIMIZER_STEP_SPAN, opt.step)
            return opt

        setattr(make_optimizer, _MARK, True)
        return make_optimizer

    def restore(self) -> None:
        """Put every original back, then fail if any wrapper remains."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        leftovers = [f"{owner.__name__}.{attr}" for owner, attr, original in self._saved
                     if getattr(owner, attr) is not original]
        self._saved = []
        for mod in self._modules():
            for attr, value in vars(mod).items():
                if getattr(value, _MARK, False):
                    leftovers.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(value):
                    leftovers += [f"{mod.__name__}.{attr}.{k}" for k, v in vars(value).items() if getattr(v, _MARK, False)]
        if leftovers:
            raise TracePatchError("wrapped functions left patched: " + ", ".join(sorted(set(leftovers))))


# ---------------------------------------------------------------------------
# per-layer metrics

RANKER_STAGES = ("gather", "aggregation", "interaction", "top_mlp")

# name -> unit; every name is printed by a traced run
PER_LAYER_UNITS = {
    "tensor.graph_nodes": "count",
    "tensor.grad_bytes": "bytes",
    "tensor.op_fwd_s": "s",
    "tensor.op_bwd_s": "s",
    "tensor.backward_s": "s",
    "tensor.backward.self_s": "s",
    "tensor.optimizer_step_s": "s",
    "tensor.optimizer_steps": "count",
    "ranker.lookup_s": "s",
    "ranker.lookup_cache_hit_ratio": "ratio",
    **{f"ranker.{s}.{d}_s": "s" for s in RANKER_STAGES for d in ("fwd", "bwd")},
    "ranker.loss_s": "s",
    "ranker.forward_s": "s",
    "ranker.forward.self_s": "s",
    "ranker.forward_calls": "count",
    "ranker.evaluate.self_s": "s",
    "ranker.train.self_s": "s",
    "tokenization.rows_calls": "count",
    "tokenization.rows_s": "s",
    "tokenization.parameterize_s": "s",
    "rqvae.train_s": "s",
    "rqvae.train.self_s": "s",
    "rqvae.quantize_batch_calls": "count",
    "rqvae.quantize_batch_s": "s",
    "rqvae.loss_s": "s",
    "rqvae.evaluate_loss_s": "s",
    "rqvae.assign_s": "s",
    "corpus.generate_items_s": "s",
    "corpus.generate_stream_s": "s",
    "analysis.drifting_gap_s": "s",
    "analysis.click_loss_analog_s": "s",
    "analysis.click_loss_analog.self_s": "s",
    "analysis.segment_ne_s": "s",
    "analysis.aar_s": "s",
    "analysis.attention_metrics_s": "s",
    "analysis.distribution_exports_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "bytes",
    "runfiles.write_table_s": "s",
    "runfiles.read_table_s": "s",
    "runfiles.rows": "count",
    "runfiles.bytes": "bytes",
    "trace.spans": "count",
    "trace.rep_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def layer_metrics(summary: dict, counters: Counter, reps: int, covered_s: float,
                  traced_wall_s: float, untraced_rep_s: float, traced_rep_s: float) -> dict:
    """Per-layer values, each a per-repetition mean over the traced run.

    ``covered_s`` is the summed duration of top-level spans and
    ``traced_wall_s`` the summed wall time of the traced repetitions;
    their ratio is the coverage. Overhead compares the traced and the
    untraced time of the measured phase, each a sum of stage minima.
    """

    def total(field, pred):
        return sum(v[field] for key, v in summary.items() if pred(*key))

    def count(name, ranker_only=False):
        return total(0, lambda n, s, r: n == name and (r or not ranker_only))

    def incl(name, ranker_only=False):
        return total(1, lambda n, s, r: n == name and (r or not ranker_only))

    def self_(name):
        return total(2, lambda n, s, r: n == name)

    def ops(prefix, stage=None):
        return total(1, lambda n, s, r: n.startswith(prefix) and (stage is None or s == stage))

    per_rep = {
        "tensor.graph_nodes": counters["tensor.graph_nodes"],
        "tensor.grad_bytes": counters["tensor.grad_bytes"],
        "tensor.op_fwd_s": ops(OP_PREFIX),
        "tensor.op_bwd_s": ops(BWD_PREFIX),
        "tensor.backward_s": incl("tensor.backward"),
        "tensor.backward.self_s": self_("tensor.backward"),
        "tensor.optimizer_step_s": incl(OPTIMIZER_STEP_SPAN),
        "tensor.optimizer_steps": count(OPTIMIZER_STEP_SPAN),
        "ranker.lookup_s": incl(ROWS_SPAN, ranker_only=True),
        "ranker.loss_s": ops(OP_PREFIX, "loss") + ops(BWD_PREFIX, "loss"),
        "ranker.forward_s": incl("ranker.forward"),
        "ranker.forward.self_s": self_("ranker.forward"),
        "ranker.forward_calls": count("ranker.forward"),
        "ranker.evaluate.self_s": self_("ranker.evaluate"),
        "ranker.train.self_s": self_("ranker.train_one_epoch"),
        "tokenization.rows_calls": count(ROWS_SPAN),
        "tokenization.rows_s": incl(ROWS_SPAN),
        "tokenization.parameterize_s": incl("tokenization.parameterize"),
        "rqvae.train_s": incl("rqvae.train"),
        "rqvae.train.self_s": self_("rqvae.train"),
        "rqvae.quantize_batch_calls": count("rqvae.quantize_batch"),
        "rqvae.quantize_batch_s": incl("rqvae.quantize_batch"),
        "rqvae.loss_s": incl("rqvae.loss"),
        "rqvae.evaluate_loss_s": incl("rqvae.evaluate_loss"),
        "rqvae.assign_s": incl("rqvae.assign"),
        "corpus.generate_items_s": incl("corpus.generate_items"),
        "corpus.generate_stream_s": incl("corpus.generate_stream"),
        "analysis.drifting_gap_s": incl("analysis.drifting_gap"),
        "analysis.click_loss_analog_s": incl("analysis.click_loss_analog"),
        "analysis.click_loss_analog.self_s": self_("analysis.click_loss_analog"),
        "analysis.segment_ne_s": incl("analysis.segment_ne"),
        "analysis.aar_s": incl("analysis.aar_report"),
        "analysis.attention_metrics_s": incl("analysis.attention_metrics"),
        "analysis.distribution_exports_s": incl("analysis.distribution_exports"),
        "checkpoint.save_s": incl("checkpoint.save"),
        "checkpoint.load_s": incl("checkpoint.load"),
        "checkpoint.bytes": counters["checkpoint.bytes"],
        "runfiles.write_table_s": incl("runfiles.write_table"),
        "runfiles.read_table_s": incl("runfiles.read_table"),
        "runfiles.rows": counters["runfiles.rows"],
        "runfiles.bytes": counters["runfiles.bytes"],
        "trace.spans": sum(v[0] for v in summary.values()),
        "trace.rep_s": traced_wall_s,
    }
    for stage in RANKER_STAGES:
        per_rep[f"ranker.{stage}.fwd_s"] = ops(OP_PREFIX, stage)
        per_rep[f"ranker.{stage}.bwd_s"] = ops(BWD_PREFIX, stage)
    values = {name: v / max(reps, 1) for name, v in per_rep.items()}
    requests = counters["ranker.row_requests"]
    values["ranker.lookup_cache_hit_ratio"] = 1.0 - count(ROWS_SPAN, ranker_only=True) / requests if requests else 0.0
    values["trace.coverage"] = covered_s / traced_wall_s if traced_wall_s > 0 else 0.0
    values["trace.overhead"] = traced_rep_s / untraced_rep_s - 1.0 if untraced_rep_s > 0 else 0.0
    return {name: values[name] for name in PER_LAYER_UNITS}
