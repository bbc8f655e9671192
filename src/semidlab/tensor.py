"""Minimal dense tensor engine with reverse-mode differentiation.

Everything is float64 and row-major. Graphs are define-by-run: each
operation returns a new node holding its value, its parents, and a
closure that maps the output gradient to parent gradients. ``backward``
walks the graph once in reverse topological order, so gradients are
exact and deterministic for a given graph.

Only the operations the ranking model and the residual quantizer need
are provided. The matrix ops also take leading batch axes: the ranker
scores a minibatch as one graph, with a B-by-T-by-d history block and
one target row per event, while the residual quantizer uses plain
matrices, for which each op keeps its plain 2-D arithmetic. The only
broadcasting is ``add_rowvec``, whose second operand lacks some leading
axes of the first (a bias vector, a position table, or the
pooled-attention seeds), and ``linear``, the dense layer that adds its
bias into the product in place; ``bmm`` also shares a plain matrix
across the batch. Row gathers take integer index arrays in which -1 marks
"no row". ``concat_along`` is the one concatenation: it stacks a
target row on the history rows (axis -2) and joins the interaction
vector with the ``reshape``-flattened rows (axis 1). The two losses are
scalar nodes: ``squared_distance``, the residual quantizer's one squared
error (its reconstruction, commitment and codeword terms), and
``bce_with_logits``, whose gradient calls ``metrics.logistic``, the
logistic that the ranker's probabilities and the label oracle
``corpus.ground_truth_ctr`` share. Graph-free passes run the same ops
on ``constant`` leaves and read ``value``.

A row gather that reads fewer entries than its table has rows returns
from backward a row-sparse ``RowGrad`` instead of a table-sized dense
scatter, so a minibatch that touches a few hundred rows of a large
embedding table never builds a table-sized gradient. Every gradient,
and every parameter the optimizers update from it, is bit-identical to
the dense path. ``Tensor.grad`` always reads and assigns a dense array.
A node's first dense gradient is one fresh array, its contribution
plus +0.0, which has the bits of adding it into zeros.

``Adam`` steps the parameters whose gradients arrive dense (the MLPs,
codebooks and small tables) with one moments step over their joined
gradients, and each row-sparse table by its touched rows. Such a table
keeps m and v for those rows only, compact and in first-touched order,
until it steps dense, so a large embedding table costs no table-sized
optimizer state while training touches a minority of its rows;
``Adam._m`` and ``Adam._v`` read every parameter's m and v full-shape.

Node construction is cheap, since a forward pass builds one node per
op: ``Tensor`` keeps a C-contiguous float64 ndarray as it is (every op
hands it a fresh one) and converts anything else once. Per-shape
constants such as ``pairwise_dot_upper``'s index pairs are built once
per shape and kept read-only, and a row gather in which every index
names a row skips the pad mask.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import scatter_rows, sorted_distinct
from .metrics import logistic


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(ValueError):
    """The computation graph is used outside its contract."""


_FLOAT64 = np.dtype(np.float64)


class Tensor:
    """A node in the computation graph.

    ``value`` is the shaped, C-contiguous float64 array. Leaf tensors
    created with ``requires_grad=True`` are trainable parameters;
    ``backward`` fills their ``grad``.
    """

    __slots__ = ("value", "_grad", "requires_grad", "parents", "_backward", "name")

    def __init__(self, value, requires_grad=False, parents=(), backward=None, name=""):
        # an op's fresh float64 result passes this check as it is
        if not (type(value) is np.ndarray and value.dtype is _FLOAT64 and value.flags.c_contiguous):
            value = np.asarray(value, dtype=np.float64, order="C")
        self.value = value
        self._grad = None
        requires_grad = bool(requires_grad)
        if not requires_grad:
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self.parents = tuple(parents)
        self._backward = backward
        self.name = name

    @property
    def grad(self):
        """The dense float64 gradient, or None; a row-sparse one is
        densified on read and kept dense."""
        if isinstance(self._grad, RowGrad):
            self._grad = self._grad.dense()
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = None if value is None else np.asarray(value, dtype=np.float64)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor(shape={self.value.shape}{tag}, requires_grad={self.requires_grad})"


def parameter(value, name=""):
    """A trainable leaf tensor."""
    return Tensor(value, requires_grad=True, name=name)


def constant(value, name=""):
    """A non-trainable leaf tensor (also used to stop gradients)."""
    return Tensor(value, requires_grad=False, name=name)


@dataclass(slots=True, eq=False)
class RowGrad:
    """Row-sparse gradient of a matrix, as a row gather leaves it.

    ``rows`` holds the distinct rows read, in ascending order, and
    ``sums`` row i's gradient rows added into +0.0 in read order, which
    is the dense scatter's arithmetic. ``nbytes`` counts both arrays.
    """

    shape: tuple
    rows: np.ndarray
    sums: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.sums.nbytes

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows] = self.sums
        return out


def _accumulate(t: Tensor, g) -> None:
    """Add one gradient contribution to ``t``.

    A row-sparse gradient stays row-sparse only as the first
    contribution to a leaf. A second contribution, a dense one, or an
    inner node (whose backward closure takes an array) densifies it.
    """
    if isinstance(g, RowGrad):
        if t._backward is None and t._grad is None:
            t._grad = g
            return
        g = g.dense()
    if t._grad is None:
        # one allocation with the bits of ``zeros_like`` then ``+= g``,
        # broadcasting included: adding +0.0 turns -0.0 into +0.0
        t._grad = np.add(g, 0.0, out=np.empty(t.value.shape))
        return
    if isinstance(t._grad, RowGrad):
        t._grad = t._grad.dense()
    t._grad += g


def _topo_order(root: Tensor) -> list[Tensor]:
    """Parents-before-children order; deterministic for a given graph."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Gradients accumulate into ``grad`` of every reachable leaf tensor
    with ``requires_grad``; call ``zero_grads`` between optimizer steps.
    An inner node drops its gradient once it has passed it on, so a
    minibatch graph does not hold a second copy of its activations.
    """
    if loss.value.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    order = _topo_order(loss)
    _accumulate(loss, np.ones_like(loss.value))
    for node in reversed(order):
        if node._backward is None or node._grad is None:
            continue
        parent_grads = node._backward(node._grad)
        node._grad = None
        for p, g in zip(node.parents, parent_grads):
            if p.requires_grad and g is not None:
                _accumulate(p, g)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# operations


def _rows(x: np.ndarray) -> np.ndarray:
    """View of an array with every leading axis folded into the rows."""
    return x.reshape(-1, x.shape[-1])


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over the leading axes its operand was broadcast along."""
    if g.shape == tuple(shape):
        return g
    return g.reshape(-1, *shape).sum(axis=0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of ``a`` (..., n, k) with a k-by-m matrix ``b``.

    Leading axes of ``a`` fold into its rows, so a batch of histories
    shares one call into BLAS.
    """
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim != 2 or av.shape[-1] != bv.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {av.shape} x {bv.shape}")
    out = (_rows(av) @ bv).reshape(*av.shape[:-1], bv.shape[1])

    def back(g):
        return (_rows(g) @ bv.T).reshape(av.shape), _rows(av).T @ _rows(g)

    return Tensor(out, parents=(a, b), backward=back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add_rowvec(matmul(x, w), b)`` as one node: a dense layer.

    The bias is added in place into the product, so a layer keeps one
    output array where the two ops keep two, with the same bits.
    """
    xv, wv, bv = x.value, w.value, b.value
    if xv.ndim < 2 or wv.ndim != 2 or xv.shape[-1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise DimensionError(f"linear: incompatible shapes {xv.shape} x {wv.shape} + {bv.shape}")
    out = _rows(xv) @ wv
    out += bv

    def back(g):
        g2 = _rows(g)
        return (g2 @ wv.T).reshape(xv.shape), _rows(xv).T @ g2, g2.sum(axis=0)

    return Tensor(out.reshape(*xv.shape[:-1], wv.shape[1]), parents=(x, w, b), backward=back)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over a leading batch axis.

    ``a`` is (B, n, k) and ``b`` is (B, k, m); either may be a plain
    matrix shared by every batch entry (the pooled-attention seeds),
    whose gradient then sums over the batch.
    """
    av, bv = a.value, b.value
    if av.ndim not in (2, 3) or bv.ndim not in (2, 3) or av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"bmm: incompatible shapes {av.shape} x {bv.shape}")
    if av.ndim == bv.ndim == 3 and av.shape[0] != bv.shape[0]:
        raise DimensionError(f"bmm: batch sizes differ, {av.shape} x {bv.shape}")
    out = av @ bv

    def back(g):
        da = g @ np.swapaxes(bv, -1, -2)
        db = np.swapaxes(av, -1, -2) @ g
        return _unbroadcast(da, av.shape), _unbroadcast(db, bv.shape)

    return Tensor(out, parents=(a, b), backward=back)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by subtracting the row max."""
    av = a.value
    if av.ndim < 2:
        raise DimensionError(f"softmax_rows expects a matrix, got shape {av.shape}")
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        return ((g - (g * s).sum(axis=-1, keepdims=True)) * s,)

    return Tensor(s, parents=(a,), backward=back)


LAYERNORM_EPS = 1e-5


def layernorm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row normalization to zero mean and unit population variance.

    Rows run along the last axis. The variance denominator is the row
    width d (population variance), and 1e-5 sits inside the square
    root, so a constant row maps to the bias without dividing by zero.
    """
    av = a.value
    if av.ndim < 2:
        raise DimensionError(f"layernorm expects a matrix, got shape {av.shape}")
    d = av.shape[-1]
    if gain.value.shape != (d,) or bias.value.shape != (d,):
        raise DimensionError("layernorm gain/bias must be vectors of the row width")
    # np.add.reduce(...) / d is what ndarray.mean computes, without its wrapper
    mu = np.add.reduce(av, axis=-1, keepdims=True) / d
    centered = av - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = centered * inv
    out = xhat * gain.value + bias.value

    def back(g):
        gx = g * gain.value
        # d/dx of (x - mu(x)) * inv(x): the two mean reductions fold into
        # the usual three-term layernorm gradient.
        m1 = np.add.reduce(gx, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
        da = inv * (gx - m1 - xhat * m2)
        dgain = _rows(g * xhat).sum(axis=0)
        dbias = _rows(g).sum(axis=0)
        return da, dgain, dbias

    return Tensor(out, parents=(a, gain, bias), backward=back)


def gather_groups(table: Tensor, index) -> Tensor:
    """Per-group row sums: output entry i sums table rows index[i, :].

    ``index`` is an integer array of shape (..., G); -1 means "no row",
    so a group of all -1 yields a zero row. The output has shape
    (..., d). Rows add in index order and a row picked twice counts
    twice, in the forward sum and in the gradient. The gradient is a
    ``RowGrad``, or the dense scatter for at least as many entries as
    table rows (an RQ-VAE codebook), which is then the faster of the two.
    """
    tv = table.value
    if tv.ndim != 2:
        raise DimensionError(f"gather_groups expects a matrix table, got shape {tv.shape}")
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim < 2:
        raise DimensionError(f"gather_groups expects an (..., G) index array, got shape {idx.shape}")
    h = tv.shape[0]
    lowest = idx.min() if idx.size else -1
    if lowest < -1 or idx.size and idx.max() >= h:
        raise IndexError(f"gather_groups: row index out of range [0, {h})")
    if lowest >= 0:  # every entry names a row: no pad mask
        valid = None
        picked = tv[idx]
        rows = idx.flatten()
    else:
        valid = idx >= 0
        picked = tv[np.where(valid, idx, 0)]
        picked[~valid] = 0.0
        rows = idx[valid]
    # the sum starts from +0.0, so a group of -0.0 rows gives +0.0
    if idx.shape[-1]:
        out = picked[..., 0, :] + 0.0
    else:
        out = np.zeros(idx.shape[:-1] + (tv.shape[1],))
    for g in range(1, idx.shape[-1]):
        out += picked[..., g, :]
    read_shape = picked.shape

    def back(g):
        values = np.broadcast_to(g[..., None, :], read_shape)
        values = values.reshape(-1, read_shape[-1]) if valid is None else values[valid]
        if rows.size >= h:
            return (scatter_rows(rows, values, h),)
        distinct = sorted_distinct(rows)
        sums = scatter_rows(np.searchsorted(distinct, rows), values, distinct.size)
        return (RowGrad(tv.shape, distinct, sums),)

    return Tensor(out, parents=(table,), backward=back)


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")

    def back(g):
        return g, g

    return Tensor(a.value + b.value, parents=(a, b), backward=back)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); a NaN entry stays NaN and passes no gradient."""
    av = a.value
    mask = av > 0

    def back(g):
        return (g * mask,)

    return Tensor(np.maximum(av, 0.0), parents=(a,), backward=back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g):
        return (g * c,)

    return Tensor(a.value * c, parents=(a,), backward=back)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.value.ndim < 2:
        raise DimensionError(f"transpose expects a matrix, got shape {a.value.shape}")

    def back(g):
        return (np.swapaxes(g, -1, -2),)

    return Tensor(np.swapaxes(a.value, -1, -2), parents=(a,), backward=back)


def concat_along(tensors, axis: int) -> Tensor:
    """Join tensors of one rank along ``axis``; every other axis must match.

    ``axis=-2`` stacks the rows of equal-width matrices per batch entry,
    and ``axis=1`` joins (B, n) rows, after ``reshape`` has flattened
    each entry of a (B, ...) tensor.
    """
    tensors = list(tensors)
    rest = [list(t.value.shape) for t in tensors]
    sizes = [r.pop(axis) for r in rest]
    if not rest or any(r != rest[0] for r in rest):
        raise DimensionError(f"concat_along: shapes {[t.value.shape for t in tensors]} differ off axis {axis}")
    splits = list(itertools.accumulate(sizes))[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(np.concatenate([t.value for t in tensors], axis=axis), parents=tuple(tensors), backward=back)


def squared_distance(a: Tensor, b: Tensor) -> Tensor:
    """Sum of the squared entries of ``a - b``, the squared Frobenius distance.

    The gradients are ``2 g (a - b)`` and its negation.
    """
    _require_same_shape(a, b, "squared_distance")
    d = a.value - b.value

    def back(g):
        ga = 2.0 * g.item() * d
        return ga, -ga

    return Tensor(np.array((d * d).sum()), parents=(a, b), backward=back)


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Add ``v`` to every trailing block of ``a`` that has its shape.

    ``v`` lacks some leading axes of ``a``: a length-d bias added to
    every row, or a T-by-d position table (or the pooled-attention
    seeds) added to every history of a batch. Its gradient sums over
    the axes it lacks.
    """
    ash, vsh = a.value.shape, v.value.shape
    if not 1 <= len(vsh) < len(ash) or ash[len(ash) - len(vsh):] != vsh:
        raise DimensionError(f"add_rowvec: {ash} + {vsh}")

    def back(g):
        return g, _unbroadcast(g, vsh)

    return Tensor(a.value + v.value, parents=(a, v), backward=back)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != a.value.size:
        raise DimensionError(f"reshape: cannot view {a.value.shape} as {shape}")
    old = a.value.shape

    def back(g):
        return (g.reshape(old),)

    return Tensor(a.value.reshape(shape), parents=(a,), backward=back)


@functools.lru_cache(maxsize=32)  # one m per model shape in use
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(m, k=1)``, built once per ``m`` and read-only, as
    every caller shares it."""
    pairs = np.triu_indices(m, k=1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def pairwise_dot_upper(x: Tensor) -> Tensor:
    """All m(m-1)/2 pairwise dot products of the rows of an m-by-d matrix.

    Output order is row-major over pairs (i, j) with i < j. Leading
    batch axes give one such vector per batch entry.
    """
    xv = x.value
    if xv.ndim < 2:
        raise DimensionError(f"pairwise_dot_upper expects a matrix, got shape {xv.shape}")
    m = xv.shape[-2]
    iu, ju = _upper_pairs(m)
    gram = xv @ np.swapaxes(xv, -1, -2)
    out = gram[..., iu, ju]

    def back(g):
        s = np.zeros(xv.shape[:-2] + (m, m))
        s[..., iu, ju] = g
        return ((s + np.swapaxes(s, -1, -2)) @ xv,)

    return Tensor(out, parents=(x,), backward=back)


def bce_with_logits(logits: Tensor, labels) -> Tensor:
    """Mean binary cross-entropy computed from logits.

    Uses the softplus identity so large logits never overflow; labels
    are plain arrays (no gradient flows to them).
    """
    z = logits.value
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != z.shape:
        raise DimensionError(f"bce_with_logits: labels shape {y.shape} vs logits {z.shape}")
    n = z.size
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    out = np.array((softplus - y * z).mean())

    def back(g):
        return ((logistic(z) - y) * (g.item() / n),)

    return Tensor(out, parents=(logits,), backward=back)


# ---------------------------------------------------------------------------
# parameter updates


def check_optimizer(kind, lr, error) -> float:
    """``lr`` as a float; raises ``error`` unless ``kind`` is a str in
    ``OPTIMIZERS`` and ``lr`` is a finite number, not negative (-0.0
    included). For any such ``lr``, ``lr * 0.0`` is +0.0, which the
    row-sparse steps below rely on. The configs and the optimizers share
    this one rule."""
    if not isinstance(kind, str) or kind not in OPTIMIZERS:
        raise error(f"unknown optimizer {kind!r}; known: {sorted(OPTIMIZERS)}")
    real = isinstance(lr, (int, float, np.integer, np.floating))
    if not (real and math.isfinite(lr) and math.copysign(1.0, lr) > 0):
        raise error(f"learning rate must be finite and not negative (-0.0 included), got {lr!r}")
    return float(lr)


def _distinct_params(params) -> list:
    """``params`` as a list; raises ValueError for a parameter listed
    twice, which every step would move twice."""
    params = list(params)
    seen = set()
    for p in params:
        if id(p) in seen:
            raise ValueError(f"parameter {p!r} is listed twice")
        seen.add(id(p))
    return params


class SGD:
    """Plain gradient descent over a list of distinct parameters.

    A row-sparse gradient updates only its ``rows``, by its ``sums``.
    The dense step would subtract ``lr * 0.0``, +0.0, from every other
    row, which leaves them bit-identical.
    """

    def __init__(self, params, lr):
        self.params = _distinct_params(params)
        self.lr = check_optimizer("sgd", lr, ValueError)

    def step(self):
        for p in self.params:
            g = p._grad
            if isinstance(g, RowGrad):
                p.value[g.rows] -= self.lr * g.sums
            elif g is not None:
                p.value -= self.lr * g

    def zero_grad(self):
        zero_grads(self.params)


# Share of a table's rows, once that many have had a gradient entry, at
# which Adam takes the dense step for good (20000 x 16 table, 256 or 864
# gradient entries per step, numpy on one thread): the compact step
# measured faster than the dense one up to a share between 0.8 and 0.85,
# and 0.83-0.90 of its time at 0.6, so switching at 0.6 costs a table at
# most about a fifth more per step than switching at the crossover.
DENSE_STEP_SHARE = 0.6


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# rows of a table's first compact moments; they double when they fill,
# up to the table's row count
_FIRST_ROWS = 256


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    """``a`` zero-padded to ``size`` leading entries."""
    out = np.zeros((size,) + a.shape[1:], dtype=a.dtype)
    out[: len(a)] = a
    return out


class _RowMoments:
    """Adam's m and v over the touched rows of a row-sparse table.

    ``rows[:n]`` holds the touched rows in first-touched order and
    ``m[:n]``, ``v[:n]`` their moments; ``slot`` maps a table row to its
    entry there, -1 for a row not yet touched. Entries past ``n`` are
    zeros, the moments of an untouched row.
    """

    def __init__(self, shape):
        self.shape = shape
        self.slot = np.full(shape[0], -1, dtype=np.intp)
        self.rows = np.zeros(0, dtype=np.intp)
        self.m, self.v = np.zeros((0, shape[1])), np.zeros((0, shape[1]))
        self.n = 0

    def append(self, new: np.ndarray) -> None:
        """Give the rows ``new``, none touched before, the next entries."""
        n = self.n + new.size
        if n > self.rows.size:
            size = min(max(n, 2 * self.rows.size, _FIRST_ROWS), self.slot.size)
            self.rows, self.m, self.v = (_grown(a, size) for a in (self.rows, self.m, self.v))
        self.rows[self.n : n] = new
        self.slot[new] = np.arange(self.n, n)
        self.n = n

    def full(self, compact: np.ndarray) -> np.ndarray:
        """The table-shaped array of ``m`` or ``v``: zeros but the touched rows."""
        out = np.zeros(self.shape)
        out[self.rows[: self.n]] = compact[: self.n]
        return out


class Adam:
    """Adam with betas (``ADAM_BETA1``, ``ADAM_BETA2``) and eps ``ADAM_EPS``
    over a list of distinct parameters.

    A row whose moments m and v are 0 and whose gradient is 0 is a fixed
    point of the update (m and v stay +0.0 and the step is
    ``lr * 0.0 / eps``, +0.0), so a row-sparse gradient marks its
    ``rows`` as touched, only the rows ever touched are updated, by the
    dense arithmetic, and every parameter, m and v stay bit-identical to
    the dense step. Such a table keeps m and v for its touched rows only,
    compact and in first-touched order (``_RowMoments``), so no table-
    sized moments exist while it steps by rows. A dense gradient, or
    marks on ``DENSE_STEP_SHARE`` of the rows, scatters them once into
    table-sized m and v and switches the parameter to the dense step for
    good. A parameter gets its m and v at its first step.

    The parameters whose gradient is dense at the first step form the
    dense group (an MLP's weights and biases, a codebook); their m and v
    are views into one flat m and one flat v. A step in which every
    member has a gradient updates the group with one moments step over
    the members' gradients joined end to end; the update is elementwise,
    so each entry gets the bits of its own parameter's step. Any other
    step, and every parameter outside the group, steps one parameter at
    a time. Row-sparse tables stay outside, so no buffer of the group
    grows with a table's size.

    ``_m[i]`` and ``_v[i]`` read parameter i's full-shape m and v: its
    dense arrays, or built from its compact rows (zeros elsewhere) on
    each read. ``_touched[i]`` is None before any gradient, a bool mask
    of the touched rows while the parameter steps by rows, and True once
    it steps dense.
    """

    def __init__(self, params, lr):
        self.params = _distinct_params(params)
        self.lr = check_optimizer("adam", lr, ValueError)
        self.t = 0
        # per parameter: None before its first step, a ``_RowMoments``
        # while it steps by rows, then its dense (m, v) for good
        self._state = [None] * len(self.params)
        # the dense group's member indices, set by the first step
        self._group = None

    def _moments(self, i) -> tuple:
        """Parameter i's full-shape (m, v)."""
        state = self._state[i]
        if isinstance(state, tuple):
            return state
        if state is None:
            shape = self.params[i].value.shape
            return np.zeros(shape), np.zeros(shape)
        return state.full(state.m), state.full(state.v)

    @property
    def _m(self) -> list:
        return [self._moments(i)[0] for i in range(len(self.params))]

    @property
    def _v(self) -> list:
        return [self._moments(i)[1] for i in range(len(self.params))]

    @property
    def _touched(self) -> list:
        return [None if s is None else True if isinstance(s, tuple) else s.slot >= 0 for s in self._state]

    def _form_group(self) -> None:
        """Group the parameters whose gradient is dense; their m and v
        become views into one flat m and v."""
        self._group = [i for i, p in enumerate(self.params) if isinstance(p._grad, np.ndarray)]
        size = sum(self.params[i].value.size for i in self._group)
        self._flat_m, self._flat_v = np.zeros(size), np.zeros(size)
        start = 0
        for i in self._group:
            value = self.params[i].value
            end = start + value.size
            self._state[i] = (self._flat_m[start:end].reshape(value.shape), self._flat_v[start:end].reshape(value.shape))
            start = end

    def _moments_step(self, m, v, g, bias1, bias2):
        """Update m and v in place; return the step to subtract."""
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        return self.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)

    def _group_step(self, bias1, bias2) -> bool:
        """One moments step over the dense group; False, with nothing
        done, when a member has no gradient."""
        members = [self.params[i] for i in self._group]
        if not members or any(p._grad is None for p in members):
            return False
        # ``grad`` densifies a row-sparse gradient, as the dense step does
        g = np.concatenate([p.grad.ravel() for p in members])
        step = self._moments_step(self._flat_m, self._flat_v, g, bias1, bias2)
        start = 0
        for p in members:
            p.value -= step[start : start + p.value.size].reshape(p.value.shape)
            start += p.value.size
        return True

    def step(self):
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        if self._group is None:
            self._form_group()
        grouped = set(self._group) if self._group_step(bias1, bias2) else ()
        for i, p in enumerate(self.params):
            if p._grad is None or i in grouped:
                continue
            state, g = self._state[i], p._grad
            if isinstance(g, RowGrad) and not isinstance(state, tuple):
                if state is None:
                    state = self._state[i] = _RowMoments(p.value.shape)
                new = g.rows[state.slot[g.rows] < 0]
                if state.n + new.size < DENSE_STEP_SHARE * state.slot.size:
                    state.append(new)
                    n = state.n
                    g_rows = np.zeros((n, p.value.shape[1]))
                    g_rows[state.slot[g.rows]] = g.sums
                    p.value[state.rows[:n]] -= self._moments_step(state.m[:n], state.v[:n], g_rows, bias1, bias2)
                    continue
            m, v = self._state[i] = self._moments(i)
            p.value -= self._moments_step(m, v, p.grad, bias1, bias2)

    def zero_grad(self):
        zero_grads(self.params)


# every optimizer name a config may give
OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def make_optimizer(kind: str, params, lr):
    check_optimizer(kind, lr, ValueError)
    return OPTIMIZERS[kind](params, lr)
