"""The training step's fast paths against the slow oracles, byte for byte.

``checkpoint.scatter_rows`` against ``np.add.at`` on zeros; a leaf's
first gradient contribution against ``zeros_like`` then ``+=``; the
fused ``linear`` op against ``matmul`` then ``add_rowvec``; Adam's dense
group step against the per-parameter dense Adam of ``reference_optim``;
Adam's compact moments of a row-sparse table, as they grow and go dense,
against the same reference, and the memory they keep; and the
optimizers' refusal of a parameter listed twice.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_optim as ref
from fdcheck import weighted_sum
from semidlab import tensor as T
from semidlab.checkpoint import scatter_rows

# values that could break a bitwise sum: NaN, both infinities and -0.0
SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0])


def add_at(idx, values, n):
    out = np.zeros((n, values.shape[1]))
    np.add.at(out, idx, values)
    return out


@st.composite
def scatters(draw):
    """(row indices with repeats, (E, d) values, row count); E may be 0."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    e = draw(st.integers(0, 12))
    idx = draw(hnp.arrays(np.intp, (e,), elements=st.integers(0, n - 1)))
    values = draw(hnp.arrays(np.float64, (e, d), elements=st.floats(-1e16, 1e16, width=64) | SPECIAL))
    return idx, values, n


@settings(max_examples=300, deadline=None)
@given(case=scatters())
# the order of the terms decides the sum: 1 is lost against 1e16 first
@example(case=(np.array([0, 0, 0]), np.array([[1.0], [1e16], [-1e16]]), 1))
# two NaNs meet: inf - inf, then a NaN weight
@example(case=(np.array([0, 0, 0]), np.array([[-np.inf, np.inf], [-np.inf, -np.inf], [-np.inf, np.nan]]), 4))
@example(case=(np.array([1, 1]), np.array([[-0.0], [-0.0]]), 3))
def test_scatter_rows_is_add_at_on_zeros(case):
    idx, values, n = case
    with np.errstate(invalid="ignore"):
        got = scatter_rows(idx, values, n)
        want = add_at(idx, values, n)
    assert got.dtype == np.float64 and got.shape == (n, values.shape[1])
    assert got.tobytes() == want.tobytes()


def test_scatter_rows_in_entry_order_from_plus_zero():
    got = scatter_rows(np.array([0, 0, 0, 2]), np.array([[1.0], [1e16], [-1e16], [-0.0]]), 3)
    # (0 + 1) + 1e16 rounds the 1 away, then -1e16 leaves 0; no -0.0 survives
    assert got.tobytes() == np.zeros((3, 1)).tobytes()
    assert scatter_rows(np.array([], dtype=np.intp), np.empty((0, 2)), 3).tobytes() == np.zeros((3, 2)).tobytes()


def test_first_contribution_of_negative_zeros_reads_plus_zero():
    p = T.parameter(np.ones((2, 3)))
    # the scale node receives +0.0 and hands p +0.0 * -1.0, that is -0.0
    negative = T.scale(p, -1.0)
    T.backward(weighted_sum(negative, np.zeros(6)))
    assert p.grad.tobytes() == np.zeros((2, 3)).tobytes()
    # a NaN contribution keeps its bits
    q = T.parameter(np.ones(2))
    nan = np.frombuffer(np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64).tobytes())
    T.backward(weighted_sum(q, nan))
    want = np.zeros(2)
    want += 1.0 * nan
    assert q.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4), (1, 4)])
def test_linear_is_matmul_then_add_rowvec(x_shape):
    rng = np.random.default_rng(len(x_shape))
    xv, wv, bv = rng.normal(size=x_shape), rng.normal(size=(4, 3)), rng.normal(size=3)
    gv = rng.normal(size=x_shape[:-1] + (3,))
    grads = []
    for fused in (True, False):
        x, w, b = T.parameter(xv), T.parameter(wv), T.parameter(bv)
        out = T.linear(x, w, b) if fused else T.add_rowvec(T.matmul(x, w), b)
        T.backward(weighted_sum(out, gv))
        grads.append([out.value.tobytes()] + [p.grad.tobytes() for p in (x, w, b)])
    assert grads[0] == grads[1]


@pytest.mark.parametrize("shapes", [((3, 4), (5, 3), (3,)), ((3, 4), (4, 3), (4,)), ((4,), (4, 3), (3,))])
def test_linear_refuses_mismatched_shapes(shapes):
    x, w, b = (T.constant(np.ones(s)) for s in shapes)
    with pytest.raises(T.DimensionError, match="linear"):
        T.linear(x, w, b)


# ---------------------------------------------------------------------------
# Adam's dense group against per-parameter dense Adam

STEPS = 6
R = np.random.default_rng(3)
X = R.normal(size=(STEPS, 5, 4))
H_WEIGHTS = R.normal(size=(STEPS, 15))
# a 40-row table that stays row-sparse: two rows a step
SPARSE_ROWS = [[[s], [s + 20]] for s in range(STEPS)]
# an 8-row table whose touched rows pass DENSE_STEP_SHARE at step 3
CROSS_ROWS = [[[0, 1]], [[2, 3]], [[4]], [[1, 1]], [[7]], [[0]]]
# a 6-row codebook read by 8 entries at the first step (a dense scatter,
# so it joins the group) and by 2 after it (a row-sparse gradient that
# reaches a group member)
CODEBOOK_ROWS = [[[0], [1], [2], [3], [4], [5], [5], [0]]] + [[[s % 6], [(s + 3) % 6]] for s in range(1, STEPS)]
# steps at which the vector has a gradient; it has one at the first step
SOMETIMES = {0, 2, 3}
GATHER_WEIGHTS = R.normal(size=(STEPS, 4, 8, 3))


def _init():
    rng = np.random.default_rng(4)
    return {
        "w": rng.normal(size=(4, 3)),
        "b": rng.normal(size=3),
        "sparse_table": rng.normal(size=(40, 3)),
        "cross_table": rng.normal(size=(8, 3)),
        "sometimes": rng.normal(size=5),
        "codebook": rng.normal(size=(6, 3)),
    }


def _loss(params, step, gather, fused):
    p = params
    x = T.constant(X[step])
    h = T.linear(x, p["w"], p["b"]) if fused else T.add_rowvec(T.matmul(x, p["w"]), p["b"])
    loss = weighted_sum(h, H_WEIGHTS[step])
    for k, (name, rows) in enumerate([("sparse_table", SPARSE_ROWS), ("cross_table", CROSS_ROWS),
                                      ("codebook", CODEBOOK_ROWS)]):
        out = gather(p[name], rows[step])
        loss = T.add(loss, weighted_sum(out, GATHER_WEIGHTS[step, k, : out.value.shape[0]]))
    if step in SOMETIMES:
        loss = T.add(loss, weighted_sum(p["sometimes"], GATHER_WEIGHTS[step, 3, :5, 0]))
    return loss


def _train(fast):
    gather, backward, adam = (T.gather_groups, T.backward, T.Adam) if fast else (
        ref.gather_groups, ref.backward, ref.Adam)
    params = {name: T.parameter(v, name=name) for name, v in _init().items()}
    opt = adam(list(params.values()), 0.05)
    states = []
    for step in range(STEPS):
        backward(_loss(params, step, gather, fused=fast))
        opt.step()
        moments = zip(params.values(), opt._m, opt._v)
        states.append([(p.value.tobytes(), m.tobytes(), v.tobytes()) for p, m, v in moments])
        opt.zero_grad()
    return states, opt, params


def test_dense_group_step_matches_per_parameter_dense_adam():
    got, opt, params = _train(fast=True)
    want, _, _ = _train(fast=False)
    names = list(params)
    for step, (g, w) in enumerate(zip(got, want)):
        for name, a, b in zip(names, g, w):
            assert a == b, f"{name} differs after step {step + 1}"
    # the group: the parameters whose gradient was dense at the first step
    members = ["w", "b", "sometimes", "codebook"]
    assert [names[i] for i in opt._group] == members
    assert opt._flat_m.size == opt._flat_v.size == sum(params[n].value.size for n in members)
    for i, name in enumerate(names):
        in_group = name in members
        assert np.shares_memory(opt._m[i], opt._flat_m) == in_group
        assert np.shares_memory(opt._v[i], opt._flat_v) == in_group
    # the tables stay out: one still steps its touched rows, one went dense
    assert np.flatnonzero(opt._touched[names.index("sparse_table")]).size == 2 * STEPS
    assert opt._touched[names.index("cross_table")] is True


def test_group_step_runs_once_per_step_with_every_member_graded(monkeypatch):
    calls = []
    original = T.Adam._moments_step

    def counting(self, m, v, g, bias1, bias2):
        calls.append(m.size)
        return original(self, m, v, g, bias1, bias2)

    monkeypatch.setattr(T.Adam, "_moments_step", counting)
    _, opt, _ = _train(fast=True)
    group_size = opt._flat_m.size
    # with every member graded: the group, the sparse table and the cross
    # table; without the vector: one call per parameter with a gradient
    assert calls[0] == group_size
    assert calls.count(group_size) == len(SOMETIMES)
    assert len(calls) == 3 * len(SOMETIMES) + 5 * (STEPS - len(SOMETIMES))


# ---------------------------------------------------------------------------
# a row-sparse table's compact moments

# a 1000-row table: each step reads 100 new rows and 20 of the last
# step's again, so the touched rows outgrow the first compact capacity at
# step 3 and pass DENSE_STEP_SHARE at step 7; step 4 has no gradient
GROW_ORDER = np.random.default_rng(5).permutation(1000)
GROW_ROWS = [GROW_ORDER[max(0, 100 * s - 20) : 100 * (s + 1)] for s in range(6)]
GROW_ROWS = GROW_ROWS[:3] + [None] + GROW_ROWS[3:] + [GROW_ORDER[:50]]


def _grow_then_cross(fast):
    gather, backward, adam = (T.gather_groups, T.backward, T.Adam) if fast else (
        ref.gather_groups, ref.backward, ref.Adam)
    rng = np.random.default_rng(6)
    table = T.parameter(rng.normal(size=(1000, 2)), name="table")
    opt = adam([table], 0.05)
    states, touched = [], []
    for rows in GROW_ROWS:
        if rows is not None:
            backward(weighted_sum(gather(table, rows[:, None]), rng.normal(size=(rows.size, 2))))
        opt.step()
        states.append((table.value.tobytes(), opt._m[0].tobytes(), opt._v[0].tobytes()))
        if fast:
            touched.append(opt._touched[0] if opt._touched[0] is True else np.flatnonzero(opt._touched[0]).size)
        opt.zero_grad()
    return states, touched


def test_compact_moments_grow_then_go_dense_as_the_dense_adam():
    got, touched = _grow_then_cross(fast=True)
    want, _ = _grow_then_cross(fast=False)
    for step, (g, w) in enumerate(zip(got, want)):
        for what, a, b in zip(("parameters", "m", "v"), g, w):
            assert a == b, f"{what} differ after step {step + 1}"
    assert touched == [100, 200, 300, 300, 400, 500, True, True]
    assert touched[1] <= T._FIRST_ROWS < touched[2]
    assert 500 < T.DENSE_STEP_SHARE * 1000 <= 600


def test_adam_keeps_no_table_sized_moments_for_a_row_sparse_table():
    # m and v of the whole table would take 2 x 2.56 MB
    table = T.parameter(np.random.default_rng(7).normal(size=(20_000, 16)), name="table")
    rows = np.array([[3], [70], [19_999], [70]])
    tracemalloc.start()
    try:
        opt = T.Adam([table], 0.01)
        for _ in range(3):
            T.backward(weighted_sum(T.gather_groups(table, rows), np.ones((4, 16))))
            opt.step()
            opt.zero_grad()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.flatnonzero(opt._touched[0]).tolist() == [3, 70, 19_999]


# ---------------------------------------------------------------------------
# a parameter listed twice


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_optimizers_refuse_a_parameter_listed_twice(kind):
    p, q = T.parameter(np.zeros(2), name="p"), T.parameter(np.zeros(2), name="q")
    for make in (lambda: T.make_optimizer(kind, [p, q, p], 0.1), lambda: T.OPTIMIZERS[kind]([p, q, p], 0.1)):
        with pytest.raises(ValueError, match="'p'.* listed twice"):
            make()
    # equal values are not the same parameter
    T.make_optimizer(kind, [p, T.parameter(np.zeros(2), name="p")], 0.1)
