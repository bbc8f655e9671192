"""Row-sparse table gradients and the touched-row optimizer steps against
the dense reference in ``reference_optim``.

Every step compares the gradient, the parameters and Adam's m and v
bytewise. A plan is a list of optimizer steps; each step is a list of
backward passes (none: the step sees no gradient) and each pass sums
one or more terms over one table: a row gather with an (..., G) index
array (-1 pads, repeated rows) under a weighted sum, or a dense op on
the whole table.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_optim as ref
from fdcheck import weighted_sum
from semidlab import tensor as T

NEW = (T.gather_groups, T.backward, {"sgd": T.SGD, "adam": T.Adam})
REF = (ref.gather_groups, ref.backward, {"sgd": ref.SGD, "adam": ref.Adam})


def gather(index, weights):
    return ("gather", np.asarray(index), np.asarray(weights, dtype=np.float64))


def dense(weights):
    return ("dense", None, np.asarray(weights, dtype=np.float64))


def _loss(table, terms, gather_op):
    parts = []
    for kind, index, weights in terms:
        out = gather_op(table, index) if kind == "gather" else table
        parts.append(weighted_sum(out, weights))
    loss = parts[0]
    for part in parts[1:]:
        loss = T.add(loss, part)
    return loss


def _dense_grad(p):
    """The gradient as a dense array, without densifying ``p`` in place."""
    g = p._grad
    return g.dense() if isinstance(g, T.RowGrad) else g


def run(engine, plan, init, kind, lr):
    """Per step: (gradient, parameters, m, v) bytes; returns them and the
    optimizer."""
    gather_op, backward, optimizers = engine
    table = T.parameter(init.copy(), name="table")
    opt = optimizers[kind]([table], lr)
    states = []
    for passes in plan:
        for terms in passes:
            backward(_loss(table, terms, gather_op))
        grad = _dense_grad(table)
        opt.step()
        moments = (opt._m[0].tobytes(), opt._v[0].tobytes()) if kind == "adam" else (b"", b"")
        states.append((None if grad is None else grad.tobytes(), table.value.tobytes(), *moments))
        opt.zero_grad()
    return states, opt, table


def assert_matches_reference(plan, init, kind, lr):
    got, opt, table = run(NEW, plan, init, kind, lr)
    want, _, _ = run(REF, plan, init, kind, lr)
    for step, (g, w) in enumerate(zip(got, want)):
        for what, a, b in zip(("gradient", "parameters", "m", "v"), g, w):
            assert a == b, f"{what} differ after step {step + 1}"
    return opt, table


def _table(h, d, seed=0, nan_rows=()):
    init = np.random.default_rng(seed).normal(size=(h, d))
    init[list(nan_rows)] = np.nan
    return init


W = np.random.default_rng(1).normal


CASES = {
    # (B, T, G) index with -1 pads and a row read three times
    "pads_and_duplicate_rows": [
        [[gather([[[0, 0], [3, -1]], [[-1, -1], [0, 5]]], W(size=(2, 2, 3)))]],
        [[gather([[2, 2, -1]], W(size=(1, 3)))]],
    ],
    # rows 1 and 3 touched once, then idle for four steps while row 6 moves
    "touched_then_idle": [[[gather([[1, 3]], W(size=(1, 3)))]]]
    + [[[gather([[6]], W(size=(1, 3)))]] for _ in range(4)],
    # a gather and a dense op feed the same table in one graph
    "gather_and_dense_in_one_graph": [
        [[gather([[4], [4], [7]], W(size=(3, 3))), dense(W(size=(8, 3)))]],
        [[gather([[2, 4]], W(size=(1, 3)))]],
    ],
    # a dense gradient before any row-sparse one: every row counts as touched
    "dense_first": [
        [[dense(W(size=(8, 3)))]],
        [[gather([[1]], W(size=(1, 3)))]],
        [[gather([[5, 5]], W(size=(1, 3)))]],
    ],
    # two gathers of one table in one graph, and two backward passes before
    # one step: contributions that share rows add in arrival order
    "repeated_contributions": [
        [[gather([[1, 2]], W(size=(1, 3))), gather([[2], [1]], W(size=(2, 3)))],
         [gather([[2, 6, 2]], W(size=(1, 3)))]],
        [],
        [[gather([[6, 6, 0]], W(size=(1, 3)))]],
    ],
    # a NaN gradient entry in a touched row
    "nan_gradient": [
        [[gather([[2], [3]], np.array([[np.nan, 1.0, 2.0], [0.5, 0.5, 0.5]]))]],
        [[gather([[4]], W(size=(1, 3)))]],
    ],
}


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fixed_plans_match_reference(case, kind):
    assert_matches_reference(CASES[case], _table(8, 3), kind, 0.05)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_nan_rows_in_table_match_reference(kind):
    init = _table(8, 3, nan_rows=(0, 5))
    opt, table = assert_matches_reference(CASES["touched_then_idle"], init, kind, 0.05)
    assert np.isnan(table.value[[0, 5]]).all()


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_zero_lr_matches_reference(kind):
    for case in CASES.values():
        assert_matches_reference(case, _table(8, 3, nan_rows=(7,)), kind, 0.0)


def test_gather_gradient_stays_row_sparse_on_a_leaf():
    table = T.parameter(_table(1000, 4))
    T.backward(weighted_sum(T.gather_groups(table, [[3, 3], [-1, 9]])))
    g = table._grad
    assert isinstance(g, T.RowGrad)
    assert g.shape == (1000, 4)
    assert g.nbytes < 200
    rows, sums = g.coalesce()
    np.testing.assert_array_equal(rows, [3, 9])
    np.testing.assert_array_equal(sums, [[2.0] * 4, [1.0] * 4])
    # reading ``grad`` densifies once and keeps the dense array
    dense_grad = table.grad
    assert dense_grad.shape == (1000, 4) and table.grad is dense_grad
    assert dense_grad.sum() == 12.0


def test_gather_reading_as_many_entries_as_rows_scatters_densely():
    table = T.parameter(_table(4, 2))
    T.backward(weighted_sum(T.gather_groups(table, [[0, 0], [1, -1]])))
    assert isinstance(table._grad, T.RowGrad)
    table.grad = None
    T.backward(weighted_sum(T.gather_groups(table, [[0, 0], [1, 1]])))
    assert isinstance(table._grad, np.ndarray)
    np.testing.assert_array_equal(table.grad, [[2, 2], [2, 2], [0, 0], [0, 0]])


def test_row_sparse_gradient_is_densified_at_an_inner_node():
    p = T.parameter(_table(5, 2))
    inner = T.scale(p, 2.0)
    T.backward(weighted_sum(T.gather_groups(inner, [[1], [1]])))
    assert isinstance(p._grad, np.ndarray)
    np.testing.assert_array_equal(p.grad, [[0, 0], [4, 4], [0, 0], [0, 0], [0, 0]])


def test_grad_assigns_a_dense_float64_array():
    p = T.parameter(np.zeros(3))
    p.grad = [1, 2, 3]
    assert p.grad.dtype == np.float64
    np.testing.assert_array_equal(p.grad, [1.0, 2.0, 3.0])
    p.grad = None
    assert p.grad is None


def test_adam_updates_only_touched_rows_until_most_rows_are_touched():
    opt, table = assert_matches_reference(CASES["touched_then_idle"], _table(8, 3), "adam", 0.05)
    np.testing.assert_array_equal(np.flatnonzero(opt._touched[0]), [1, 3, 6])
    opt, _ = assert_matches_reference(CASES["dense_first"], _table(8, 3), "adam", 0.05)
    assert opt._touched[0] is True
    # 4 of 8 rows stay below DENSE_STEP_SHARE, 5 of 8 pass it
    plan = [[[gather([[0, 1], [2, 3]], W(size=(2, 3)))]], [[gather([[5]], W(size=(1, 3)))]]]
    _, opt, _ = run(NEW, plan[:1], _table(8, 3), "adam", 0.05)
    np.testing.assert_array_equal(np.flatnonzero(opt._touched[0]), [0, 1, 2, 3])
    opt, _ = assert_matches_reference(plan + [[[gather([[2]], W(size=(1, 3)))]]], _table(8, 3), "adam", 0.05)
    assert 4 / 8 < T.DENSE_STEP_SHARE <= 5 / 8
    assert opt._touched[0] is True


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("lr", [-0.05, float("inf"), -0.0, float("nan")])
def test_hyperparameters_outside_the_fixed_point_take_the_dense_step(kind, lr):
    # an lr whose product with 0.0 is not +0.0 would move untouched rows,
    # so the optimizers refuse it where it comes in
    table = T.parameter(_table(8, 3), name="table")
    with pytest.raises(ValueError, match="learning rate"):
        NEW[2][kind]([table], lr)
    with pytest.raises(ValueError, match="learning rate"):
        T.make_optimizer(kind, [table], lr)


@st.composite
def plans(draw):
    h = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    init = draw(hnp.arrays(np.float64, (h, d), elements=st.floats(-2, 2, width=64)))
    for row in draw(st.sets(st.integers(0, h - 1), max_size=2)):
        init[row] = np.nan
    weights = st.floats(-3, 3, width=64)

    def term():
        if draw(st.integers(0, 4)) == 0:
            return dense(draw(hnp.arrays(np.float64, (h, d), elements=weights)))
        lead = draw(st.sampled_from([(1,), (2,), (3,), (2, 2)]))
        groups = draw(st.integers(1, 3))
        index = draw(hnp.arrays(np.intp, lead + (groups,), elements=st.integers(-1, h - 1)))
        w = draw(hnp.arrays(np.float64, lead + (d,), elements=weights))
        if draw(st.integers(0, 9)) == 0:
            w.reshape(-1)[0] = np.nan
        return gather(index, w)

    plan = [
        [[term() for _ in range(draw(st.integers(1, 2)))] for _ in range(draw(st.integers(0, 2)))]
        for _ in range(draw(st.integers(1, 6)))
    ]
    return plan, init


@settings(max_examples=150, deadline=None)
@given(plan_init=plans(), kind=st.sampled_from(["sgd", "adam"]), lr=st.sampled_from([0.0, 1e-3, 0.05, 0.7]))
def test_random_plans_match_reference(plan_init, kind, lr):
    plan, init = plan_init
    assert_matches_reference(plan, init, kind, lr)
