"""Forward values, gradient correctness, and determinism of the tensor engine."""

import math

import numpy as np
import pytest

from semidlab import tensor as T
from semidlab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

from fdcheck import assert_grads_close, fd_grad, weighted_sum


class TestForwardValues:
    def test_matmul_identity(self):
        eye = T.constant(np.eye(2))
        np.testing.assert_array_equal(T.matmul(eye, eye).value, np.eye(2))

    def test_matmul_hand_case(self):
        a = T.constant([[1.0, 2.0], [3.0, 4.0]])
        b = T.constant([[1.0], [1.0]])
        np.testing.assert_array_equal(T.matmul(a, b).value, [[3.0], [7.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(T.DimensionError):
            T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))

    def test_softmax_symmetry(self):
        out = T.softmax_rows(T.constant([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.value, [[0.5, 0.5]])

    def test_softmax_forced_stabilization(self):
        out = T.softmax_rows(T.constant([[1000.0, 0.0]])).value
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-300)

    def test_softmax_hand_case(self):
        out = T.softmax_rows(T.constant([[math.log(2.0), 0.0]])).value
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], rtol=1e-15)

    def test_softmax_rows_sum_to_one_at_large_magnitude(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1e4, 1e4, size=(50, 7))
        s = T.softmax_rows(T.constant(x)).value
        np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(s >= 0)

    def test_layernorm_constant_row_is_zero_before_affine(self):
        x = T.constant(np.full((1, 5), 3.7))
        out = T.layernorm(x, T.constant(np.ones(5)), T.constant(np.zeros(5)))
        np.testing.assert_array_equal(out.value, np.zeros((1, 5)))

    def test_layernorm_hand_case(self):
        # population variance of [1, -1] is 1, so the output is the input
        # shrunk by 1/sqrt(1 + eps)
        out = T.layernorm(
            T.constant([[1.0, -1.0]]), T.constant(np.ones(2)), T.constant(np.zeros(2))
        )
        expected = np.array([[1.0, -1.0]]) / math.sqrt(1.0 + T.LAYERNORM_EPS)
        np.testing.assert_allclose(out.value, expected, rtol=1e-15)

    # gather_sum: a single group of gather_groups sums its rows

    def test_gather_sum_single_row(self):
        table = T.constant(np.arange(12.0).reshape(4, 3))
        np.testing.assert_array_equal(T.gather_groups(table, [[2]]).value, [[6.0, 7.0, 8.0]])

    def test_gather_sum_hand_case(self):
        table = T.constant([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(T.gather_groups(table, [[0, 1]]).value, [[1.0, 1.0]])

    def test_gather_sum_duplicate_rows_double(self):
        table = T.parameter(np.arange(6.0).reshape(3, 2))
        out = T.gather_groups(table, [[1, 1]])
        np.testing.assert_array_equal(out.value, 2.0 * table.value[1:2])
        loss = weighted_sum(out)
        T.backward(loss)
        expected = np.zeros((3, 2))
        expected[1] = 2.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_gather_sum_out_of_range(self):
        table = T.constant(np.ones((3, 2)))
        with pytest.raises(IndexError):
            T.gather_groups(table, [[3]])
        with pytest.raises(IndexError):
            T.gather_groups(table, [[-2]])

    def test_gather_groups_empty_group_is_zero_row(self):
        table = T.constant(np.arange(6.0).reshape(3, 2))
        out = T.gather_groups(table, [[0, 2], [-1, -1]])
        np.testing.assert_array_equal(out.value, [[4.0, 6.0], [0.0, 0.0]])

    def test_gather_groups_leading_axes_and_padding(self):
        table = T.parameter(np.arange(8.0).reshape(4, 2))
        index = np.array([[[0, -1], [3, 3]], [[-1, -1], [1, 2]]])
        out = T.gather_groups(table, index)
        np.testing.assert_array_equal(out.value, [[[0, 1], [12, 14]], [[0, 0], [6, 8]]])
        T.backward(weighted_sum(out))
        np.testing.assert_array_equal(table.grad, [[1, 1], [1, 1], [1, 1], [2, 2]])

    def test_gather_groups_rejects_flat_index(self):
        with pytest.raises(T.DimensionError):
            T.gather_groups(T.constant(np.ones((3, 2))), [0, 1])

    def test_bmm_shares_a_plain_matrix_across_the_batch(self):
        rng = np.random.default_rng(4)
        seeds = rng.normal(size=(3, 4))
        keys = rng.normal(size=(2, 4, 5))
        out = T.bmm(T.constant(seeds), T.constant(keys)).value
        assert out.shape == (2, 3, 5)
        for b in range(2):
            np.testing.assert_allclose(out[b], seeds @ keys[b], rtol=1e-15)
        with pytest.raises(T.DimensionError):
            T.bmm(T.constant(np.ones((2, 3, 4))), T.constant(np.ones((3, 4, 5))))

    def test_add_rowvec_broadcasts_only_over_leading_axes(self):
        a = T.constant(np.zeros((2, 3, 4)))
        np.testing.assert_array_equal(T.add_rowvec(a, T.constant(np.ones((3, 4)))).value, np.ones((2, 3, 4)))
        for bad in (np.ones((2, 4)), np.ones((2, 3, 4)), np.ones(())):
            with pytest.raises(T.DimensionError):
                T.add_rowvec(a, T.constant(bad))
        with pytest.raises(T.DimensionError):
            T.add_rowvec(T.constant(np.ones((3, 4))), a)

    def test_add_requires_equal_shapes(self):
        with pytest.raises(T.DimensionError):
            T.add(T.constant(np.zeros((2, 3, 4))), T.constant(np.ones((3, 4))))
        with pytest.raises(T.DimensionError):
            T.add(T.constant(np.zeros((3, 4))), T.constant(np.ones(4)))

    def test_concat_along_joins_flattened_entries(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(8.0).reshape(2, 2, 2) + 10
        out = T.concat_along([T.constant(a), T.reshape(T.constant(b), (2, 4))], axis=1).value
        np.testing.assert_array_equal(out, [[0, 1, 2, 10, 11, 12, 13], [3, 4, 5, 14, 15, 16, 17]])

    @pytest.mark.parametrize(
        "shapes, axis",
        [
            ([(2, 3), (3, 2)], 1),  # leading axes differ
            ([(2, 3), (2, 3, 1)], -1),  # ranks differ
            ([(1, 2, 4), (2, 3, 4)], -2),  # batch axes differ
            ([(2, 3), (2, 4)], 0),  # widths differ when stacking rows
            ([], 0),
        ],
    )
    def test_concat_along_refuses_shapes_that_differ_off_the_axis(self, shapes, axis):
        with pytest.raises(T.DimensionError):
            T.concat_along([T.constant(np.ones(s)) for s in shapes], axis=axis)

    def test_relu_negative_has_zero_gradient(self):
        x = T.parameter([-3.0])
        out = T.relu(x)
        assert out.value[0] == 0.0
        T.backward(weighted_sum(out))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_relu_keeps_nan_and_zeroes_negative_zero(self):
        x = T.parameter([np.nan, -1.0, -0.0, 2.0])
        out = T.relu(x)
        assert np.isnan(out.value[0])
        assert out.value[1:].tobytes() == np.array([0.0, 0.0, 2.0]).tobytes()
        T.backward(weighted_sum(out))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0])

    def test_concat_along_rows_and_transpose(self):
        a = T.constant([[1.0, 2.0]])
        b = T.constant([[3.0, 4.0], [5.0, 6.0]])
        out = T.concat_along([a, b], axis=-2)
        np.testing.assert_array_equal(out.value, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_array_equal(T.transpose(out).value, out.value.T)

    def test_pairwise_dot_upper_order(self):
        x = T.constant(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]))
        out = T.pairwise_dot_upper(x).value
        np.testing.assert_array_equal(out, [0.0, 3.0, 2.0])


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        w = T.parameter(np.arange(6.0).reshape(2, 3))
        T.backward(weighted_sum(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_grad_of_sum_of_product_wrt_a_is_ones_bt(self):
        rng = np.random.default_rng(1)
        a = T.parameter(rng.normal(size=(3, 4)))
        bval = rng.normal(size=(4, 2))
        b = T.constant(bval)
        T.backward(weighted_sum(T.matmul(a, b)))
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ bval.T, rtol=1e-12)
        fd = fd_grad(lambda: T.matmul(a, b).value.sum(), a.value)
        assert_grads_close(a.grad, fd)

    def test_reconstruction_loss_matches_fd(self):
        # loss = ||x - Wx||^2 with the spec's step size h=1e-3
        rng = np.random.default_rng(2)
        w = T.parameter(rng.normal(size=(4, 4)) * 0.3)
        xval = rng.normal(size=(4, 1))

        def loss_tensor():
            x = T.constant(xval)
            return T.sum_sq(T.sub(x, T.matmul(w, x)))

        loss = loss_tensor()
        T.backward(loss)
        fd = fd_grad(lambda: loss_tensor().value.item(), w.value, h=1e-3)
        assert_grads_close(w.grad, fd, rtol=1e-4, floor=1e-7)

    def test_inner_gradients_released_and_repeat_backward_accumulates(self):
        w = T.parameter(np.arange(3.0))
        h = T.scale(w, 2.0)
        loss = weighted_sum(h)
        T.backward(loss)
        assert h.grad is None and loss.grad is None
        np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])
        T.backward(loss)  # a second sweep adds the same gradient once more
        np.testing.assert_array_equal(w.grad, [4.0, 4.0, 4.0])

    def test_backward_requires_scalar(self):
        w = T.parameter(np.ones((2, 2)))
        with pytest.raises(T.GraphError):
            T.backward(T.matmul(w, w))

    def test_backward_deterministic_bit_identical(self):
        def run():
            rng = np.random.default_rng(3)
            w = T.parameter(rng.normal(size=(3, 3)))
            x = T.constant(rng.normal(size=(3, 2)))
            out = T.softmax_rows(T.matmul(w, x))
            # softmax rows sum to 1, so equal weights would give a zero gradient
            loss = weighted_sum(out, rng.normal(size=out.value.size))
            T.backward(loss)
            return loss.value.copy(), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert np.array_equal(l1, l2)
        assert np.array_equal(g1, g2)


def _rand(rng, *shape):
    return rng.normal(size=shape)


# every registered operation, exercised on random 3x4-ish inputs
OP_CASES = {
    "matmul_a": lambda rng, p: T.matmul(p, T.constant(_rand(rng, 4, 2))),
    "matmul_b": lambda rng, p: T.matmul(T.constant(_rand(rng, 2, 3)), p),
    "softmax_rows": lambda rng, p: T.softmax_rows(p),
    "layernorm_x": lambda rng, p: T.layernorm(
        p, T.constant(_rand(rng, 4)), T.constant(_rand(rng, 4))
    ),
    "gather_sum": lambda rng, p: T.gather_groups(p, [[0, 2, 2]]),
    "gather_groups": lambda rng, p: T.gather_groups(p, [[0, 1], [-1, -1], [2, 2]]),
    "add": lambda rng, p: T.add(p, T.constant(_rand(rng, 3, 4))),
    "sub": lambda rng, p: T.sub(T.constant(_rand(rng, 3, 4)), p),
    "relu": lambda rng, p: T.relu(p),
    "scale": lambda rng, p: T.scale(p, -2.5),
    "transpose": lambda rng, p: T.transpose(p),
    "concat_along_rows": lambda rng, p: T.concat_along([p, T.constant(_rand(rng, 2, 4))], axis=0),
    "sum_sq": lambda rng, p: T.sum_sq(p),
    "add_rowvec_m": lambda rng, p: T.add_rowvec(p, T.constant(_rand(rng, 4))),
    "reshape": lambda rng, p: T.reshape(p, (4, 3)),
    "concat_along_columns": lambda rng, p: T.concat_along([p, T.constant(_rand(rng, 3, 5))], axis=1),
    "pairwise_dot_upper": lambda rng, p: T.pairwise_dot_upper(p),
    "bce_with_logits": lambda rng, p: T.bce_with_logits(
        p, (rng.random(size=(3, 4)) > 0.5).astype(float)
    ),
    # leading batch axes; PARAM_SHAPES gives the parameter's shape
    "matmul_a_3d": lambda rng, p: T.matmul(p, T.constant(_rand(rng, 4, 2))),
    "matmul_b_3d": lambda rng, p: T.matmul(T.constant(_rand(rng, 2, 3, 4)), p),
    "bmm_a": lambda rng, p: T.bmm(p, T.constant(_rand(rng, 2, 4, 5))),
    "bmm_b": lambda rng, p: T.bmm(T.constant(_rand(rng, 2, 5, 3)), p),
    "bmm_shared_a": lambda rng, p: T.bmm(p, T.constant(_rand(rng, 2, 4, 5))),
    "bmm_shared_b": lambda rng, p: T.bmm(T.constant(_rand(rng, 2, 5, 3)), p),
    "add_rowvec_table_3d": lambda rng, p: T.add_rowvec(T.constant(_rand(rng, 2, 3, 4)), p),
    "add_rowvec_3d": lambda rng, p: T.add_rowvec(T.constant(_rand(rng, 2, 3, 4)), p),
    "softmax_rows_3d": lambda rng, p: T.softmax_rows(p),
    "layernorm_x_3d": lambda rng, p: T.layernorm(
        p, T.constant(_rand(rng, 4)), T.constant(_rand(rng, 4))
    ),
    "layernorm_gain_3d": lambda rng, p: T.layernorm(
        T.constant(_rand(rng, 2, 3, 4)), p, T.constant(_rand(rng, 4))
    ),
    "layernorm_bias_3d": lambda rng, p: T.layernorm(
        T.constant(_rand(rng, 2, 3, 4)), T.constant(_rand(rng, 4)), p
    ),
    "transpose_3d": lambda rng, p: T.transpose(p),
    "concat_along_rows_3d": lambda rng, p: T.concat_along([T.constant(_rand(rng, 2, 1, 4)), p], axis=-2),
    "concat_along_flat_3d": lambda rng, p: T.concat_along(
        [T.constant(_rand(rng, 2, 5)), T.reshape(p, (2, 12))], axis=1
    ),
    "pairwise_dot_upper_3d": lambda rng, p: T.pairwise_dot_upper(p),
    "gather_groups_3d": lambda rng, p: T.gather_groups(p, [[[0, -1], [2, 2]], [[-1, -1], [1, 0]]]),
}

# parameter shape per case; every other case uses a 3x4 parameter
PARAM_SHAPES = {
    "matmul_b_3d": (4, 2),
    "bmm_shared_a": (3, 4),
    "bmm_shared_b": (3, 4),
    "add_rowvec_table_3d": (3, 4),
    "add_rowvec_3d": (4,),
    "layernorm_gain_3d": (4,),
    "layernorm_bias_3d": (4,),
    "gather_groups_3d": (3, 4),
    **{name: (2, 3, 4) for name in (
        "matmul_a_3d", "bmm_a", "bmm_b", "softmax_rows_3d", "layernorm_x_3d", "transpose_3d",
        "concat_along_rows_3d", "concat_along_flat_3d", "pairwise_dot_upper_3d",
    )},
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(name):
    """Reverse-mode vs central differences, 1e-4 relative with 1e-7 floor."""
    build = OP_CASES[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    pval = rng.normal(size=PARAM_SHAPES.get(name, (3, 4)))
    if name == "relu":
        pval += np.sign(pval)  # keep inputs away from the kink
    p = T.parameter(pval.copy())
    weights = np.random.default_rng(7).normal(size=build(np.random.default_rng(0), p).value.shape)

    def scalar():
        out = build(np.random.default_rng(0), p)
        return float((out.value * weights).sum())

    out = build(np.random.default_rng(0), p)
    loss = weighted_sum(out, weights)
    T.backward(loss)
    fd = fd_grad(scalar, p.value)
    assert_grads_close(p.grad, fd, rtol=1e-4, floor=1e-7)


@pytest.mark.parametrize(
    "name,op",
    [
        ("matmul", lambda x: T.matmul(x, T.constant(np.arange(8.0).reshape(4, 2) / 7.0))),
        ("softmax_rows", T.softmax_rows),
        ("layernorm", lambda x: T.layernorm(x, T.constant(np.full(4, 1.5)), T.constant(np.full(4, 0.25)))),
        ("transpose", T.transpose),
        ("pairwise_dot_upper", T.pairwise_dot_upper),
        ("add_rowvec", lambda x: T.add_rowvec(x, T.constant(np.arange(4.0)))),
    ],
)
def test_batched_op_equals_op_on_each_slice(name, op):
    """A leading batch axis gives, per entry, what the 2-D op gives."""
    x = np.random.default_rng(12).normal(size=(3, 5, 4))
    out = op(T.constant(x)).value
    for b in range(3):
        np.testing.assert_allclose(out[b], op(T.constant(x[b])).value, rtol=1e-14, atol=1e-15)


def test_layernorm_affine_params_match_fd():
    rng = np.random.default_rng(11)
    x = T.constant(rng.normal(size=(3, 4)))
    gain = T.parameter(rng.normal(size=4))
    bias = T.parameter(rng.normal(size=4))
    weights = rng.normal(size=(3, 4))

    def scalar():
        return float((T.layernorm(x, gain, bias).value * weights).sum())

    T.backward(weighted_sum(T.layernorm(x, gain, bias), weights))
    assert_grads_close(gain.grad, fd_grad(scalar, gain.value))
    assert_grads_close(bias.grad, fd_grad(scalar, bias.value))


class TestOptimizers:
    def test_sgd_step(self):
        p = T.parameter(np.array([1.0, 2.0]))
        p.grad = np.array([0.5, -1.0])
        T.SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.value, [0.95, 2.1])

    def test_adam_first_step_moves_by_lr(self):
        # with bias correction the first Adam step is lr * sign(grad)
        p = T.parameter(np.array([1.0, -1.0]))
        p.grad = np.array([0.3, -0.2])
        T.Adam([p], lr=0.01).step()
        np.testing.assert_allclose(p.value, [1.0 - 0.01, -1.0 + 0.01], atol=1e-6)

    def test_zero_lr_leaves_params_unchanged(self):
        p = T.parameter(np.array([1.0]))
        p.grad = np.array([123.0])
        opt = T.Adam([p], lr=0.0)
        opt.step()
        np.testing.assert_array_equal(p.value, [1.0])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        params = {
            "enc.w": rng.normal(size=(7, 3)),
            "enc.b": rng.normal(size=3),
            "scalar": np.array(math.pi),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta={"seed": 5, "config_hash": "abc"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 5, "config_hash": "abc"}
        assert list(loaded) == list(params)
        for name in params:
            assert loaded[name].shape == params[name].shape
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].tobytes() == params[name].tobytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [8, 10, 12, 20])
    def test_truncated_header_raises(self, tmp_path, cut):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 3))}, meta={"seed": 1})
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop", [1, 8, 48])
    def test_truncated_payload_raises(self, tmp_path, drop):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 3)), "b": np.zeros(3)})
        path.write_bytes(path.read_bytes()[:-drop])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [b"{not json", b"[1, 2]", b'{"version": 1, "meta": {}}', b'{"version": 1, "meta": {}, "params": [{"name": "w"}]}',
         b'{"version": 1, "meta": {}, "params": [{"name": "w", "shape": [-1]}]}', b'{"version": 2}'],
    )
    def test_malformed_header_raises(self, tmp_path, header):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"SIDTC001" + len(header).to_bytes(4, "little") + header)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_accepts_tensors(self, tmp_path):
        p = T.parameter(np.eye(2), name="w")
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"w": p})
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded["w"], np.eye(2))


# ---------------------------------------------------------------------------
# node construction and the read path's shortcuts


def test_tensor_keeps_a_contiguous_float64_array_and_converts_anything_else():
    a = np.arange(6.0).reshape(2, 3)
    assert T.constant(a).value is a
    for value in (a.T, a.astype(np.float32), a.astype(np.int64), a.tolist(), 3.0, np.float64(2.5)):
        v = T.constant(value).value
        assert type(v) is np.ndarray and v.dtype == np.float64 and v.flags.c_contiguous
        assert v.shape == np.shape(value) and np.array_equal(v, np.asarray(value))


def test_node_requires_grad_when_any_parent_does():
    c, p = T.constant(np.ones(2)), T.parameter(np.ones(2))
    assert T.Tensor(np.ones(2), parents=(c, p)).requires_grad
    assert not T.Tensor(np.ones(2), parents=[c, c]).requires_grad
    assert T.Tensor(np.ones(2), requires_grad=1, parents=(c,)).requires_grad is True


@pytest.mark.parametrize("index_shape", [(5, 3), (2, 4, 2)])
@pytest.mark.parametrize("rows", [50, 3])  # a RowGrad; the dense scatter once entries reach the rows
def test_gather_groups_without_pads_matches_the_masked_path_bytewise(index_shape, rows):
    rng = np.random.default_rng(rows)
    table = rng.normal(size=(rows, 4))
    table[1] = -0.0
    table[2, :2] = -0.0
    index = rng.integers(0, rows, size=index_shape)
    index[..., 0, :] = 1  # a group of -0.0 rows sums to +0.0
    index.reshape(-1)[-1] = 2  # a partly -0.0 row
    # one more group of pads sends the same entries through the masked path
    pads = np.full(index_shape[:-2] + (1, index_shape[-1]), -1)
    fast = T.gather_groups(T.parameter(table), index)
    masked = T.gather_groups(T.parameter(table), np.concatenate([index, pads], axis=-2))
    assert fast.value.tobytes() == masked.value[..., :-1, :].tobytes()
    assert not np.signbit(fast.value[..., 0, :]).any()
    g = rng.normal(size=fast.value.shape)
    (got,) = fast._backward(g)
    (want,) = masked._backward(np.concatenate([g, rng.normal(size=pads.shape[:-1] + (4,))], axis=-2))
    assert type(got) is type(want)
    if isinstance(got, T.RowGrad):
        assert got.shape == want.shape
        assert got.rows.tobytes() == want.rows.tobytes() and got.sums.tobytes() == want.sums.tobytes()
    else:
        assert got.tobytes() == want.tobytes()


def test_pairwise_dot_upper_caches_read_only_index_pairs():
    iu, ju = T._upper_pairs(6)
    want_i, want_j = np.triu_indices(6, k=1)
    assert np.array_equal(iu, want_i) and np.array_equal(ju, want_j)
    assert T._upper_pairs(6)[0] is iu
    for a in (iu, ju):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
