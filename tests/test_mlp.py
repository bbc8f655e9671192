"""The dense-layer stack shared by the RQ-VAE and the ranker."""

import numpy as np
import pytest

from semidlab import tensor as T
from semidlab.mlp import init_params, mlp, mlp_layout

from fdcheck import assert_grads_close, fd_grad, weighted_sum


def stack(sizes, seed=0):
    return init_params(mlp_layout("net", sizes), np.random.default_rng(seed))


def test_init_names_shapes_and_zero_biases():
    params = stack([5, 7, 3])
    assert list(params) == ["net.0.w", "net.0.b", "net.1.w", "net.1.b"]
    assert [p.value.shape for p in params.values()] == [(5, 7), (7,), (7, 3), (3,)]
    assert all(p.requires_grad and p.name == name for name, p in params.items())
    assert not params["net.0.b"].value.any() and not params["net.1.b"].value.any()


def numpy_stack(params, x):
    """The stack written out in numpy: ``x @ w + b``, a ReLU between layers."""
    n = len(params) // 2
    for i in range(n):
        x = x @ params[f"net.{i}.w"].value + params[f"net.{i}.b"].value
        if i < n - 1:
            x = np.maximum(x, 0.0)
    return x


@pytest.mark.parametrize("sizes", [[4, 3], [4, 9, 3], [4, 9, 5, 3]])
def test_graph_path_equals_numpy_reference_bitwise(sizes):
    params = stack(sizes, seed=2)
    for p in params.values():  # nonzero biases, so every add counts
        p.value += 0.1
    x = np.random.default_rng(3).normal(size=(6, 4))
    x[2, 1] = np.nan  # a NaN row stays NaN
    out = mlp(params, "net", T.constant(x))
    want = numpy_stack(params, x)
    assert isinstance(out, T.Tensor)
    assert out.value.tobytes() == want.tobytes()
    assert np.isnan(want[2]).all() and np.isfinite(np.delete(want, 2, axis=0)).all()


def test_relu_between_layers_only():
    params = stack([2, 2, 2])
    params["net.0.w"].value[:] = np.eye(2)
    params["net.1.w"].value[:] = -np.eye(2)
    x = T.constant(np.array([[1.0, -3.0]]))
    # the hidden -3 is cut to 0; the output layer's -1 is not
    assert mlp(params, "net", x).value.tolist() == [[-1.0, 0.0]]
    single = {k: v for k, v in params.items() if k.startswith("net.0.")}
    assert mlp(single, "net", x).value.tolist() == [[1.0, -3.0]]


def test_batched_tensor_input_maps_the_last_axis():
    params = stack([4, 8, 3], seed=4)
    x = np.random.default_rng(5).normal(size=(2, 5, 4))
    out = mlp(params, "net", T.constant(x)).value
    assert out.shape == (2, 5, 3)
    for b in range(2):
        np.testing.assert_allclose(out[b], numpy_stack(params, x[b]), rtol=1e-14, atol=1e-15)


def test_gradients_match_finite_differences():
    params = stack([3, 6, 2], seed=6)
    rng = np.random.default_rng(7)
    params["net.0.b"].value[:] = rng.normal(size=6)
    x = T.constant(rng.normal(size=(5, 3)))
    weights = rng.normal(size=(5, 2))
    T.backward(weighted_sum(mlp(params, "net", x), weights))
    for p in params.values():
        fd = fd_grad(lambda: float((mlp(params, "net", x).value * weights).sum()), p.value)
        assert_grads_close(p.grad, fd)
