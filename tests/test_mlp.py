"""The dense-layer stack shared by the RQ-VAE and the ranker."""

import numpy as np
import pytest

from semidlab import tensor as T
from semidlab.mlp import init_mlp, mlp

from fdcheck import assert_grads_close, fd_grad, weighted_sum


def stack(sizes, seed=0):
    params = {}
    init_mlp(params, np.random.default_rng(seed), "net", sizes)
    return params


def test_init_names_shapes_and_zero_biases():
    params = stack([5, 7, 3])
    assert list(params) == ["net.0.w", "net.0.b", "net.1.w", "net.1.b"]
    assert [p.value.shape for p in params.values()] == [(5, 7), (7,), (7, 3), (3,)]
    assert all(p.requires_grad and p.name == name for name, p in params.items())
    assert not params["net.0.b"].value.any() and not params["net.1.b"].value.any()


@pytest.mark.parametrize("sizes", [[4, 3], [4, 9, 3], [4, 9, 5, 3]])
def test_graph_and_array_paths_are_bitwise_equal(sizes):
    params = stack(sizes, seed=2)
    for p in params.values():  # nonzero biases, so every add counts
        p.value += 0.1
    x = np.random.default_rng(3).normal(size=(6, 4))
    x[2, 1] = np.nan  # a NaN row stays NaN on both paths
    graph = mlp(params, "net", T.constant(x))
    values = mlp(params, "net", x)
    assert isinstance(graph, T.Tensor) and isinstance(values, np.ndarray)
    assert graph.value.tobytes() == values.tobytes()
    assert np.isnan(values[2]).all() and np.isfinite(np.delete(values, 2, axis=0)).all()


def test_relu_between_layers_only():
    params = stack([2, 2, 2])
    params["net.0.w"].value[:] = np.eye(2)
    params["net.1.w"].value[:] = -np.eye(2)
    out = mlp(params, "net", np.array([[1.0, -3.0]]))
    # the hidden -3 is cut to 0; the output layer's -1 is not
    assert out.tolist() == [[-1.0, 0.0]]
    single = {k: v for k, v in params.items() if k.startswith("net.0.")}
    assert mlp(single, "net", np.array([[1.0, -3.0]])).tolist() == [[1.0, -3.0]]


def test_batched_tensor_input_maps_the_last_axis():
    params = stack([4, 8, 3], seed=4)
    x = np.random.default_rng(5).normal(size=(2, 5, 4))
    out = mlp(params, "net", T.constant(x)).value
    assert out.shape == (2, 5, 3)
    for b in range(2):
        np.testing.assert_allclose(out[b], mlp(params, "net", x[b]), rtol=1e-14, atol=1e-15)


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
