"""Stacks of dense layers: the RQ-VAE encoder and decoder, and the
ranker's Transformer-block and top MLPs.

Layer ``i`` of the stack named ``prefix`` holds the weight
``prefix.i.w`` (fan-in by fan-out) and the bias ``prefix.i.b``. A ReLU
sits between layers, none after the last.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


def init_mlp(params: dict, rng: np.random.Generator, prefix: str, sizes) -> None:
    """Add the layers mapping ``sizes[0]`` to ``sizes[-1]`` to ``params``.

    Weights are drawn from N(0, 1/fan_in) layer by layer, in order;
    biases start at zero.
    """
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        w, b = f"{prefix}.{i}.w", f"{prefix}.{i}.b"
        params[w] = T.parameter(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)), name=w)
        params[b] = T.parameter(np.zeros(fan_out), name=b)


def mlp(params: dict, prefix: str, x):
    """Run the stack over the last axis of ``x``.

    A ``Tensor`` input builds the graph; an ndarray input (2-D) computes
    the same values without one, so no backward closures hold its
    activations.
    """
    n = 0
    while f"{prefix}.{n}.w" in params:
        n += 1
    graph = isinstance(x, T.Tensor)
    for i in range(n):
        w, b = params[f"{prefix}.{i}.w"], params[f"{prefix}.{i}.b"]
        if graph:
            x = T.add_rowvec(T.matmul(x, w), b)
        else:
            x = x @ w.value + b.value
        if i < n - 1:
            x = T.relu(x) if graph else np.maximum(x, 0.0)
    return x
