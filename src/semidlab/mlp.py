"""Stacks of dense layers: the RQ-VAE encoder and decoder, and the
ranker's Transformer-block and top MLPs; and the parameter layouts that
both models initialize and load from.

Layer ``i`` of the stack named ``prefix`` holds the weight
``prefix.i.w`` (fan-in by fan-out) and the bias ``prefix.i.b``. A ReLU
sits between layers, none after the last. ``mlp`` has one path, the
graph ops ``tensor.linear`` and ``tensor.relu``, whether the caller
trains or only reads values.

A model writes its parameters down once, as a list of ``ParamSpec``
(name, shape, init rule) in creation order. ``init_params`` draws a
fresh model from that list; ``load_params`` checks saved arrays against
it and wraps them as they are, so loading a model draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import check_arrays


@dataclass(frozen=True, slots=True)
class ParamSpec:
    """One parameter: drawn from N(0, ``std``), or, when ``std`` is None,
    filled with ``fill``."""

    name: str
    shape: tuple
    std: float | None = None
    fill: float = 0.0


def mlp_layout(prefix: str, sizes) -> list[ParamSpec]:
    """The layers mapping ``sizes[0]`` to ``sizes[-1]``: weights from
    N(0, 1/fan_in), layer by layer, and zero biases."""
    layout = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layout.append(ParamSpec(f"{prefix}.{i}.w", (fan_in, fan_out), std=1.0 / np.sqrt(fan_in)))
        layout.append(ParamSpec(f"{prefix}.{i}.b", (fan_out,)))
    return layout


def init_params(layout, rng: np.random.Generator) -> dict:
    """Fresh trainable parameters, drawn from ``rng`` in layout order."""
    return {
        s.name: T.parameter(
            np.full(s.shape, s.fill) if s.std is None else rng.normal(0.0, s.std, size=s.shape), name=s.name
        )
        for s in layout
    }


def load_params(path, saved: dict, layout) -> dict:
    """The saved arrays as the layout's parameters, in layout order and uncopied.

    The saved names must be exactly the layout's, and every array must
    be float64 with its shape; anything else raises CheckpointError
    before any parameter exists, so a mismatched file never broadcasts
    into a table or half-loads.
    """
    check_arrays(path, saved, {s.name: ("<f8", s.shape) for s in layout})
    return {s.name: T.parameter(saved[s.name], name=s.name) for s in layout}


def mlp(params: dict, prefix: str, x: T.Tensor) -> T.Tensor:
    """Run the stack over the last axis of ``x`` as ``linear`` and ``relu``
    nodes; a graph-free pass feeds it a ``constant`` and reads ``value``."""
    n = 0
    while f"{prefix}.{n}.w" in params:
        n += 1
    for i in range(n):
        x = T.linear(x, params[f"{prefix}.{i}.w"], params[f"{prefix}.{i}.b"])
        if i < n - 1:
            x = T.relu(x)
    return x
