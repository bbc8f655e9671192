"""Dense reference for the table-gradient path, the bit-identity oracle
of ``test_optim_reference``.

Kept as the engine computed it before row gathers returned row-sparse
gradients: the gather's backward scatters into a table-sized
``zeros_like`` with ``np.add.at``, ``backward`` adds every contribution
into a dense ``grad``, and ``SGD.step``/``Adam.step`` update every row.
Gradients live on ``Tensor.grad``, which reads and assigns dense arrays;
every other op comes from the engine, whose backward closures return
dense arrays.
"""

import numpy as np

from semidlab import tensor as T


def gather_groups(table, index):
    tv = table.value
    idx = np.asarray(index, dtype=np.intp)
    valid = idx >= 0
    picked = tv[np.where(valid, idx, 0)]
    picked[~valid] = 0.0
    out = np.zeros(idx.shape[:-1] + (tv.shape[1],))
    for g in range(idx.shape[-1]):
        out += picked[..., g, :]
    rows = idx[valid]

    def back(g):
        gt = np.zeros_like(tv)
        np.add.at(gt, rows, np.broadcast_to(g[..., None, :], picked.shape)[valid])
        return (gt,)

    return T.Tensor(out, parents=(table,), backward=back)


def _accumulate(t, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.value)
    t.grad += g


def backward(loss):
    order = T._topo_order(loss)
    _accumulate(loss, np.ones_like(loss.value))
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        parent_grads = node._backward(node.grad)
        node.grad = None
        for p, g in zip(node.parents, parent_grads):
            if p.requires_grad and g is not None:
                _accumulate(p, g)


class SGD:
    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)

    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.value -= self.lr * p.grad

    def zero_grad(self):
        T.zero_grads(self.params)


class Adam:
    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.value -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self):
        T.zero_grads(self.params)
