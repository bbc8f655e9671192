"""Central finite-difference oracle used to verify reverse-mode gradients.

Kept independent of the engine under test: it only perturbs raw numpy
buffers and re-runs a closure, never touching backward machinery.
``weighted_sum`` is the analytic side's scalar reducer, built from two
engine ops that have finite-difference cases of their own.
"""

import numpy as np

from semidlab import tensor as T


def fd_grad(fn, arr, h=1e-5):
    """Central-difference gradient of scalar ``fn()`` wrt ``arr`` in place.

    ``fn`` must recompute the scalar from the current contents of
    ``arr`` on every call (define-by-run graphs do).
    """
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def assert_grads_close(analytic, numeric, rtol=1e-4, floor=1e-7):
    """Elementwise |a - n| <= rtol * max(|a|, |n|) + floor."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    bound = rtol * np.maximum(np.abs(analytic), np.abs(numeric)) + floor
    diff = np.abs(analytic - numeric)
    worst = (diff - bound).max()
    assert np.all(diff <= bound), f"gradient mismatch, worst excess {worst:.3e}"


def weighted_sum(t, weights=None):
    """Graph scalar sum(t * weights), all weights 1 by default.

    Built as a (1, n) by (n, 1) ``matmul`` of the flattened tensor, so
    the gradient reaching ``t`` is exactly ``weights``.
    """
    n = t.value.size
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64).reshape(n)
    return T.matmul(T.reshape(t, (1, n)), T.constant(w.reshape(n, 1)))
