"""Double-pass RQ-VAE training and per-item assignment: the oracle for
``semidlab.rqvae.train`` and ``semidlab.rqvae.assign``.

Training encodes and quantizes every batch once with the numpy encoder
(``mlp_np``, a layer loop of its own) for the codebook usage counts and
the dead-code reset pool, then again inside ``loss`` for the gradient
step. Assignment checks, converts and collects one item at a time. The
array-at-a-time implementations must reproduce these parameters, loss
curves and assignments bit for bit.

The nearest-codeword search, k-means and the codebook warm start are
copies of their first implementations: one distance matrix over all
rows, and one mean per cluster from a boolean mask. They are the oracles
for the blocked search and the one-pass k-means update in
``semidlab.rqvae``.
"""

import numpy as np

from semidlab import tensor as T
from semidlab.rqvae import (
    FrozenModelError,
    RqVaeConfigError,
    encode,
    evaluate_loss,
    loss,
)


def mlp_np(model, prefix, x):
    """Encoder (``"enc"``) or decoder (``"dec"``) forward pass on an array,
    layer sizes taken from the config."""
    cfg = model.config
    if prefix == "enc":
        sizes = [cfg.input_dim, *cfg.hidden_sizes, cfg.latent_dim]
    else:
        sizes = [cfg.latent_dim, *reversed(cfg.hidden_sizes), cfg.input_dim]
    out = x
    for i in range(len(sizes) - 1):
        out = out @ model.params[f"{prefix}.{i}.w"].value + model.params[f"{prefix}.{i}.b"].value
        if i < len(sizes) - 2:
            out = np.maximum(out, 0.0)
    return out


def nearest_codes(codebook, residuals):
    # squared distances via the expansion; argmin breaks ties at the
    # smallest index
    d2 = (
        (residuals * residuals).sum(axis=1, keepdims=True)
        - 2.0 * residuals @ codebook.T
        + (codebook * codebook).sum(axis=1)
    )
    return np.argmin(d2, axis=1)


def quantize_batch(model, z):
    """Codes, L+1 residuals and quantized latents, as ``rqvae.quantize_batch``."""
    codes = np.empty((z.shape[0], model.config.levels), dtype=np.int64)
    residuals = [z]
    r = z
    for level, cb in enumerate(model.codebooks):
        c = nearest_codes(cb.value, r)
        codes[:, level] = c
        r = r - cb.value[c]
        residuals.append(r)
    return codes, residuals, z - residuals[-1]


def kmeans(points, k, iters, rng):
    """Lloyd's algorithm with k-means++ seeding; empty clusters keep
    their previous centroid."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = points[int(rng.integers(0, n))]
            continue
        pick = int(np.searchsorted(np.cumsum(d2), rng.random() * total, side="right"))
        pick = min(pick, n - 1)
        centers[j] = points[pick]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    for _ in range(iters):
        assign = nearest_codes(centers, points)
        for j in range(k):
            members = points[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return centers


def init_codebooks(model, sample, rng):
    """Warm-start each level by k-means on that level's residuals."""
    r = mlp_np(model, "enc", sample)
    for cb in model.codebooks:
        centers = kmeans(r, model.config.codebook_size, model.config.kmeans_iters, rng)
        cb.value[:] = centers
        r = r - centers[nearest_codes(centers, r)]


def train(model, embeddings):
    """Returns (loss curve, number of codewords reset)."""
    if model.frozen:
        raise FrozenModelError("cannot train a frozen model")
    cfg = model.config
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    if n < cfg.codebook_size:
        raise RqVaeConfigError(f"need at least {cfg.codebook_size} embeddings, got {n}")

    rng = np.random.default_rng([cfg.seed, 1])
    init_codebooks(model, x[: max(cfg.batch_size, cfg.codebook_size)], rng)
    opt = T.make_optimizer(cfg.optimizer, list(model.params.values()), cfg.learning_rate)

    resets = 0
    curve = [{"epoch": 0, **evaluate_loss(model, x)}]
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        usage = np.zeros((cfg.levels, cfg.codebook_size), dtype=np.int64)
        last_residuals = None
        for start in range(0, n, cfg.batch_size):
            batch = x[order[start : start + cfg.batch_size]]
            z_np = mlp_np(model, "enc", batch)
            codes, residuals, _ = quantize_batch(model, z_np)
            for level in range(cfg.levels):
                usage[level] += np.bincount(codes[:, level], minlength=cfg.codebook_size)
            last_residuals = residuals
            parts = loss(model, batch)
            opt.zero_grad()
            T.backward(parts.total)
            opt.step()
        if cfg.learning_rate > 0 and last_residuals is not None:
            for level, cb in enumerate(model.codebooks):
                dead = np.flatnonzero(usage[level] == 0)
                if dead.size:
                    pool = last_residuals[level]
                    picks = rng.integers(0, pool.shape[0], size=dead.size)
                    cb.value[dead] = pool[picks]
                    resets += dead.size
        curve.append({"epoch": epoch, **evaluate_loss(model, x)})
    model.frozen = True
    return curve, resets


def assign(model, items: dict):
    if not model.frozen:
        raise FrozenModelError("assign requires a frozen model")
    d = model.config.input_dim
    good_ids = []
    rows = []
    errors = {}
    for raw_id, emb in items.items():
        arr = np.asarray(emb, dtype=np.float64)
        if arr.shape != (d,):
            errors[int(raw_id)] = f"embedding shape {arr.shape}, expected ({d},)"
            continue
        if not np.all(np.isfinite(arr)):
            errors[int(raw_id)] = "non-finite embedding"
            continue
        good_ids.append(int(raw_id))
        rows.append(arr)
    assignments = {}
    if rows:
        z = encode(model, np.vstack(rows))
        codes, _, _ = quantize_batch(model, z)
        for raw_id, c in zip(good_ids, codes):
            assignments[raw_id] = tuple(int(v) for v in c)
    return assignments, errors
