"""Residual-quantized autoencoder over content embeddings.

An MLP encoder maps content embeddings to latent vectors, a stack of
codebooks greedily quantizes the latents level by level (each level
approximating the residual the previous levels left behind), and an MLP
decoder reconstructs the input from the summed codewords. Both MLPs are
``mlp.mlp`` stacks named ``enc`` and ``dec``, built from graph ops:
``loss`` differentiates them, and a graph-free pass runs them on a
``tensor.constant`` and keeps only the value. Every graph-free encoder
pass (warm start, ``evaluate_loss``, ``assign``) goes through
``encode`` and its one shape check. After training the model is frozen
and every item receives its code sequence, which downstream modules
treat as the item's hierarchical semantic identifier.

The API is batch-only: ``encode`` and ``loss`` take an (N, input_dim)
array (one item is a (1, input_dim) batch) and ``quantize_batch`` an
(N, latent_dim) one. A 1-D input to ``encode`` or ``loss`` raises
``tensor.DimensionError``.

Loss routing follows the usual stop-gradient scheme: the commitment
term (weighted by ``commitment_weight``) pulls the encoder toward the
chosen codewords and leaves the codewords fixed; the unweighted twin
term updates only the codewords; reconstruction reaches the encoder
through a straight-through estimator on the quantized latent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import (
    CheckpointError,
    Config,
    check_arrays,
    config_from_meta,
    load_checkpoint,
    save_checkpoint,
    scatter_rows,
    semid_table_arrays,
)
from .mlp import ParamSpec, init_params, load_params, mlp, mlp_layout


class RqVaeConfigError(ValueError):
    pass


class FrozenModelError(RuntimeError):
    """A gradient-producing call was made on a frozen model."""


@dataclass
class RqVaeConfig(Config):
    levels: int = 3
    codebook_size: int = 64
    input_dim: int = 16
    latent_dim: int = 8
    commitment_weight: float = 0.5
    hidden_sizes: tuple[int, ...] | None = None  # None -> one hidden layer of 2 * latent_dim
    learning_rate: float = 2e-3
    epochs: int = 20
    batch_size: int = 256
    optimizer: str = "adam"
    kmeans_iters: int = 25
    seed: int = 0

    def __post_init__(self):
        self.check_integers(RqVaeConfigError)
        self.check_finite(RqVaeConfigError)
        T.check_optimizer(self.optimizer, self.learning_rate, RqVaeConfigError)
        if self.levels < 1:
            raise RqVaeConfigError("levels must be at least 1")
        if self.codebook_size < 2:
            raise RqVaeConfigError("codebook_size must be at least 2")
        if self.commitment_weight <= 0:
            raise RqVaeConfigError("commitment_weight must be positive")
        if min(self.input_dim, self.latent_dim, self.batch_size) < 1:
            raise RqVaeConfigError("input_dim, latent_dim and batch_size must be positive")
        if min(self.epochs, self.kmeans_iters) < 0:
            raise RqVaeConfigError("epochs and kmeans_iters must not be negative")
        if self.hidden_sizes is None:
            self.hidden_sizes = (2 * self.latent_dim,)
        if any(h < 1 for h in self.hidden_sizes):
            raise RqVaeConfigError(f"hidden_sizes must be positive, got {self.hidden_sizes}")


@dataclass
class RqVaeModel:
    config: RqVaeConfig
    params: dict = field(default_factory=dict)
    frozen: bool = False

    @classmethod
    def initialize(cls, config: RqVaeConfig) -> "RqVaeModel":
        params = init_params(param_layout(config), np.random.default_rng([config.seed, 0]))
        return cls(config=config, params=params)

    @property
    def codebooks(self) -> list:
        return [self.params[f"codebook.{l}"] for l in range(self.config.levels)]


def param_layout(config: RqVaeConfig) -> list[ParamSpec]:
    """Every parameter of the model, in the order ``initialize`` draws them."""
    return [
        *mlp_layout("enc", [config.input_dim, *config.hidden_sizes, config.latent_dim]),
        *mlp_layout("dec", [config.latent_dim, *reversed(config.hidden_sizes), config.input_dim]),
        *(ParamSpec(f"codebook.{level}", (config.codebook_size, config.latent_dim), std=0.1)
          for level in range(config.levels)),
    ]


def encode(model: RqVaeModel, x) -> np.ndarray:
    """Deterministic encoder forward pass over an (N, input_dim) batch; only the values are kept."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise T.DimensionError(f"expected an (N, {model.config.input_dim}) batch, got shape {x.shape}")
    return mlp(model.params, "enc", T.constant(x)).value


# rows per block of the nearest-codeword search: a (block, K) distance
# matrix stays in cache where a full-corpus one streams through memory.
# Quantizing 20k latents over four K = 64 levels (2-CPU Xeon VM, one
# BLAS thread) took 22 ms at 512 to 1024 rows, 24 ms at 256, 28 ms at
# 4096 and 40 ms unblocked.
NEAREST_BLOCK_ROWS = 1024


def _nearest_codes(codebook: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Index of each residual's nearest codeword; ties go to the smallest index.

    Squared distances come from the expansion |r|^2 - 2 r.c + |c|^2, one
    block of rows at a time. A row's distances do not depend on its
    block, so neither does its code. Each block's (block, K) matrix is
    the one array its distances are computed in: the cross term, then
    |r|^2 minus it and |c|^2 added in place, the same operations in
    the same order as the expression written out.
    """
    n = residuals.shape[0]
    codes = np.empty(n, dtype=np.int64)
    cb_sq = (codebook * codebook).sum(axis=1)
    start = 0
    while start < n:
        # a short tail joins the block before it: BLAS computes a one-row
        # product with its matrix-vector kernel, which rounds differently
        stop = n if n - start < 2 * NEAREST_BLOCK_ROWS else start + NEAREST_BLOCK_ROWS
        r = residuals[start:stop]
        d2 = (2.0 * r) @ codebook.T
        np.subtract((r * r).sum(axis=1, keepdims=True), d2, out=d2)
        d2 += cb_sq
        codes[start:stop] = np.argmin(d2, axis=1)
        start = stop
    return codes


def quantize_batch(model: RqVaeModel, z: np.ndarray):
    """Greedy per-level quantization of a batch of latents.

    Returns (codes: N x L ints, residuals: list of L+1 arrays, quantized).
    residuals[l] is the input to level l+1; the final entry is what the
    codebooks could not explain, so quantized := z - residuals[-1] makes
    the telescoping identity hold exactly.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    codes = np.empty((n, model.config.levels), dtype=np.int64)
    residuals = [z]
    r = z
    for level, cb in enumerate(model.codebooks):
        c = _nearest_codes(cb.value, r)
        codes[:, level] = c
        r = r - cb.value[c]
        residuals.append(r)
    return codes, residuals, z - residuals[-1]


@dataclass
class LossParts:
    total: T.Tensor  # graph scalar, mean over the batch
    codes: np.ndarray  # N x L codes the quantizer picked for the batch
    residuals: list  # L+1 arrays, as returned by quantize_batch


def loss(model: RqVaeModel, x) -> LossParts:
    """Training loss for an (N, input_dim) batch with stop-gradients.

    ``total = reconstruction + (1 + commitment_weight) * commitment``
    numerically; gradient-wise the weighted half reaches only the
    encoder and the unweighted half only the codewords.
    """
    if model.frozen:
        raise FrozenModelError("loss() produces gradients; model is frozen")
    # a 1-D input raises DimensionError in the encoder's first linear layer
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    beta = model.config.commitment_weight

    z_t = mlp(model.params, "enc", T.constant(x))
    z = z_t.value
    codes, residuals, quantized = quantize_batch(model, z)

    terms: list[T.Tensor] = []
    cum = np.zeros_like(z)
    for level, cb in enumerate(model.codebooks):
        picked = cb.value[codes[:, level]]
        cum = cum + picked
        # encoder half: codewords are constants, gradient flows into z
        terms.append(T.scale(T.squared_distance(z_t, T.constant(cum)), beta))
        # codeword half: the residual is a constant, gradient flows into
        # the picked codebook rows
        rows = T.gather_groups(cb, codes[:, level : level + 1])
        terms.append(T.squared_distance(T.constant(residuals[level]), rows))

    # straight-through: decode the quantized latent, pass gradient to z
    z_st = T.add(z_t, T.constant(quantized - z))
    x_hat = mlp(model.params, "dec", z_st)
    total = T.squared_distance(T.constant(x), x_hat)
    for term in terms:
        total = T.add(total, term)
    total = T.scale(total, 1.0 / n)

    return LossParts(total=total, codes=codes, residuals=residuals)


def _commitment(residuals: list) -> float:
    """Per-example sum over levels of the squared residual-to-codeword distance (the next residual)."""
    total = sum((r**2).sum() for r in residuals[1:])
    return float(total) / residuals[0].shape[0]


def evaluate_loss(model: RqVaeModel, x) -> dict:
    """Loss parts from value-only passes (works on frozen models)."""
    x = np.asarray(x, dtype=np.float64)
    _, residuals, quantized = quantize_batch(model, encode(model, x))
    commitment = _commitment(residuals)
    del residuals  # the decoder's activations set the peak; do not hold the residuals too
    x_hat = mlp(model.params, "dec", T.constant(quantized)).value
    recon = float(((x - x_hat) ** 2).sum()) / x.shape[0]
    beta = model.config.commitment_weight
    return {
        "reconstruction": recon,
        "commitment": commitment,
        "total": recon + (1.0 + beta) * commitment,
    }


def _kmeans(points: np.ndarray, k: int, iters: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; empty clusters keep
    their previous centroid. Each iteration moves every centroid to its
    members' mean in one pass over the points; they stop at an
    assignment equal to the previous one, which would move no centroid."""
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
    assign = None
    for _ in range(iters):
        previous, assign = assign, _nearest_codes(centers, points)
        if previous is not None and np.array_equal(assign, previous):
            break
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        centers[filled] = _cluster_sums(points, assign, k)[filled] / counts[filled, None]
    return centers


def _cluster_sums(points: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster sums of ``points``, each equal bit for bit to numpy's
    axis-0 sum of that cluster's members: row after row for two or more
    columns, pairwise for a single column."""
    if points.shape[1] == 1:
        return np.array([points[assign == j].sum(axis=0) for j in range(k)])
    # numpy's sum also starts from +0.0: a cluster of -0.0 sums to +0.0
    return scatter_rows(assign, points, k)


def _init_codebooks(model: RqVaeModel, sample: np.ndarray, rng: np.random.Generator) -> None:
    """Warm-start each level by k-means on that level's residuals."""
    r = encode(model, sample)
    for cb in model.codebooks:
        centers = _kmeans(r, model.config.codebook_size, model.config.kmeans_iters, rng)
        cb.value[:] = centers
        r = r - centers[_nearest_codes(centers, r)]


def train(model: RqVaeModel, embeddings) -> list[dict]:
    """Mini-batch training; freezes the model and returns the loss curve.

    The curve has one entry per epoch plus the post-initialization state
    at epoch 0, each with full-dataset loss parts. Each batch is encoded
    and quantized once, inside ``loss``; the codebook usage counts and
    the dead-code reset pool come from the codes and residuals it
    returns. Codewords that go a whole epoch unused are reset to a
    random residual from the last batch of that epoch. Embeddings that
    are not an (N, input_dim) array of finite values raise
    RqVaeConfigError before the codebooks are initialized.
    """
    if model.frozen:
        raise FrozenModelError("cannot train a frozen model")
    cfg = model.config
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise RqVaeConfigError(f"embeddings must be (N, {cfg.input_dim}), got shape {x.shape}")
    if not np.isfinite(x).all():
        raise RqVaeConfigError("embeddings hold a NaN or infinite entry")
    n = x.shape[0]
    if n < cfg.codebook_size:
        raise RqVaeConfigError(f"need at least {cfg.codebook_size} embeddings, got {n}")

    rng = np.random.default_rng([cfg.seed, 1])
    _init_codebooks(model, x[: max(cfg.batch_size, cfg.codebook_size)], rng)
    params = list(model.params.values())
    opt = T.make_optimizer(cfg.optimizer, params, cfg.learning_rate)

    curve = [{"epoch": 0, **evaluate_loss(model, x)}]
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        usage = np.zeros((cfg.levels, cfg.codebook_size), dtype=np.int64)
        last_residuals = None
        for start in range(0, n, cfg.batch_size):
            parts = loss(model, x[order[start : start + cfg.batch_size]])
            for level in range(cfg.levels):
                usage[level] += np.bincount(parts.codes[:, level], minlength=cfg.codebook_size)
            last_residuals = parts.residuals
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
        curve.append({"epoch": epoch, **evaluate_loss(model, x)})
    model.frozen = True
    return curve


def assign(model: RqVaeModel, items: dict):
    """Map raw IDs to code tuples through the frozen quantizer.

    Items with a malformed embedding (wrong shape, or a NaN or infinite
    entry) get a per-item error entry instead of failing the whole pass;
    both dicts keep the order of ``items``. The well-shaped embeddings
    are checked, encoded and quantized as one array. Returns
    (assignments, errors).
    """
    if not model.frozen:
        raise FrozenModelError("assign requires a frozen model")
    d = model.config.input_dim
    ids: list[int] = []
    rows: list[np.ndarray] = []
    errors: dict[int, str] = {}
    for raw_id, emb in items.items():
        arr = np.asarray(emb, dtype=np.float64)
        if arr.shape != (d,):
            errors[int(raw_id)] = f"embedding shape {arr.shape}, expected ({d},)"
            continue
        ids.append(int(raw_id))
        rows.append(arr)
    x = np.stack(rows) if rows else np.empty((0, d))
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        for i in np.flatnonzero(~finite):
            errors[ids[i]] = "non-finite embedding"
        errors = {k: errors[k] for k in map(int, items) if k in errors}
        ids = [raw_id for raw_id, ok in zip(ids, finite) if ok]
        x = x[finite]
    if not ids:
        return {}, errors
    z = encode(model, x)
    del x  # quantization's distance matrices set the peak; do not hold the input too
    codes, _, _ = quantize_batch(model, z)
    # tuples zipped from L column lists: no transient list per item
    return dict(zip(ids, zip(*codes.T.tolist()))), errors


# ---------------------------------------------------------------------------
# persistence


def save_rqvae(path, model: RqVaeModel, meta: dict | None = None) -> None:
    meta = dict(meta or {})
    meta["rqvae_config"] = model.config.to_dict()
    meta["frozen"] = bool(model.frozen)
    save_checkpoint(path, model.params, meta=meta)


def load_rqvae(path) -> tuple[RqVaeModel, dict]:
    saved, meta = load_checkpoint(path)
    config = config_from_meta(path, meta, "rqvae_config", RqVaeConfig)
    params = load_params(path, saved, param_layout(config))
    return RqVaeModel(config, params=params, frozen=bool(meta.get("frozen", False))), meta


# dtypes a Semantic ID table's codes may have on file: the unsigned ones
# it is written in, and the int64 of files written before them
SEMID_CODE_DTYPES = ("|u1", "<u2", "<u4", "<u8", "<i8")


def save_semid_table(path, assignments: dict, meta: dict) -> None:
    """Write ``{raw_id: codes}`` to the ``checkpoint`` container.

    The file holds an int64 ``raw_ids`` (N,) array in ascending order and
    a ``codes`` (N, L) array whose row i is the code sequence of
    ``raw_ids[i]``, in the narrowest unsigned dtype that holds the
    largest code (one byte per code below 256). A table that
    ``checkpoint.semid_table_arrays`` refuses, or one with a negative
    code, raises RqVaeConfigError before the file is opened.
    """
    raw_ids, codes = semid_table_arrays(assignments, RqVaeConfigError)
    if codes.size and codes.min() < 0:
        raise RqVaeConfigError(f"codes are codebook indices and must not be negative, got {codes.min()}")
    order = np.argsort(raw_ids)
    dtype = np.min_scalar_type(codes.max() if codes.size else 0)
    save_checkpoint(path, {"raw_ids": raw_ids[order], "codes": codes[order].astype(dtype)}, meta=meta)


def load_semid_table(path):
    """Read a table written by ``save_semid_table``; returns (table, meta).

    Raises CheckpointError unless the file holds exactly an int64
    ``raw_ids`` (N,) array in strictly ascending order and a ``codes``
    (N, L) array of a ``SEMID_CODE_DTYPES`` dtype whose values lie
    inside int64. Codes come back as ints, whatever their width on file.
    """
    arrays, meta = load_checkpoint(path)
    check_arrays(path, arrays, {"raw_ids": ("<i8", ("N",)), "codes": (SEMID_CODE_DTYPES, ("N", None))})
    raw_ids, codes = arrays["raw_ids"], arrays["codes"]
    if np.any(raw_ids[1:] <= raw_ids[:-1]):
        raise CheckpointError(f"{path}: raw IDs are not strictly ascending")
    if codes.dtype == np.uint64 and codes.size and codes.max() >= 2**63:
        raise CheckpointError(f"{path}: code {codes.max()} does not fit in int64")
    return dict(zip(raw_ids.tolist(), map(tuple, codes.tolist()))), meta
