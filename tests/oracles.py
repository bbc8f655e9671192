"""Shared test oracles, independent of the implementation under test."""

import numpy as np

from semidlab.tokenization import ConfigurationError


def cluster_purity(cluster_labels, true_labels) -> float:
    """Weighted purity: dominant-true-label count per cluster over total."""
    clusters = {}
    for c, t in zip(cluster_labels, true_labels):
        clusters.setdefault(c, []).append(t)
    hits = 0
    for members in clusters.values():
        _, counts = np.unique(members, return_counts=True)
        hits += counts.max()
    return hits / len(list(cluster_labels))


def nearest_index_bruteforce(codebook, vector):
    """Plain linear scan nearest-codeword search (tie: smallest index)."""
    best, best_d = 0, float("inf")
    for i, row in enumerate(codebook):
        d = float(sum((a - b) ** 2 for a, b in zip(row, vector)))
        if d < best_d:
            best, best_d = i, d
    return best


def gmm_hierarchy_embeddings(n, dim, branching, scales, seed):
    """Independent nested-Gaussian generator for purity checks."""
    rng = np.random.default_rng(seed)
    b1, b2, b3 = branching
    s0, s1, s2, s3 = scales
    top = rng.normal(0, s0, (b1, dim))
    mid = np.repeat(top, b2, axis=0) + rng.normal(0, s1, (b1 * b2, dim))
    leaf = np.repeat(mid, b3, axis=0) + rng.normal(0, s2, (b1 * b2 * b3, dim))
    leaf_idx = rng.integers(0, b1 * b2 * b3, size=n)
    emb = leaf[leaf_idx] + rng.normal(0, s3, (n, dim))
    top_idx = leaf_idx // (b2 * b3)
    return emb, top_idx, leaf_idx


def parameterize(codes, p) -> list[int]:
    """Per-code pre-hash indices in exact Python integers.

    Prefix-ngram emits one index per prefix depth 1..n; each depth-i
    index enumerates all K^i possible prefixes of that depth, offset past
    the shallower depths.
    """
    codes = tuple(int(c) for c in codes)
    k = p.codebook_size
    for c in codes:
        if not 0 <= c < k:
            raise ConfigurationError(f"code {c} outside [0, {k})")
    g = p.output_count(len(codes))
    if p.variant == "trigram":
        return [k * k * codes[0] + k * codes[1] + codes[2]]
    if p.variant == "fourgram":
        return [k**3 * codes[0] + k * k * codes[1] + k * codes[2] + codes[3]]
    if p.variant == "all_bigrams":
        return [k * k * i + k * codes[i] + codes[i + 1] for i in range(len(codes) - 1)]
    out = []
    for depth in range(1, g + 1):
        acc = 0
        for t in range(depth):
            acc += k ** (depth - 1 - t) * (codes[t] + 1)
        out.append(acc - 1)
    return out


def prefix_depth_range(k: int, depth: int) -> tuple[int, int]:
    """Half-open range of pre-hash indices emitted at one prefix depth."""
    lo = (k**depth - k) // (k - 1)
    hi = (k ** (depth + 1) - k) // (k - 1)
    return lo, hi


def fit_to_table(indices, table_size: int, output_count: int) -> list[int]:
    """Per-code table rows: position g folds its index into the block
    [g*floor(H/G), (g+1)*floor(H/G)) by modulo."""
    indices = list(indices)
    if len(indices) != output_count:
        raise ConfigurationError(f"expected {output_count} indices, got {len(indices)}")
    if table_size < output_count:
        raise ConfigurationError(f"table size {table_size} smaller than position count {output_count}")
    block = table_size // output_count
    return [g * block + (int(ix) % block) for g, ix in enumerate(indices)]
