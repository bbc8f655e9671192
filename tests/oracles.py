"""Shared test oracles, independent of the implementation under test."""

from collections import deque

import numpy as np

from semidlab import corpus, ranker
from semidlab.analysis import SegmentSpec
from semidlab.checkpoint import SemanticIdTable
from semidlab.corpus import DAY, ground_truth_ctr
from semidlab.tokenization import ConfigurationError


def semid_table(mapping, error=ValueError) -> SemanticIdTable:
    """The ``SemanticIdTable`` of a ``{raw_id: codes}`` mapping, in its
    order, checked by the table's constructor under ``error``; an empty
    mapping gives (0,) IDs and (0, 0) codes."""
    codes = list(mapping.values()) if mapping else np.zeros((0, 0), dtype=np.int64)
    return SemanticIdTable(list(mapping), codes, error)


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


def attention_metrics(attention_records) -> dict:
    """``analysis.attention_metrics`` one record at a time: each record's
    statistics from its own matrix, then their mean over records."""
    firsts, pads, entropies, selfs = [], [], [], []
    square = True
    for a, pad_mask in attention_records:
        a = np.asarray(a, dtype=np.float64)
        pad_mask = np.asarray(pad_mask, dtype=bool)
        firsts.append(a[:, 0].mean())
        pads.append(a[:, pad_mask].sum(axis=1).mean() if pad_mask.any() else 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(a > 0.0, np.log2(np.where(a > 0.0, a, 1.0)), 0.0)
        entropies.append(-(a * logs).sum(axis=1).mean())
        if a.shape[0] == a.shape[1]:
            selfs.append(np.trace(a) / a.shape[0])
        else:
            square = False
    if not firsts:
        raise ValueError("no attention records")
    return {
        "first": float(np.mean(firsts)),
        "pad": float(np.mean(pads)),
        "entropy": float(np.mean(entropies)),
        "self": float(np.mean(selfs)) if square and selfs else None,
    }


def click_loss_analog(
    model, items, users, semid_table, context_events, depths, *, temperature, bias, set_size=5, pool_size=200, seed=0
):
    """``analysis.click_loss_analog`` with its same-prefix search over
    dicts: one dict per depth maps each code prefix to the items that
    carry it, and each swap filters its group for items alive at t."""
    rng = np.random.default_rng([seed, 23])
    id_list = [int(x) for x in items.raw_ids]
    by_prefix = {k: {} for k in depths}
    for idx, raw in enumerate(id_list):
        codes = semid_table.get(raw)
        if codes is None:
            continue
        for k in depths:
            by_prefix[k].setdefault(codes[:k], []).append(idx)

    out = {k: {"rates": [], "skipped": 0} for k in depths}
    for event in context_events:
        t = event.timestamp
        alive = np.flatnonzero(items.alive_mask(t))
        if alive.size < set_size + 1:
            continue
        pool = rng.choice(alive, size=min(pool_size, alive.size), replace=False)
        pool_events = [
            type(event)(event.event_id, t, event.user_id, int(items.raw_ids[idx]), 0, event.history)
            for idx in pool
        ]
        scores, _ = ranker.score(model, pool_events)
        top = pool[np.argsort(-scores, kind="stable")[:set_size]]
        pref = users.preferences[event.user_id]
        base_ctrs = ground_truth_ctr(pref, items.embeddings[top], temperature, bias)
        base = float(np.mean(base_ctrs))
        swap_pos = int(rng.integers(0, set_size))
        swap_idx = int(top[swap_pos])
        swap_codes = semid_table.get(int(items.raw_ids[swap_idx]))
        if swap_codes is None:
            continue
        for k in depths:
            candidates = [
                i
                for i in by_prefix[k].get(swap_codes[:k], ())
                if i != swap_idx and items.birth[i] <= t < items.death[i]
            ]
            if not candidates:
                out[k]["skipped"] += 1
                continue
            alt = candidates[int(rng.integers(0, len(candidates)))]
            new_ctr = ground_truth_ctr(pref, items.embeddings[alt], temperature, bias)
            mutated = base + (new_ctr - base_ctrs[swap_pos]) / set_size
            out[k]["rates"].append((mutated - base) / base)
    report = {}
    for k in depths:
        rates = out[k]["rates"]
        report[k] = {
            "click_loss_rate": float(np.mean(rates)) if rates else None,
            "abs_click_loss_rate": float(np.abs(np.mean(rates))) if rates else None,
            "n_swaps": len(rates),
            "skipped": out[k]["skipped"],
        }
    return report


def build_segments(train_counts, universe, eval_item_ids):
    """``analysis.build_segments`` as a loop over the ranked items: each
    item takes the band that the impressions ranked before it fall in,
    summed one item at a time from 0.0. The total is numpy's sum, as the
    function's own, so only the cut is checked."""
    universe = sorted(int(x) for x in universe)
    counts = [float(train_counts.get(x, 0)) for x in universe]
    total = np.array(counts).sum()
    bands = {"head": set(), "torso": set(), "tail": set()}
    cum = 0.0
    for i in sorted(range(len(universe)), key=lambda i: (-counts[i], universe[i])):
        if total > 0 and cum < 0.25 * total:
            bands["head"].add(universe[i])
        elif total > 0 and cum < 0.75 * total:
            bands["torso"].add(universe[i])
        else:
            bands["tail"].add(universe[i])
        cum += counts[i]
    train_seen = {x for x in universe if train_counts.get(x, 0) > 0}
    return SegmentSpec(**bands, new_items={int(x) for x in eval_item_ids} - train_seen, train_seen=train_seen)


def distribution_exports(items, train_events, semid_table) -> dict:
    """``analysis.distribution_exports`` by plain loops, with every series
    as a list and each Gini coefficient as the mean absolute difference
    over all ordered pairs, sum |x_i - x_j| / (2 n sum x)."""
    counts = {int(x): 0 for x in items.raw_ids}
    raw_clicks, code_clicks = {}, {}
    for e in train_events:
        if e.item_id in counts:
            counts[e.item_id] += 1
        if e.label == 1:
            raw_clicks[e.item_id] = raw_clicks.get(e.item_id, 0) + 1
            codes = semid_table.get(e.item_id)
            if codes is not None:
                code_clicks[codes] = code_clicks.get(codes, 0) + 1
    running, cumulative = 0, []
    for c in sorted(counts.values(), reverse=True):
        running += c
        cumulative.append(running)
    n = len(cumulative)
    total = running or 1
    cohort = [int(d) for b, d in zip(items.birth, items.death) if b == 0]
    last_day = -(-int(max(items.death)) // DAY)
    survival = [sum(1 for d in cohort if d > day * DAY) / len(cohort) for day in range(last_day + 1)]

    def gini(values):
        if not values or not sum(values):
            return 0.0
        pairs = sum(abs(a - b) for a in values for b in values)
        return pairs / (2 * len(values) * sum(values))

    raw = sorted(raw_clicks.values(), reverse=True)
    semid = sorted(code_clicks.values(), reverse=True)
    return {
        "impression_curve": ([i / n for i in range(1, n + 1)], [c / total for c in cumulative]),
        "survival_curve": (list(range(last_day + 1)), survival),
        "raw_click_counts": raw,
        "semid_click_counts": semid,
        "gini_raw": gini(raw),
        "gini_semid": gini(semid),
    }


def generate_stream(items, users, config) -> corpus.Stream:
    """``corpus.generate_stream`` with one bounded deque per user: the
    generator's draws in its order, then each event converts its fields
    from numpy scalars and snapshots its user's deque, newest first."""
    rng = corpus.substream(config.seed, corpus._S_STREAM)
    train_end = int(config.train_days * DAY)
    eval_end = train_end + int(config.eval_hours * 3600)
    ts = np.concatenate(
        [
            np.sort(rng.integers(0, train_end, size=config.n_train_events)),
            np.sort(rng.integers(train_end, eval_end, size=config.n_eval_events)),
        ]
    )
    user_ids = rng.integers(0, len(users), size=ts.size)
    item_idx = corpus.sample_items_at(rng, items, ts)
    ctr = ground_truth_ctr(
        users.preferences[user_ids], items.embeddings[item_idx], config.temperature, items.bias[item_idx]
    )
    labels = (rng.random(ts.size) < ctr).astype(np.int64)

    histories = [deque(maxlen=config.history_capacity) for _ in range(len(users))]
    train, evals = [], []
    for eid in range(ts.size):
        u = int(user_ids[eid])
        t = int(ts[eid])
        item_id = int(items.raw_ids[item_idx[eid]])
        label = int(labels[eid])
        ev = corpus.ImpressionEvent(eid, t, u, item_id, label, tuple(reversed(histories[u])))
        (train if eid < config.n_train_events else evals).append(ev)
        if label == 1:
            histories[u].append((item_id, t))
    return corpus.Stream(train=train, eval=evals, train_end=train_end)
