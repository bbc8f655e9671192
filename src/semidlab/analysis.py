"""Diagnostics over trained rankers and persisted prediction dumps.

Everything here is a pure function of its inputs (dumps, tables,
frozen models), so re-running an analysis without retraining is
bit-identical.

``attention_metrics`` works array-at-a-time: it stacks the records of
each shape and reduces along axes, arranged so that every record's sums
add the same entries in the same order as a loop over the records
would, and its numbers equal that loop's (``tests/oracles.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import ranker
from .checkpoint import int64_array, integer, semid_table_arrays, sorted_distinct
from .corpus import DAY, ground_truth_ctr
from .metrics import SingleClassError, normalized_entropy


# ---------------------------------------------------------------------------
# segments


@dataclass
class SegmentSpec:
    """Head/torso/tail item partition by cumulative training impressions,
    plus the eval-only new-items set."""

    head: set
    torso: set
    tail: set
    new_items: set
    train_seen: set

    def tag(self, item_id: int) -> str:
        if item_id in self.head:
            return "head"
        if item_id in self.torso:
            return "torso"
        return "tail"


def build_segments(train_counts: dict, universe, eval_item_ids) -> SegmentSpec:
    """Cut the impression-sorted item list at 25% and 75% of cumulative
    training impressions.

    ``train_counts`` maps item id -> training impressions (missing = 0);
    ``universe`` is every item id; items seen only in evaluation form the
    new-items set. An item ID that is not an integer inside int64 raises
    ValueError.
    """
    universe = np.sort(int64_array(list(universe), "item ids", ValueError))
    counts = np.array([train_counts.get(x, 0) for x in universe.tolist()], dtype=np.float64)
    order = np.lexsort((universe, -counts))  # impressions desc, id asc for ties
    total = counts.sum()
    # the impressions ranked before each item, added in rank order from 0.0
    before = np.zeros(order.size)
    np.cumsum(counts[order][:-1], out=before[1:])
    head = (total > 0) & (before < 0.25 * total)
    torso = (total > 0) & ~head & (before < 0.75 * total)
    head, torso, tail = (set(universe[order][m].tolist()) for m in (head, torso, ~(head | torso)))
    train_seen = set(universe[counts > 0].tolist())
    new_items = set(int64_array(list(eval_item_ids), "eval item ids", ValueError).tolist()) - train_seen
    return SegmentSpec(head=head, torso=torso, tail=tail, new_items=new_items, train_seen=train_seen)


def _ne_or_note(records) -> dict:
    labels = [r.label for r in records]
    preds = [r.prediction for r in records]
    out = {"count": len(records)}
    try:
        out["ne"] = normalized_entropy(labels, preds)
    except SingleClassError as exc:
        out["ne"] = None
        out["note"] = str(exc)
    return out


def segment_ne(records, segments: SegmentSpec) -> dict:
    """NE per segment with the segment's own base rate."""
    buckets = {"head": [], "torso": [], "tail": []}
    seen, new = [], []
    for r in records:
        buckets[segments.tag(r.item_id)].append(r)
        (seen if r.item_id in segments.train_seen else new).append(r)
    report = {name: _ne_or_note(rs) for name, rs in buckets.items()}
    report["overall"] = _ne_or_note(records)
    report["train_seen"] = _ne_or_note(seen)
    report["new_items"] = _ne_or_note(new)
    return report


# ---------------------------------------------------------------------------
# drift


def default_drift_windows(train_end: int) -> tuple:
    """Early/late training windows, scaled from the 4-day reference.

    At a 4-day horizon the early window is [end-48h, end-42h] and the
    late window the last 6 hours; other horizons scale proportionally.
    """
    scale = train_end / (96.0 * 3600.0)
    early = (train_end - int(48.0 * 3600 * scale), train_end - int(42.0 * 3600 * scale))
    late = (train_end - int(6.0 * 3600 * scale), train_end)
    return early, late


def drifting_gap(model, train_events, early_window, late_window) -> dict:
    """NE on the early training window minus NE on the late one.

    Both windows are re-scored with the frozen model; a smaller gap
    means old-item representations survived continued training better.
    """
    def window_events(window):
        lo, hi = window
        return [e for e in train_events if lo <= e.timestamp < hi]

    early = window_events(early_window)
    late = window_events(late_window)
    if not early or not late:
        raise ValueError("empty drift window")
    ne_early = ranker.evaluate(model, early).ne
    ne_late = ranker.evaluate(model, late).ne
    return {"ne_early": ne_early, "ne_late": ne_late, "gap": ne_early - ne_late}


def long_retention(ne_short: dict, ne_long: dict) -> dict:
    """NE(long-trained) - NE(short-trained) per lookup kind; negative
    means the extra data helped."""
    return {kind: ne_long[kind] - ne_short[kind] for kind in ne_short}


# ---------------------------------------------------------------------------
# item representation space


@dataclass
class ClusterGroupStats:
    n_clusters: int
    variance_mean: float | None
    variance_std: float | None
    distance_mean: float | None
    distance_std: float | None


def _cluster_stats(clusters: list, rng: np.random.Generator) -> ClusterGroupStats:
    max_pairs = 1_000_000  # beyond this many centroid pairs, distances come from as many random pairs
    variances = []
    centroids = []
    for members in clusters:
        arr = np.asarray(members)
        centroids.append(arr.mean(axis=0))
        if len(arr) >= 2:
            variances.append(arr.var(axis=0).mean())
    if not centroids or len(centroids) < 2:
        dist_mean = dist_std = None
    else:
        c = np.vstack(centroids)
        n = len(c)
        n_pairs = n * (n - 1) // 2
        if n_pairs <= max_pairs:
            iu, ju = np.triu_indices(n, k=1)
        else:
            iu = rng.integers(0, n, size=max_pairs)
            ju = rng.integers(0, n, size=max_pairs)
            keep = iu != ju
            iu, ju = iu[keep], ju[keep]
        d = np.linalg.norm(c[iu] - c[ju], axis=1)
        dist_mean, dist_std = float(d.mean()), float(d.std())
    return ClusterGroupStats(
        n_clusters=len(clusters),
        variance_mean=float(np.mean(variances)) if variances else None,
        variance_std=float(np.std(variances)) if variances else None,
        distance_mean=dist_mean,
        distance_std=dist_std,
    )


def cluster_geometry(item_embeddings: dict, partition: dict, small_sizes=(4, 10)) -> dict:
    """Intra-cluster variance and centroid pairwise distance for a
    partition of per-item embedding rows.

    Two cluster groups are reported: small clusters (member count inside
    ``small_sizes`` inclusive) and the 1000 largest. Variance is
    per-dimension, averaged over dimensions then clusters; clusters with
    fewer than two members contribute no variance.
    """
    groups: dict = {}
    for item_id, key in partition.items():
        if item_id in item_embeddings:
            groups.setdefault(key, []).append(item_embeddings[item_id])
    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), str(kv[0])))
    clusters = [members for _, members in ordered]
    rng = np.random.default_rng([0, 17])
    lo, hi = small_sizes
    return {
        "all": _cluster_stats(clusters, rng),
        "small": _cluster_stats([m for m in clusters if lo <= len(m) <= hi], rng),
        "top": _cluster_stats(clusters[:1000], rng),
    }


# ---------------------------------------------------------------------------
# attention statistics


def _row_means(x: np.ndarray) -> np.ndarray:
    """Mean along the last axis, each row summed as ``ndarray.mean`` sums
    that row on its own (a contiguous reduction along the last axis)."""
    return np.add.reduce(np.ascontiguousarray(x), axis=-1) / x.shape[-1]


def attention_metrics(attention_records) -> dict:
    """Mean first-token, padding, entropy, and self-attention statistics.

    Input is (matrix, pad mask) pairs; each matrix row is a distribution
    over source positions. Self-attention needs square matrices and is
    reported as None otherwise (pooled attention has no self position).
    0 * log2(0) counts as 0 in the entropy.

    Each statistic is a per-record value averaged over records in input
    order. Records of one shape are stacked and reduced together, each
    record's sums running over the same entries in the same order as
    they would for that record alone, so the numbers do not depend on
    how the records group.
    """
    records = [(np.asarray(a, dtype=np.float64), np.asarray(m, dtype=bool)) for a, m in attention_records]
    if not records:
        raise ValueError("no attention records")
    n = len(records)
    firsts, pads, entropies, selfs = np.empty(n), np.zeros(n), np.empty(n), np.empty(n)
    square = True
    by_shape: dict = {}
    for i, (a, _) in enumerate(records):
        by_shape.setdefault(a.shape, []).append(i)
    for shape, members in by_shape.items():
        members = np.array(members)
        a = np.stack([records[i][0] for i in members])
        pad_mask = np.stack([records[i][1] for i in members])
        firsts[members] = _row_means(a[:, :, 0])
        # records with as many pads at a time; a record's pad columns, in
        # order, are summed one after the other into each row's total, as
        # numpy sums the column-major ``a[:, pad_mask]`` of one record
        counts = pad_mask.sum(axis=1)
        columns_first = np.swapaxes(a, 1, 2)
        for count in sorted_distinct(counts[counts > 0]).tolist():
            group = np.flatnonzero(counts == count)
            columns = np.nonzero(pad_mask[group])[1].reshape(group.size, count, 1)
            pad_columns = np.take_along_axis(columns_first[group], columns, axis=1)
            pads[members[group]] = _row_means(np.add.reduce(pad_columns, axis=1))
        # an entry that is not positive takes log2(1.0) = 0.0, so it
        # adds 0 * 0.0 (and a NaN stays NaN)
        plogp = a * np.log2(np.where(a > 0.0, a, 1.0))
        entropies[members] = -_row_means(np.add.reduce(plogp, axis=-1))
        if shape[0] == shape[1]:
            selfs[members] = _row_means(np.diagonal(a, axis1=1, axis2=2))
        else:
            square = False
    return {
        "first": float(np.mean(firsts)),
        "pad": float(np.mean(pads)),
        "entropy": float(np.mean(entropies)),
        "self": float(np.mean(selfs)) if square else None,
    }


# ---------------------------------------------------------------------------
# A/A prediction variance


def aar(p_original: float, p_copy: float, eps: float = 1e-9) -> float:
    """Relative prediction difference of an exact-copy pair."""
    return 2.0 * (p_original - p_copy) / (p_original + p_copy + eps)


def aar_report(pair_predictions, eps: float = 1e-9) -> dict:
    values = np.array([aar(p1, p2, eps) for p1, p2 in pair_predictions])
    if values.size == 0:
        raise ValueError("no A/A pairs scored")
    return {
        "mean_abs": float(np.abs(values).mean()),
        "max_abs": float(np.abs(values).max()),
        "n_pairs": int(values.size),
        "values": values,
    }


# ---------------------------------------------------------------------------
# semantic continuity (click-loss analog)


def click_loss_analog(
    model,
    items,
    users,
    semid_table: dict,
    context_events,
    depths,
    *,
    temperature: float,
    bias: float,
    set_size: int = 5,
    pool_size: int = 200,
    seed: int = 0,
) -> dict:
    """Ground-truth CTR change from swapping one recommended item for a
    random alive item sharing its depth-k code prefix.

    For each context event the model scores a seeded candidate pool of
    ``pool_size`` alive items (all of them when fewer are alive) through
    ``ranker.score_candidates``, so the history module runs once per
    context, and keeps the top ``set_size`` as the recommendation set; the
    swap is evaluated with the label oracle, isolating semantic continuity
    from model noise. Contexts with at most ``set_size`` alive items are
    passed over. Swaps with no same-prefix alternative are skipped and
    counted. Before anything is scored, ValueError is raised for a
    ``set_size`` or ``pool_size`` that is not an integer, a ``set_size``
    below 1, a ``pool_size`` below ``set_size``, or a depth that is not an
    integer in 1..L, for codes of L levels.
    """
    if integer(set_size, "set_size", ValueError) < 1:
        raise ValueError(f"set_size {set_size} is below 1")
    if integer(pool_size, "pool_size", ValueError) < set_size:
        raise ValueError(f"pool_size {pool_size} is below set_size {set_size}")
    rng = np.random.default_rng([seed, 23])
    # each item's row of the table, found among the sorted table IDs; an
    # item the table lacks reads a neighbour's row, or past the last ID
    # the zero row appended below, and in_table keeps it out of every swap
    table_ids, table_codes = semid_table_arrays(semid_table, ValueError)
    order = np.argsort(table_ids)
    at = np.append(order, -1)[np.searchsorted(table_ids, items.raw_ids, sorter=order)]
    in_table = at >= 0
    in_table[in_table] = table_ids[at[in_table]] == items.raw_ids[in_table]
    codes = np.vstack([table_codes, np.zeros(table_codes.shape[1], dtype=np.int64)])[at]
    for k in depths:
        if not 1 <= integer(k, "depth", ValueError) <= codes.shape[1]:
            raise ValueError(f"depth {k} outside 1..{codes.shape[1]}, the code levels")

    out = {k: {"rates": [], "skipped": 0} for k in depths}
    for event in context_events:
        t = event.timestamp
        alive_mask = items.alive_mask(t)
        alive = np.flatnonzero(alive_mask)
        if alive.size < set_size + 1:
            continue
        pool = rng.choice(alive, size=min(pool_size, alive.size), replace=False)
        scores = ranker.score_candidates(model, event, items.raw_ids[pool])
        top = pool[np.argsort(-scores, kind="stable")[:set_size]]
        pref = users.preferences[event.user_id]
        base_ctrs = ground_truth_ctr(pref, items.embeddings[top], temperature, bias)
        base = float(np.mean(base_ctrs))
        swap_pos = int(rng.integers(0, set_size))
        swap_idx = int(top[swap_pos])
        if not in_table[swap_idx]:
            continue
        # alive items in the table, but the swapped one, sharing its k codes
        same = codes == codes[swap_idx]
        others = in_table & alive_mask
        others[swap_idx] = False
        for k in depths:
            candidates = np.flatnonzero(others & same[:, :k].all(axis=1))
            if not candidates.size:
                out[k]["skipped"] += 1
                continue
            alt = candidates[int(rng.integers(0, candidates.size))]
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


# ---------------------------------------------------------------------------
# distribution exports


def gini(values) -> float:
    """Gini coefficient of a nonnegative count vector (0 = even)."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    total = x.sum()
    if n == 0 or total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float(((2.0 * ranks - n - 1.0) * x).sum() / (n * total))


def distribution_exports(items, train_events, semid_table: dict) -> dict:
    """Series for the skew, survival, and click-marginal figures.

    Returns arrays ready for plotting: the cumulative impression curve
    over popularity-sorted items, the initial-cohort survival curve per
    day, and marginal click counts in raw-ID versus full-code space with
    their Gini coefficients.
    """
    counts: dict[int, int] = {}
    clicks: dict[int, int] = {}
    for e in train_events:
        counts[e.item_id] = counts.get(e.item_id, 0) + 1
        if e.label == 1:
            clicks[e.item_id] = clicks.get(e.item_id, 0) + 1
    count_vec = np.array(
        [counts.get(int(x), 0) for x in items.raw_ids], dtype=np.float64
    )
    order = np.argsort(-count_vec, kind="stable")
    cum = np.cumsum(count_vec[order])
    total = cum[-1] if cum.size and cum[-1] > 0 else 1.0
    item_share = np.arange(1, len(order) + 1) / len(order)
    impression_share = cum / total

    cohort = items.birth == 0
    horizon_days = int(np.ceil(items.death.max() / DAY))
    days = np.arange(0, horizon_days + 1)
    survival = np.array([(items.death[cohort] > d * DAY).mean() for d in days])

    raw_clicks = np.array(sorted(clicks.values(), reverse=True), dtype=np.float64)
    semid_clicks: dict[tuple, int] = {}
    for item_id, n in clicks.items():
        codes = semid_table.get(item_id)
        if codes is not None:
            semid_clicks[codes] = semid_clicks.get(codes, 0) + n
    code_clicks = np.array(sorted(semid_clicks.values(), reverse=True), dtype=np.float64)
    return {
        "impression_curve": (item_share, impression_share),
        "survival_curve": (days, survival),
        "raw_click_counts": raw_clicks,
        "semid_click_counts": code_clicks,
        "gini_raw": gini(raw_clicks),
        "gini_semid": gini(code_clicks),
    }


# ---------------------------------------------------------------------------
# reports


@dataclass
class MetricsReport:
    """Named metrics plus run metadata; serializes deterministically."""

    kind: str
    metrics: dict
    metadata: dict = field(default_factory=dict)

    def to_json_text(self) -> str:
        payload = {"kind": self.kind, "metadata": self.metadata, "metrics": self.metrics}
        return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"

    def to_table_text(self) -> str:
        lines = [f"{self.kind} report"]
        for key in sorted(self.metadata):
            lines.append(f"  {key} = {self.metadata[key]}")
        width = max((len(k) for k in self.metrics), default=0)
        lines.append("")
        for name in sorted(self.metrics):
            value = self.metrics[name]
            if isinstance(value, float):
                value = f"{value:.6f}"
            lines.append(f"  {name:<{width}}  {value}")
        return "\n".join(lines) + "\n"

    def save(self, path_prefix) -> None:
        with open(str(path_prefix) + ".json", "w", encoding="utf-8") as fh:
            fh.write(self.to_json_text())
        with open(str(path_prefix) + ".txt", "w", encoding="utf-8") as fh:
            fh.write(self.to_table_text())


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")

