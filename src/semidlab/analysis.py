"""Diagnostics over trained rankers and persisted prediction dumps.

Everything here is a pure function of its inputs (dumps, tables,
frozen models), so re-running an analysis without retraining is
bit-identical.

``attention_metrics`` reads attention in the arrays the ranker computes
it in, an (N, rows, T) attention and an (N, T) pad mask, and reduces
along axes, arranged so that every record's sums add the same entries
in the same order as a loop over the records would, and its numbers
equal that loop's (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import ranker
from .checkpoint import int64_array, integer, sorted_distinct
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


# ---------------------------------------------------------------------------
# attention statistics


def _row_means(x: np.ndarray) -> np.ndarray:
    """Mean along the last axis, each row summed as ``ndarray.mean`` sums
    that row on its own (a contiguous reduction along the last axis)."""
    return np.add.reduce(np.ascontiguousarray(x), axis=-1) / x.shape[-1]


def attention_metrics(attentions) -> dict:
    """Mean first-token, padding, entropy, and self-attention statistics.

    Input is the (attention, pad mask) pair that ``ranker.score`` keeps:
    an N-by-rows-by-T array whose rows are distributions over the T
    source positions, and the N-by-T pad mask. Self-attention needs
    square matrices and is reported as None otherwise (pooled attention
    has no self position). 0 * log2(0) counts as 0 in the entropy. None
    or no records raise ValueError, as does a pad mask whose shape is
    not (N, T).

    Each statistic is a per-record value averaged over records in input
    order. The records are reduced together, each record's sums running
    over the same entries in the same order as they would for that
    record alone.
    """
    if attentions is None:
        raise ValueError("no attention records")
    a = np.ascontiguousarray(attentions[0], dtype=np.float64)
    pad_mask = np.asarray(attentions[1], dtype=bool)
    if a.ndim != 3 or pad_mask.shape != (a.shape[0], a.shape[2]):
        raise ValueError(f"attention {a.shape} and pad mask {pad_mask.shape} are not (N, rows, T) and (N, T)")
    if not len(a):
        raise ValueError("no attention records")
    pads = np.zeros(len(a))
    # records with as many pads at a time; a record's pad columns, in
    # order, are summed one after the other into each row's total, as
    # numpy sums the column-major ``a[:, pad_mask]`` of one record
    counts = pad_mask.sum(axis=1)
    columns_first = np.swapaxes(a, 1, 2)
    for count in sorted_distinct(counts[counts > 0]).tolist():
        group = np.flatnonzero(counts == count)
        columns = np.nonzero(pad_mask[group])[1].reshape(group.size, count, 1)
        pad_columns = np.take_along_axis(columns_first[group], columns, axis=1)
        pads[group] = _row_means(np.add.reduce(pad_columns, axis=1))
    # an entry that is not positive takes log2(1.0) = 0.0, so it adds
    # 0 * 0.0 (and a NaN stays NaN)
    plogp = a * np.log2(np.where(a > 0.0, a, 1.0))
    square = a.shape[1] == a.shape[2]
    return {
        "first": float(np.mean(_row_means(a[:, :, 0]))),
        "pad": float(np.mean(pads)),
        "entropy": float(np.mean(-_row_means(np.add.reduce(plogp, axis=-1)))),
        "self": float(np.mean(_row_means(np.diagonal(a, axis1=1, axis2=2)))) if square else None,
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
    semid_table,
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
    counted. ``semid_table`` is a ``checkpoint.SemanticIdTable``: the
    items' codes are read from its arrays through one binary search over
    its shared ascending ID order, and the table is neither converted nor
    sorted here. Before anything is scored, ValueError is raised for a
    ``set_size``, ``pool_size`` or ``seed`` that is a bool or not an
    integer, a ``set_size`` below 1, a ``pool_size`` below ``set_size``,
    a depth that is not an integer in 1..L, for codes of L levels, or a
    depth given twice.
    """
    if integer(set_size, "set_size", ValueError) < 1:
        raise ValueError(f"set_size {set_size} is below 1")
    if integer(pool_size, "pool_size", ValueError) < set_size:
        raise ValueError(f"pool_size {pool_size} is below set_size {set_size}")
    rng = np.random.default_rng([integer(seed, "seed", ValueError), 23])
    # each item's row of the table; an item the table lacks reads the zero
    # row appended below, and in_table keeps it out of every swap
    at = semid_table.positions(items.raw_ids)
    in_table = at < len(semid_table)
    codes = np.vstack([semid_table.codes, np.zeros(semid_table.codes.shape[1], dtype=np.int64)])[at]
    for k in depths:
        if not 1 <= integer(k, "depth", ValueError) <= codes.shape[1]:
            raise ValueError(f"depth {k} outside 1..{codes.shape[1]}, the code levels")
    if len(set(depths)) < len(depths):
        raise ValueError(f"depths {tuple(depths)} name a depth twice")

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


def distribution_exports(items, train_events, semid_table) -> dict:
    """Series for the skew, survival, and click-marginal figures.

    Returns arrays ready for plotting: the cumulative impression curve
    over popularity-sorted items, the initial-cohort survival curve per
    day, and marginal click counts in raw-ID versus full-code space with
    their Gini coefficients. ``semid_table`` is a
    ``checkpoint.SemanticIdTable``, read like ``click_loss_analog`` reads
    it: the clicked items' codes come from its arrays in one gather.
    """
    counts: dict[int, int] = {}
    clicks: dict[int, int] = {}
    for e in train_events:
        counts[e.item_id] = counts.get(e.item_id, 0) + 1
        if e.label == 1:
            clicks[e.item_id] = clicks.get(e.item_id, 0) + 1
    # each counted ID's item, by one binary search over the item IDs'
    # sort order (the IDs are unique); IDs outside the table count nowhere
    counted = np.fromiter(counts, dtype=np.int64, count=len(counts))
    by_id = np.argsort(items.raw_ids)
    at = by_id[np.searchsorted(items.raw_ids, counted, sorter=by_id).clip(max=len(items) - 1)]
    found = items.raw_ids[at] == counted
    count_vec = np.zeros(len(items))
    count_vec[at[found]] = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))[found]
    del counted, by_id  # the click regrouping below sets the peak; do not hold the search too
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
    at = semid_table.positions(np.fromiter(clicks, dtype=np.int64, count=len(clicks)))
    found = at < len(semid_table)
    clicked_codes = map(tuple, semid_table.codes[at[found]].tolist())
    semid_clicks: dict[tuple, int] = {}
    for codes, n in zip(clicked_codes, itertools.compress(clicks.values(), found.tolist())):
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

