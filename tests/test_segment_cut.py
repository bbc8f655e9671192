"""``analysis.build_segments`` cuts the ranked items with one exclusive
cumulative sum; it gives the sets of the per-item loop in
``tests/oracles.py`` on ties, zero and fractional counts, repeated and
negative IDs, and impressions that land exactly on a cut."""

import numpy as np
import pytest

import oracles
from semidlab.analysis import build_segments


def random_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 80))
    universe = rng.integers(-40, 120, size=n).tolist()  # repeats included
    if seed % 3 == 0:
        values = rng.integers(0, 4, size=n).tolist()  # many ties and zeros
    elif seed % 3 == 1:
        values = (rng.pareto(1.2, size=n) * 1e3).tolist()  # fractional, heavy-tailed
    else:
        values = [0] * n  # no impressions: every item is tail
    counts = dict(zip(universe, values))
    counts[10_000] = 7  # a counted item outside the universe
    eval_ids = rng.integers(-40, 130, size=int(rng.integers(0, 20))).tolist()
    return counts, universe, eval_ids


@pytest.mark.parametrize("seed", range(24))
def test_cut_matches_the_per_item_loop(seed):
    counts, universe, eval_ids = random_case(seed)
    assert build_segments(counts, universe, eval_ids) == oracles.build_segments(counts, universe, eval_ids)


@pytest.mark.parametrize("counts, head, torso, tail", [
    ({1: 1, 2: 1, 3: 1, 4: 1}, {1}, {2, 3}, {4}),  # item 2 starts at exactly 25%
    ({1: 3, 2: 1}, {1}, set(), {2}),  # item 2 starts at exactly 75%
    ({1: 0, 2: 0}, set(), set(), {1, 2}),
    ({}, set(), set(), set()),
])
def test_items_starting_on_a_cut_fall_past_it(counts, head, torso, tail):
    seg = build_segments(counts, list(counts), [])
    assert (seg.head, seg.torso, seg.tail) == (head, torso, tail)
    assert seg == oracles.build_segments(counts, list(counts), [])
