"""Token parameterization formulas, table fitting, and lookup functions."""

import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from semidlab.tokenization import (
    VARIANTS,
    ConfigurationError,
    IndividualEmbedding,
    RandomHash,
    SemanticIdLookup,
    TokenParameterization,
    fit_to_table,
    parameterize,
    prefix_depth_range,
)


def P(variant, k, n=0):
    return TokenParameterization(variant=variant, codebook_size=k, prefix_depth=n)


class TestParameterize:
    def test_trigram_hand_case(self):
        assert parameterize((1, 2, 3), P("trigram", 4)) == [27]

    def test_fourgram_hand_case(self):
        assert parameterize((1, 2, 3, 0), P("fourgram", 4)) == [108]

    def test_all_bigrams_hand_case(self):
        assert parameterize((1, 2, 3), P("all_bigrams", 4)) == [6, 27]

    def test_prefix_ngram_hand_case(self):
        assert parameterize((1, 2, 3), P("prefix_ngram", 4, n=3)) == [1, 10, 47]

    def test_prefix_ngram_all_zero(self):
        assert parameterize((0, 0, 0), P("prefix_ngram", 4, n=3)) == [0, 4, 20]

    def test_variant_length_incompatibility(self):
        with pytest.raises(ConfigurationError):
            parameterize((1, 2), P("trigram", 4))
        with pytest.raises(ConfigurationError):
            parameterize((1, 2, 3), P("fourgram", 4))
        with pytest.raises(ConfigurationError):
            parameterize((1, 2), P("prefix_ngram", 4, n=3))

    def test_code_out_of_range(self):
        with pytest.raises(ConfigurationError):
            parameterize((4, 0, 0), P("trigram", 4))

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_trigram_bijection(self, k):
        seen = {parameterize(c, P("trigram", k))[0] for c in itertools.product(range(k), repeat=3)}
        assert seen == set(range(k**3))

    @pytest.mark.parametrize("k", [2, 4])
    def test_fourgram_bijection(self, k):
        seen = {parameterize(c, P("fourgram", k))[0] for c in itertools.product(range(k), repeat=4)}
        assert seen == set(range(k**4))

    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_all_bigrams_emits_l_minus_1(self, levels):
        out = parameterize((1,) * levels, P("all_bigrams", 4))
        assert len(out) == levels - 1

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_prefix_ngram_injective_per_depth_with_disjoint_ranges(self, k):
        n = 4
        for depth in range(1, n + 1):
            lo, hi = prefix_depth_range(k, depth)
            values = set()
            for prefix in itertools.product(range(k), repeat=depth):
                codes = prefix + (0,) * (n - depth)
                values.add(parameterize(codes, P("prefix_ngram", k, n=n))[depth - 1])
            assert len(values) == k**depth, "prefix collision within depth"
            assert min(values) == lo and max(values) == hi - 1
            assert values == set(range(lo, hi)), "depth range not contiguous"
        # depth ranges never overlap
        ranges = [prefix_depth_range(k, d) for d in range(1, n + 1)]
        for (lo1, hi1), (lo2, hi2) in itertools.combinations(ranges, 2):
            assert hi1 <= lo2 or hi2 <= lo1


class TestFitToTable:
    def test_block_offsets_hand_case(self):
        assert fit_to_table([0, 4, 20], 300, 3) == [0, 104, 220]

    def test_single_index_below_table_size_unchanged(self):
        assert fit_to_table([17], 100, 1) == [17]

    def test_table_smaller_than_positions(self):
        with pytest.raises(ConfigurationError):
            fit_to_table([0, 1, 2], 2, 3)

    def test_cross_position_collisions_impossible(self):
        # exhaustive over all depth-3 prefixes at K=4 folded into H=30
        k, n, h = 4, 3, 30
        rows_by_position = [set() for _ in range(n)]
        for codes in itertools.product(range(k), repeat=n):
            rows = fit_to_table(parameterize(codes, P("prefix_ngram", k, n=n)), h, n)
            assert all(0 <= r < h for r in rows)
            for g, r in enumerate(rows):
                rows_by_position[g].add(r)
        for a, b in itertools.combinations(rows_by_position, 2):
            assert not (a & b), "two positions share a table row"

    def test_never_emits_row_at_or_beyond_table_size(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            h = int(rng.integers(3, 50))
            g = int(rng.integers(1, min(h, 6) + 1))
            idx = rng.integers(0, 10_000, size=g).tolist()
            rows = fit_to_table(idx, h, g)
            assert all(0 <= r < h for r in rows)


class TestRandomHash:
    def test_deterministic(self):
        h1 = RandomHash(1000, seed=7)
        h2 = RandomHash(1000, seed=7)
        for x in [0, 1, 12345, 2**63 - 1]:
            assert h1.rows(x) == h2.rows(x)

    def test_table_size_one(self):
        h = RandomHash(1, seed=0)
        assert h.rows(999) == [0]

    def test_seed_changes_mapping(self):
        a = RandomHash(10_000, seed=1)
        b = RandomHash(10_000, seed=2)
        ids = range(2000)
        assert any(a.rows(x) != b.rows(x) for x in ids)

    def test_occupancy_approximately_uniform(self):
        h = RandomHash(10_000, seed=3)
        counts = np.zeros(10_000)
        for x in range(100_000):
            counts[h.rows(x)[0]] += 1
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001


class TestIndividualEmbedding:
    def test_distinct_seen_ids_distinct_rows(self):
        ie = IndividualEmbedding([10, 20, 30])
        rows = {ie.rows(x)[0] for x in (10, 20, 30)}
        assert len(rows) == 3

    def test_unseen_id_hits_reserved_row(self):
        ie = IndividualEmbedding([10, 20, 30])
        assert ie.rows(999) == [ie.unseen_row]
        assert ie.unseen_row == 3

    def test_table_size_is_vocab_plus_one(self):
        ie = IndividualEmbedding(range(57))
        assert ie.table_size == 58

    def test_vocabulary_outside_int64_is_rejected(self):
        with pytest.raises(ConfigurationError, match="int64"):
            IndividualEmbedding([1, 2**63])


class TestSemanticIdLookup:
    def test_identical_codes_identical_rows(self):
        table = {1: (0, 1, 2), 2: (0, 1, 2), 3: (3, 1, 2)}
        lk = SemanticIdLookup(table, P("prefix_ngram", 4, n=3), 300)
        assert lk.rows(1) == lk.rows(2)
        assert lk.rows(1) != lk.rows(3)

    def test_shared_top_code_shares_first_row_only(self):
        table = {1: (2, 1, 0), 2: (2, 3, 1)}
        lk = SemanticIdLookup(table, P("prefix_ngram", 4, n=3), 300)
        r1, r2 = lk.rows(1), lk.rows(2)
        assert r1[0] == r2[0]
        assert r1[1] != r2[1] and r1[2] != r2[2]

    def test_missing_id_falls_back_to_zero_code(self, caplog):
        table = {1: (1, 1, 1)}
        lk = SemanticIdLookup(table, P("prefix_ngram", 4, n=3), 300)
        with caplog.at_level("WARNING"):
            rows = lk.rows(42)
        assert rows == fit_to_table([0, 4, 20], 300, 3)
        assert any("missing" in r.message for r in caplog.records)

    def test_inconsistent_code_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            SemanticIdLookup({1: (0, 1), 2: (0, 1, 2)}, P("prefix_ngram", 4, n=2), 100)

    def test_pure_across_instances(self):
        table = {i: (i % 4, (i * 7) % 4, (i * 3) % 4) for i in range(50)}
        a = SemanticIdLookup(table, P("all_bigrams", 4), 120)
        b = SemanticIdLookup(dict(table), P("all_bigrams", 4), 120)
        for i in range(50):
            assert a.rows(i) == b.rows(i)


# ---------------------------------------------------------------------------
# rows_batch: the vectorized lookup gives the per-ID rows


INT64_EDGES = [0, 1, -1, 2**63 - 1, 2**63 - 2, -(2**63), -(2**63) + 1, 2**62, -(2**62)]
int64_ids = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT64_EDGES))


def assert_rows_batch_matches_rows(lookup, ids):
    got = lookup.rows_batch(ids)
    assert got.shape == (len(ids), lookup.output_count)
    assert np.issubdtype(got.dtype, np.integer)
    assert got.tolist() == [list(lookup.rows(i)) for i in ids]


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.one_of(int64_ids, st.integers(-(2**70), 2**70)), max_size=40),
    table_size=st.one_of(st.integers(1, 50), st.integers(1, 2**40)),
    seed=st.integers(0, 2**64 - 1),
)
def test_random_hash_rows_batch_matches_rows(ids, table_size, seed):
    assert_rows_batch_matches_rows(RandomHash(table_size, seed=seed), ids)


@settings(max_examples=60, deadline=None)
@given(
    vocab=st.lists(int64_ids, max_size=30),
    unseen=st.lists(int64_ids, max_size=20),
    data=st.data(),
)
def test_individual_rows_batch_matches_rows(vocab, unseen, data):
    lk = IndividualEmbedding(vocab)
    pool = vocab + unseen
    ids = data.draw(st.lists(st.sampled_from(pool), max_size=40)) if pool else []
    ids += [2**63, -(2**63) - 1]  # outside int64, so never in the vocabulary
    assert_rows_batch_matches_rows(lk, ids)
    vocab_set = set(vocab)
    for raw_id, row in zip(ids, lk.rows_batch(ids)[:, 0]):
        assert (row == lk.unseen_row) == (raw_id not in vocab_set)


@settings(max_examples=80, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    k=st.integers(2, 40),
    levels=st.integers(4, 6),
    depth=st.integers(1, 6),
    n_items=st.integers(1, 30),
    data=st.data(),
)
def test_semantic_id_rows_batch_matches_rows(variant, k, levels, depth, n_items, data):
    p = TokenParameterization(variant, k, min(depth, levels) if variant == "prefix_ngram" else 0)
    codes = st.tuples(*[st.integers(0, k - 1)] * levels)
    table = data.draw(st.dictionaries(st.integers(-(2**40), 2**40), codes, min_size=1, max_size=n_items))
    table_size = data.draw(st.integers(p.output_count(levels), 5000))
    lk = SemanticIdLookup(table, p, table_size)
    # known IDs plus IDs missing from the table (all-zeros fallback)
    ids = data.draw(st.lists(st.one_of(st.sampled_from(sorted(table)), st.integers(2**41, 2**42)), max_size=30))
    logging.disable(logging.WARNING)
    try:
        assert_rows_batch_matches_rows(lk, ids)
    finally:
        logging.disable(logging.NOTSET)
    fallback = fit_to_table(parameterize((0,) * levels, p), table_size, lk.output_count)
    for raw_id, row in zip(ids, lk.rows_batch(ids).tolist()):
        if raw_id not in table:
            assert row == fallback


def test_semantic_id_rows_batch_beyond_int64_index_space():
    # K^(L+1) >= 2^62: the pre-hash indices leave int64, so rows_batch
    # takes the exact per-ID path
    k = 2**16
    table = {1: (k - 1,) * 4, 2: (0, 1, 2, 3)}
    lk = SemanticIdLookup(table, TokenParameterization("prefix_ngram", k, 4), 1_000_003)
    assert_rows_batch_matches_rows(lk, [1, 2, 1])


def test_semantic_id_rows_batch_warns_on_missing_id(caplog):
    lk = SemanticIdLookup({1: (1, 2, 3)}, TokenParameterization("prefix_ngram", 4, 3), 30)
    with caplog.at_level(logging.WARNING, logger="semidlab.tokenization"):
        rows = lk.rows_batch([1, 99])
    assert "99" in caplog.text
    assert rows[1].tolist() == lk.rows(99)


# ---------------------------------------------------------------------------
# SemanticIdLookup against the per-ID reference fit_to_table(parameterize(codes))


def reference_rows(table, p, table_size, raw_id):
    levels = len(next(iter(table.values())))
    codes = table.get(raw_id, (0,) * levels)
    return fit_to_table(parameterize(codes, p), table_size, p.output_count(levels))


@settings(max_examples=80, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    # small codebooks take the vectorized expansion; large ones push
    # k^(L+1) past 2^62, where the constructor expands ID by ID
    k=st.one_of(st.integers(2, 40), st.integers(2**13, 2**20)),
    levels=st.integers(4, 6),
    depth=st.integers(1, 6),
    n_items=st.integers(1, 30),
    data=st.data(),
)
def test_semantic_id_rows_match_per_id_reference(variant, k, levels, depth, n_items, data):
    p = TokenParameterization(variant, k, min(depth, levels) if variant == "prefix_ngram" else 0)
    codes = st.tuples(*[st.integers(0, k - 1)] * levels)
    keys = st.one_of(int64_ids, st.integers(2**63, 2**70))
    table = data.draw(st.dictionaries(keys, codes, min_size=1, max_size=n_items))
    table[data.draw(keys)] = (k - 1,) * levels  # the largest pre-hash indices
    table_size = data.draw(st.integers(p.output_count(levels), 2**40))
    lk = SemanticIdLookup(table, p, table_size)
    # known IDs plus missing ones, some outside int64
    missing = st.one_of(st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1), int64_ids)
    ids = data.draw(st.lists(st.one_of(st.sampled_from(sorted(table)), missing), max_size=30))
    logging.disable(logging.WARNING)
    try:
        want = [reference_rows(table, p, table_size, i) for i in ids]
        assert [lk.rows(i) for i in ids] == want
        got = lk.rows_batch(ids)
        assert got.shape == (len(ids), lk.output_count)
        assert got.tolist() == want
        assert [lk.codes(i) for i in ids] == [table.get(i, (0,) * levels) for i in ids]
    finally:
        logging.disable(logging.NOTSET)


@pytest.mark.parametrize("table_size", [97, 1_000_003])
@pytest.mark.parametrize("variant", VARIANTS)
def test_semantic_id_rows_beyond_int64_index_space_match_per_id_reference(variant, table_size):
    # K^(L+1) = 2^96: the constructor must expand ID by ID, exactly
    k, levels = 2**16, 5
    p = TokenParameterization(variant, k, 5 if variant == "prefix_ngram" else 0)
    rng = np.random.default_rng(24)
    table = {i: tuple(int(c) for c in rng.integers(0, k, size=levels)) for i in range(20)}
    table[99] = (k - 1,) * levels
    lk = SemanticIdLookup(table, p, table_size)
    ids = [*table, -7]  # -7 is missing
    logging.disable(logging.WARNING)
    try:
        want = [reference_rows(table, p, table_size, i) for i in ids]
        assert [lk.rows(i) for i in ids] == want
        assert lk.rows_batch(ids).tolist() == want
    finally:
        logging.disable(logging.NOTSET)


@pytest.mark.parametrize("code", [4, -1, 2**63, -(2**63) - 1])
def test_semantic_id_lookup_rejects_out_of_range_code_at_construction(code):
    table = {1: (0, 1, 2), 2: (1, code, 3)}
    with pytest.raises(ConfigurationError):
        SemanticIdLookup(table, P("prefix_ngram", 4, n=3), 300)


def test_semantic_id_lookup_rejects_code_beyond_int64_in_a_huge_codebook():
    # 2^63 lies inside [0, 2^64) but cannot be stored as an int64 code
    with pytest.raises(ConfigurationError, match="int64"):
        SemanticIdLookup({1: (2**63, 0, 0)}, P("trigram", 2**64), 300)


def test_semantic_id_lookup_rows_batch_of_no_ids():
    lk = SemanticIdLookup({1: (1, 2, 3)}, P("all_bigrams", 4), 30)
    assert lk.rows_batch([]).shape == (0, 2)
