"""Token parameterization formulas, table fitting, and lookup functions."""

import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from oracles import fit_to_table, prefix_depth_range, semid_table
from semidlab.tokenization import (
    VARIANTS,
    ConfigurationError,
    IndividualEmbedding,
    RandomHash,
    SemanticIdLookup,
    TokenParameterization,
    fit_to_table_batch,
    parameterize,
    parameterize_batch,
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
        table = semid_table({1: (0, 1, 2), 2: (0, 1, 2), 3: (3, 1, 2)})
        lk = SemanticIdLookup(table, P("prefix_ngram", 4, n=3), 300)
        assert lk.rows(1) == lk.rows(2)
        assert lk.rows(1) != lk.rows(3)

    def test_shared_top_code_shares_first_row_only(self):
        table = semid_table({1: (2, 1, 0), 2: (2, 3, 1)})
        lk = SemanticIdLookup(table, P("prefix_ngram", 4, n=3), 300)
        r1, r2 = lk.rows(1), lk.rows(2)
        assert r1[0] == r2[0]
        assert r1[1] != r2[1] and r1[2] != r2[2]

    def test_missing_id_falls_back_to_zero_code(self, caplog):
        table = semid_table({1: (1, 1, 1)})
        lk = SemanticIdLookup(table, P("prefix_ngram", 4, n=3), 300)
        with caplog.at_level("WARNING"):
            rows = lk.rows(42)
        assert rows == fit_to_table([0, 4, 20], 300, 3)
        assert any("missing" in r.message for r in caplog.records)

    def test_inconsistent_code_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="differ in length"):
            SemanticIdLookup(
                semid_table({1: (0, 1), 2: (0, 1, 2)}, ConfigurationError), P("prefix_ngram", 4, n=2), 100
            )

    def test_pure_across_instances(self):
        table = {i: (i % 4, (i * 7) % 4, (i * 3) % 4) for i in range(50)}
        a = SemanticIdLookup(semid_table(table), P("all_bigrams", 4), 120)
        b = SemanticIdLookup(semid_table(table), P("all_bigrams", 4), 120)
        for i in range(50):
            assert a.rows(i) == b.rows(i)


# ---------------------------------------------------------------------------
# rows_batch: the vectorized lookup gives the per-ID rows


INT64_EDGES = [0, 1, -1, 2**63 - 1, 2**63 - 2, -(2**63), -(2**63) + 1, 2**62, -(2**62)]
int64_ids = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT64_EDGES))
OUTSIDE_INT64 = [2**63, -(2**63) - 1]
outside_int64_ids = st.one_of(
    st.sampled_from(OUTSIDE_INT64), st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1)
)


def assert_rows_batch_matches_rows(lookup, ids):
    got = lookup.rows_batch(ids)
    assert got.shape == (len(ids), lookup.output_count)
    assert np.issubdtype(got.dtype, np.integer)
    assert got.tolist() == [list(lookup.rows(i)) for i in ids]


def assert_rejects_id(lookup, ids, raw_id):
    """``raw_id`` raises in ``rows``, and anywhere in a ``rows_batch``."""
    with pytest.raises(ConfigurationError, match="int64"):
        lookup.rows(raw_id)
    for at in (0, len(ids)):
        with pytest.raises(ConfigurationError, match="int64"):
            lookup.rows_batch([*ids[:at], raw_id, *ids[at:]])


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(int64_ids, max_size=40),
    outside=outside_int64_ids,
    table_size=st.one_of(st.integers(1, 50), st.integers(1, 2**40)),
    seed=st.integers(0, 2**64 - 1),
)
def test_random_hash_rows_batch_matches_rows(ids, outside, table_size, seed):
    lk = RandomHash(table_size, seed=seed)
    assert_rows_batch_matches_rows(lk, ids)
    assert_rejects_id(lk, ids, outside)


@settings(max_examples=60, deadline=None)
@given(
    vocab=st.lists(int64_ids, max_size=30),
    unseen=st.lists(int64_ids, max_size=20),
    outside=outside_int64_ids,
    data=st.data(),
)
def test_individual_rows_batch_matches_rows(vocab, unseen, outside, data):
    lk = IndividualEmbedding(vocab)
    pool = vocab + unseen
    ids = data.draw(st.lists(st.sampled_from(pool), max_size=40)) if pool else []
    assert_rows_batch_matches_rows(lk, ids)
    vocab_set = set(vocab)
    for raw_id, row in zip(ids, lk.rows_batch(ids)[:, 0]):
        assert (row == lk.unseen_row) == (raw_id not in vocab_set)
    # seen rows are the ranks of the distinct sorted vocabulary
    assert [lk.rows(x)[0] for x in sorted(vocab_set)] == list(range(len(vocab_set)))
    assert lk.table_size == len(vocab_set) + 1
    assert_rejects_id(lk, ids, outside)


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
    lk = SemanticIdLookup(semid_table(table), p, table_size)
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
    # K = 2^16 with 4 levels: K^(L+1) = 2^80 reaches 2^62, where the
    # pre-hash indices could leave int64, so construction raises
    k = 2**16
    table = {1: (k - 1,) * 4, 2: (0, 1, 2, 3)}
    for variant in VARIANTS:
        p = TokenParameterization(variant, k, 4 if variant == "prefix_ngram" else 0)
        with pytest.raises(ConfigurationError, match="int64"):
            SemanticIdLookup(semid_table(table), p, 1_000_003)
        with pytest.raises(ConfigurationError, match="int64"):
            parameterize_batch(list(table.values()), p)


def test_semantic_id_rows_batch_warns_on_missing_id(caplog):
    lk = SemanticIdLookup(semid_table({1: (1, 2, 3)}), TokenParameterization("prefix_ngram", 4, 3), 30)
    with caplog.at_level(logging.WARNING, logger="semidlab.tokenization"):
        rows = lk.rows_batch([1, 99])
    assert "99" in caplog.text
    assert rows[1].tolist() == lk.rows(99)


# ---------------------------------------------------------------------------
# SemanticIdLookup against the per-code oracles fit_to_table(parameterize(codes))


def reference_rows(table, p, table_size, raw_id):
    levels = len(next(iter(table.values())))
    codes = table.get(raw_id, (0,) * levels)
    return fit_to_table(oracles.parameterize(codes, p), table_size, p.output_count(levels))


def largest_codebook(levels):
    """The largest K whose index space K^(levels+1) stays below 2^62."""
    k = round(2 ** (62 / (levels + 1)))
    while k ** (levels + 1) >= 2**62:
        k -= 1
    while (k + 1) ** (levels + 1) < 2**62:
        k += 1
    return k


@settings(max_examples=80, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    levels=st.integers(4, 6),
    depth=st.integers(1, 6),
    n_items=st.integers(1, 30),
    data=st.data(),
)
def test_semantic_id_rows_match_per_id_reference(variant, levels, depth, n_items, data):
    # small codebooks, and the largest ones whose pre-hash indices stay
    # inside int64; one past those raises at construction
    k_max = largest_codebook(levels)
    k = data.draw(st.one_of(st.integers(2, 40), st.integers(k_max - 3, k_max)))
    p = TokenParameterization(variant, k, min(depth, levels) if variant == "prefix_ngram" else 0)
    codes = st.tuples(*[st.integers(0, k - 1)] * levels)
    table = data.draw(st.dictionaries(int64_ids, codes, min_size=1, max_size=n_items))
    table[data.draw(int64_ids)] = (k - 1,) * levels  # the largest pre-hash indices
    table_size = data.draw(st.integers(p.output_count(levels), 2**40))
    lk = SemanticIdLookup(semid_table(table), p, table_size)
    # known IDs plus missing ones
    ids = data.draw(st.lists(st.one_of(st.sampled_from(sorted(table)), int64_ids), max_size=30))
    logging.disable(logging.WARNING)
    try:
        want = [reference_rows(table, p, table_size, i) for i in ids]
        assert [lk.rows(i) for i in ids] == want
        got = lk.rows_batch(ids)
        assert got.shape == (len(ids), lk.output_count)
        assert got.tolist() == want
    finally:
        logging.disable(logging.NOTSET)
    # past int64: a missing ID, and the index space of one more code value
    assert_rejects_id(lk, ids, data.draw(outside_int64_ids))
    wide = TokenParameterization(variant, k_max + 1, p.prefix_depth)
    with pytest.raises(ConfigurationError, match="int64"):
        SemanticIdLookup(semid_table(table), wide, table_size)


@pytest.mark.parametrize("table_size", [97, 1_000_003])
@pytest.mark.parametrize("variant", VARIANTS)
def test_semantic_id_rows_beyond_int64_index_space_match_per_id_reference(variant, table_size):
    # K = 2^16 with 5 levels, K^(L+1) = 2^96, raises at construction; the
    # largest K inside int64 at 5 levels matches the oracle exactly
    levels = 5
    depth = 5 if variant == "prefix_ngram" else 0
    rng = np.random.default_rng(24)
    table = {i: tuple(int(c) for c in rng.integers(0, 2**16, size=levels)) for i in range(20)}
    with pytest.raises(ConfigurationError, match="int64"):
        SemanticIdLookup(semid_table(table), TokenParameterization(variant, 2**16, depth), table_size)
    k = largest_codebook(levels)
    p = TokenParameterization(variant, k, depth)
    table = {i: tuple(int(c) for c in rng.integers(0, k, size=levels)) for i in range(20)}
    table[99] = (k - 1,) * levels
    lk = SemanticIdLookup(semid_table(table), p, table_size)
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
    # a code outside int64 is refused by the table, one outside [0, K) by the lookup
    with pytest.raises(ConfigurationError):
        SemanticIdLookup(
            semid_table({1: (0, 1, 2), 2: (1, code, 3)}, ConfigurationError), P("prefix_ngram", 4, n=3), 300
        )


def test_semantic_id_lookup_rejects_code_beyond_int64_in_a_huge_codebook():
    # 2^63 lies inside [0, 2^64) but cannot be stored as an int64 code
    with pytest.raises(ConfigurationError, match="int64"):
        SemanticIdLookup(semid_table({1: (2**63, 0, 0)}, ConfigurationError), P("trigram", 2**64), 300)


def test_semantic_id_lookup_rows_batch_of_no_ids():
    lk = SemanticIdLookup(semid_table({1: (1, 2, 3)}), P("all_bigrams", 4), 30)
    assert lk.rows_batch([]).shape == (0, 2)


# ---------------------------------------------------------------------------
# int64 contract: IDs outside int64 raise wherever they come in


LOOKUPS = {
    "random_hash": lambda: RandomHash(100, seed=1),
    "individual": lambda: IndividualEmbedding([1, 2, 3]),
    "semantic_id": lambda: SemanticIdLookup(semid_table({1: (0, 1, 2), 2: (3, 3, 3)}), P("prefix_ngram", 4, n=3), 30),
}


@pytest.mark.parametrize("raw_id", OUTSIDE_INT64)
@pytest.mark.parametrize("kind", sorted(LOOKUPS))
def test_lookup_rejects_raw_id_outside_int64(kind, raw_id):
    assert_rejects_id(LOOKUPS[kind](), [1, 2], raw_id)


@pytest.mark.parametrize("raw_id", OUTSIDE_INT64)
def test_table_and_vocabulary_keys_outside_int64_are_rejected(raw_id):
    with pytest.raises(ConfigurationError, match="int64"):
        IndividualEmbedding([1, raw_id])
    with pytest.raises(ConfigurationError, match="int64"):
        SemanticIdLookup(
            semid_table({1: (0, 1, 2), raw_id: (1, 2, 3)}, ConfigurationError), P("prefix_ngram", 4, n=3), 30
        )


# ---------------------------------------------------------------------------
# batch functions against the per-code oracles


@settings(max_examples=80, deadline=None)
@given(variant=st.sampled_from(VARIANTS), levels=st.integers(4, 6), depth=st.integers(1, 6), data=st.data())
def test_parameterize_batch_matches_per_code_oracle(variant, levels, depth, data):
    k = data.draw(st.one_of(st.integers(2, 40), st.integers(2, largest_codebook(levels))))
    p = TokenParameterization(variant, k, min(depth, levels) if variant == "prefix_ngram" else 0)
    codes = data.draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * levels), max_size=20))
    want = [oracles.parameterize(c, p) for c in codes]
    got = parameterize_batch(np.array(codes, dtype=np.int64).reshape(len(codes), levels), p)
    assert got.dtype == np.int64 and got.shape == (len(codes), p.output_count(levels))
    assert got.tolist() == want
    assert [parameterize(c, p) for c in codes] == want


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 7), levels=st.integers(1, 4))
def test_parameterize_batch_prefix_depths_injective_and_contiguous(k, levels):
    # every code of the given length: depth d sees every K^d prefix
    codes = np.array(list(itertools.product(range(k), repeat=levels)), dtype=np.int64)
    out = parameterize_batch(codes, P("prefix_ngram", k, n=levels))
    hi_prev = 0
    for depth in range(1, levels + 1):
        prefixes = [tuple(c[:depth]) for c in codes.tolist()]
        value_of = dict(zip(prefixes, out[:, depth - 1].tolist()))
        # the value depends on the depth-d prefix alone ...
        assert [value_of[x] for x in prefixes] == out[:, depth - 1].tolist()
        # ... and the K^d prefixes fill one contiguous range, one value each
        lo, hi = prefix_depth_range(k, depth)
        assert len(value_of) == k**depth
        assert sorted(value_of.values()) == list(range(lo, hi)), "prefix collision or gap within depth"
        assert lo == hi_prev, "depth ranges leave a gap or overlap"
        hi_prev = hi


@settings(max_examples=80, deadline=None)
@given(
    g=st.integers(1, 6),
    n=st.integers(0, 20),
    table_size=st.one_of(st.integers(1, 60), st.integers(1, 2**40)),
    data=st.data(),
)
def test_fit_to_table_batch_blocks_are_disjoint(g, n, table_size, data):
    table_size = max(table_size, g)
    pre = data.draw(st.lists(st.lists(st.integers(0, 2**62 - 1), min_size=g, max_size=g), min_size=n, max_size=n))
    got = fit_to_table_batch(np.array(pre, dtype=np.int64).reshape(n, g), table_size)
    assert got.shape == (n, g)
    assert got.tolist() == [fit_to_table(row, table_size, g) for row in pre]
    block = table_size // g
    # position j's rows lie in block j, so two positions never share a row
    for j in range(g):
        assert np.all((j * block <= got[:, j]) & (got[:, j] < (j + 1) * block))
    assert np.all(got < table_size)


def test_fit_to_table_batch_rejects_table_smaller_than_positions():
    with pytest.raises(ConfigurationError):
        fit_to_table_batch(np.zeros((1, 3), dtype=np.int64), 2)
