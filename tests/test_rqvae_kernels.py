"""The blocked nearest-codeword search, the one-pass k-means update and
the codebook warm start against the unblocked, one-mean-per-cluster
copies in ``reference_rqvae``: equal codes, and centroids and residuals
equal byte for byte."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_rqvae as ref
from semidlab import rqvae
from semidlab.rqvae import (
    NEAREST_BLOCK_ROWS as BLOCK,
    RqVaeConfig,
    RqVaeModel,
    _init_codebooks,
    _kmeans,
    _nearest_codes,
    quantize_batch,
)

EDGE_ROWS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def points(rng, n, d, grid=False):
    """Rows with scales spread over several binades; on a coarse grid with
    both signs of zero, rows repeat and distances tie."""
    if grid:
        return rng.integers(-2, 3, size=(n, d)) * 0.5 * rng.choice([-1.0, 1.0], size=(n, d))
    return rng.normal(size=(n, d)) * rng.exponential(size=(n, 1))


def codewords_around(rng, d=8):
    """A center and 64 codewords at one distance from it, the sign
    patterns of one offset: which codeword the center is nearest is
    decided by rounding alone."""
    center, offset = rng.normal(size=d), rng.normal(size=d)
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=6)))
    offsets = np.concatenate([signs * offset[:6], np.tile(offset[6:], (len(signs), 1))], axis=1)
    return center, center + offsets


def assert_same_kmeans(pts, k, iters, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _kmeans(pts, k, iters, rng)
    want = ref.kmeans(pts, k, iters, ref_rng)
    assert got.shape == want.shape == (k, pts.shape[1])
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", EDGE_ROWS)
def test_nearest_codes_match_unblocked_at_block_edges(n):
    rng = np.random.default_rng(n)
    codebook = rng.normal(size=(64, 8))
    r = points(rng, n, 8)
    got = _nearest_codes(codebook, r)
    assert got.dtype == np.int64 and got.shape == (n,)
    assert np.array_equal(got, ref.nearest_codes(codebook, r))


@pytest.mark.parametrize("n", EDGE_ROWS)
def test_rounding_ties_match_unblocked_at_block_edges(n):
    # BLAS rounds a one-row product differently from a row of a larger
    # one, which can flip a code decided by rounding
    for seed in range(5):
        center, codebook = codewords_around(np.random.default_rng(seed))
        r = np.tile(center, (n, 1))
        assert np.array_equal(_nearest_codes(codebook, r), ref.nearest_codes(codebook, r))


@pytest.mark.parametrize("n", EDGE_ROWS)
def test_quantize_batch_matches_unblocked_at_block_edges(n):
    model = RqVaeModel.initialize(RqVaeConfig(levels=4, codebook_size=64, input_dim=16, latent_dim=8, seed=n))
    z = points(np.random.default_rng(n), n, 8)
    codes, residuals, quantized = quantize_batch(model, z)
    want_codes, want_residuals, want_quantized = ref.quantize_batch(model, z)
    assert np.array_equal(codes, want_codes)
    assert [r.tobytes() for r in residuals] == [r.tobytes() for r in want_residuals]
    assert quantized.tobytes() == want_quantized.tobytes()


@pytest.mark.parametrize("n", [1, 2 * BLOCK + 3])
def test_tie_between_duplicate_codewords_goes_to_the_lowest_index(n):
    rng = np.random.default_rng(31)
    distinct = rng.normal(size=(5, 4))
    # codewords 0 and 5, 1 and 3, 2 and 7 are copies
    codebook = distinct[[0, 1, 2, 1, 3, 0, 4, 2]]
    first = np.array([0, 1, 2, 1, 4, 0, 6, 2])
    picks = rng.integers(0, len(codebook), size=n)
    r = codebook[picks] + rng.normal(scale=1e-3, size=(n, 4))
    got = _nearest_codes(codebook, r)
    assert np.array_equal(got, ref.nearest_codes(codebook, r))
    assert np.array_equal(got, first[picks])


@pytest.mark.parametrize("d", [1, 2, 8])
def test_kmeans_clusters_left_empty(d):
    # three distinct points under eight clusters: seeding repeats points,
    # a tie sends their members to the lowest copy, the others stay empty
    rng = np.random.default_rng(32)
    pts = rng.normal(size=(3, d))[rng.integers(0, 3, size=40)]
    assert_same_kmeans(pts, 8, 5, seed=d)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_kmeans_clusters_of_many_members(d):
    # k = 2 over 1000 points: clusters far past the 8 rows numpy's
    # pairwise sum adds one by one
    pts = points(np.random.default_rng(33), 1000, d)
    assert_same_kmeans(pts, 2, 10, seed=d)


def test_kmeans_on_signed_zeros():
    # a column of -0.0 and a column mixing both zeros: numpy's sum starts
    # from +0.0, so the means are +0.0 in both
    pts = np.zeros((30, 3))
    pts[:, 0] = -0.0
    pts[:, 1] = np.random.default_rng(34).normal(size=30)
    pts[::2, 2] = -0.0
    assert_same_kmeans(pts, 4, 3, seed=34)


@pytest.mark.parametrize("d", [1, 8])
def test_kmeans_without_iterations_is_the_seeding(d):
    assert_same_kmeans(points(np.random.default_rng(35), 200, d), 16, 0, seed=35)


def record_calls(monkeypatch, module, name):
    """The list of assignments ``module.name`` returns from now on."""
    calls, real = [], getattr(module, name)

    def recorded(codebook, residuals):
        calls.append(real(codebook, residuals))
        return calls[-1]

    monkeypatch.setattr(module, name, recorded)
    return calls


def changes(assignments):
    return [not np.array_equal(a, b) for a, b in zip(assignments, assignments[1:])]


# 256 evenly spaced points on a line under two clusters: from seed 8's
# seeding the boundary creeps toward the middle, so the assignment
# changes at each of the first 8 iterations and is the same at the 9th
LINE, LINE_SEED, LINE_CHANGING_ITERS = np.arange(256.0)[:, None], 8, 8


def test_kmeans_stops_at_a_repeated_assignment(monkeypatch):
    ref_calls = record_calls(monkeypatch, ref, "nearest_codes")
    calls = record_calls(monkeypatch, rqvae, "_nearest_codes")
    assert_same_kmeans(LINE, 2, 25, seed=LINE_SEED)
    assert len(ref_calls) == 25
    assert changes(ref_calls)[:LINE_CHANGING_ITERS] == [True] * (LINE_CHANGING_ITERS - 1) + [False]
    assert len(calls) == LINE_CHANGING_ITERS + 1
    assert changes(calls) == [True] * (LINE_CHANGING_ITERS - 1) + [False]


def test_kmeans_runs_every_iteration_while_the_assignment_changes(monkeypatch):
    calls = record_calls(monkeypatch, rqvae, "_nearest_codes")
    assert_same_kmeans(LINE, 2, LINE_CHANGING_ITERS, seed=LINE_SEED)
    assert len(calls) == LINE_CHANGING_ITERS
    assert all(changes(calls))


@pytest.mark.parametrize("kmeans_iters", [0, 3, 25])
def test_init_codebooks_match_reference(kmeans_iters):
    cfg = RqVaeConfig(levels=4, codebook_size=64, input_dim=16, latent_dim=8, kmeans_iters=kmeans_iters, seed=36)
    fast, oracle = RqVaeModel.initialize(cfg), RqVaeModel.initialize(cfg)
    sample = points(np.random.default_rng(36), 256, 16)
    rng, ref_rng = np.random.default_rng(37), np.random.default_rng(37)
    _init_codebooks(fast, sample, rng)
    ref.init_codebooks(oracle, sample, ref_rng)
    for cb, want in zip(fast.codebooks, oracle.codebooks):
        assert cb.value.tobytes() == want.value.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 2 * BLOCK + 3),
    k=st.integers(1, 70),
    d=st.integers(1, 9),
    grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_codes_match_unblocked_on_random_shapes(n, k, d, grid, seed):
    rng = np.random.default_rng(seed)
    codebook = points(rng, k, d, grid)
    r = points(rng, n, d, grid)
    assert np.array_equal(_nearest_codes(codebook, r), ref.nearest_codes(codebook, r))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    k=st.integers(1, 70),
    d=st.integers(1, 9),
    iters=st.integers(0, 4),
    grid=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kmeans_matches_reference_on_random_shapes(n, k, d, iters, grid, seed):
    assert_same_kmeans(points(np.random.default_rng(seed), n, d, grid), k, iters, seed)
