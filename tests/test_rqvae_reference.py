"""Single-pass RQ-VAE training and array-at-a-time ``assign`` against the
double-pass, per-item oracle in ``reference_rqvae``: bit-identical
parameters, loss curves and assignments."""

import numpy as np
import pytest

import reference_rqvae as ref
from oracles import gmm_hierarchy_embeddings
from semidlab.rqvae import RqVaeConfig, RqVaeModel, assign, loss, quantize_batch, train

CONFIGS = {
    # few clusters under a large codebook: codewords go unused for whole
    # epochs, so dead-code resets fire
    "resets": dict(
        data=(300, 6, (2, 2, 2), 17),
        config=RqVaeConfig(levels=2, codebook_size=32, input_dim=6, latent_dim=3,
                           epochs=3, batch_size=64, seed=17),
    ),
    # a deeper quantizer over a richer corpus, with a short last batch
    "deep_sgd": dict(
        data=(1000, 8, (4, 4, 4), 18),
        config=RqVaeConfig(levels=4, codebook_size=8, input_dim=8, latent_dim=4, hidden_sizes=(12, 6),
                           epochs=3, batch_size=96, optimizer="sgd", learning_rate=0.05, seed=18),
    ),
}


def _embeddings(n, dim, branching, seed):
    emb, _, _ = gmm_hierarchy_embeddings(n, dim, branching, (1.0, 0.5, 0.25, 0.1), seed=seed)
    return emb


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def trained_pair(request):
    spec = CONFIGS[request.param]
    emb = _embeddings(*spec["data"])
    fast = RqVaeModel.initialize(spec["config"])
    oracle = RqVaeModel.initialize(spec["config"])
    curve = train(fast, emb)
    ref_curve, resets = ref.train(oracle, emb)
    return request.param, emb, fast, oracle, curve, ref_curve, resets


def test_parameters_bit_identical_to_oracle(trained_pair):
    name, _, fast, oracle, *_, resets = trained_pair
    if name == "resets":
        assert resets > 0, "the reset config fired no dead-code reset"
    assert list(fast.params) == list(oracle.params)
    for pname, p in fast.params.items():
        assert p.value.tobytes() == oracle.params[pname].value.tobytes(), pname
    assert fast.frozen and oracle.frozen


def test_loss_curve_bit_identical_to_oracle(trained_pair):
    _, _, _, _, curve, ref_curve, _ = trained_pair
    assert curve == ref_curve


def test_assign_bit_identical_to_oracle(trained_pair):
    _, emb, fast, oracle, *_ = trained_pair
    # unsorted IDs, plus malformed entries between the good ones
    items = {int(i) * 7919 % 1009: emb[i] for i in range(len(emb) // 2)}
    items[-5] = np.full(emb.shape[1], np.nan)
    items[2**62] = emb[0][:-1]
    got = assign(fast, items)
    want = ref.assign(oracle, items)
    assert got == want
    assert [list(d) for d in got] == [list(d) for d in want]


def test_loss_returns_the_codes_and_residuals_of_its_pass():
    spec = CONFIGS["deep_sgd"]
    model = RqVaeModel.initialize(spec["config"])
    x = _embeddings(*spec["data"])[:50]
    parts = loss(model, x)
    codes, residuals, _ = quantize_batch(model, ref.mlp_np(model, "enc", x))
    assert np.array_equal(parts.codes, codes)
    assert len(parts.residuals) == len(residuals) == spec["config"].levels + 1
    for a, b in zip(parts.residuals, residuals):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# assign: malformed entries inside a batch


def _frozen_model(seed=21):
    model = RqVaeModel.initialize(RqVaeConfig(levels=3, codebook_size=4, input_dim=5, latent_dim=3, seed=seed))
    model.frozen = True
    return model


def _check_against_oracle(items):
    model = _frozen_model()
    got = assign(model, items)
    want = ref.assign(model, items)
    assert got == want
    assert [list(d) for d in got] == [list(d) for d in want]
    return got


def test_nan_and_inf_rows_inside_a_well_formed_batch():
    rng = np.random.default_rng(22)
    items = {i: rng.normal(size=5) for i in range(10)}
    items[3] = np.array([0.0, np.nan, 0.0, 0.0, 0.0])
    items[7] = np.array([0.0, 0.0, 0.0, -np.inf, 0.0])
    table, errors = _check_against_oracle(items)
    assert list(table) == [0, 1, 2, 4, 5, 6, 8, 9]
    assert errors == {3: "non-finite embedding", 7: "non-finite embedding"}


def test_ragged_batch():
    items = {1: np.zeros(5), 2: np.zeros(4), 3: np.ones(6), 4: np.ones(5)}
    table, errors = _check_against_oracle(items)
    assert list(table) == [1, 4]
    assert list(errors) == [2, 3]


def test_two_d_entry_is_a_shape_error():
    table, errors = _check_against_oracle({1: np.zeros((1, 5)), 2: np.zeros(5)})
    assert list(table) == [2]
    assert errors == {1: "embedding shape (1, 5), expected (5,)"}


def test_empty_dict():
    assert _check_against_oracle({}) == ({}, {})


def test_only_bad_entries():
    table, errors = _check_against_oracle({1: np.full(5, np.inf), 2: np.zeros(3)})
    assert table == {}
    assert list(errors) == [1, 2]


def test_result_keeps_insertion_order():
    rng = np.random.default_rng(23)
    order = [42, -3, 2**62, 7, 0, -(2**62), 19]
    items = {i: rng.normal(size=5) for i in order}
    items[7] = np.zeros(2)  # a shape error
    items[0] = np.full(5, np.nan)  # a finiteness error after it
    items[-3] = np.full(5, np.nan)  # and one before it
    table, errors = _check_against_oracle(items)
    assert list(table) == [42, 2**62, -(2**62), 19]
    assert list(errors) == [-3, 7, 0]
    assert all(isinstance(c, int) for codes in table.values() for c in codes)
