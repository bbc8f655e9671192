"""Quantizer correctness, loss arithmetic and routing, training behavior."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidlab import tensor as T
from semidlab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from semidlab.rqvae import (
    FrozenModelError,
    RqVaeConfig,
    RqVaeConfigError,
    RqVaeModel,
    assign,
    encode,
    load_rqvae,
    load_semid_table,
    evaluate_loss,
    loss,
    quantize_batch,
    save_rqvae,
    save_semid_table,
    train,
)
from semidlab.runfiles import write_table

import reference_rqvae as ref
from fdcheck import assert_grads_close, fd_grad
from oracles import cluster_purity, gmm_hierarchy_embeddings, nearest_index_bruteforce


def scalar_identity_model(codebooks) -> RqVaeModel:
    """1-d model with identity encoder/decoder and fixed codebooks."""
    cfg = RqVaeConfig(
        levels=len(codebooks), codebook_size=len(codebooks[0]), input_dim=1, latent_dim=1,
        hidden_sizes=(), commitment_weight=0.5,
    )
    model = RqVaeModel.initialize(cfg)
    model.params["enc.0.w"].value[:] = np.eye(1)
    model.params["enc.0.b"].value[:] = 0.0
    model.params["dec.0.w"].value[:] = np.eye(1)
    model.params["dec.0.b"].value[:] = 0.0
    for level, cb in enumerate(codebooks):
        model.params[f"codebook.{level}"].value[:] = np.asarray(cb, dtype=float).reshape(-1, 1)
    return model


class TestEncode:
    def test_zero_weight_encoder_outputs_bias(self):
        cfg = RqVaeConfig(levels=1, codebook_size=2, input_dim=3, latent_dim=2, hidden_sizes=())
        model = RqVaeModel.initialize(cfg)
        model.params["enc.0.w"].value[:] = 0.0
        model.params["enc.0.b"].value[:] = [1.5, -2.0]
        np.testing.assert_array_equal(encode(model, [[9.0, 9.0, 9.0]]), [[1.5, -2.0]])

    def test_identity_configuration_passes_input_through(self):
        model = scalar_identity_model([[-1.0, 1.0]])
        assert encode(model, [[0.8]])[0, 0] == 0.8

    def test_frozen_encode_is_deterministic(self):
        cfg = RqVaeConfig(levels=2, codebook_size=4, input_dim=5, latent_dim=3, seed=2)
        model = RqVaeModel.initialize(cfg)
        model.frozen = True
        x = np.random.default_rng(0).normal(size=(1, 5))
        assert np.array_equal(encode(model, x), encode(model, x))

    @pytest.mark.parametrize("call", [encode, loss])
    def test_single_vector_rejected(self, call):
        cfg = RqVaeConfig(levels=1, codebook_size=2, input_dim=3, latent_dim=2)
        with pytest.raises(T.DimensionError):
            call(RqVaeModel.initialize(cfg), [1.0, 2.0, 3.0])

    def test_dimension_mismatch(self):
        cfg = RqVaeConfig(levels=1, codebook_size=2, input_dim=4, latent_dim=2)
        with pytest.raises(T.DimensionError):
            encode(RqVaeModel.initialize(cfg), [[1.0, 2.0]])


class TestQuantize:
    def test_two_level_hand_case(self):
        model = scalar_identity_model([[-1.0, 1.0], [-0.25, 0.25]])
        codes, residuals, quantized = quantize_batch(model, [[0.8]])
        assert codes.tolist() == [[1, 0]]
        assert quantized[0, 0] == 0.75
        assert residuals[0][0, 0] == 0.8

    def test_exact_codeword_with_zero_deeper_level(self):
        model = scalar_identity_model([[-1.0, 1.0], [0.0, 0.5]])
        codes, residuals, _ = quantize_batch(model, [[1.0]])
        assert codes[0, 0] == 1
        assert residuals[1][0, 0] == 0.0
        assert codes[0, 1] == 0  # the zero codeword absorbs a zero residual
        assert residuals[2][0, 0] == 0.0

    def test_tie_breaks_to_smallest_index(self):
        model = scalar_identity_model([[1.0, -1.0]])
        codes, _, _ = quantize_batch(model, [[0.0]])
        assert codes.tolist() == [[0]]

    def test_greedy_matches_exhaustive_per_level_search(self):
        rng = np.random.default_rng(7)
        for k, levels, dim in itertools.product((2, 3, 4), (1, 2), (1, 2)):
            cfg = RqVaeConfig(levels=levels, codebook_size=k, input_dim=dim, latent_dim=dim,
                              hidden_sizes=())
            model = RqVaeModel.initialize(cfg)
            for cb in model.codebooks:
                cb.value[:] = rng.normal(size=cb.value.shape)
            for _ in range(20):
                z = rng.normal(size=(1, dim))
                codes, _, _ = quantize_batch(model, z)
                r = list(z[0])
                for level, cb in enumerate(model.codebooks):
                    expect = nearest_index_bruteforce(cb.value.tolist(), r)
                    assert codes[0, level] == expect
                    r = [a - b for a, b in zip(r, cb.value[expect])]

    def test_telescoping_identity(self):
        cfg = RqVaeConfig(levels=3, codebook_size=5, input_dim=4, latent_dim=4, seed=3)
        model = RqVaeModel.initialize(cfg)
        rng = np.random.default_rng(4)
        z = rng.normal(size=(50, 4))
        codes, residuals, quantized = quantize_batch(model, z)
        np.testing.assert_array_equal(z - residuals[-1], quantized)
        # and the telescoped value agrees with the summed codewords
        summed = sum(model.codebooks[l].value[codes[:, l]] for l in range(3))
        np.testing.assert_allclose(quantized, summed, rtol=0, atol=1e-12)

    def test_greedy_property_no_closer_codeword(self):
        cfg = RqVaeConfig(levels=2, codebook_size=6, input_dim=3, latent_dim=3, seed=5)
        model = RqVaeModel.initialize(cfg)
        rng = np.random.default_rng(6)
        for _ in range(40):
            codes, residuals, _ = quantize_batch(model, rng.normal(size=(1, 3)))
            for level, cb in enumerate(model.codebooks):
                chosen = np.linalg.norm(cb.value[codes[0, level]] - residuals[level][0])
                dists = np.linalg.norm(cb.value - residuals[level][0], axis=1)
                assert chosen <= dists.min() + 1e-15

    def test_codes_ignore_decoder_parameters(self):
        cfg = RqVaeConfig(levels=2, codebook_size=4, input_dim=3, latent_dim=2, seed=8)
        model = RqVaeModel.initialize(cfg)
        x = np.random.default_rng(9).normal(size=(1, 3))
        before, _, _ = quantize_batch(model, encode(model, x))
        for name, p in model.params.items():
            if name.startswith("dec."):
                p.value[:] = 123.0
        after, _, _ = quantize_batch(model, encode(model, x))
        np.testing.assert_array_equal(before, after)


class TestLoss:
    def test_hand_case_arithmetic(self):
        model = scalar_identity_model([[-1.0, 1.0], [-0.25, 0.25]])
        parts = evaluate_loss(model, [[0.8]])
        assert parts["reconstruction"] == pytest.approx(0.0025, abs=1e-15)
        assert parts["commitment"] == pytest.approx(0.0425, abs=1e-15)
        assert float(loss(model, [[0.8]]).total.value) == pytest.approx(0.06625, abs=1e-15)

    def test_perfectly_representable_input_has_zero_loss(self):
        model = scalar_identity_model([[-1.0, 1.0], [0.0, 0.5]])
        parts = loss(model, [[1.0]])
        assert float(parts.total.value) == 0.0

    def test_codeword_gradient_is_two_times_error(self):
        # isolated unweighted term: d/dv ||sg(r) - v||^2 = 2 (v - r)
        rng = np.random.default_rng(10)
        cb = T.parameter(rng.normal(size=(4, 3)))
        r = rng.normal(size=(1, 3))
        picked = T.gather_groups(cb, [[2]])
        term = T.squared_distance(T.constant(r), picked)
        T.backward(term)
        expected = np.zeros((4, 3))
        expected[2] = 2.0 * (cb.value[2] - r[0])
        np.testing.assert_allclose(cb.grad, expected, rtol=1e-12)
        fd = fd_grad(lambda: float(T.squared_distance(T.constant(r), T.gather_groups(cb, [[2]])).value), cb.value)
        assert_grads_close(cb.grad, fd)

    def test_stop_gradient_routing(self):
        # the loss value is NOT what the gradients differentiate: the
        # commitment half must treat codewords as constants and the
        # codeword half must treat residuals as constants. Verify both
        # against oracles built from the frozen quantization state.
        cfg = RqVaeConfig(levels=2, codebook_size=3, input_dim=4, latent_dim=3, seed=11)
        model = RqVaeModel.initialize(cfg)
        x = np.random.default_rng(12).normal(size=(5, 4))
        n = x.shape[0]
        beta = cfg.commitment_weight

        from semidlab.rqvae import quantize_batch as qb

        base_z = ref.mlp_np(model, "enc", x)
        codes, residuals, quantized = qb(model, base_z)
        offset = quantized - base_z
        cums = []
        cum = np.zeros_like(base_z)
        for level, cb in enumerate(model.codebooks):
            cum = cum + cb.value[codes[:, level]]
            cums.append(cum.copy())

        parts = loss(model, x)
        T.zero_grads(model.params.values())
        T.backward(parts.total)

        # codebook rows see only 2(v - r)/n from their own examples
        for level, cb in enumerate(model.codebooks):
            expected = np.zeros_like(cb.value)
            for i, c in enumerate(codes[:, level]):
                expected[c] += 2.0 * (cb.value[c] - residuals[level][i]) / n
            np.testing.assert_allclose(cb.grad, expected, rtol=1e-12, atol=1e-15)

        # encoder gradient equals the finite difference of the surrogate
        # objective in which codes, codewords, and the straight-through
        # offset stay pinned at the base point
        w = model.params["enc.0.w"]

        def surrogate():
            z = ref.mlp_np(model, "enc", x)
            xhat = ref.mlp_np(model, "dec", z + offset)
            val = ((x - xhat) ** 2).sum()
            for cum in cums:
                val += beta * ((z - cum) ** 2).sum()
            return val / n

        fd = fd_grad(surrogate, w.value, h=1e-6)
        assert_grads_close(w.grad, fd, rtol=1e-4, floor=1e-7)

        # decoder gradient is reconstruction-only: FD of the same surrogate
        # with respect to a decoder weight must match too
        wd = model.params["dec.0.w"]
        fd_dec = fd_grad(surrogate, wd.value, h=1e-6)
        assert_grads_close(wd.grad, fd_dec, rtol=1e-4, floor=1e-7)

    def test_loss_rejected_on_frozen_model(self):
        model = scalar_identity_model([[-1.0, 1.0]])
        model.frozen = True
        with pytest.raises(FrozenModelError):
            loss(model, [[0.5]])


class TestTrain:
    def test_reconstruction_improves_on_hierarchical_data(self):
        emb, _, _ = gmm_hierarchy_embeddings(1500, 8, (4, 4, 4), (1.0, 0.5, 0.25, 0.1), seed=13)
        cfg = RqVaeConfig(levels=2, codebook_size=8, input_dim=8, latent_dim=4,
                          epochs=8, batch_size=128, learning_rate=2e-3, seed=13)
        model = RqVaeModel.initialize(cfg)
        curve = train(model, emb)
        assert model.frozen
        assert len(curve) == cfg.epochs + 1
        assert curve[-1]["reconstruction"] < 0.5 * curve[0]["reconstruction"]

    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(14)
        emb = np.concatenate([rng.normal(-3, 0.1, (40, 2)), rng.normal(3, 0.1, (40, 2))])
        cfg = RqVaeConfig(levels=1, codebook_size=2, input_dim=2, latent_dim=2,
                          epochs=1, batch_size=80, learning_rate=0.0, seed=14)
        model = RqVaeModel.initialize(cfg)
        # train() itself runs codebook init, so snapshot against a twin
        twin = RqVaeModel.initialize(cfg)
        train(model, emb)
        train(twin, emb)
        for name in model.params:
            assert np.array_equal(model.params[name].value, twin.params[name].value)
        # and encoder/decoder equal their fresh initialization
        fresh = RqVaeModel.initialize(cfg)
        for name in model.params:
            if not name.startswith("codebook."):
                assert np.array_equal(model.params[name].value, fresh.params[name].value)

    def test_same_seed_identical_final_codebooks(self):
        emb, _, _ = gmm_hierarchy_embeddings(400, 6, (2, 2, 2), (1.0, 0.5, 0.25, 0.1), seed=15)
        cfg = RqVaeConfig(levels=2, codebook_size=4, input_dim=6, latent_dim=3,
                          epochs=3, batch_size=64, seed=15)
        a = RqVaeModel.initialize(cfg)
        b = RqVaeModel.initialize(cfg)
        train(a, emb)
        train(b, emb)
        for l in range(2):
            assert np.array_equal(a.codebooks[l].value, b.codebooks[l].value)

    def test_too_few_embeddings_rejected(self):
        cfg = RqVaeConfig(levels=1, codebook_size=64, input_dim=2, latent_dim=2)
        with pytest.raises(RqVaeConfigError):
            train(RqVaeModel.initialize(cfg), np.zeros((10, 2)))

    @pytest.mark.parametrize("bad", ["1-D", "3-D", "narrow", "wide", "nan", "inf"])
    def test_malformed_embeddings_rejected_before_kmeans(self, bad, monkeypatch):
        cfg = RqVaeConfig(levels=1, codebook_size=4, input_dim=3, latent_dim=2)
        emb = np.random.default_rng(21).normal(size=(40, 3))
        if bad in ("nan", "inf"):
            emb[17, 1] = np.nan if bad == "nan" else -np.inf
        else:
            emb = {"1-D": emb[:, 0], "3-D": emb[None], "narrow": emb[:, :2], "wide": np.hstack([emb, emb])}[bad]

        def no_kmeans(*args):
            raise AssertionError("k-means ran on malformed embeddings")

        monkeypatch.setattr("semidlab.rqvae._kmeans", no_kmeans)
        model = RqVaeModel.initialize(cfg)
        with pytest.raises(RqVaeConfigError):
            train(model, emb)
        assert not model.frozen

    def test_training_frozen_model_rejected(self):
        model = scalar_identity_model([[-1.0, 1.0]])
        model.frozen = True
        with pytest.raises(FrozenModelError):
            train(model, np.zeros((5, 1)))


class TestAssign:
    def _frozen_model(self, seed=16):
        cfg = RqVaeConfig(levels=3, codebook_size=4, input_dim=5, latent_dim=3, seed=seed)
        model = RqVaeModel.initialize(cfg)
        model.frozen = True
        return model

    def test_duplicate_embeddings_share_codes(self):
        model = self._frozen_model()
        emb = np.random.default_rng(17).normal(size=5)
        table, errors = assign(model, {1: emb, 2: emb.copy(), 3: emb + 1.0})
        assert not errors
        assert table[1] == table[2]

    def test_bad_embeddings_become_per_item_errors(self):
        model = self._frozen_model()
        good = np.zeros(5)
        table, errors = assign(model, {1: good, 2: np.zeros(4), 3: np.full(5, np.nan)})
        assert set(table) == {1}
        assert set(errors) == {2, 3}

    def test_assign_requires_frozen(self):
        cfg = RqVaeConfig(levels=1, codebook_size=2, input_dim=2, latent_dim=2)
        with pytest.raises(FrozenModelError):
            assign(RqVaeModel.initialize(cfg), {1: np.zeros(2)})

    def test_stable_across_checkpoint_round_trip(self, tmp_path):
        emb, _, _ = gmm_hierarchy_embeddings(600, 8, (4, 2, 2), (1.0, 0.5, 0.25, 0.1), seed=18)
        cfg = RqVaeConfig(levels=2, codebook_size=8, input_dim=8, latent_dim=4,
                          epochs=3, batch_size=128, seed=18)
        model = RqVaeModel.initialize(cfg)
        train(model, emb)
        items = {i: emb[i] for i in range(100)}
        before, _ = assign(model, items)
        save_rqvae(tmp_path / "rq.ckpt", model, meta={"seed": 18})
        loaded, meta = load_rqvae(tmp_path / "rq.ckpt")
        assert loaded.frozen and meta["seed"] == 18
        after, _ = assign(loaded, items)
        assert before == after

    @pytest.mark.parametrize("change", ["shape", "missing", "unexpected"])
    def test_load_rejects_mismatched_parameters(self, tmp_path, change):
        cfg = RqVaeConfig(levels=2, codebook_size=4, input_dim=5, latent_dim=3, seed=20)
        save_rqvae(tmp_path / "rq.ckpt", RqVaeModel.initialize(cfg), meta={"seed": 20})
        params, meta = load_checkpoint(tmp_path / "rq.ckpt")
        if change == "shape":
            params["codebook.0"] = params["codebook.0"][:1]  # (1, d) would broadcast into (K, d)
        elif change == "missing":
            del params["codebook.1"]
        else:
            params["codebook.2"] = np.zeros((4, 3))
        save_checkpoint(tmp_path / "bad.ckpt", params, meta=meta)
        with pytest.raises(CheckpointError):
            load_rqvae(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("change", ["missing", "not_a_mapping", "unknown_field"])
    def test_load_rejects_missing_or_unknown_config(self, tmp_path, change):
        cfg = RqVaeConfig(levels=2, codebook_size=4, input_dim=5, latent_dim=3, seed=20)
        save_rqvae(tmp_path / "rq.ckpt", RqVaeModel.initialize(cfg))
        params, meta = load_checkpoint(tmp_path / "rq.ckpt")
        if change == "missing":
            del meta["rqvae_config"]
        elif change == "not_a_mapping":
            meta["rqvae_config"] = [1, 2]
        else:
            meta["rqvae_config"]["latent_width"] = 3
        save_checkpoint(tmp_path / "bad.ckpt", params, meta=meta)
        with pytest.raises(CheckpointError, match="rqvae_config"):
            load_rqvae(tmp_path / "bad.ckpt")

    def test_top_level_purity_on_hierarchical_corpus(self):
        emb, top, _ = gmm_hierarchy_embeddings(2000, 8, (4, 4, 4), (1.0, 0.4, 0.2, 0.08), seed=19)
        cfg = RqVaeConfig(levels=2, codebook_size=8, input_dim=8, latent_dim=4,
                          epochs=6, batch_size=128, seed=19)
        model = RqVaeModel.initialize(cfg)
        train(model, emb)
        table, _ = assign(model, {i: emb[i] for i in range(len(emb))})
        purity = cluster_purity([table[i][0] for i in range(len(emb))], top)
        assert purity >= 0.9


class TestSemanticIdTableFile:
    def test_round_trip(self, tmp_path):
        mapping = {97: (1, 2, 3), 5: (0, 0, 0), 12: (7, 1, 4)}
        save_semid_table(tmp_path / "semid.tsv", mapping, {"config_hash": "h", "seed": "1"})
        loaded, meta = load_semid_table(tmp_path / "semid.tsv")
        assert loaded == mapping
        assert meta["config_hash"] == "h"

    def test_file_holds_ascending_int64_ids_and_their_codes(self, tmp_path):
        save_semid_table(tmp_path / "semid.bin", {97: (1, 2, 3), -5: (0, 0, 0), 2**63 - 1: (7, 1, 4)}, {})
        arrays, _ = load_checkpoint(tmp_path / "semid.bin")
        assert sorted(arrays) == ["codes", "raw_ids"]
        assert arrays["raw_ids"].dtype == np.int64
        assert arrays["codes"].dtype == np.uint8
        assert arrays["raw_ids"].tolist() == [-5, 97, 2**63 - 1]
        assert arrays["codes"].tolist() == [[0, 0, 0], [1, 2, 3], [7, 1, 4]]

    # codebook size K -> dtype of codes up to K - 1, the narrowest unsigned one
    @pytest.mark.parametrize("k,dtype", [(64, np.uint8), (256, np.uint8), (257, np.uint16), (65_537, np.uint32)])
    def test_codes_round_trip_in_the_narrowest_unsigned_dtype(self, tmp_path, k, dtype):
        rng = np.random.default_rng(k)
        table = {i: tuple(rng.integers(0, k, size=4).tolist()) for i in range(50)}
        table[50] = (k - 1, 0, k - 1, 1)
        path = tmp_path / "semid.bin"
        save_semid_table(path, table, {"k": k})
        arrays, _ = load_checkpoint(path)
        assert arrays["codes"].dtype == dtype
        loaded, meta = load_semid_table(path)
        assert loaded == table and meta == {"k": k}
        assert all(type(c) is int for codes in loaded.values() for c in codes)

    def test_int64_codes_written_before_narrow_ones_still_load(self, tmp_path):
        path = tmp_path / "semid.bin"
        save_checkpoint(path, {"raw_ids": self.IDS, "codes": self.CODES}, meta={"seed": 1})
        assert load_checkpoint(path)[0]["codes"].dtype == np.int64
        assert load_semid_table(path) == ({-4: (1, 2), 5: (0, 0), 9: (3, 1)}, {"seed": 1})

    def test_codes_that_overflow_int64_raise(self, tmp_path):
        # a uint64 code at 2^63 would not come back as an int64 value
        path = tmp_path / "semid.bin"
        codes = np.array([[1, 2], [0, 2**63], [3, 1]], dtype=np.uint64)
        save_checkpoint(path, {"raw_ids": self.IDS, "codes": codes}, meta={})
        with pytest.raises(CheckpointError, match="does not fit in int64"):
            load_semid_table(path)

    def test_codes_wider_than_their_declared_dtype_raise(self, tmp_path):
        # eight-byte codes under a one-byte dtype leave bytes after the payload
        path = tmp_path / "semid.bin"
        save_checkpoint(path, {"raw_ids": self.IDS, "codes": self.CODES}, meta={})
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"dtype":"<i8","name":"codes"', b'"dtype":"|u1","name":"codes"'))
        assert path.read_bytes() != data
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_semid_table(path)

    def test_negative_code_raises_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "semid.bin"
        with pytest.raises(RqVaeConfigError, match="must not be negative"):
            save_semid_table(path, {0: (1, 2), 7: (0, -1)}, {})
        assert not path.exists()

    def test_empty_table_round_trips(self, tmp_path):
        save_semid_table(tmp_path / "semid.bin", {}, {"seed": 1})
        assert load_semid_table(tmp_path / "semid.bin") == ({}, {"seed": 1})

    def test_text_table_file_raises(self, tmp_path):
        # the layout the text writer used: raw ID, comma-separated codes
        path = tmp_path / "semid.tsv"
        write_table(path, "semid_table", {"seed": 1}, ["raw_id", "codes"], [["5", "1,2,3"], ["9", "0,0,1"]])
        with pytest.raises(CheckpointError, match="bad magic"):
            load_semid_table(path)

    IDS = np.array([-4, 5, 9], dtype=np.int64)
    CODES = np.array([[1, 2], [0, 0], [3, 1]], dtype=np.int64)

    @pytest.mark.parametrize("arrays,match", [
        ({"raw_ids": IDS, "codes": CODES.astype(np.float64)}, "'codes' is float64"),
        ({"raw_ids": IDS.astype(np.float64), "codes": CODES}, "'raw_ids' is float64"),
        ({"raw_ids": IDS[:2], "codes": CODES}, "length N is 2 in 'raw_ids' but 3 in 'codes'"),
        ({"raw_ids": IDS, "codes": CODES[:2]}, "length N is 3 in 'raw_ids' but 2 in 'codes'"),
        ({"raw_ids": IDS}, r"missing \['codes'\]"),
        ({"codes": CODES}, r"missing \['raw_ids'\]"),
        ({"raw_ids": IDS, "codes": CODES, "levels": IDS}, r"unexpected \['levels'\]"),
        ({"raw_ids": IDS[:, None], "codes": CODES}, "'raw_ids' has shape"),
        ({"raw_ids": IDS, "codes": CODES.ravel()}, "'codes' has shape"),
        ({"raw_ids": np.array([-4, 5, 5]), "codes": CODES}, "not strictly ascending"),
        ({"raw_ids": np.array([9, 5, -4]), "codes": CODES}, "not strictly ascending"),
    ])
    def test_malformed_arrays_raise(self, tmp_path, arrays, match):
        save_checkpoint(tmp_path / "semid.bin", arrays, meta={"seed": 1})
        with pytest.raises(CheckpointError, match=match):
            load_semid_table(tmp_path / "semid.bin")

    @pytest.mark.parametrize("table", [{1: (0, 1), 2: (0,)}, {1: (), 2: (3,)}, {1: (0, 1, 2), 2: (0, 1), 3: (4, 5, 6)}])
    def test_ragged_codes_raise_before_the_file_is_opened(self, tmp_path, table):
        path = tmp_path / "semid.bin"
        with pytest.raises(RqVaeConfigError, match="differ in length"):
            save_semid_table(path, table, {})
        assert not path.exists()

    @pytest.mark.parametrize("codes", [(0, 0.5), (1.0, 2.0), (0, 2**63), (0, -(2**63) - 1), (0, 2**70)])
    def test_code_that_is_not_an_int64_raises_before_the_file_is_opened(self, tmp_path, codes):
        path = tmp_path / "semid.bin"
        with pytest.raises(RqVaeConfigError, match="integers inside int64"):
            save_semid_table(path, {0: (1, 2), 7: codes}, {})
        assert not path.exists()

    @pytest.mark.parametrize("raw_id", [2**63, -(2**63) - 1, 2**70])
    def test_id_outside_int64_raises_before_the_file_is_opened(self, tmp_path, raw_id):
        path = tmp_path / "semid.bin"
        with pytest.raises(RqVaeConfigError, match="int64"):
            save_semid_table(path, {0: (1, 2), raw_id: (3, 4)}, {})
        assert not path.exists()


int64_ids = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**62, 2**63 - 2, 2**63 - 1]),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), levels=st.integers(1, 5))
def test_semid_table_round_trips(tmp_path_factory, data, levels):
    codes = st.tuples(*[st.integers(0, 2**16)] * levels)
    table = data.draw(st.dictionaries(int64_ids, codes, max_size=40))
    path = tmp_path_factory.mktemp("semid") / "semid.bin"
    meta = {"config_hash": "abc", "seed": data.draw(int64_ids)}
    save_semid_table(path, table, meta)
    loaded, loaded_meta = load_semid_table(path)
    assert loaded == table and loaded_meta == meta
    assert list(loaded) == sorted(table)
    assert all(type(i) is int and all(type(c) is int for c in loaded[i]) for i in loaded)


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("epochs", -1), ("latent_dim", 0), ("input_dim", 0), ("hidden_sizes", (0,)),
    ("hidden_sizes", (4, -2)), ("kmeans_iters", -1), ("learning_rate", -1e-3), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("learning_rate", -0.0), ("commitment_weight", float("nan")),
    ("commitment_weight", float("inf")), ("optimizer", "adamw"), ("optimizer", "Adam"), ("optimizer", ["adam"]),
])
def test_config_rejects_empty_or_negative_sizes(field, value):
    with pytest.raises(RqVaeConfigError):
        RqVaeConfig(**{field: value})


def test_config_keeps_zero_epochs_iterations_and_learning_rate():
    cfg = RqVaeConfig(epochs=0, kmeans_iters=0, learning_rate=0.0, hidden_sizes=())
    assert (cfg.epochs, cfg.kmeans_iters, cfg.learning_rate, cfg.hidden_sizes) == (0, 0, 0.0, ())
