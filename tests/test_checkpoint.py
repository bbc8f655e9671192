"""Container entries with a dtype: int64, float64 and unsigned arrays, files
without the field, the checks on what a model may load, named lengths,
and the memory that reading and writing in place takes."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from semidlab.checkpoint import MAGIC, CheckpointError, check_arrays, load_checkpoint, save_checkpoint
from semidlab.ranker import RankerConfig, RankerModel, load_ranker, save_ranker
from semidlab.rqvae import RqVaeConfig, RqVaeModel, assign, load_rqvae, save_rqvae
from semidlab.tokenization import RandomHash


def write_without_dtype(path, params, meta):
    """A container as written before entries had a ``dtype``: float64 only."""
    entries = [{"name": name, "shape": list(np.shape(v))} for name, v in params.items()]
    header = json.dumps({"version": 1, "meta": meta, "params": entries}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", len(header)) + header)
        for value in params.values():
            fh.write(np.asarray(value, dtype="<f8").tobytes())


def header_of(path) -> dict:
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12 : 12 + n])


def test_entries_record_their_dtype(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"ids": np.array([1, 2], dtype=np.int32), "w": np.ones(2), "flags": np.array([True])})
    assert [e["dtype"] for e in header_of(path)["params"]] == ["<i8", "<f8", "<f8"]
    loaded, _ = load_checkpoint(path)
    assert loaded["ids"].dtype == np.int64 and loaded["ids"].tolist() == [1, 2]
    assert loaded["flags"].dtype == np.float64 and loaded["flags"].tolist() == [1.0]


def test_unsigned_arrays_keep_their_dtype(tmp_path):
    arrays = {
        "u1": np.array([0, 255], dtype=np.uint8),
        "u2": np.array([[256, 65535]], dtype=np.uint16),
        "u4": np.array([65536, 2**32 - 1], dtype=np.uint32),
        "u8": np.array([2**64 - 1], dtype=np.uint64),
    }
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, arrays)
    assert [e["dtype"] for e in header_of(path)["params"]] == ["|u1", "<u2", "<u4", "<u8"]
    assert path.stat().st_size == 12 + struct.unpack("<I", path.read_bytes()[8:12])[0] + 2 + 4 + 8 + 8
    loaded, _ = load_checkpoint(path)
    for name, value in arrays.items():
        assert loaded[name].dtype == value.dtype and loaded[name].tobytes() == value.tobytes()
    check_arrays(path, loaded, {"u1": (("|u1", "<i8"), (2,)), "u2": ("<u2", (1, 2)), "u4": ("<u4", (2,)),
                                "u8": ("<u8", (1,))})
    with pytest.raises(CheckpointError, match="'u2' is uint16, expected uint8 or int64"):
        check_arrays(path, loaded, {"u1": ("|u1", (2,)), "u2": (("|u1", "<i8"), (1, 2)), "u4": ("<u4", (2,)),
                                    "u8": ("<u8", (1,))})


def test_int64_ids_round_trip_exactly(tmp_path):
    ids = np.array([2**62, -(2**62), 2**63 - 1, -(2**63), 2**62 + 1, 0], dtype=np.int64)
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"ids": ids, "x": np.array([-0.0, 5e-324])})
    loaded, _ = load_checkpoint(path)
    assert loaded["ids"].dtype == np.int64
    assert loaded["ids"].tolist() == ids.tolist()
    assert loaded["x"].tobytes() == np.array([-0.0, 5e-324]).tobytes()
    loaded["ids"][0] = 5  # arrays come back writable, not as views of the file


def test_file_without_dtype_loads_as_float64(tmp_path):
    cfg = RqVaeConfig(levels=2, codebook_size=4, input_dim=5, latent_dim=3, seed=25)
    model = RqVaeModel.initialize(cfg)
    model.frozen = True
    path = tmp_path / "old.ckpt"
    write_without_dtype(path, {n: p.value for n, p in model.params.items()},
                        {"rqvae_config": cfg.to_dict(), "frozen": True})
    assert all("dtype" not in e for e in header_of(path)["params"])
    params, _ = load_checkpoint(path)
    assert all(v.dtype == np.float64 for v in params.values())
    loaded, _ = load_rqvae(path)
    for name, p in model.params.items():
        assert loaded.params[name].value.tobytes() == p.value.tobytes()
    items = {i: np.random.default_rng(i).normal(size=5) for i in range(20)}
    assert assign(loaded, items) == assign(model, items)


@pytest.mark.parametrize("dtype", ["<i4", "<f4", ">f8", "float64", None])
def test_unknown_dtype_raises(tmp_path, dtype):
    header = json.dumps(
        {"version": 1, "meta": {}, "params": [{"name": "w", "shape": [2], "dtype": dtype}]}
    ).encode("utf-8")
    path = tmp_path / "c.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + bytes(16))
    with pytest.raises(CheckpointError, match="dtype"):
        load_checkpoint(path)


def test_model_rejects_an_int64_parameter(tmp_path):
    cfg = RqVaeConfig(levels=2, codebook_size=4, input_dim=5, latent_dim=3, seed=26)
    save_rqvae(tmp_path / "rq.ckpt", RqVaeModel.initialize(cfg))
    params, meta = load_checkpoint(tmp_path / "rq.ckpt")
    params["codebook.0"] = np.zeros((4, 3), dtype=np.int64)  # right shape, wrong type
    save_checkpoint(tmp_path / "bad.ckpt", params, meta=meta)
    with pytest.raises(CheckpointError, match="codebook.0"):
        load_rqvae(tmp_path / "bad.ckpt")


@pytest.mark.parametrize("shape", [
    [2**32, 2**32],  # 2^64 entries: a product in int64 wraps to 0
    [2**62, 4],
    [0, 2**62],  # empty, but numpy cannot shape it
    [2**63],
])
def test_shape_too_large_raises(tmp_path, shape):
    header = json.dumps({"version": 1, "meta": {}, "params": [{"name": "w", "shape": shape}]}).encode("utf-8")
    path = tmp_path / "c.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(CheckpointError, match="too large"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [[2.5], [2.0], [True, 2], ["2"], [None], [[2]], "12"])
def test_non_integer_shape_entry_raises(tmp_path, shape):
    header = json.dumps(
        {"version": 1, "meta": {}, "params": [{"name": "w", "shape": shape, "dtype": "<f8"}]}
    ).encode("utf-8")
    path = tmp_path / "c.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + bytes(16))
    with pytest.raises(CheckpointError, match="non-integer dimension"):
        load_checkpoint(path)


def replace_meta(path, meta) -> None:
    """Rewrite a container's header with ``meta`` in place of its own."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + n])
    header["meta"] = meta
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(new)) + new + raw[12 + n :])


@pytest.mark.parametrize("meta", [[], ["rqvae_config"], None, "frozen", 3])
def test_meta_that_is_not_an_object_raises(tmp_path, meta):
    rq_path, ranker_path = tmp_path / "rq.ckpt", tmp_path / "ranker.ckpt"
    save_rqvae(rq_path, RqVaeModel.initialize(RqVaeConfig(input_dim=4, latent_dim=2, hidden_sizes=(3,))))
    lookup = RandomHash(8, seed=1)
    save_ranker(ranker_path, RankerModel.initialize(RankerConfig(d_m=2, history_length=2, top_mlp=(2,)), lookup, lookup))
    for path in (rq_path, ranker_path):
        replace_meta(path, meta)
        with pytest.raises(CheckpointError, match="header meta is .*, expected an object"):
            load_checkpoint(path)
    with pytest.raises(CheckpointError, match="header meta"):
        load_rqvae(rq_path)
    with pytest.raises(CheckpointError, match="header meta"):
        load_ranker(ranker_path, lookup, lookup)


def test_loaded_arrays_are_writable_copies_equal_to_the_saved_ones(tmp_path):
    rng = np.random.default_rng(3)
    saved = {
        "w": rng.normal(size=(5, 3)),
        "ids": np.array([-(2**63), 0, 2**62 + 1], dtype=np.int64),
        "empty": np.zeros((0, 4)),
        "scalar": np.array(2.5),
    }
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, saved)
    loaded, _ = load_checkpoint(path)
    assert list(loaded) == list(saved)
    for name, want in saved.items():
        got = loaded[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert got.flags.writeable and got.flags.c_contiguous and got.dtype.isnative, name
    loaded["w"][0, 0] = 7.0
    loaded["ids"][1] = 5
    again, _ = load_checkpoint(path)
    assert again["w"].tobytes() == saved["w"].tobytes()
    assert again["ids"].tobytes() == saved["ids"].tobytes()


EXPECTED = {"ids": ("<i8", ("N",)), "rows": ("<f8", ("N", 3)), "pairs": ("<i8", (None, "N"))}


def test_named_lengths_hold_across_arrays():
    arrays = {"ids": np.zeros(4, dtype=np.int64), "rows": np.zeros((4, 3)), "pairs": np.zeros((7, 4), dtype=np.int64)}
    check_arrays("f", arrays, EXPECTED)
    check_arrays("f", {n: a[..., :0] if n == "pairs" else a[:0] for n, a in arrays.items()}, EXPECTED)


@pytest.mark.parametrize("name, value, match", [
    ("rows", np.zeros((5, 3)), "f: length N is 4 in 'ids' but 5 in 'rows'"),
    ("pairs", np.zeros((4, 3), dtype=np.int64), "f: length N is 4 in 'ids' but 3 in 'pairs'"),
    ("rows", np.zeros((4, 2)), r"f: 'rows' has shape \(4, 2\), expected \('N', 3\)"),
    ("pairs", np.zeros(4, dtype=np.int64), "'pairs' has shape"),
], ids=["named-rows", "named-columns", "fixed-width", "rank"])
def test_arrays_that_disagree_on_a_named_length_raise(name, value, match):
    arrays = {"ids": np.zeros(4, dtype=np.int64), "rows": np.zeros((4, 3)), "pairs": np.zeros((7, 4), dtype=np.int64)}
    arrays[name] = value
    with pytest.raises(CheckpointError, match=match):
        check_arrays("f", arrays, EXPECTED)


def traced_peak(fn) -> int:
    """Peak bytes that ``fn()`` allocates while it runs, numpy buffers included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def big_arrays() -> dict:
    rng = np.random.default_rng(4)
    return {"table": rng.normal(size=(20_000, 16)), "ids": np.arange(200_000, dtype=np.int64), "scalar": np.array(1.5)}


def test_save_writes_each_array_from_its_own_buffer(tmp_path):
    arrays = big_arrays()
    payload = sum(a.nbytes for a in arrays.values())
    assert payload >= 4e6
    path = tmp_path / "big.ckpt"
    assert traced_peak(lambda: save_checkpoint(path, arrays, meta={"seed": 1})) <= 0.1 * payload
    assert path.stat().st_size > payload


def test_load_reads_each_array_into_its_own_buffer(tmp_path):
    arrays = big_arrays()
    payload = sum(a.nbytes for a in arrays.values())
    path = tmp_path / "big.ckpt"
    save_checkpoint(path, arrays, meta={"seed": 1})
    loaded = []
    assert traced_peak(lambda: loaded.append(load_checkpoint(path))) <= 1.1 * payload
    params, meta = loaded[0]
    assert meta == {"seed": 1} and params["scalar"].shape == ()
    assert all(params[n].tobytes() == a.tobytes() for n, a in arrays.items())


def test_a_payload_the_file_lacks_raises_before_any_allocation(tmp_path):
    # the header declares 8 TiB; the file holds 64 bytes of payload
    header = json.dumps({"version": 1, "meta": {}, "params": [{"name": "w", "shape": [2**40], "dtype": "<f8"}]})
    path = tmp_path / "c.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header.encode("utf-8") + bytes(64))

    def load():
        with pytest.raises(CheckpointError, match="truncated payload at parameter 'w'"):
            load_checkpoint(path)

    assert traced_peak(load) < 1e6
