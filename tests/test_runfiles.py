"""Run artifacts. An event stream and a Semantic ID table, kept in the
binary container, must hold exactly the arrays, lengths and values their
readers expect. A prediction dump, the one text table, must carry the
expected columns, a row must have as many fields as the ``# columns:``
line, and every field must parse and lie in range."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidlab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from semidlab.corpus import (
    CorpusConfig,
    CorpusConfigError,
    ImpressionEvent,
    generate_items,
    load_events,
    save_events,
    save_items,
)
from semidlab.ranker import PREDICTION_COLUMNS, PredictionRecord, load_predictions, save_predictions
from semidlab.rqvae import load_semid_table, save_semid_table
from semidlab.runfiles import ArtifactMismatchError, check_same_run, read_table, write_table
from oracles import semid_table
from test_corpus import int64_values

EVENTS = [
    ImpressionEvent(0, 10, 3, 2**62, 1, ()),
    ImpressionEvent(1, 20, 4, 17, 0, ((2**62, 10),)),
]


def change_events(path, change) -> None:
    """Rewrite an events container with ``change`` applied to its arrays."""
    arrays, meta = load_checkpoint(path)
    change(arrays)
    save_checkpoint(path, arrays, meta=meta)


def set_entry(name, index, value):
    def change(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value
    return change


OLD_TEXT_EVENTS = (
    "# semidlab events v1\n# seed=1\n# columns: event_id\ttimestamp\tuser_id\titem_id\tlabel\thistory\n"
    "0\t10\t3\t17\t1\t-\n"
)


# EVENTS holds N = 2 events and E = 1 history row
@pytest.mark.parametrize("damage, message", [
    (lambda p: p.write_bytes(p.read_bytes()[:-8]), "truncated payload at parameter 'history'"),
    (lambda p: p.write_bytes(p.read_bytes() + bytes(8)), "trailing bytes"),
    (lambda p: change_events(p, lambda a: a.pop("history")), r"missing \['history'\]"),
    (lambda p: change_events(p, lambda a: a.update(label=a["label"].astype(float))), "'label' is float64"),
    (lambda p: change_events(p, lambda a: a.update(user_id=a["user_id"][:1])), "length N is 2 in 'event_id' but 1 in 'user_id'"),
    (lambda p: change_events(p, set_entry("history_length", slice(None), [-1, 2])), "negative history length -1"),
    (lambda p: change_events(p, set_entry("history_length", 1, 0)), "history lengths sum to 0, not 1"),
    (lambda p: change_events(p, set_entry("history_length", 0, 1)), "history lengths sum to 2, not 1"),
    (lambda p: change_events(p, set_entry("label", 1, 2)), r"labels must be 0 or 1, got \[2\]"),
    (lambda p: save_items(p, generate_items(CorpusConfig(n_items=5)), {"seed": 1}), "array names differ"),
    (lambda p: p.write_text(OLD_TEXT_EVENTS, encoding="utf-8"), "bad magic"),
], ids=[
    "truncated", "trailing-bytes", "missing-history", "float-column", "unequal-lengths", "negative-length",
    "lengths-sum-short", "lengths-sum-long", "label-2", "items-file", "old-text-format",
])
def test_malformed_event_container_raises(tmp_path, damage, message):
    path = tmp_path / "events.bin"
    save_events(path, EVENTS, {"seed": 1})
    assert load_events(path) == (EVENTS, {"seed": 1})
    damage(path)
    with pytest.raises(CheckpointError, match=message):
        load_events(path)


@pytest.mark.parametrize("event", [
    ImpressionEvent(0, 2**63, 3, 17, 1, ()),
    ImpressionEvent(0, 10, 3, -(2**63) - 1, 1, ()),
    ImpressionEvent(0, 10, 3, 17, 1, ((17, 1.5),)),
    ImpressionEvent(0, 10, 3, 17, 1, ((17, "10"),)),
], ids=["timestamp-2**63", "item-below-int64", "float-in-history", "string-in-history"])
def test_event_value_outside_int64_raises_before_the_file_opens(tmp_path, event):
    path = tmp_path / "events.bin"
    with pytest.raises(CorpusConfigError, match="int64"):
        save_events(path, [event], {"seed": 1})
    assert not path.exists()


def test_save_events_takes_any_iterable(tmp_path):
    save_events(tmp_path / "events.bin", iter(EVENTS), {"seed": 1})
    assert load_events(tmp_path / "events.bin")[0] == EVENTS


def set_last_row_field(path, column: int, text: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[-1].split("\t")
    fields[column] = text
    lines[-1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


RECORDS = [PredictionRecord(0, 1, 0.25, 7), PredictionRecord(1, 0, 0.5, 2**62)]


@pytest.mark.parametrize("column, name, text", [
    (2, "prediction", "abc"), (1, "label", "x"), (3, "item_id", "1.5"),
    (1, "label", "3"), (2, "prediction", "nan"), (2, "prediction", "1.5"), (2, "prediction", "-0.5"),
])
def test_prediction_field_that_does_not_parse_raises(tmp_path, column, name, text):
    path = tmp_path / "predictions.tsv"
    save_predictions(path, RECORDS, {"seed": 1})
    assert load_predictions(path)[0] == RECORDS
    set_last_row_field(path, column, text)
    with pytest.raises(ArtifactMismatchError, match=f"predictions.tsv: row 2, column '{name}'"):
        load_predictions(path)


@pytest.mark.parametrize("columns", [
    ["event_id", "label"],
    ["label", "event_id", "prediction", "item_id", "segment"],
    ["event_id", "label", "prediction", "item_id"],
], ids=["two-columns", "label-and-event-id-swapped", "no-segment"])
def test_prediction_dump_with_other_columns_raises(tmp_path, columns):
    path = tmp_path / "predictions.tsv"
    write_table(path, "predictions", {"seed": 1}, columns, [["1", "0", "0.5", "7", "-"][: len(columns)]])
    with pytest.raises(ArtifactMismatchError) as info:
        load_predictions(path)
    assert str(columns) in str(info.value) and str(PREDICTION_COLUMNS) in str(info.value)


def test_check_same_run_compares_metas_as_strings(tmp_path):
    """An events container keeps JSON types and a prediction dump reads
    back strings; one run's two metas still agree."""
    meta = {"config_hash": "abc", "seed": 1}
    save_events(tmp_path / "events.bin", EVENTS, meta)
    save_predictions(tmp_path / "predictions.tsv", RECORDS, meta)
    events_meta = load_events(tmp_path / "events.bin")[1]
    dump_meta = load_predictions(tmp_path / "predictions.tsv")[1]
    assert (events_meta["seed"], dump_meta["seed"]) == (1, "1")
    check_same_run(tmp_path / "events.bin", events_meta, tmp_path / "predictions.tsv", dump_meta)


@pytest.mark.parametrize("key, other", [("config_hash", "abd"), ("seed", 2)])
def test_check_same_run_refuses_another_run(tmp_path, key, other):
    save_events(tmp_path / "events.bin", EVENTS, {"config_hash": "abc", "seed": 1})
    save_predictions(tmp_path / "predictions.tsv", RECORDS, {"config_hash": "abc", "seed": 1} | {key: other})
    events_meta = load_events(tmp_path / "events.bin")[1]
    dump_meta = load_predictions(tmp_path / "predictions.tsv")[1]
    with pytest.raises(ArtifactMismatchError, match=f"{key} mismatch") as info:
        check_same_run(tmp_path / "events.bin", events_meta, tmp_path / "predictions.tsv", dump_meta)
    assert str(tmp_path / "events.bin") in str(info.value) and str(tmp_path / "predictions.tsv") in str(info.value)


PROBABILITY_EDGES = [0.0, 1.0, 5e-324, 1e-310, 2.2250738585072009e-308, 1.0 - 2**-53, 1e-7, 1.0 - 1e-7]


@st.composite
def prediction_dumps(draw):
    n = draw(st.integers(0, 10))
    return [
        PredictionRecord(
            draw(int64_values),
            draw(st.sampled_from([0, 1])),
            draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(PROBABILITY_EDGES))),
            draw(int64_values),
        )
        for _ in range(n)
    ]


@settings(max_examples=60, deadline=None)
@given(records=prediction_dumps(), seed=int64_values, segment=st.sampled_from(["head", "torso", "tail"]))
def test_prediction_dump_round_trips_every_field(tmp_path_factory, records, seed, segment):
    path = tmp_path_factory.mktemp("predictions") / "predictions.tsv"
    tags = {r.event_id: segment for r in records}
    save_predictions(path, records, {"config_hash": "abc", "seed": seed}, tags)
    loaded, meta = load_predictions(path)
    assert meta == {"config_hash": "abc", "seed": str(seed)}
    assert [(r.event_id, r.label, r.prediction.hex(), r.item_id) for r in loaded] == [
        (r.event_id, r.label, r.prediction.hex(), r.item_id) for r in records
    ]
    # the segment column is written, and not read back into the records
    assert [row[-1] for row in read_table(path, "predictions")[2]] == [segment] * len(records)


def test_truncated_semid_row_raises(tmp_path):
    path = tmp_path / "semid.bin"
    save_semid_table(path, semid_table({5: (1, 2, 3), 9: (0, 0, 1)}), {"seed": 1})
    path.write_bytes(path.read_bytes()[:-1])  # the last row loses its last one-byte code
    with pytest.raises(CheckpointError, match="truncated payload at parameter 'codes'"):
        load_semid_table(path)


def test_extra_field_raises(tmp_path):
    path = tmp_path / "semid.bin"
    save_semid_table(path, semid_table({5: (1, 2, 3)}), {"seed": 1})
    with open(path, "ab") as fh:
        fh.write(struct.pack("<q", 9))
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_semid_table(path)


def test_row_without_columns_line_raises(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# semidlab things v1\n# seed=1\na\tb\n", encoding="utf-8")
    with pytest.raises(ArtifactMismatchError, match="expected 0 columns"):
        read_table(path, "things")


def test_well_formed_table_reads_back(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, "things", {"seed": 1}, ["a", "b"], [["1", "x"], ["2", ""]])
    assert read_table(path, "things") == ({"seed": "1"}, ["a", "b"], [["1", "x"], ["2", ""]])


# text that would not read back as written is refused before the file opens
@pytest.mark.parametrize("meta, columns, rows, match", [
    ({"seed": "1\n# config_hash=zzz"}, ["a"], [["1"]], "meta value"),
    ({"seed": "1\r"}, ["a"], [["1"]], "meta value"),
    ({"seed": "a\tb"}, ["a"], [["1"]], "meta value"),
    ({"a=b": 1}, ["a"], [["1"]], "meta key 'a=b' holds '='"),
    ({"a\nb": 1}, ["a"], [["1"]], "meta key"),
    ({"seed": 1}, ["a\tb"], [["1"]], "column name"),
    ({"seed": 1}, ["a", "b"], [["1", "x"], ["2", "y\tz"]], "field 'y\\\\tz' holds"),
    ({"seed": 1}, ["a"], [["x\ny"]], "field"),
    ({"seed": 1}, ["a"], [["x\r"]], "field"),
], ids=[
    "meta-value-newline", "meta-value-return", "meta-value-tab", "meta-key-equals", "meta-key-newline",
    "column-tab", "field-tab", "field-newline", "field-return",
])
def test_text_that_would_not_read_back_raises_before_the_file_opens(tmp_path, meta, columns, rows, match):
    path = tmp_path / "t.tsv"
    with pytest.raises(ArtifactMismatchError, match=match):
        write_table(path, "things", meta, columns, iter(rows))
    assert not path.exists()


def test_segment_tag_with_a_tab_is_refused(tmp_path):
    path = tmp_path / "predictions.tsv"
    with pytest.raises(ArtifactMismatchError, match="field 'he\\\\tad'"):
        save_predictions(path, RECORDS, {"config_hash": "abc", "seed": 1}, {1: "he\tad"})
    assert not path.exists()


def test_meta_holding_a_header_line_cannot_pass_for_another_run(tmp_path):
    path = tmp_path / "predictions.tsv"
    with pytest.raises(ArtifactMismatchError, match="meta value"):
        save_predictions(path, RECORDS, {"seed": "1\n# config_hash=zzz"})
    assert not path.exists()


def test_equals_and_spaces_in_meta_values_and_fields_read_back(tmp_path):
    path = tmp_path / "t.tsv"
    meta, rows = {"seed": "a=b c", "note": "# x"}, [["1 2", "=", ""]]
    write_table(path, "things", meta, ["a", "b c", "d"], rows)
    assert read_table(path, "things") == (meta, ["a", "b c", "d"], rows)
