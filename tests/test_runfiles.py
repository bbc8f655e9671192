"""Text tables: a row must have as many fields as the ``# columns:`` line,
and every field must parse. A Semantic ID table, kept in the binary container, must hold exactly
the payload its header describes."""

import struct

import pytest

from semidlab.checkpoint import CheckpointError
from semidlab.corpus import ImpressionEvent, load_events, save_events
from semidlab.ranker import PredictionRecord, load_predictions, save_predictions
from semidlab.rqvae import load_semid_table, save_semid_table
from semidlab.runfiles import ArtifactMismatchError, read_table, write_table

EVENTS = [
    ImpressionEvent(0, 10, 3, 2**62, 1, ()),
    ImpressionEvent(1, 20, 4, 17, 0, ((2**62, 10),)),
]


def cut_last_row(path, fields: int) -> None:
    """Keep only the first ``fields`` tab-separated fields of the last row."""
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = "\t".join(lines[-1].split("\t")[:fields])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("fields", [1, 3, 5])
def test_truncated_event_row_raises(tmp_path, fields):
    path = tmp_path / "events.tsv"
    save_events(path, EVENTS, {"seed": 1})
    assert load_events(path)[0] == EVENTS
    cut_last_row(path, fields)
    with pytest.raises(ArtifactMismatchError, match=f"row 2 has {fields} fields, expected 6"):
        load_events(path)


def set_last_row_field(path, column: int, text: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[-1].split("\t")
    fields[column] = text
    lines[-1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("column, name, text", [
    (4, "label", "x"), (5, "history", "5"), (5, "history", "3:x"), (0, "event_id", ""),
])
def test_event_field_that_does_not_parse_raises(tmp_path, column, name, text):
    path = tmp_path / "events.tsv"
    save_events(path, EVENTS, {"seed": 1})
    set_last_row_field(path, column, text)
    with pytest.raises(ArtifactMismatchError, match=f"events.tsv: row 2, column '{name}'"):
        load_events(path)


@pytest.mark.parametrize("column, name, text", [(2, "prediction", "abc"), (1, "label", "x"), (3, "item_id", "1.5")])
def test_prediction_field_that_does_not_parse_raises(tmp_path, column, name, text):
    path = tmp_path / "predictions.tsv"
    records = [PredictionRecord(0, 1, 0.25, 7), PredictionRecord(1, 0, 0.5, 2**62)]
    save_predictions(path, records, {"seed": 1})
    assert load_predictions(path)[0] == records
    set_last_row_field(path, column, text)
    with pytest.raises(ArtifactMismatchError, match=f"predictions.tsv: row 2, column '{name}'"):
        load_predictions(path)


def test_truncated_semid_row_raises(tmp_path):
    path = tmp_path / "semid.bin"
    save_semid_table(path, {5: (1, 2, 3), 9: (0, 0, 1)}, {"seed": 1})
    path.write_bytes(path.read_bytes()[:-8])  # the last row loses its last code
    with pytest.raises(CheckpointError, match="truncated payload at parameter 'codes'"):
        load_semid_table(path)


def test_extra_field_raises(tmp_path):
    path = tmp_path / "semid.bin"
    save_semid_table(path, {5: (1, 2, 3)}, {"seed": 1})
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
