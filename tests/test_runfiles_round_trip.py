"""Text tables read back exactly what ``write_table`` wrote, or the
writer refuses before it opens the file: every line after the
``# columns:`` line is a row, and a meta key cannot pass for the
columns line."""

import pytest

from semidlab.runfiles import ArtifactMismatchError, read_table, write_table


def test_meta_key_that_starts_like_the_columns_line_is_refused(tmp_path):
    path = tmp_path / "t.tsv"
    with pytest.raises(ArtifactMismatchError, match="meta key"):
        write_table(path, "t", {"columns: x": 1}, ["a"], [["b"]])
    assert not path.exists()


def test_row_of_one_empty_field_reads_back(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, "t", {"seed": 1}, ["a"], [[""], ["b"], [""]])
    assert read_table(path, "t") == ({"seed": "1"}, ["a"], [[""], ["b"], [""]])


def test_row_that_starts_like_a_meta_line_reads_back(tmp_path):
    path = tmp_path / "t.tsv"
    rows = [["# k=v", "1"], ["2", "3"], ["# columns: x", "4"]]
    write_table(path, "t", {"seed": 1}, ["a", "b"], rows)
    assert read_table(path, "t") == ({"seed": "1"}, ["a", "b"], rows)
