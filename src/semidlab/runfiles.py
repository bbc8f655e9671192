"""Shared helpers for text run artifacts: config hashing, headers, tables.

Prediction dumps are the only text tables: tab-separated, with a string
``segment`` column. A dump embeds the experiment config hash and seed in
`#`-prefixed header lines so downstream stages can refuse mismatched
inputs. Writers serialize floats with Python's shortest round-trip repr,
which parses back bit-exactly. Text that would not read back as written
(see ``write_table``) is refused before the file is opened. Numeric
arrays (model parameters, item, user and Semantic ID tables, event
streams) go into the binary container of ``checkpoint``.
"""

from __future__ import annotations

import hashlib
import json
import re

# a tab splits a field, a newline or carriage return ends a line, and the
# first "=" of a header line ends its meta key; a key "columns: ..."
# would read back as the columns line
_FIELD_BREAK = re.compile(r"[\t\n\r]")
_KEY_BREAK = re.compile(r"[\t\n\r=]|^columns: ")


class ArtifactMismatchError(ValueError):
    """An input artifact is foreign or malformed, or belongs to a different config or seed."""


def config_hash(config_dict) -> str:
    """Stable short hash of a JSON-serializable config mapping."""
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def header_lines(kind: str, meta: dict) -> list[str]:
    lines = [f"# semidlab {kind} v1"]
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    return lines


def _check_text(path, what: str, texts, breaks=_FIELD_BREAK) -> None:
    for text in texts:
        found = breaks.search(text)
        if found:
            raise ArtifactMismatchError(f"{path}: {what} {text!r} holds {found.group()!r} and would not read back")


def write_table(path, kind: str, meta: dict, columns, rows) -> None:
    """Write a line-delimited table with header comments; tab-separated.

    A column name, field, meta key or meta value holding a tab, newline
    or carriage return, or a meta key holding ``=`` or starting with
    ``columns: ``, raises ArtifactMismatchError before the file is opened.
    """
    _check_text(path, "meta key", map(str, meta), _KEY_BREAK)
    _check_text(path, "meta value", map(str, meta.values()))
    _check_text(path, "column name", columns)
    rows = list(rows)
    # one search over all fields at once; the per-field scan names the culprit
    if _FIELD_BREAK.search("".join(map("".join, rows))):
        for row in rows:
            _check_text(path, "field", row)
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines(kind, meta):
            fh.write(line + "\n")
        fh.write("# columns: " + "\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def read_table(path, kind: str):
    """Read a table written by ``write_table``; returns (meta, columns, rows).

    Raises ArtifactMismatchError on a foreign header or on a row (every
    line after the ``# columns:`` line) whose field count differs from it.
    """
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    in_header = True
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        expected = f"# semidlab {kind} v1"
        if first != expected:
            raise ArtifactMismatchError(f"{path}: expected header {expected!r}, got {first!r}")
        for line in fh:
            line = line.rstrip("\n")
            if in_header and line.startswith("# columns: "):
                columns = line[len("# columns: ") :].split("\t")
                in_header = False
            elif in_header and line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif line or not in_header:
                row = line.split("\t")
                if len(row) != len(columns):
                    raise ArtifactMismatchError(
                        f"{path}: row {len(rows) + 1} has {len(row)} fields, expected {len(columns)} columns"
                    )
                rows.append(row)
    return meta, columns, rows


def field_error(path, columns, rows, parsers) -> ArtifactMismatchError:
    """The error naming the file, row and column of the first field its
    column's parser rejects, for a reader whose own parse raised ValueError."""
    for number, row in enumerate(rows, start=1):
        for column, parse, text in zip(columns, parsers, row):
            try:
                parse(text)
            except ValueError as exc:
                return ArtifactMismatchError(f"{path}: row {number}, column {column!r}: {exc}")
    return ArtifactMismatchError(f"{path}: a row does not parse")


def check_same_run(path_a, meta_a: dict, path_b, meta_b: dict) -> None:
    """Refuse to combine artifacts from different configs or seeds."""
    for key in ("config_hash", "seed"):
        if str(meta_a.get(key)) != str(meta_b.get(key)):
            raise ArtifactMismatchError(
                f"{key} mismatch: {path_a} has {meta_a.get(key)!r}, {path_b} has {meta_b.get(key)!r}"
            )
