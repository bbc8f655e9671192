"""``tools/count_lines.py``: which lines count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps the line

# a comment line


class Thing:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that
        spans lines"""
        return (math.pi,
                text)
'''


def test_docstrings_comments_and_blanks_are_not_code():
    # code: import, class, def, the two lines of ``text`` and the two of the return
    assert count_lines.count(SOURCE) == (18, 7)


def test_every_module_is_counted_with_a_total(capsys, tmp_path):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    count_lines.main(["count_lines.py", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "physical", "code"], ["a", "18", "7"], ["b", "2", "1"], ["total", "20", "8"]]
