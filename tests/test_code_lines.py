"""The code-line counter in tools/ skips comments, docstrings and blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_counts_only_lines_with_code(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('''"""Module
docstring."""

# a comment
x = 1  # code with a comment


def f():
    """One docstring."""
    text = """a string
that is not a docstring"""
    return text


class C:
    """Class
    docstring."""

    y = 2
''', encoding="utf-8")
    # x = 1; def f; text = (two lines); return; class C; y = 2
    assert code_lines.code_lines(source) == 7
