import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a code line

# a comment line


def f(x):
    """One-line docstring."""
    total = (x +
             1)
    text = """a string that is
    an operand, not a docstring"""
    return total, text


class C:
    """Class docstring."""

    "a bare string statement is skipped too"
    y = 1
'''


def test_fixture_counts_only_code():
    # import, def, the two lines of total, the two of text, return, class, y
    assert code_lines.code_lines(FIXTURE) == 9


def test_empty_and_comment_only_sources():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("# only a comment\n\n") == 0


def test_directory_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert result.stdout == "10\n"
