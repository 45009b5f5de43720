"""tools/code_lines.py counts the lines that hold code: not blank, not a
comment alone, not inside a module, class or function docstring."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment line


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,
        over two lines."""
        return math.pi


async def fetch():
    """Async function docstring."""
    text = """a string that is
not a docstring"""
    return text
'''


def test_counts_only_code_lines():
    # import, class, def area, return, async def, the two lines of text,
    # return text
    assert code_lines.code_lines(SNIPPET) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# comment\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["8", str(tmp_path / "a.py")],
        ["1", str(tmp_path / "b.py")],
        ["9", "total"],
    ]
