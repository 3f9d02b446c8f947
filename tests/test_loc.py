"""tools/loc.py counts code lines only: no blank, comment or docstring lines."""

import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"


def load_loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """not a docstring,
    but a value"""

    def f(self):
        """Function docstring."""
        return (
            1
        )
'''


def test_counted_lines_skip_blanks_comments_and_docstrings():
    # import, class, x's two lines, def, and the three lines of the return
    assert load_loc().counted_lines(SOURCE) == 8


def test_the_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# c\ny = 2\n", encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text('"""Doc."""\nz = 3\n', encoding="utf-8")
    assert load_loc().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert [line.split() for line in lines if line] == [
        ["2", "a.py"],
        ["1", "pkg/b.py"],
        ["3", "total"],
    ]
