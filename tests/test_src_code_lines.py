"""Tests for scripts/src_code_lines.py on small synthetic sources."""

import importlib.util
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_code_lines.py"
_spec = importlib.util.spec_from_file_location("src_code_lines", SCRIPT)
src_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_code_lines)

# eight code lines: the import, the constant, the two lines of the string
# literal that is not a docstring, the class line, the def line, the return
# and the assignment after a trailing comment
SOURCE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    import math  # a trailing comment keeps the line

    # a comment line
    LIMIT = 3
    TEXT = """a string literal
    that is code"""


    class Box:
        """Class docstring."""

        def area(self):
            """Function
            docstring."""
            return math.pi
    x = 1  # trailing
    ''')


def test_counts_code_but_not_blanks_comments_or_docstrings():
    assert src_code_lines.code_lines(SOURCE) == 8


def test_comment_and_docstring_edits_leave_the_count():
    edited = (SOURCE.replace('"""Class docstring."""', '"""Class docstring,\n    longer."""')
              .replace("# a comment line", "# a comment\n# on two lines"))
    assert edited.count("\n") == SOURCE.count("\n") + 2
    assert src_code_lines.code_lines(edited) == 8


def test_main_sums_the_files(tmp_path, capsys):
    paths = []
    for name in ("a.py", "b.py"):
        path = tmp_path / name
        path.write_text(SOURCE)
        paths.append(str(path))
    assert src_code_lines.main(paths) == 0
    assert capsys.readouterr().out == "16\n"


def test_main_counts_the_python_files_of_a_directory(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(SOURCE)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text(SOURCE)
    assert src_code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "16\n"
