import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# module, class, function and async-function docstrings, comments, blank
# lines, a multi-line string that is not a docstring, a bare string after
# the first statement and continued statements; the code lines are marked
SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment: code


# a comment on its own line
class Thing:
    """Class docstring."""

    def method(self):
        """Function
        docstring."""
        text = """a string
spanning two lines"""
        return (text +
                os.sep)


async def later():
    \'\'\'Async docstring.\'\'\'
    total = 1 + \\
        2
    "a bare string, not first in its body"
    return total
'''
CODE = {4, 8, 11, 14, 15, 16, 17, 20, 22, 23, 24, 25}


def test_code_lines_of_a_synthetic_module():
    lines = SOURCE.splitlines()
    assert len(lines) == 25 and lines[24] == "    return total"
    assert code_lines.code_lines(SOURCE) == len(CODE)
    assert code_lines.code_lines("") == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(SOURCE, encoding="utf-8")
    (package / "sub" / "b.py").write_text('"""Doc."""\n\nx = 1\n', encoding="utf-8")
    (package / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{len(CODE):6d}  {package / 'a.py'}",
        f"{1:6d}  {package / 'sub' / 'b.py'}",
        f"{len(CODE) + 1:6d}  total",
    ]
    # a module named by itself
    assert code_lines.main([str(package / "sub" / "b.py")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{1:6d}  total"
