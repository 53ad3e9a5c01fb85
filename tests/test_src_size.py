"""``tools/src_size.py`` against a small hand-counted package, and its
total against ``wc -l`` style counting on this checkout."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "src_size.py"

# 16 lines, 5 of them code: the import, ``class``, ``def`` and the two
# lines of the returned string, which is no docstring.
MODULE = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment is still code

# A comment line.


class Thing:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return ("""a string that is no docstring
spans lines""")
'''


def run_tool(root):
    proc = subprocess.run([sys.executable, str(TOOL), "--root", str(root)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_counts_code_lines_outside_docstrings_and_comments(tmp_path):
    package = tmp_path / "src" / "georep"
    package.mkdir(parents=True)
    (package / "a.py").write_text(MODULE, encoding="utf-8")
    (package / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    (tmp_path / "src" / "other.py").write_text("y = 2\n", encoding="utf-8")
    # a.py's 5 code lines and b.py's 1; other.py is outside the package.
    assert run_tool(tmp_path) == "src/georep: 18 lines, 6 code lines\n"


def test_the_total_is_the_newline_count_of_the_package():
    files = sorted((REPO / "src" / "georep").glob("*.py"))
    total = sum(path.read_bytes().count(b"\n") for path in files)
    head, code = run_tool(REPO).split(" lines, ")
    assert head == f"src/georep: {total}"
    assert 0 < int(code.split()[0]) < total
