"""The code-line counter that reports the size of ``src/`` (tests/code_lines.py)."""

import os
import subprocess
import sys

from code_lines import PACKAGE, code_lines

SNIPPET = '''\
"""Module docstring
over two lines."""

import os  # a trailing comment keeps the line


def f(a,
      b):
    """Function docstring."""
    # a comment on its own line
    total = a + \\
        b
    text = """a string that is
not a docstring"""
    return total, text
'''


def test_counts_code_lines_of_a_snippet():
    # code: the import, both lines of the def, both lines of the continued
    # sum, both lines of the string and the return; not the docstrings,
    # the comment line or the blank lines
    assert code_lines(SNIPPET) == 8


def test_prints_each_module_and_the_total():
    out = subprocess.run([sys.executable, os.path.join(os.path.dirname(__file__),
                                                       "code_lines.py")],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    modules = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))
    assert [row[0] for row in rows] == [*modules, "total"]
    assert sum(int(row[3]) for row in rows[:-1]) == int(rows[-1][3])
    assert sum(int(row[1]) for row in rows[:-1]) == int(rows[-1][1])
