"""Count the lines and the code lines of each module of ``src/swarmauth``.

A code line is a physical line that holds a token of a statement: blank
lines, lines that hold only a comment and the lines of a module, class or
function docstring are not code lines. Each line of a statement continued
over several lines is a code line.

Run from the repository root:

    python tests/code_lines.py
"""

import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "swarmauth")

# tokens that are layout or comment, not part of a statement
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    total_lines = total_code = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            source = fh.read()
        n_lines, n_code = len(source.splitlines()), code_lines(source)
        total_lines += n_lines
        total_code += n_code
        print(f"{name:16} {n_lines:5} lines {n_code:5} code")
    print(f"{'total':16} {total_lines:5} lines {total_code:5} code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
