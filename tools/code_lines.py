"""Count the code lines of a Python package: lines that hold code, per module and in total.

A line counts when some token of code lies on it: blank lines, comment lines
and the lines of docstrings (the leading string of a module, class or
function) do not.  Run as

    python tools/code_lines.py src/oklim

which prints one ``name lines`` row per module, largest first, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(source):
    """The number of lines of ``source`` that hold code outside its docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skip:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: python tools/code_lines.py PACKAGE_DIR")
    counts = {path.stem: code_lines(path.read_text()) for path in Path(argv[0]).glob("*.py")}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")


if __name__ == "__main__":
    main(sys.argv[1:])
