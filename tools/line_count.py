"""Count the lines of each module of the kerrcasimir package by kind.

Run from a checkout:

    python3 tools/line_count.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the checkout's own src/kerrcasimir; give another
checkout's to compare two trees. For each module, and for the package
in all, the script prints the total lines and how many of them are
code, docstring, comment and blank. A line of a module, class or
function docstring counts as docstring; a line that holds a comment and
no code as comment; a line with no token (empty or whitespace) as
blank; every other line as code, a code line with a trailing comment
and every line a multi-line code token spans included. It uses the
standard library only (ast and tokenize).
"""

import ast
import io
import pathlib
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def line_kinds(source):
    """One entry of KINDS per line of the Python source."""
    n_lines = len(source.splitlines())
    kinds = ["blank"] * n_lines
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        rows = range(tok.start[0] - 1, min(tok.end[0], n_lines))
        if tok.type == tokenize.COMMENT:
            kinds[tok.start[0] - 1] = "comment"
        elif tok.type not in _LAYOUT:
            code.update(rows)
    for row in code:
        kinds[row] = "code"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                for row in range(first.lineno - 1, first.end_lineno):
                    kinds[row] = "docstring"
    return kinds


def main():
    package = (pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else
               pathlib.Path(__file__).resolve().parents[1] / "src"
               / "kerrcasimir")
    rows = []
    for path in sorted(package.glob("*.py")):
        kinds = line_kinds(path.read_text(encoding="utf-8"))
        rows.append((path.name, len(kinds))
                    + tuple(kinds.count(kind) for kind in KINDS))
    rows.append(("total",) + tuple(map(sum, list(zip(*rows))[1:])))
    print("%-22s %6s" % ("module", "total")
          + "".join(" %9s" % kind for kind in KINDS))
    for row in rows:
        print("%-22s %6d" % row[:2] + "".join(" %9d" % n for n in row[2:]))


if __name__ == "__main__":
    main()
