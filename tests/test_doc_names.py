"""Docstrings and comments cite only private names that exist.

A private name (_name) quoted in a docstring or a comment under
src/kerrcasimir must be defined somewhere in the package: a function,
class, method, assigned name or attribute, or parameter. A deleted
helper then cannot outlive its code in the prose that explains it.
"""

import ast
import io
import pathlib
import re
import tokenize

import kerrcasimir

PACKAGE = pathlib.Path(kerrcasimir.__file__).parent
# _name after a space, bracket, quote, backtick, comma or dot (a
# module-qualified name): not math subscripts such as sum'_n, (x)_r, ||_F
CITED = re.compile(r"(?<![^\s(\[{`.,\"])_[A-Za-z]\w*")


def _defined_and_cited(source):
    tree = ast.parse(source)
    defined, texts = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
            texts.append(ast.get_docstring(node, clean=False) or "")
    texts += [tok.string for tok in tokenize.generate_tokens(
        io.StringIO(source).readline) if tok.type == tokenize.COMMENT]
    return defined, {name for text in texts for name in CITED.findall(text)}


def test_cited_private_names_exist():
    defined, cited = set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        names, quoted = _defined_and_cited(path.read_text(encoding="utf-8"))
        defined |= names
        for name in quoted:
            cited.setdefault(name, []).append(path.name)
    assert len(cited) >= 20  # the scan does see the cited names
    stale = {name: files for name, files in cited.items()
             if name not in defined}
    assert stale == {}


def test_scan_reads_docstrings_and_comments():
    source = ('"""Uses _kept and quadrature._gone_a."""\n'
              "def _kept(x):  # see (_gone_b) and sum'_n, (x)_r, ||a||_F\n"
              '    """Not `_gone_c`."""\n')
    defined, cited = _defined_and_cited(source)
    assert "_kept" in defined
    assert cited == {"_kept", "_gone_a", "_gone_b", "_gone_c"}
