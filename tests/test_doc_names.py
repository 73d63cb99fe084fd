"""Docstrings, comments and the README cite only names that exist.

A private name (_name) quoted in a docstring or a comment under
src/kerrcasimir must be defined somewhere in the package: a function,
class, method, assigned name or attribute, or parameter. So must a
called snake_case name there whose first part has two or more letters
(semi_infinite_nodes(m), not c_j(x, x')), unless it is a Python
builtin, and a name qualified by a package module (quadrature.name)
must be an attribute of that module. A backticked
identifier in README.md (a dotted name, maybe called, as in
`Temperature.zero()`) must be a kerrcasimir attribute (bare, or
qualified by its module or class), a parameter or field of a public
callable, a CLI key, subcommand or CSV column (an identifier-shaped
string of cli.py), a Python builtin or the name of a file in the
repository. A deleted helper or public name then cannot outlive its
code in the prose that explains it.
"""

import ast
import builtins
import dataclasses
import importlib
import inspect
import io
import pathlib
import re
import tokenize

import kerrcasimir

PACKAGE = pathlib.Path(kerrcasimir.__file__).parent
ROOT = PACKAGE.parents[1]
# _name after a space, bracket, quote, backtick, comma or dot (a
# module-qualified name): not math subscripts such as sum'_n, (x)_r, ||_F
CITED = re.compile(r"(?<![^\s(\[{`.,\"])_[A-Za-z]\w*")


def _defined_and_cited(source):
    defined, texts = _defined_and_texts(source)
    return defined, {name for text in texts for name in CITED.findall(text)}


def _defined_and_texts(source):
    # the names the source defines, and its docstrings and comments
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
    return defined, texts


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


# a called public snake_case name: name(, not .name(, _name( or c_j(
CALLED = re.compile(r"(?<![\w.])([a-z]{2,}(?:_[a-z0-9]+)+)\(")
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if path.stem != "__init__")
# a name qualified by a package module: quadrature.name
QUALIFIED = re.compile(r"(?<![\w.])(%s)\.([A-Za-z_]\w*)" % "|".join(MODULES))


def _package_texts():
    defined, texts = set(dir(builtins)), []
    for path in sorted(PACKAGE.glob("*.py")):
        names, found = _defined_and_texts(path.read_text(encoding="utf-8"))
        defined |= names
        texts += [(path.name, text) for text in found]
    return defined, texts


def test_cited_calls_exist():
    defined, texts = _package_texts()
    called = {(name, where) for where, text in texts
              for name in CALLED.findall(text)}
    assert called  # the scan does see the called names
    assert sorted(pair for pair in called if pair[0] not in defined) == []


def test_module_qualified_names_resolve():
    _, texts = _package_texts()
    cited = {(module, attr, where) for where, text in texts
             for module, attr in QUALIFIED.findall(text)}
    assert len(cited) >= 3  # the scan does see the qualified names
    assert sorted(
        (module, attr, where) for module, attr, where in cited
        if not hasattr(importlib.import_module("kerrcasimir." + module),
                       attr)) == []


def test_call_and_module_scans():
    text = ("semi_infinite_nodes(m, s), c_j(x, x'), np.exp(-x), _rule(m), "
            "sum_(1 <= n), is_constant, Li_3(r) and quadrature._gone or "
            "quadrature.matsubara_sum; not np.quadrature.x")
    assert CALLED.findall(text) == ["semi_infinite_nodes"]
    assert QUALIFIED.findall(text) == [("quadrature", "_gone"),
                                       ("quadrature", "matsubara_sum")]


def test_scan_reads_docstrings_and_comments():
    source = ('"""Uses _kept and quadrature._gone_a."""\n'
              "def _kept(x):  # see (_gone_b) and sum'_n, (x)_r, ||a||_F\n"
              '    """Not `_gone_c`."""\n')
    defined, cited = _defined_and_cited(source)
    assert "_kept" in defined
    assert cited == {"_kept", "_gone_a", "_gone_b", "_gone_c"}


# a backticked dotted name, maybe called: not flags, commands or paths
README_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?`")


def _signature_names(obj):
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return set()


def _known_names():
    # every name a README identifier may be, files aside
    names = {"kerrcasimir"} | set(dir(builtins))
    for path in PACKAGE.glob("*.py"):
        module = (kerrcasimir if path.stem == "__init__" else
                  importlib.import_module("kerrcasimir." + path.stem))
        for attr, obj in vars(module).items():
            names |= {attr, "%s.%s" % (path.stem, attr)}
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                for member in dir(obj):
                    names |= {member, "%s.%s" % (attr, member)}
    for name in kerrcasimir.__all__:
        obj = getattr(kerrcasimir, name)
        names |= _signature_names(obj)
        if isinstance(obj, type):
            for member in vars(obj):
                names |= _signature_names(getattr(obj, member))
        if dataclasses.is_dataclass(obj):
            names |= {field.name for field in dataclasses.fields(obj)}
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names |= {node.value for node in ast.walk(cli)
              if isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()}
    return names


def test_readme_names_exist():
    cited = set(README_NAME.findall(
        (ROOT / "README.md").read_text(encoding="utf-8")))
    assert len(cited) >= 40  # the scan does see the cited names
    files = {path.name for path in ROOT.rglob("*") if ".git" not in path.parts}
    known = _known_names()
    assert sorted(name for name in cited
                  if name not in known and name not in files) == []


def test_readme_scan_reads_dotted_and_called_names():
    text = ("`a.b()` and `--gap 1e-8`, `src/`, `c` and `d(x, y)`, "
            "`key = value`, `e.py`")
    assert README_NAME.findall(text) == ["a.b", "c", "d", "e.py"]
    known = _known_names()
    assert {"Temperature.zero", "quadrature.matsubara_sum", "rel_tol",
            "n_evals", "err_lin", "verify", "ValueError"} <= known
    assert "double_matsubara_sum" not in known
