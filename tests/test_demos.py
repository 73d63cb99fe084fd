"""The demos import only names that the package provides.

Every demo runs its physics at import time, so the scripts are parsed
with ast and never executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "kerrcasimir"
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), \
            "%s imports %s.%s, which does not exist" % (path.name, module,
                                                         name)
