"""The demos import only names that the package provides.

Every demo runs its physics at import time, so the scripts are parsed
with ast; the quick material sweep also runs end to end.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_material_sweep_demo_runs():
    # ten zero-temperature Kerr coefficients
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos"
                                               / "material_sweep.py")],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "closed form at eps_nl = 1" in proc.stdout


def test_operator_identities_demo_runs():
    # the identity table: a header and one pass/FAIL line per row
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos"
                                               / "operator_identities.py")],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines()
            if line.split()[-1:] in (["pass"], ["FAIL"])]
    assert len(rows) == 10
