"""tools/sweep_diff.py on two small synthetic bit sweeps."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _result(value, error, n_evals=64, converged=True):
    return [value.hex(), error.hex(), n_evals, converged]


def test_sweep_diff_reports_moves_work_outcomes_and_entries(tmp_path):
    a = {"results": {"linear/a": _result(1.0, 1e-9),
                     "linear/b": _result(2.0, 1e-9),
                     "i_nl/a": _result(4.0, 1e-12),
                     "i_nl/b": _result(8.0, 0.0, 16),
                     "i_nl/c": "raises MaterialError",
                     "gone/a": _result(1.0, 0.0)},
         "cli": {"pressure": {"exit": 0, "stdout": "1\n", "stderr": ""},
                 "verify": {"exit": 0, "stdout": "2\n", "stderr": ""}},
         "lab": {"lab/x": "0x1.0p+0", "lab/y": "0x1.0p+1"}}
    b = json.loads(json.dumps(a))
    b["results"]["linear/b"] = _result(2.0 + 2.0 ** -51, 1e-9)
    b["results"]["i_nl/a"] = _result(4.0 * (1.0 + 1e-12), 1e-12)
    b["results"]["i_nl/b"] = _result(8.0, 0.0, 32, False)
    b["results"]["i_nl/c"] = "raises ValueError"
    del b["results"]["gone/a"]
    b["cli"]["verify"]["stdout"] = "3\n"
    b["lab"]["lab/y"] = "0x1.0p+2"
    paths = []
    for name, sweep in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(sweep))
    proc = subprocess.run([sys.executable, str(ROOT / "tools"
                                               / "sweep_diff.py")]
                          + [str(p) for p in paths],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1 and proc.stderr == ""
    # i_nl/a moved by 1e-12 relative, 2 of its stated errors; linear/b
    # by one ulp of 2.0
    assert proc.stdout.splitlines() == [
        "family                   results  moved   worst rel  worst/errs",
        "i_nl                           3      1       1e-12           2",
        "linear                         2      1    2.22e-16    2.22e-07",
        "moved 2 of 5 results; worst |move|/(err_A + err_B) 2",
        "only in A: gone/a",
        "n_evals/flag i_nl/b: [16, True] -> [32, False]",
        "outcome i_nl/c: raises MaterialError -> raises ValueError",
        "cli: 1 of 2 entries changed", "  verify",
        "lab: 1 of 2 entries changed", "  lab/y"]
    # a sweep against itself: no move, exit 0
    proc = subprocess.run([sys.executable, str(ROOT / "tools"
                                               / "sweep_diff.py"),
                           str(paths[0]), str(paths[0])],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "no n_evals, flag or outcome changed" in proc.stdout
