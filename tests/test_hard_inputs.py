"""tools/hard_inputs.py's measuring function on a tiny synthetic input."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from kerrcasimir import QuadratureResult, integrate_semi_infinite

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "hard_inputs", ROOT / "tools" / "hard_inputs.py")
hard_inputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(hard_inputs)


def test_measure_reports_work_flag_error_bits_and_best_time():
    calls = []

    def call():
        calls.append(1)
        return integrate_semi_infinite(lambda x: [math.exp(-v) for v in x],
                                       rel_tol=1e-6)

    res = call()
    row = json.loads(json.dumps(hard_inputs.measure(call, repeats=2)))
    assert len(calls) == 3
    assert set(row) == {"n_evals", "converged", "rel_error", "value",
                        "best_s"}
    assert row["n_evals"] == res.n_evals and row["converged"] is True
    assert float.fromhex(row["value"]) == res.value
    assert row["rel_error"] == res.error / res.value
    assert 0.0 <= row["best_s"] < 1.0
    # a zero value states its absolute error
    zero = hard_inputs.measure(lambda: QuadratureResult(0.0, 0.5, 1, False),
                               repeats=1)
    assert (zero["rel_error"], zero["converged"]) == (0.5, False)


def test_inputs_are_the_hard_input_table_and_repeats_are_checked(capsys):
    assert len(hard_inputs.INPUTS) == 10
    assert all(callable(call) for call in hard_inputs.INPUTS.values())
    with pytest.raises(SystemExit):
        hard_inputs.main(["--repeats", "0"])
    assert "--repeats must be at least 1" in capsys.readouterr().err
