"""Audit the stated errors of the bit sweep's pressures and coefficients.

Run from a checkout, with no options:

    python3 tools/error_audit.py > audit.txt

Each pressure and coefficient call of tools/bit_sweep.py (its
pressure_calls and coefficient_calls: the same plates, gaps,
temperatures and tolerance ladders) runs at its rel_tol and at the
reference tolerance max(rel_tol / 100, 1e-12); a call that two
tolerances share runs once. One line per call gives the key, the ratio
|value - value_ref| / (error + error_ref), both converged flags and
both n_evals, and "floored" where the floor raised the reference
tolerance. A ratio above 1 means that at least one of the two stated
errors is too small; the reference is the better judge whenever its
own error is small. The last line counts the ratios above 1 and names
the worst. A call that raises prints the exception's name in place of
the ratio and counts as neither. The package is imported from the
checkout's own src/ directory, under one BLAS thread as in the sweep.
It takes about 30 s on a 2-vCPU x86-64 machine.
"""

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bit_sweep import coefficient_calls, pressure_calls  # noqa: E402

FLOOR = 1e-12


def _run(call, tol):
    try:
        return call(tol)
    except Exception as exc:  # the exception is part of the outcome
        return type(exc).__name__


def main():
    done = {}  # (key without its rel_tol, tol) -> outcome

    def outcome(key, call, tol):
        stack = key.rsplit("/", 1)[0]
        if (stack, tol) not in done:
            done[stack, tol] = _run(call, tol)
        return done[stack, tol]

    audited, above, worst, worst_key = 0, 0, 0.0, None
    for calls in (pressure_calls(), coefficient_calls()):
        for key, tol, call in calls:
            note = " floored" if tol / 100.0 < FLOOR else ""
            res = outcome(key, call, tol)
            ref = outcome(key, call, max(tol / 100.0, FLOOR))
            failed = [o for o in (res, ref) if isinstance(o, str)]
            if failed:
                print("%s raises %s%s" % (key, failed[0], note))
                continue
            diff = abs(res.value - ref.value)
            bound = res.error + ref.error
            ratio = diff / bound if bound else (math.inf if diff else 0.0)
            print("%s %.3g %s/%s %d/%d%s" % (
                key, ratio, res.converged, ref.converged, res.n_evals,
                ref.n_evals, note))
            audited += 1
            above += ratio > 1.0
            if ratio > worst:
                worst, worst_key = ratio, key
    print("summary: %d calls audited, %d above 1, worst %.3g (%s)"
          % (audited, above, worst, worst_key))


if __name__ == "__main__":
    main()
