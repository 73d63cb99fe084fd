"""Time the hard inputs of the ROADMAP's table in process; print JSON.

Run from a checkout:

    python3 tools/hard_inputs.py [--repeats K] > hard.json

The package is imported from the checkout's own src/ directory, with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 as
in tools/bit_sweep.py. Each input is one pressure call: the costly
stacks that no benchmark workload reaches (a high permittivity at 1 nm,
the tabulated pair of the tests at 3 K and 1.5 K) and two cheap
references. Per input the output holds n_evals, the convergence flag,
the stated relative error (error / |value|), float.hex of the value and
the best wall time of K calls (3 by default), each call from the same
warm process. Running the script on two checkouts shows whether a
change kept the work and the bits of each input and how its time moved.
It takes about 35 s on a 2-vCPU x86-64 machine.
"""

import argparse
import json
import math
import os
import pathlib
import sys
from time import perf_counter

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from kerrcasimir import (LayerStack, MaterialResponse,  # noqa: E402
                         Temperature, pressure_linear, pressure_nonlinear,
                         pressure_transparent_mirror)

CHI3 = 2e-16
TABLE_NL = ((0.0, 11.7), (1e14, 11.0), (1e15, 6.0), (1e16, 1.5), (1e17, 1.01))
TABLE_LIN = ((0.0, 1e4), (1e13, 2e3), (1e15, 60.0), (1e16, 3.0),
             (1e17, 1.05))


PLATES = {
    "eps1e4_mirror": (MaterialResponse.constant(1e4, chi3=CHI3),
                      MaterialResponse.perfect_mirror()),
    "eps2_mirror": (MaterialResponse.constant(2.0, chi3=CHI3),
                    MaterialResponse.perfect_mirror()),
    "tabulated": (MaterialResponse.from_table(TABLE_NL, chi3=CHI3),
                  MaterialResponse.from_table(TABLE_LIN)),
}


def _pressure(part, plates, gap, kelvin, rel_tol):
    fn = pressure_linear if part == "linear" else pressure_nonlinear
    stack = LayerStack(*PLATES[plates], gap, Temperature.finite(kelvin))
    return lambda: fn(stack, rel_tol=rel_tol)


# name -> call, the rows of the ROADMAP's hard-input table in its order
INPUTS = {
    "linear/eps1e4_mirror/1nm/300K/1e-10":
        _pressure("linear", "eps1e4_mirror", 1e-9, 300.0, 1e-10),
    "kerr/eps1e4_mirror/1nm/300K/1e-9":
        _pressure("kerr", "eps1e4_mirror", 1e-9, 300.0, 1e-9),
    "kerr/eps1e4_mirror/10nm/300K/1e-9":
        _pressure("kerr", "eps1e4_mirror", 1e-8, 300.0, 1e-9),
    "linear/tabulated/10nm/3K/1e-6":
        _pressure("linear", "tabulated", 1e-8, 3.0, 1e-6),
    "kerr/tabulated/10nm/3K/1e-6":
        _pressure("kerr", "tabulated", 1e-8, 3.0, 1e-6),
    "linear/tabulated/10nm/1.5K/1e-6":
        _pressure("linear", "tabulated", 1e-8, 1.5, 1e-6),
    "kerr/tabulated/10nm/1.5K/1e-6":
        _pressure("kerr", "tabulated", 1e-8, 1.5, 1e-6),
    "linear/eps2_mirror/30nm/300K/1e-8":
        _pressure("linear", "eps2_mirror", 3e-8, 300.0, 1e-8),
    "kerr/eps2_mirror/30nm/300K/1e-8":
        _pressure("kerr", "eps2_mirror", 3e-8, 300.0, 1e-8),
    "transparent/10nm/300K/1e-10":
        lambda: pressure_transparent_mirror(1e-8, Temperature.finite(300.0),
                                            CHI3, rel_tol=1e-10),
}


def measure(call, repeats=3):
    """The outcome of call(), a QuadratureResult, and its best wall time
    over repeats calls, as a dict of JSON values."""
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        res = call()
        best = min(best, perf_counter() - start)
    value = float(res.value)
    return {"n_evals": res.n_evals, "converged": res.converged,
            "rel_error": res.error / abs(value) if value else res.error,
            "value": value.hex(), "best_s": best}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="calls per input; the best time is kept")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    out = {"repeats": args.repeats,
           "inputs": {name: measure(call, args.repeats)
                      for name, call in INPUTS.items()}}
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
