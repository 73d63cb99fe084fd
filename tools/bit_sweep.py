"""Print the exact outcome of a fixed set of kerrcasimir calls as JSON.

Run from a checkout, with no options:

    python3 tools/bit_sweep.py > sweep.json

The package is imported from the checkout's own src/ directory. For each
call the output holds float.hex of the value and of the error, n_evals
and converged (or the name of the exception raised); for each CLI argv
it holds the exit status and the stdout, byte for byte. Running the
script on two checkouts and diffing the two files shows which results a
change moved, down to the last bit. The calls cover the linear, Kerr
and transparent pressures (constant and tabulated plates, 1 nm to
1 um, zero, finite and classical temperature, several tolerances, and
in the classical limit both parts also at rel_tol 1e-12 and 1e-15; the
tabulated pair also at zero temperature at 10 um, 1 mm and 10 cm, its
linear part at rel_tol 1e-8 and 1e-4, its Kerr part at 1e-6 and 1e-4),
the dimensionless coefficients and the public sum and integral of the
quadrature module, and the operator lab: the verification suite's rows
(name, float.hex of the value, passed) at n_points 32 to 256 for seeds
0 to 15, called size-major and then seed-major, so that suites which
build their grid's state and suites which find it built both appear,
and monte_carlo_fdt at the benchmark's CLT inputs, then a SHA-256 of
the bytes of each of those sizes' cached Monte-Carlo operands (B and
Im Gt, as the suite keeps them), so that a change which keeps every
row shows whether it kept the operands too. The argvs are those
of the kerr and linear_lab benchmark workloads, all four input menus,
plus zero-T, high-T and finite-T rows and four verify runs.
It takes about 15 s on a 2-vCPU x86-64 machine.

The lab's rows and the verify output depend on the number of BLAS
threads, so the script sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 before numpy is imported, as the benchmark does:
two checkouts compare under one thread setting whatever the caller's.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from kerrcasimir import (Grid1D, LayerStack,  # noqa: E402
                         MaterialResponse, Temperature, build_linear,
                         build_n_operator, cli, integrate_semi_infinite,
                         matsubara_sum, monte_carlo_fdt, operator_lab,
                         pressure_linear, pressure_nonlinear,
                         pressure_transparent_mirror, run_verification_suite)
from kerrcasimir.lifshitz_linear import _i_lin_raw  # noqa: E402
from kerrcasimir.lifshitz_nonlinear import _i_nl_raw  # noqa: E402

CHI3 = 2e-16
TABLE_NL = ((0.0, 11.7), (1e14, 11.0), (1e15, 6.0), (1e16, 1.5), (1e17, 1.01))
TABLE_LIN = ((0.0, 1e4), (1e13, 2e3), (1e15, 60.0), (1e16, 3.0),
             (1e17, 1.05))
PLATES = {
    "eps2_mirror": lambda: (MaterialResponse.constant(2.0, chi3=CHI3),
                            MaterialResponse.perfect_mirror()),
    "eps10_eps3": lambda: (MaterialResponse.constant(10.0, chi3=CHI3),
                           MaterialResponse.constant(3.0)),
    "mirror_eps1": lambda: (MaterialResponse.perfect_mirror(),
                            MaterialResponse.constant(1.0, chi3=CHI3)),
    "tabulated": lambda: (MaterialResponse.from_table(TABLE_NL, chi3=CHI3),
                          MaterialResponse.from_table(TABLE_LIN)),
}
TEMPERATURES = {"zero": Temperature.zero(),
                "finite300": Temperature.finite(300.0),
                "finite3": Temperature.finite(3.0),
                "high300": Temperature.high(300.0)}
GAPS = (1e-9, 1e-8, 1e-7, 3e-7, 1e-6)
LARGE_GAPS = (1e-5, 1e-3, 1e-1)
ROUTES = {"linear": (pressure_linear, (1e-6, 1e-8, 1e-10)),
          "nonlinear": (pressure_nonlinear, (1e-4, 1e-6, 1e-8))}
# classical-limit tolerances at and past the other regimes' momentum floor
CLASSICAL_TOLS = (1e-12, 1e-15)
COEFFICIENT_TOLS = (1e-6, 1e-8, 1e-9)
EPS_NL = (1.0, 1.0001, 2.0, 10.0, 11.7)
EPS_LIN = (1.0, 3.0, math.inf)

# the kerr workload's CLI ops over its four input menus, then linear_lab's
_KERR_ZERO = ((2e-16, 1e-8, 1e-6), (3e-16, 1.2e-8, 8e-7),
              (1e-16, 9e-9, 1.1e-6), (5e-16, 1.5e-8, 9e-7))
_KERR_FINITE = ((2e-7, 1e-6, 1e-6), (2.01e-7, 9e-7, 1.05e-6),
                (1.99e-7, 1.1e-6, 9.5e-7), (2.02e-7, 9.5e-7, 1.1e-6))
BENCH_ARGVS = (
    [["scan-distance", "--regime", "zero", "--eps-nl", "2", "--eps-lin",
      "inf", "--chi3", repr(chi3), "--d-min", repr(lo), "--d-max", repr(hi),
      "--d-count", "3", "--threads", "2"] for chi3, lo, hi in _KERR_ZERO]
    + [["crossover", "--regime", "zero", "--eps-nl", "2", "--eps-lin", "inf",
        "--chi3", repr(chi3)] for chi3, _, _ in _KERR_ZERO]
    + [["scan-distance", "--regime", "finite", "--temperature", "300",
        "--d-min", repr(lo), "--d-max", repr(hi), "--d-count", "3"]
       for lo, hi, _ in _KERR_FINITE]
    + [["transparent", "--regime", "finite", "--temperature", "300",
        "--gap", repr(gap)] for _, _, gap in _KERR_FINITE]
    + [["scan-epsilon", "--limit", "high"]])
OTHER_ARGVS = (
    [["scan-epsilon", "--limit", "zero"]]
    + [[command, "--regime", regime] + plates
       for command in ("pressure", "scan-distance")
       for regime in ("zero", "high", "finite")
       for plates in ([], ["--eps-nl", "11.7", "--eps-lin", "3"])]
    + [["crossover", "--regime", regime] for regime in ("high", "finite")]
    + [["transparent", "--regime", regime] for regime in ("zero", "high")]
    + [["pressure", "--regime", "finite", "--gap", "3e-7"],
       ["pressure", "--regime", "finite", "--gap", "1e-6",
        "--temperature", "3"]]
    + [["verify", "--n-points", str(n), "--seed", str(seed)]
       for n in (32, 256) for seed in (0, 3)])
LAB_SIZES = (32, 64, 128, 192, 256)
LAB_SEEDS = range(16)


def _record(call):
    try:
        res = call()
    except Exception as exc:  # the exception is part of the outcome
        return "raises %s" % type(exc).__name__
    return [float(res.value).hex(), float(res.error).hex(), res.n_evals,
            res.converged]


def pressure_calls():
    """Yield (key, rel_tol, call) for each pressure of the sweep's grid.

    call(rel_tol) runs the pressure part of the key's stack, so a
    caller may run it at another tolerance too.
    """
    for route, (fn, tols) in ROUTES.items():
        for plates, make in PLATES.items():
            for temp_name, temp in TEMPERATURES.items():
                ladder = tols + (CLASSICAL_TOLS if temp_name == "high300"
                                 else ())
                for gap in GAPS:
                    for tol in ladder:
                        if plates == "tabulated" and temp_name == "finite3" \
                                and gap < 1e-6 and (route, gap, tol) != (
                                    "linear", 1e-8, 1e-8):
                            # minutes per call (a known work cliff); the
                            # one kept, about 2 s, runs a head of 40,527
                            # frequencies through the Euler-Maclaurin tail
                            continue
                        key = "%s/%s/%s/%g/%g" % (route, plates, temp_name,
                                                  gap, tol)
                        yield key, tol, _pressure(fn, make, gap, temp)
    # the tabulated pair at zero T at large gaps, where the terms decay
    # long before the first table node
    zero = TEMPERATURES["zero"]
    for gap in LARGE_GAPS:
        for route, tols in (("linear", (1e-8, 1e-4)),
                            ("nonlinear", (1e-6, 1e-4))):
            for tol in tols:
                key = "%s/tabulated/zero/%g/%g" % (route, gap, tol)
                yield key, tol, _pressure(ROUTES[route][0],
                                          PLATES["tabulated"], gap, zero)


def _pressure(fn, make, gap, temp):
    # rel_tol -> fn's pressure of the plates of make at gap and temp
    return lambda rel_tol: fn(LayerStack(*make(), gap, temp),
                              rel_tol=rel_tol)


def coefficient_calls():
    """Yield (key, rel_tol, call) for each dimensionless coefficient, as
    pressure_calls; the coefficients are cached per rel_tol."""
    for limit in ("zero", "high"):
        for eps1 in EPS_NL:
            for eps3 in EPS_LIN:
                for tol in COEFFICIENT_TOLS:
                    key = "%s/%g/%g/%g" % (limit, eps1, eps3, tol)
                    for name, raw in (("i_lin", _i_lin_raw),
                                      ("i_nl", _i_nl_raw)):
                        yield (name + "/" + key, tol,
                               functools.partial(raw, limit, eps1, eps3))


def _pressures():
    out = {key: _record(lambda: call(tol))
           for key, tol, call in pressure_calls()}
    for temp_name, temp in TEMPERATURES.items():
        for gap in GAPS:
            for tol in (1e-4, 1e-6, 1e-8):
                key = "transparent/%s/%g/%g" % (temp_name, gap, tol)
                out[key] = _record(lambda: pressure_transparent_mirror(
                    gap, temp, CHI3, rel_tol=tol))
    # gaps too small for the power laws of the pressures
    zero = TEMPERATURES["zero"]
    for gap in (1e-100, 1e-150):
        for route, (fn, _) in ROUTES.items():
            out["%s/tiny/%g" % (route, gap)] = _record(lambda: fn(
                LayerStack(*PLATES["eps2_mirror"](), gap, zero)))
        out["transparent/tiny/%g" % gap] = _record(
            lambda: pressure_transparent_mirror(gap, zero, CHI3))
    return out


def _coefficients():
    return {key: _record(lambda: call(tol))
            for key, tol, call in coefficient_calls()}


def _kinked(n):
    return math.exp(-n / 3.0) * (1.0 + 0.3 * abs(n - 3.3))


def _rows(term):
    # the row term of a one-index term
    return lambda ns: [term(n) for n in ns]


def _sums():
    out = {}
    terms = {"geometric": _rows(lambda n: 0.5 ** n), "kinked": _rows(_kinked),
             "poly_exp": _rows(lambda n: (1.0 + n * n) * math.exp(-n / 40.0))}
    for name, term in terms.items():
        for temp_name, temp in TEMPERATURES.items():
            for tol in (1e-6, 1e-10, 1e-13):
                for scale in (1.0, 40.0):
                    key = "matsubara_sum/%s/%s/%g/%g" % (name, temp_name,
                                                         tol, scale)
                    out[key] = _record(lambda: matsubara_sum(
                        term, temp, rel_tol=tol, zero_scale=scale))
    for scale in (1e300, math.inf, math.nan, 0.0, -1.0):
        for temp_name, temp in TEMPERATURES.items():
            out["matsubara_sum/zero_scale/%s/%g" % (temp_name, scale)] = \
                _record(lambda: matsubara_sum(terms["geometric"], temp,
                                              zero_scale=scale))
    # a series cut by the term cap, unconverged
    out["matsubara_sum/slow/max_terms"] = _record(lambda: matsubara_sum(
        _rows(lambda n: 1.0 / (1.0 + n) ** 1.5), TEMPERATURES["finite300"]))
    integrands = {"x2_exp": lambda x: x * x * math.exp(-x),
                  "kink": lambda x: math.exp(-x) * (1.0 + abs(x - 1.5))}
    for name, f in integrands.items():
        for tol in (1e-6, 1e-12):
            rows = _rows(f)
            out["integrate_semi_infinite/%s/%g" % (name, tol)] = _record(
                lambda: integrate_semi_infinite(rows, rel_tol=tol))
            out["integrate_semi_infinite/%s/%g/breaks" % (name, tol)] = \
                _record(lambda: integrate_semi_infinite(
                    rows, rel_tol=tol, breaks=(1.5,)))
    return out


def _lab():
    # the suite size-major, then seed-major: the first call at a size
    # builds its state, the others find it built; rows are
    # (name, float.hex of the value, passed)
    out = {}
    for order, calls in (
            ("size_major", [(n, s) for n in LAB_SIZES for s in LAB_SEEDS]),
            ("seed_major", [(n, s) for s in LAB_SEEDS for n in LAB_SIZES])):
        for n, seed in calls:
            out["lab/suite/%s/%d/%d" % (order, n, seed)] = [
                [r.name, r.value.hex(), r.passed]
                for r in run_verification_suite(n_points=n, seed=seed)]
    # monte_carlo_fdt at the inputs of the benchmark's CLT check
    n = 32
    grid = Grid1D(n, 0.3)
    block = max(3, n // 5)
    mask_a = np.arange(n // 8, n // 8 + block)
    mask_b = np.arange(n - n // 8 - block, n - n // 8)
    eps = np.ones(n)
    eps[mask_a] = 2.25
    eps[mask_b] = 3.0
    weights = ((0.8, 0.6), (1.1, 0.4))
    probe = np.zeros(n)
    probe[mask_a] = 1.0
    probe[mask_b] = 0.5
    _, g1, _ = build_linear(grid, eps, 1.0)
    n_probe = build_n_operator(grid, eps, probe, 1.0, weights)
    chi = 5e-3 / np.linalg.norm(g1 @ n_probe, 2) * probe
    for seed in (4, 8, 12, 16):
        for samples in (1000, 4000, 16000):
            out["lab/monte_carlo_fdt/%d/%d" % (samples, seed)] = \
                monte_carlo_fdt(grid, eps, chi, 1.0, weights,
                                samples=samples, seed=seed).hex()
    return out


def _operand_digests():
    # the suites of _lab left every size's state in the cache, which
    # holds more sizes than LAB_SIZES
    out = {}
    for n in LAB_SIZES:
        operands = operator_lab._suite_state(Grid1D(n, 0.3))[1]
        for name, array in zip(("b", "im_gt"), operands):
            out["operands/%d/%s" % (n, name)] = hashlib.sha256(
                array.tobytes()).hexdigest()
    return out


def _cli_outputs():
    out = {}
    for argv in BENCH_ARGVS + OTHER_ARGVS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        out[" ".join(argv)] = {"exit": status, "stdout": stdout.getvalue(),
                               "stderr": stderr.getvalue()}
    return out


def main():
    report = {"results": {**_pressures(), **_coefficients(), **_sums()},
              "lab": _lab(), "operands": _operand_digests(),
              "cli": _cli_outputs()}
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
