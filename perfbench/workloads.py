"""Workload definitions: seed menus, operations and correctness checks.

A workload is a fixed list of operations against the public API of
``kerrcasimir`` or its in-process CLI entry point ``cli.main(argv)``,
built from named groups. The seed picks one entry of a small menu of
inputs around the listed ones (entry 0 is the listed set); every entry
has stored reference outputs in ``references.json``.

This module imports ``kerrcasimir`` only inside the operations, so the
parent process of the benchmark can read menus and run checks without
loading the package.
"""

import contextlib
import io
import math

# frozen crossover gap for eps_nl = 2, mirror, chi3 = 2e-16 at zero T
# (the acceptance suite pins the same constant); d* scales as chi3**(1/4)
D_STAR_FROZEN = 4.2519035205917867e-09
APERY = 1.2020569031595943
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0
K_BOLTZMANN = 1.380649e-23

TABLE_KERR = ((0.0, 11.7), (1e14, 11.0), (1e15, 6.0), (1e16, 1.5),
              (1e17, 1.01))
TABLE_LIN = ((0.0, 1e4), (1e13, 2e3), (1e15, 60.0), (1e16, 3.0),
             (1e17, 1.05))

# Operation groups and their seed menus. Entry 0 is the listed input
# set. The other entries move the inputs by a few percent at most where
# the cost depends on them (finite-T cost grows as 1/d**2), so every
# entry does nearly the same work and seeds compare like with like.
GROUP_MENUS = {
    "kerr_zero": [
        {"chi3": 2e-16, "d_min": 1e-8, "d_max": 1e-6},
        {"chi3": 3e-16, "d_min": 1.2e-8, "d_max": 8e-7},
        {"chi3": 1e-16, "d_min": 9e-9, "d_max": 1.1e-6},
        {"chi3": 5e-16, "d_min": 1.5e-8, "d_max": 9e-7},
    ],
    "kerr_finite": [
        {"d_min": 2e-7, "d_max": 1e-6, "gap": 1e-6},
        {"d_min": 2.01e-7, "d_max": 9e-7, "gap": 1.05e-6},
        {"d_min": 1.99e-7, "d_max": 1.1e-6, "gap": 9.5e-7},
        {"d_min": 2.02e-7, "d_max": 9.5e-7, "gap": 1.1e-6},
    ],
    "linear_tabulated": [
        {"scale": 1.0, "mirror_gap": 1e-6},
        {"scale": 1.01, "mirror_gap": 8e-7},
        {"scale": 0.99, "mirror_gap": 1.2e-6},
        {"scale": 1.02, "mirror_gap": 2e-6},
    ],
    "operator_lab": [
        {"lab_seeds": (0, 1, 2, 3), "mc_seed": 4},
        {"lab_seeds": (4, 5, 6, 7), "mc_seed": 8},
        {"lab_seeds": (8, 9, 10, 11), "mc_seed": 12},
        {"lab_seeds": (12, 13, 14, 15), "mc_seed": 16},
    ],
}
MENU_SIZE = 4

# Two workloads, each a sequence of groups: the Kerr engine, and the
# code that bypasses it. Pass-to-pass timing noise on a shared 2-vCPU
# VM comes in slow spells of minutes; two long runs per seed dilute a
# spell better than four short ones (see RATIONALE.md).
WORKLOADS = {
    "kerr": ("kerr_zero", "kerr_finite"),
    "linear_lab": ("linear_tabulated", "operator_lab"),
}


def menu_index(seed):
    return seed % MENU_SIZE


def inputs(workload, index):
    return {group: GROUP_MENUS[group][index]
            for group in WORKLOADS[workload]}


class Op:
    """One timed operation: an id, a zero-argument callable returning a
    JSON-ready dict, and a check against references and closed forms.

    known_defect names the ROADMAP item behind an outcome that is wrong
    at seed but kept in the workload on purpose; see ``check``.
    """

    def __init__(self, op_id, run, check, known_defect=None):
        self.op_id = op_id
        self.run = run
        self.check = check
        self.known_defect = known_defect


# ---------------------------------------------------------------- helpers

def _cli(argv):
    """Run ``kerrcasimir.cli.main`` in process; return exit and CSV rows."""
    from kerrcasimir import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    lines = out.getvalue().splitlines()
    header = lines[0].split(",") if lines else []
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        row = {}
        for key, cell in zip(header, cells):
            if cell in ("true", "false"):
                row[key] = cell == "true"
            else:
                try:
                    row[key] = float(cell)
                except ValueError:
                    row[key] = cell
        rows.append(row)
    return {"exit": status, "rows": rows, "stderr": err.getvalue()}


def _pressure(res):
    return {"value": res.value, "error": res.error,
            "converged": res.converged, "n_evals": res.n_evals}


def close(value, ref, tol, err=0.0, err_ref=0.0):
    """Agreement with a stored value within the call's own tolerance.

    The bound is four times the relative tolerance plus both reported
    error estimates, so a change of method that still meets the
    tolerance passes and a numerics change beyond it does not.
    """
    bound = 4.0 * tol * abs(ref) + abs(err) + abs(err_ref)
    return abs(value - ref) <= bound


def rel_close(value, exact, rel):
    return abs(value - exact) <= rel * abs(exact)


def polylog3(r):
    """Li_3(r) for 0 <= r < 1 by its power series."""
    total, term_pow, k = 0.0, r, 1
    while True:
        term = term_pow / k ** 3
        total += term
        if term < 1e-18 * total or term == 0.0:
            return total
        k += 1
        term_pow *= r


def _static_p(eps):
    return 1.0 if math.isinf(eps) else (eps - 1.0) / (eps + 1.0)


class CheckLog:
    """Collects failed check messages for one operation."""

    def __init__(self):
        self.misses = []

    def expect(self, ok, message):
        if not ok:
            self.misses.append(message)


def _check_rows(log, out, ref, keys):
    rows, ref_rows = out["rows"], ref["rows"]
    log.expect(len(rows) == len(ref_rows), "row count %d != %d"
               % (len(rows), len(ref_rows)))
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for key, err_key, tol in keys:
            err = row.get(err_key, 0.0) if err_key else 0.0
            err_ref = ref_row.get(err_key, 0.0) if err_key else 0.0
            log.expect(close(row[key], ref_row[key], tol, err, err_ref),
                       "row %d %s %r vs reference %r"
                       % (i, key, row[key], ref_row[key]))


# ------------------------------------------------------------- kerr_zero

_PRESSURE_KEYS = (("d", None, 1e-15), ("p_lin", "err_lin", 1e-8),
                  ("p_nl", "err_nl", 1e-6))


def kerr_zero_ops(p):
    plates = ["--eps-nl", "2", "--eps-lin", "inf", "--chi3", repr(p["chi3"])]
    scan_argv = ["scan-distance", "--regime", "zero"] + plates + [
        "--d-min", repr(p["d_min"]), "--d-max", repr(p["d_max"]),
        "--d-count", "3", "--threads", "2"]
    cross_argv = ["crossover", "--regime", "zero"] + plates

    def check_scan(log, out, ref):
        log.expect(out["exit"] == 0, "exit %r" % out["exit"])
        if not out["rows"]:
            return
        _check_rows(log, out, ref, _PRESSURE_KEYS)
        # zero-T power laws: P_nl d**8 and P_lin d**4 do not depend on d
        for key, power in (("p_nl", 8), ("p_lin", 4)):
            coeffs = [r[key] * r["d"] ** power for r in out["rows"]]
            spread = (max(coeffs) - min(coeffs)) / abs(coeffs[0])
            log.expect(spread <= 1e-6, "%s*d^%d varies by %.3g"
                       % (key, power, spread))
        for r in out["rows"]:
            log.expect(rel_close(r["p_total"], r["p_lin"] + r["p_nl"],
                                 1e-15), "p_total != p_lin + p_nl")

    def check_cross(log, out, ref):
        log.expect(out["exit"] == 0, "exit %r" % out["exit"])
        if not out["rows"]:
            return
        d_star = out["rows"][0]["d_star"]
        exact = D_STAR_FROZEN * (p["chi3"] / 2e-16) ** 0.25
        log.expect(rel_close(d_star, exact, 1e-5),
                   "d_star %r vs frozen %r" % (d_star, exact))

    return [Op("scan_distance_zero", lambda: _cli(scan_argv), check_scan),
            Op("crossover_zero", lambda: _cli(cross_argv), check_cross)]


# ----------------------------------------------------------- kerr_finite

def kerr_finite_ops(p):
    scan_argv = ["scan-distance", "--regime", "finite", "--temperature",
                 "300", "--d-min", repr(p["d_min"]),
                 "--d-max", repr(p["d_max"]), "--d-count", "3"]
    transparent_argv = ["transparent", "--regime", "finite",
                        "--temperature", "300", "--gap", repr(p["gap"])]

    def check_scan(log, out, ref):
        log.expect(out["exit"] == 0, "exit %r" % out["exit"])
        _check_rows(log, out, ref, _PRESSURE_KEYS)

    def check_transparent(log, out, ref):
        log.expect(out["exit"] == 0, "exit %r" % out["exit"])
        if not out["rows"]:
            return
        row = out["rows"][0]
        log.expect(row["rel_diff"] <= 1e-4,
                   "dual routes differ by %r" % row["rel_diff"])
        _check_rows(log, out, ref,
                    (("p_transparent", "err_transparent", 1e-6),
                     ("p_general", "err_general", 1e-6)))

    return [Op("scan_distance_finite", lambda: _cli(scan_argv), check_scan),
            Op("transparent_finite", lambda: _cli(transparent_argv),
               check_transparent)]


# ------------------------------------------------------ linear_tabulated

def _linear(stack_fn, gap, temp_fn, rel_tol=1e-8):
    def run():
        import kerrcasimir as kc
        return _pressure(kc.pressure_linear(
            stack_fn(kc, gap, temp_fn(kc.Temperature)), rel_tol=rel_tol))
    return run


def _tabulated(kc, gap, temp):
    return kc.LayerStack(kc.MaterialResponse.from_table(TABLE_KERR),
                         kc.MaterialResponse.from_table(TABLE_LIN), gap, temp)


def _eps2_mirror(kc, gap, temp):
    return kc.LayerStack(kc.MaterialResponse.constant(2.0),
                         kc.MaterialResponse.perfect_mirror(), gap, temp)


def _mirrors(kc, gap, temp):
    return kc.LayerStack(kc.MaterialResponse.perfect_mirror(),
                         kc.MaterialResponse.perfect_mirror(), gap, temp)


def _zero(temperature):
    return temperature.zero()


def _finite(temperature):
    return temperature.finite(300.0)


def _high(temperature):
    return temperature.high(300.0)


def _check_pressure(log, out, ref, tol=1e-8, allow_unconverged=False):
    if not allow_unconverged:
        log.expect(out["converged"], "converged=False")
    log.expect(close(out["value"], ref["value"], tol, out["error"],
                     ref["error"]),
               "value %r vs reference %r" % (out["value"], ref["value"]))


def linear_tabulated_ops(p):
    s = p["scale"]
    ops = []
    for d in (1e-8, 1e-7, 1e-6):
        ops.append(Op(
            "tabulated_zero_%g" % d, _linear(_tabulated, d * s, _zero),
            lambda log, out, ref: _check_pressure(log, out, ref,
                                                  allow_unconverged=True),
            known_defect="converged=False at seed: kinks of the tabulated "
                         "interpolant at the table nodes (ROADMAP 3b)"))
    for d in (1e-7, 1e-6):
        ops.append(Op("tabulated_finite_%g" % d,
                      _linear(_tabulated, d * s, _finite), _check_pressure))
    ops.append(Op("eps2_mirror_finite_1e-08",
                  _linear(_eps2_mirror, 1e-8 * s, _finite), _check_pressure))

    gap = p["mirror_gap"]

    def check_quantum(log, out, ref):
        _check_pressure(log, out, ref)
        exact = math.pi ** 2 * HBAR * C_LIGHT / (240.0 * gap ** 4)
        log.expect(rel_close(out["value"], exact, 1e-6),
                   "mirrors %r vs pi^2/240 law %r" % (out["value"], exact))

    def check_thermal(log, out, ref):
        _check_pressure(log, out, ref)
        exact = APERY * K_BOLTZMANN * 300.0 / (8.0 * math.pi * gap ** 3)
        log.expect(rel_close(out["value"], exact, 1e-6),
                   "mirrors %r vs zeta(3)/8pi law %r" % (out["value"], exact))

    ops.append(Op("mirrors_zero", _linear(_mirrors, gap, _zero),
                  check_quantum))
    ops.append(Op("mirrors_high", _linear(_mirrors, gap, _high),
                  check_thermal))

    def check_scan_epsilon(log, out, ref):
        log.expect(out["exit"] == 0, "exit %r" % out["exit"])
        _check_rows(log, out, ref, (("i_lin", "err_lin", 1e-9),
                                    ("i_nl", "err_nl", 1e-6)))
        for row in out["rows"]:
            r = _static_p(row["eps_nl"]) * _static_p(row["eps_lin"])
            exact = polylog3(r) / (8.0 * math.pi)
            # r = 0 (transparent Kerr plate) must give exactly zero
            log.expect(rel_close(row["i_lin"], exact, 1e-8),
                       "i_lin(%g, %g) %r vs Li3/8pi %r"
                       % (row["eps_nl"], row["eps_lin"], row["i_lin"], exact))
            if row["eps_nl"] == 1.0 and math.isinf(row["eps_lin"]):
                exact = 21.0 / (4096.0 * math.pi ** 4)
                log.expect(rel_close(row["i_nl"], exact, 1e-5),
                           "i_nl(1, inf) %r vs 21/(4096 pi^4)" % row["i_nl"])

    ops.append(Op("scan_epsilon_high",
                  lambda: _cli(["scan-epsilon", "--limit", "high"]),
                  check_scan_epsilon))
    return ops


# ---------------------------------------------------------- operator_lab

_LAB_SIZES = (32, 64, 128, 192, 256)
_MC_SAMPLES = (1000, 4000, 16000)
# The suite's 1e-12 bound on linear_inverse_identity ignores the growth
# of round-off with n; the acceptance suite bounds the same residual at
# 1e-10, which is the bound the known-defect row is held to here.
_LINEAR_IDENTITY_BOUND = 1e-10


def _suite(n, seed):
    def run():
        import kerrcasimir as kc
        rows = kc.run_verification_suite(n_points=n, seed=seed)
        return {"rows": [{"name": r.name, "value": r.value,
                          "threshold": r.threshold, "passed": r.passed}
                         for r in rows]}
    return run


def _suite_check(known_defect):
    return lambda log, out, ref: _check_suite(log, out, ref, known_defect)


def _check_suite(log, out, ref, known_defect):
    names = [r["name"] for r in out["rows"]]
    log.expect(names == [r["name"] for r in ref["rows"]],
               "row names changed: %r" % names)
    for row in out["rows"]:
        value = row["value"]
        log.expect(math.isfinite(value), "%s is not finite" % row["name"])
        if known_defect and row["name"] == "linear_inverse_identity":
            log.expect(value <= _LINEAR_IDENTITY_BOUND,
                       "%s %r above %g" % (row["name"], value,
                                           _LINEAR_IDENTITY_BOUND))
        else:
            log.expect(row["passed"], "%s %r above threshold %r"
                       % (row["name"], value, row["threshold"]))
        if row["name"] == "monte_carlo_fdt":
            ref_row = [r for r in ref["rows"] if r["name"] == row["name"]]
            log.expect(bool(ref_row) and rel_close(value, ref_row[0]["value"],
                                                   1e-6),
                       "monte_carlo_fdt %r vs reference" % value)


def _monte_carlo(seed):
    def run():
        import numpy as np
        import kerrcasimir as kc
        n = 32
        grid = kc.Grid1D(n, 0.3)
        block = max(3, n // 5)
        mask_a = np.arange(n // 8, n // 8 + block)
        mask_b = np.arange(n - n // 8 - block, n - n // 8)
        eps = np.ones(n)
        eps[mask_a] = 2.25
        eps[mask_b] = 3.0
        omega, weights = 1.0, ((0.8, 0.6), (1.1, 0.4))
        probe = np.zeros(n)
        probe[mask_a] = 1.0
        probe[mask_b] = 0.5
        _, g1, _ = kc.build_linear(grid, eps, omega)
        n_probe = kc.build_n_operator(grid, eps, probe, omega, weights)
        chi = 5e-3 / np.linalg.norm(g1 @ n_probe, 2) * probe
        devs = [kc.monte_carlo_fdt(grid, eps, chi, omega, weights,
                                   samples=m, seed=seed)
                for m in _MC_SAMPLES]
        return {"devs": devs}
    return run


def _check_monte_carlo(log, out, ref):
    # the acceptance suite's CLT test: a -1/2 power law within a factor
    # of two at every size; strict decay between neighbouring sizes is
    # only likely, not certain, so only the 16x span must shrink
    devs = out["devs"]
    log.expect(devs[-1] < devs[0], "deviation does not decay: %r" % devs)
    amp = math.exp(sum(math.log(v) + 0.5 * math.log(m)
                       for v, m in zip(devs, _MC_SAMPLES)) / len(devs))
    for v, m in zip(devs, _MC_SAMPLES):
        ratio = v / (amp / math.sqrt(m))
        log.expect(0.5 <= ratio <= 2.0, "CLT ratio %.3g at M=%d" % (ratio, m))
    for v, r in zip(devs, ref["devs"]):
        log.expect(rel_close(v, r, 1e-6), "deviation %r vs reference %r"
                   % (v, r))


def operator_lab_ops(p):
    ops = []
    for seed in p["lab_seeds"]:
        for n in _LAB_SIZES:
            defect = None
            if n == 256:
                defect = ("linear_inverse_identity reads ~2.9e-12 against "
                          "the suite's fixed 1e-12 threshold at n=256")
            ops.append(Op("verify_n%d_seed%d" % (n, seed), _suite(n, seed),
                          _suite_check(defect is not None),
                          known_defect=defect))
    ops.append(Op("monte_carlo_clt", _monte_carlo(p["mc_seed"]),
                  _check_monte_carlo))
    return ops


_GROUP_OPS = {
    "kerr_zero": kerr_zero_ops,
    "kerr_finite": kerr_finite_ops,
    "linear_tabulated": linear_tabulated_ops,
    "operator_lab": operator_lab_ops,
}


def operations(workload, index):
    return [op for group in WORKLOADS[workload]
            for op in _GROUP_OPS[group](GROUP_MENUS[group][index])]


def is_defective(op, out):
    """True when a known-defect operation still shows its defect."""
    if op.known_defect is None or out is None:
        return False
    if "converged" in out:
        return not out["converged"]
    return any(not r["passed"] for r in out.get("rows", ()))


def check(op, out, ref):
    """List of misses for one operation's output (empty when correct).

    ``out`` is None when the operation raised. A known-defect operation
    passes when its value still agrees with the reference; its defect is
    counted separately by ``is_defective``.
    """
    if out is None:
        return ["raised"]
    if ref is None:
        return ["no stored reference"]
    log = CheckLog()
    try:
        op.check(log, out, ref)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        log.expect(False, "malformed output: %r" % (exc,))
    return log.misses
