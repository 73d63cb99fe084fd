"""Work pins: the exact momentum-node count and flag of each regime.

One gap (10 nm, where the 300 K sums take the Euler-Maclaurin tail),
two plate pairs (eps = 2 against a mirror, and a tabulated pair whose
table nodes split the frequency integrals into panels) and the three
thermal regimes, for the three pressure routes; and at 300 nm, where
the 300 K sums are the plain series, the same routes and plates at
300 K; and the cached dimensionless coefficients of both parts at zero
temperature and in the classical limit. n_evals and converged are
pinned exactly and the value to 1e-12 relative, so a refactor that is
meant to keep every result's bits shows here when it moves the work of
any regime. A change of the refinement rule moves these pins on purpose
and says so. The pins count no nodes for the frequencies where
e^(-2x) underflows, whose g and Kerr frequency vectors are exactly zero
without a quadrature.
"""

import math

import pytest

from kerrcasimir import (LayerStack, MaterialResponse, Temperature,
                         pressure_linear, pressure_nonlinear,
                         pressure_transparent_mirror)
from kerrcasimir.lifshitz_linear import _i_lin_raw
from kerrcasimir.lifshitz_nonlinear import _i_nl_raw

CHI3 = 2e-16
GAP = 1e-8
TABLE_NL = ((0.0, 11.7), (1e14, 11.0), (1e15, 6.0), (1e16, 1.5), (1e17, 1.01))
TABLE_LIN = ((0.0, 1e4), (1e13, 2e3), (1e15, 60.0), (1e16, 3.0),
             (1e17, 1.05))
TEMPERATURES = {"zero": Temperature.zero(),
                "finite": Temperature.finite(300.0),
                "high": Temperature.high(300.0)}
PLATES = {
    "eps2_mirror": lambda: (MaterialResponse.constant(2.0, chi3=CHI3),
                            MaterialResponse.perfect_mirror()),
    "tabulated": lambda: (MaterialResponse.from_table(TABLE_NL, chi3=CHI3),
                          MaterialResponse.from_table(TABLE_LIN)),
}
ROUTES = {"linear": pressure_linear, "nonlinear": pressure_nonlinear}

# (route, plates, regime): (value in Pa, n_evals, converged), default
# rel_tol of each route
PINS = {
    ("linear", "eps2_mirror", "zero"): (20660.27802754803, 5312, True),
    ("nonlinear", "eps2_mirror", "zero"): (675.2576375671712, 3968, True),
    ("linear", "tabulated", "zero"): (7559.907210115187, 18368, True),
    ("nonlinear", "tabulated", "zero"): (97.28261272820706, 12224, True),
    ("linear", "eps2_mirror", "finite"): (20660.278029491707, 5760, True),
    ("nonlinear", "eps2_mirror", "finite"): (675.2576375189287, 4608, True),
    ("linear", "tabulated", "finite"): (7559.975544684863, 43904, True),
    ("nonlinear", "tabulated", "finite"): (97.28870304827346, 28224, True),
    ("linear", "eps2_mirror", "high"): (57.48782036460648, 64, True),
    ("nonlinear", "eps2_mirror", "high"): (0.004563570871253514, 64, True),
    ("linear", "tabulated", "high"): (159.5767529912864, 64, True),
    ("nonlinear", "tabulated", "high"): (1.8619151601946467e-05, 64, True),
    ("transparent", "mirror", "zero"): (2580.0511940237325, 64, True),
    ("transparent", "mirror", "finite"): (2580.0511938482746, 74, True),
    ("transparent", "mirror", "high"): (0.020396243895648467, 1, True),
}


# (route, plates): the same at SERIES_GAP and 300 K, where the series
# evaluates its terms in blocks and n_evals counts those it evaluated
# past its stop
SERIES_GAP = 3e-7
SERIES_PINS = {
    ("linear", "eps2_mirror"): (0.025506951831190987, 5120, True),
    ("nonlinear", "eps2_mirror"): (1.0290831243727505e-09, 2560, True),
    ("linear", "tabulated"): (0.053891248408988304, 4480, True),
    ("nonlinear", "tabulated"): (6.06151714955183e-11, 2656, True),
    ("transparent", "mirror"): (3.932192716437291e-09, 51, True),
}


def _check_pin(route, plates, gap, temp, pin):
    if route == "transparent":
        res = pressure_transparent_mirror(gap, temp, CHI3)
    else:
        res = ROUTES[route](LayerStack(*PLATES[plates](), gap, temp))
    value, n_evals, converged = pin
    assert (res.n_evals, res.converged) == (n_evals, converged)
    assert res.value == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("key", sorted(PINS), ids="-".join)
def test_work_per_regime_is_pinned(key):
    route, plates, regime = key
    _check_pin(route, plates, GAP, TEMPERATURES[regime], PINS[key])


@pytest.mark.parametrize("key", sorted(SERIES_PINS), ids="-".join)
def test_series_work_is_pinned(key):
    _check_pin(*key, SERIES_GAP, TEMPERATURES["finite"], SERIES_PINS[key])


# (part, eps1 or eps_nl, eps3 or eps_lin, limit): the same for the
# coefficients, at the default rel_tol of i_lin_* (1e-9) and i_nl_*
# (1e-6); uncached, as a first call computes them
COEFFICIENTS = {"linear": (_i_lin_raw, 1e-9), "nonlinear": (_i_nl_raw, 1e-6)}
COEFFICIENT_PINS = {
    ("linear", 2.0, math.inf, "zero"): (0.006534905287112802, 7872, True),
    ("linear", 2.0, math.inf, "high"): (0.01387941959774147, 64, True),
    ("linear", 11.7, 3.0, "zero"): (0.00668169690788475, 7936, True),
    ("linear", 11.7, 3.0, "high"): (0.01777938928317746, 64, True),
    ("nonlinear", 2.0, math.inf, "zero"): (2.9908491654033467e-06, 3968,
                                           True),
    ("nonlinear", 2.0, math.inf, "high"): (1.1776451798732214e-05, 64,
                                           True),
    ("nonlinear", 11.7, 3.0, "zero"): (4.723711168238206e-09, 3968, True),
    ("nonlinear", 11.7, 3.0, "high"): (9.519442604669375e-09, 64, True),
}


@pytest.mark.parametrize("key", sorted(COEFFICIENT_PINS, key=repr),
                         ids=lambda key: "-".join(map(str, key)))
def test_coefficient_work_is_pinned(key):
    part, eps1, eps3, limit = key
    raw, rel_tol = COEFFICIENTS[part]
    raw.cache_clear()
    res = raw(limit, eps1, eps3, rel_tol)
    value, n_evals, converged = COEFFICIENT_PINS[key]
    assert (res.n_evals, res.converged) == (n_evals, converged)
    assert res.value == pytest.approx(value, rel=1e-12)


def test_a_sum_of_zero_terms_stops_inside_the_head():
    # a mirror against eps = 1 reflects nothing: every term is +0.0, 16
    # momentum nodes each. The series stops at n = 4, inside the head of
    # the Euler-Maclaurin tail, and takes no tail integral: the 10 terms
    # of the first block (head and stencil) are all its work
    stack = LayerStack(MaterialResponse.perfect_mirror(),
                       MaterialResponse.constant(1.0), GAP,
                       TEMPERATURES["finite"])
    res = pressure_linear(stack, rel_tol=1e-8)
    assert (res.value.hex(), res.error.hex(), res.n_evals, res.converged) \
        == ("0x0.0p+0", "0x0.0p+0", 160, True)
