"""One tolerance rule for every momentum quadrature.

The rule is lifshitz_linear._inner_tol, and beside a Kerr part
lifshitz_linear._linear_tol. These tests check that every thermal sum
takes it, that the cached coefficients behind a zero- or
high-temperature CLI row do the work of the direct pressures they
stand for, and that a converged classical result states an error
within its rel_tol.
"""

import math

import pytest

from kerrcasimir import (LayerStack, MaterialResponse, Temperature,
                         casimir_pressure, pressure_linear,
                         pressure_nonlinear)
from kerrcasimir import lifshitz_linear, lifshitz_nonlinear
from kerrcasimir.lifshitz_linear import _i_lin_raw, _inner_tol
from kerrcasimir.lifshitz_nonlinear import _i_nl_raw, _pressure_pair

CHI3 = 2e-16
TEMPERATURES = {"zero": Temperature.zero(),
                "finite": Temperature.finite(300.0),
                "high": Temperature.high(300.0)}


def _stack(eps_nl, eps_lin, gap, temperature):
    return LayerStack(MaterialResponse.constant(eps_nl, chi3=CHI3),
                      MaterialResponse.constant(eps_lin), gap, temperature)


class _Recorded(Exception):
    pass


def _momentum_tol(monkeypatch, call):
    # the rel_tol of the first momentum batch of call; the batch stops
    # the call there, as every batch of one sum gets the same tolerance
    seen = []

    def record(*args):
        seen.append(args[-1])
        raise _Recorded

    for module in (lifshitz_linear, lifshitz_nonlinear):
        monkeypatch.setattr(module, "_momentum_batch", record)
    with pytest.raises(_Recorded):
        call()
    return seen[0]


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6, 1e-8, 1e-13])
@pytest.mark.parametrize("regime", sorted(TEMPERATURES))
def test_every_thermal_sum_takes_the_one_momentum_tolerance(monkeypatch,
                                                           regime, rel_tol):
    expected = _inner_tol(rel_tol, regime)
    stack = _stack(2.0, math.inf, 1e-7, TEMPERATURES[regime])
    calls = [lambda: pressure_linear(stack, rel_tol=rel_tol),
             lambda: pressure_nonlinear(stack, rel_tol=rel_tol)]
    if regime != "finite":
        # uncached: the wrapped functions of the coefficient caches
        calls += [lambda: raw.__wrapped__(regime, 2.0, 3.0, rel_tol)
                  for raw in (_i_lin_raw, _i_nl_raw)]
    for call in calls:
        assert _momentum_tol(monkeypatch, call) == expected
    assert expected == (rel_tol if regime == "high"
                        else max(0.1 * rel_tol, 1e-12))


def test_cached_coefficients_do_the_work_of_the_direct_route():
    # each part of a power-law pair (cached coefficients times powers of
    # d) takes the momentum nodes and flag of the direct call it stands
    # for, and its value to 1e-13 relative
    for eps_nl, eps_lin in ((1.0001, 3.0), (2.0, math.inf), (11.7, 3.0),
                            (1e4, math.inf), (2.0, 10.0)):
        for regime in ("zero", "high"):
            temp = TEMPERATURES[regime]
            for rel_tol in (1e-4, 1e-6, 1e-8, 1e-10):
                pair = _pressure_pair(_stack(eps_nl, eps_lin, 1e-9, temp),
                                      rel_tol)
                for gap in (1e-9, 1e-7, 1e-5):
                    cached = pair(gap)
                    direct = casimir_pressure(
                        _stack(eps_nl, eps_lin, gap, temp),
                        min(rel_tol, 1e-8), rel_tol)
                    for a, b in ((cached.linear, direct.linear),
                                 (cached.nonlinear, direct.nonlinear)):
                        assert (a.n_evals, a.converged) == (b.n_evals,
                                                            b.converged)
                        assert a.value == pytest.approx(b.value, rel=1e-13)


def test_a_converged_classical_result_states_an_error_within_rel_tol():
    # the single n = 0 term is the whole classical sum: its momentum
    # integral runs at rel_tol itself, so a converged flag keeps it
    for rel_tol in (1e-12, 1e-13, 1e-14, 1e-15):
        for eps_nl, eps_lin in ((2.0, 3.0), (1e4, math.inf)):
            stack = _stack(eps_nl, eps_lin, 1e-7, TEMPERATURES["high"])
            for res in (pressure_linear(stack, rel_tol=rel_tol),
                        pressure_nonlinear(stack, rel_tol=rel_tol),
                        _i_lin_raw.__wrapped__("high", eps_nl, eps_lin,
                                               rel_tol),
                        _i_nl_raw.__wrapped__("high", eps_nl, eps_lin,
                                              rel_tol)):
                assert (not res.converged
                        or res.error <= rel_tol * abs(res.value))
