import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from kerrcasimir import lifshitz_linear, quadrature
from kerrcasimir.constants import C_LIGHT, HBAR, K_BOLTZMANN
from kerrcasimir.errors import MaterialError, UnconvergedError
from kerrcasimir.lifshitz_linear import (_X_FLOOR, _g_hat, i_lin_high_t,
                                         i_lin_zero_t, pressure_linear)
from kerrcasimir.materials import LayerStack, MaterialResponse
from kerrcasimir.quadrature import Temperature

INF = math.inf
ZETA3 = 1.2020569031595943
TABLE_NL = ((0.0, 11.7), (1e14, 11.0), (1e15, 6.0), (1e16, 1.5), (1e17, 1.01))
TABLE_LIN = ((0.0, 1e4), (1e13, 2e3), (1e15, 60.0), (1e16, 3.0),
             (1e17, 1.05))


def _stack(eps1, eps3, gap, temp):
    return LayerStack(MaterialResponse.constant(eps1),
                      MaterialResponse.constant(eps3), gap, temp)


def test_ideal_zero_temperature_coefficient():
    assert i_lin_zero_t(INF, INF) == pytest.approx(math.pi ** 2 / 240.0,
                                                   rel=1e-9)


def test_ideal_high_temperature_coefficient():
    assert i_lin_high_t(INF, INF) == pytest.approx(
        float(mpmath.zeta(3)) / (8.0 * math.pi), rel=1e-10)


@pytest.mark.parametrize("eps1,eps3", [(2.0, 10.0), (3.0, INF), (1.5, 2.0)])
def test_high_temperature_polylog_oracle(eps1, eps3):
    # only the static p channel survives; the momentum integral has the
    # closed form Li3(r1*r3)/(8 pi) with r = (eps-1)/(eps+1)
    def static(eps):
        return 1.0 if math.isinf(eps) else (eps - 1.0) / (eps + 1.0)

    exact = float(mpmath.polylog(3, static(eps1) * static(eps3))) \
        / (8.0 * math.pi)
    assert i_lin_high_t(eps1, eps3) == pytest.approx(exact, rel=1e-9)


def test_zero_temperature_scipy_oracle():
    # brute-force double integral with an unrelated quadrature scheme
    eps1, eps3 = 2.0, 5.0

    def refl(kind, x, y, eps):
        k2 = math.hypot(x, y)
        k = math.sqrt(eps * x * x + y * y)
        if kind == "s":
            return (k2 - k) / (k2 + k)
        return (eps * k2 - k) / (eps * k2 + k)

    def integrand(y, x):
        k2 = math.hypot(x, y)
        total = 0.0
        for kind in ("s", "p"):
            r = refl(kind, x, y, eps1) * refl(kind, x, y, eps3)
            damp = math.exp(-2.0 * k2)
            total += r * damp / (1.0 - r * damp)
        return y * k2 * total

    oracle, err = dblquad(integrand, 0.0, 40.0, 0.0, 40.0,
                          epsabs=1e-12, epsrel=1e-10)
    oracle /= 2.0 * math.pi ** 2
    value = i_lin_zero_t(eps1, eps3)
    assert value == pytest.approx(oracle, rel=1e-7)


def test_zero_temperature_pressure_power_law():
    temp = Temperature.zero()
    coeff = HBAR * C_LIGHT * i_lin_zero_t(INF, INF)
    for d in (1e-9, 5e-8, 1e-6):
        res = pressure_linear(_stack(INF, INF, d, temp))
        assert res.converged
        assert res.value == pytest.approx(coeff / d ** 4, rel=1e-8)


def test_high_temperature_pressure_power_law():
    temp = Temperature.high(300.0)
    coeff = K_BOLTZMANN * 300.0 * i_lin_high_t(INF, INF)
    for d in (1e-8, 1e-6):
        res = pressure_linear(_stack(INF, INF, d, temp))
        assert res.converged
        assert res.value == pytest.approx(coeff / d ** 3, rel=1e-9)


def test_vacuum_gives_zero():
    for temp in (Temperature.zero(), Temperature.finite(300.0),
                 Temperature.high(300.0)):
        res = pressure_linear(_stack(1.0, 1.0, 1e-7, temp))
        assert res.value == 0.0
        assert res.converged


def test_attraction_and_monotonicity():
    temp = Temperature.zero()
    values = [pressure_linear(_stack(eps, eps, 1e-7, temp)).value
              for eps in (1.5, 3.0, 10.0, INF)]
    assert all(v > 0.0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_finite_temperature_independent_oracle():
    # explicit Matsubara loop with scipy quadrature, written without any
    # package machinery
    eps1, eps3, d, t_kelvin = 4.0, 12.0, 2e-6, 300.0

    def g_hat(x):
        def f(y):
            k2 = math.hypot(x, y)
            k1 = math.sqrt(eps1 * x * x + y * y)
            k3 = math.sqrt(eps3 * x * x + y * y)
            total = 0.0
            rs = ((k2 - k1) / (k2 + k1)) * ((k2 - k3) / (k2 + k3))
            rp = ((eps1 * k2 - k1) / (eps1 * k2 + k1)) \
                * ((eps3 * k2 - k3) / (eps3 * k2 + k3))
            for r in (rs, rp):
                damp = math.exp(-2.0 * k2)
                total += r * damp / (1.0 - r * damp)
            return y * k2 * total

        val, _ = quad(f, 0.0, 60.0 + 10.0 * x, epsabs=1e-14, epsrel=1e-11)
        return val

    total = 0.5 * g_hat(0.0) if eps1 > 1.0 else 0.0
    n = 1
    while True:
        xi = 2.0 * math.pi * n * K_BOLTZMANN * t_kelvin / HBAR
        term = g_hat(xi * d / C_LIGHT)
        total += term
        if term < 1e-12 * total:
            break
        n += 1
    oracle = K_BOLTZMANN * t_kelvin / (math.pi * d ** 3) * total

    res = pressure_linear(_stack(eps1, eps3, d, Temperature.finite(t_kelvin)))
    assert res.converged
    assert res.value == pytest.approx(oracle, rel=1e-7)


def test_finite_temperature_brackets():
    # At d much below the thermal wavelength the finite-T mirror value
    # approaches the quantum limit minus the exactly predictable static
    # deficit: the n = 0 transverse channel is dead, so the first sum
    # term carries zeta(3)/4 instead of the smooth-limit zeta(3)/2 and
    # the pressure sits 0.5 * (zeta(3)/4) * kB T / (pi d^3) low, a
    # linear-in-T effect. Far beyond the thermal wavelength only n = 0
    # survives and the value is exactly classical.
    temp = Temperature.finite(300.0)
    d = 5e-8
    small = pressure_linear(_stack(INF, INF, d, temp)).value
    quantum = HBAR * C_LIGHT * math.pi ** 2 / 240.0 / d ** 4
    deficit = 0.5 * (ZETA3 / 4.0) * K_BOLTZMANN * 300.0 / (math.pi * d ** 3)
    assert small == pytest.approx(quantum - deficit, rel=1e-4)

    large = pressure_linear(_stack(INF, INF, 5e-5, temp)).value
    classical = ZETA3 * K_BOLTZMANN * 300.0 / (8.0 * math.pi) / (5e-5) ** 3
    assert large == pytest.approx(classical, rel=1e-6)


@pytest.mark.parametrize("tabulated", [False, True])
def test_finite_t_tail_matches_direct_sum(monkeypatch, tabulated):
    # 300 K at d = 10 nm (n_star ~ 121): head, tail integral and
    # Euler-Maclaurin terms against the term-by-term series at 1e-12.
    # The tables put kinks at n ~ 4, 40 and 405, all of weight above
    # rel_tol, so the head runs to 407; the series at 1e-8 takes 94,656
    # momentum nodes for them and 148,352 for the constant pair
    if tabulated:
        plates = (MaterialResponse.from_table(TABLE_NL),
                  MaterialResponse.from_table(TABLE_LIN))
    else:
        plates = (MaterialResponse.constant(2.0),
                  MaterialResponse.perfect_mirror())
    stack = LayerStack(*plates, 1e-8, Temperature.finite(300.0))
    tail = pressure_linear(stack)
    monkeypatch.setattr(quadrature, "_tail_head", lambda *args: None)
    direct = pressure_linear(stack, rel_tol=1e-12)
    assert tail.converged and direct.converged
    assert tail.error <= 1e-8 * tail.value
    assert abs(tail.value - direct.value) <= tail.error + direct.error
    assert tail.n_evals < (50_000 if tabulated else 10_000)


def test_high_t_error_is_the_momentum_estimate():
    # the classical limit keeps half the n = 0 term, and half its error
    d = 1e-7
    res = pressure_linear(_stack(2.0, INF, d, Temperature.high(300.0)))
    g, = _g_hat(np.zeros(1), 2.0, INF, 1e-9)
    prefactor = K_BOLTZMANN * 300.0 / (math.pi * d ** 3)
    assert res.value == prefactor * (0.5 * g.value)
    assert res.error == prefactor * (0.5 * g.error) > 0.0
    assert res.converged and res.n_evals == g.n_evals


def test_finite_t_flag_comes_from_the_returned_attempt(monkeypatch):
    # a tail integral capped at its first level misses rel_tol and the
    # series takes over; the momentum integrals at the tail's
    # non-integer indices report failure, the series' ones do not
    temp = Temperature.finite(300.0)
    stack = _stack(2.0, INF, 5e-8, temp)
    x1 = temp.xi(1) * 5e-8 / C_LIGHT
    flagged = []

    def flaky(xs, *args, **kwargs):
        rows = []
        for x, res in zip(xs, _g_hat(xs, *args, **kwargs)):
            if abs(x / x1 - round(x / x1)) > 1e-6:
                flagged.append(x)
                res = dataclasses.replace(res, converged=False)
            rows.append(res)
        return rows

    monkeypatch.setattr(lifshitz_linear, "_g_hat", flaky)
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", quadrature.MIN_LEVEL)
    dropped = pressure_linear(stack, rel_tol=1e-6)
    monkeypatch.setattr(quadrature, "_tail_head", lambda *args: None)
    series = pressure_linear(stack, rel_tol=1e-6)
    assert flagged and dropped.converged and series.converged
    assert (dropped.value, dropped.error) == (series.value, series.error)
    assert dropped.n_evals > series.n_evals


def test_finite_t_work_stays_bounded_as_the_gap_shrinks():
    # the series needs about n_star ln(1/rel_tol) / 2 terms: 1.48M
    # momentum nodes at 1 nm; 1e-11 m is the crossover bracket end
    for d in (1e-9, 1e-11):
        stack = _stack(2.0, INF, d, Temperature.finite(300.0))
        res = pressure_linear(stack)
        zero = pressure_linear(_stack(2.0, INF, d, Temperature.zero()))
        assert res.converged and res.n_evals < 50_000
        assert res.value == pytest.approx(zero.value, rel=1e-8)


@pytest.mark.parametrize("eps", [2.0, INF])
def test_finite_t_tends_to_zero_t_at_fixed_gap(eps):
    # 1 K at 100 nm: n_star ~ 3,600, all but a few terms in the integral
    cold = pressure_linear(_stack(2.0, eps, 1e-7, Temperature.finite(1.0)))
    zero = pressure_linear(_stack(2.0, eps, 1e-7, Temperature.zero()))
    assert cold.converged and zero.converged
    assert abs(cold.value - zero.value) <= 1e-10 * zero.value + cold.error \
        + zero.error


def test_dimensionless_extraction_is_distance_free():
    temp = Temperature.zero()
    coeffs = [pressure_linear(_stack(3.0, 7.0, d, temp)).value * d ** 4
              / (HBAR * C_LIGHT) for d in (1e-9, 3e-8, 1e-6)]
    for c in coeffs[1:]:
        assert c == pytest.approx(coeffs[0], rel=1e-6)


def test_table_material_pressure_runs():
    table = ((0.0, 12.0), (1e15, 4.0), (1e16, 1.5))
    mat = MaterialResponse.from_table(table)
    for temp in (Temperature.finite(300.0), Temperature.zero()):
        stack = LayerStack(mat, MaterialResponse.perfect_mirror(), 1e-7,
                           temp)
        res = pressure_linear(stack)
        assert res.converged
        assert res.value > 0.0
        # bracketed by the constant-eps extremes of the table
        lo = pressure_linear(LayerStack(
            MaterialResponse.constant(1.5), MaterialResponse.perfect_mirror(),
            1e-7, temp)).value
        hi = pressure_linear(LayerStack(
            MaterialResponse.constant(12.0),
            MaterialResponse.perfect_mirror(), 1e-7, temp)).value
        assert lo < res.value < hi


def test_flat_table_matches_constant_material():
    # equal eps at every node: the panels split a smooth integrand
    flat = MaterialResponse.from_table(
        ((0.0, 3.0), (1e13, 3.0), (1e15, 3.0), (1e16, 3.0)))
    temp = Temperature.zero()
    for d in (1e-8, 1e-6):
        res = pressure_linear(LayerStack(
            flat, MaterialResponse.constant(10.0), d, temp))
        ref = pressure_linear(_stack(3.0, 10.0, d, temp))
        assert res.converged and ref.converged
        assert abs(res.value - ref.value) \
            <= 4e-8 * abs(ref.value) + res.error + ref.error


def test_tabulated_zero_temperature_matches_scipy_with_breakpoints():
    # the outer frequency integral by adaptive Gauss-Kronrod, told where
    # the kinks are; the inner momentum integrals run far tighter
    table = ((0.0, 12.0), (1e14, 9.0), (1e15, 4.0), (1e16, 1.5))
    mat = MaterialResponse.from_table(table)
    d, temp = 1e-7, Temperature.zero()
    breaks = [xi / temp.xi(1) for xi, _ in table[1:]]

    def term(n):
        xi = temp.xi(n)
        # x = 0 by the zero-temperature rule, the limit from above
        return _g_hat(np.array([max(xi * d / C_LIGHT, _X_FLOOR)]),
                      mat.permittivity(xi), 10.0, 1e-13)[0].value

    head, _ = quad(term, 0.0, breaks[-1], points=breaks[:-1],
                   epsabs=0.0, epsrel=1e-11, limit=200)
    tail, _ = quad(term, breaks[-1], math.inf, epsabs=0.0, epsrel=1e-11)
    oracle = K_BOLTZMANN * temp.kelvin / (math.pi * d ** 3) * (head + tail)

    res = pressure_linear(LayerStack(mat, MaterialResponse.constant(10.0),
                                     d, temp))
    assert res.converged
    assert res.value == pytest.approx(oracle, rel=1e-8)


def _g_mpmath(x, eps1, eps3):
    # g(x) at 30 digits; mpmath exponents do not underflow
    x = mpmath.mpf(x)

    def f(y):
        k2 = mpmath.sqrt(x * x + y * y)
        k1, k3 = (mpmath.sqrt(e * x * x + y * y) for e in (eps1, eps3))
        damp = mpmath.exp(-2 * k2)
        total = 0
        for r in ((k2 - k1) / (k2 + k1) * (k2 - k3) / (k2 + k3),
                  (eps1 * k2 - k1) / (eps1 * k2 + k1)
                  * (eps3 * k2 - k3) / (eps3 * k2 + k3)):
            total += r * damp / (1 - r * damp)
        return y * k2 * total

    s = mpmath.sqrt(x)
    with mpmath.workdps(30):
        return mpmath.quad(f, [0, s / 4, s / 2, s, 2 * s, 4 * s, 8 * s,
                               mpmath.inf])


def test_g_hat_converges_where_its_integrand_is_subnormal():
    # at x = 362.17 the integrand of g is about 1e-314, and subnormal
    # numbers cannot carry a relative tolerance of 1e-9; the momentum
    # quadrature refines e^(2x) g instead
    res, = _g_hat(np.array([362.17]), 1.01, 1.05, 1e-9)
    assert res.converged and res.n_evals < 4096
    assert 0.0 < res.value < 1e-300
    assert res.value == pytest.approx(float(_g_mpmath(362.17, 1.01, 1.05)),
                                      rel=1e-8)
    res, = _g_hat(np.array([3.0]), 2.0, 10.0, 1e-11)
    assert res.value == pytest.approx(float(_g_mpmath(3.0, 2.0, 10.0)),
                                      rel=1e-10)


def test_g_hat_returns_underflowed_frequencies_as_exact_zeros(monkeypatch):
    # where e^(-2x) underflows (x > 372.6) g is exactly 0: no quadrature
    # and no nodes. _g_hat at x = 1e10 used to take 4,096 nodes and flag,
    # and a batch of such frequencies alone never reaches the row driver
    zero = quadrature.QuadratureResult(0.0, 0.0, 0, True)
    batches = []
    real = lifshitz_linear._refine_rows

    def recorded(*args):
        batches.append(args[2])
        return real(*args)

    monkeypatch.setattr(lifshitz_linear, "_refine_rows", recorded)
    assert _g_hat(np.array([1e10]), 2.0, INF, 1e-9) == [zero]
    assert _g_hat(np.array([373.0, 1e300]), np.array([2.0, 3.0]), 1.5,
                  1e-9) == [zero, zero]
    assert batches == []
    # the live frequencies of a mixed batch keep their results
    mixed = _g_hat(np.array([370.0, 400.0, 3.0]), np.array([1.01, 2.0, 2.0]),
                   1.05, 1e-9)
    alone = [_g_hat(np.array([x]), eps, 1.05, 1e-9)[0]
             for x, eps in ((370.0, 1.01), (3.0, 2.0))]
    assert mixed == [alone[0], zero, alone[1]]
    assert alone[0].value > 0.0 and len(batches[0]) == 2


def test_large_gap_finite_t_is_the_classical_term():
    # at 300 K and 1e4 m every frequency but n = 0 has e^(-2x) = 0; the
    # sum used to flag after 16,448 momentum nodes
    for d in (1e4, 1e6):
        res = pressure_linear(_stack(2.0, INF, d, Temperature.finite(300.0)))
        high = pressure_linear(_stack(2.0, INF, d, Temperature.high(300.0)))
        assert res.converged and res.n_evals < 1000
        assert res.value == pytest.approx(high.value, rel=1e-15)


def test_permittivity_below_one_rejected():
    with pytest.raises(MaterialError):
        i_lin_zero_t(0.5, 2.0)
    with pytest.raises(MaterialError):
        i_lin_high_t(2.0, -1.0)
    with pytest.raises(MaterialError):
        i_lin_zero_t(math.nan, 2.0)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1.0, 2.0, math.nan])
def test_pressure_linear_rejects_a_bad_rel_tol(rel_tol):
    # rel_tol = 0 or -1 used to take 579,584 momentum nodes and return
    # error 0.0, converged
    for temp in (Temperature.zero(), Temperature.finite(300.0)):
        with pytest.raises(ValueError, match="rel_tol"):
            pressure_linear(_stack(2.0, INF, 1e-7, temp), rel_tol=rel_tol)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1.0, 2.0, math.nan])
def test_linear_coefficients_reject_a_bad_rel_tol(rel_tol):
    # rel_tol = 0 used to return a value, nan to raise UnconvergedError
    for coefficient in (i_lin_zero_t, i_lin_high_t):
        with pytest.raises(ValueError, match="rel_tol"):
            coefficient(2.0, 3.0, rel_tol=rel_tol)


def test_linear_coefficient_raises_when_unconverged():
    # at 1e-16 the zero-T frequency integral stops at its 256-node cap
    with pytest.raises(UnconvergedError, match="zero-temperature"):
        i_lin_zero_t(2.0, INF, rel_tol=1e-16)


def _tabulated_row(x, d=1e-7):
    # (x, eps1, eps3) of the tabulated pair at scaled frequency x
    xi = x * C_LIGHT / d
    return (x, MaterialResponse.from_table(TABLE_NL).permittivity(xi),
            MaterialResponse.from_table(TABLE_LIN).permittivity(xi))


# x = 0, small and large x; mirror, vacuum, eps = 2 and tabulated plates
_ROWS = [(0.0, 2.0, INF), (1e-6, 1.0, INF), (0.3, 2.0, 1.0),
         (2.0, INF, INF), (50.0, 2.0, INF), _tabulated_row(0.7),
         _tabulated_row(12.0)]


def _key(res):
    return res.value.hex(), res.error.hex(), res.n_evals, res.converged


@pytest.mark.parametrize("continuum", [False, True])
@pytest.mark.parametrize("rel_tol", [1e-9, 1e-16])
def test_g_hat_rows_equal_single_rows_bitwise(continuum, rel_tol):
    # rows refine in lockstep and stop on their own, each as if alone;
    # x = 0 takes the discrete prescription or, in the continuum, the
    # zero-temperature rule of _thermal_sum: the node is _X_FLOOR
    rows = [(_X_FLOOR if continuum and xi == 0.0 else xi, e1, e3)
            for xi, e1, e3 in _ROWS]
    x, eps1, eps3 = (np.array(col) for col in zip(*rows))
    batch = _g_hat(x, eps1, eps3, rel_tol)
    for (xi, e1, e3), res in zip(rows, batch):
        alone, = _g_hat(np.array([xi]), e1, e3, rel_tol)
        assert _key(res) == _key(alone), xi
    assert len({res.n_evals for res in batch}) >= 3


def test_tabulated_zero_t_refines_each_frequency_level_at_once(monkeypatch):
    # a count, not a timing: one _gap_integrand call per momentum level
    # of each frequency level, where each frequency used to take 1,752
    # calls in all; the work itself is 14,976 momentum nodes (38,144
    # while the table kinks past n* ln(1/rel_tol) each had a panel,
    # 38,400 while the frequencies where e^(-2x) underflows ran a
    # quadrature)
    calls = []
    real = lifshitz_linear._gap_integrand

    def counted(*args):
        calls.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(lifshitz_linear, "_gap_integrand", counted)
    stack = LayerStack(MaterialResponse.from_table(TABLE_NL),
                       MaterialResponse.from_table(TABLE_LIN), 1e-7,
                       Temperature.zero())
    res = pressure_linear(stack)
    assert res.converged and res.n_evals == sum(calls) == 14_976
    assert len(calls) <= 1752 // 5
