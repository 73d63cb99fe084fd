"""Tests for the Kerr pressure correction.

The independent checks: the thermal weight (restated here, since the
kernel has it folded in) obeys the residue identity that connects
real-axis and imaginary-axis evaluation; the kernel reduces to a
closed polynomial form for a transparent plate facing a mirror,
checked pointwise in raw SI variables; the dimensionless
coefficients hit their closed-form transparent-mirror values; the
separable (exponential-sum) coupling agrees with the direct
1/(kappa1 + kappa1') quadrature per frequency pair and per double sum;
and the general double-sum machinery agrees with the direct
closed-bracket path at zero and finite temperature.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from kerrcasimir import (C_LIGHT, EPSILON_0, HBAR, K_BOLTZMANN, LayerStack,
                         MaterialError, MaterialResponse, Temperature,
                         casimir_pressure, crossover_distance,
                         double_matsubara_sum, i_nl_high_t, i_nl_zero_t,
                         integrate_semi_infinite, matsubara_sum,
                         pressure_nonlinear, pressure_transparent_mirror)
from kerrcasimir import lifshitz_nonlinear, quadrature
from kerrcasimir.lifshitz_nonlinear import (_COUPLING_T, _COUPLING_W,
                                            _PREFACTOR, _contract,
                                            _frequency_vectors,
                                            _i_nl_zero_raw, _kernel_vectors,
                                            _pair_quadrature)

CHI3 = 2e-16
TABLE_NL = ((0.0, 11.7), (1e14, 11.0), (1e15, 6.0), (1e16, 1.5), (1e17, 1.01))
TABLE_LIN = ((0.0, 1e4), (1e13, 2e3), (1e15, 60.0), (1e16, 3.0),
             (1e17, 1.05))


def _stack(eps_nl, eps_lin, chi3, gap, temperature):
    if math.isinf(eps_lin):
        lin = MaterialResponse.perfect_mirror()
    else:
        lin = MaterialResponse.constant(eps_lin)
    return LayerStack(MaterialResponse.constant(eps_nl, chi3=chi3), lin,
                      gap, temperature)


def _weight_real(omega, temp):
    """Real-axis spectral weight (hbar w**2 / (pi eps0 c**2)) coth(...)."""
    if omega == 0.0:
        return 0.0
    base = HBAR * omega * omega / (math.pi * EPSILON_0 * C_LIGHT ** 2)
    if temp.kind == "zero":
        return base
    return base / math.tanh(0.5 * HBAR * omega / (K_BOLTZMANN * temp.kelvin))


def _weight_imaginary(xi, temp):
    """Weight of one thermal frequency after the rotation to the
    imaginary axis; per unit xi (continuum density) at zero T."""
    if temp.kind == "zero":
        return 2.0 * HBAR * xi * xi / (math.pi * EPSILON_0 * C_LIGHT ** 2)
    return 4.0 * K_BOLTZMANN * temp.kelvin * xi * xi \
        / (EPSILON_0 * C_LIGHT ** 2)


def _f_pole(omega, big_omega):
    """Test response 1/(omega + i Omega)**4, analytic in the upper half."""
    return (omega + 1j * big_omega) ** -4


def test_residue_identity_finite_temperature():
    # int_0^inf a(w) Im F(w) dw = -(1/2) sum'_n abar(xi_n) F(i xi_n)
    # for F analytic in the upper half plane and decaying fast enough.
    temp = Temperature.finite(300.0)
    big_omega = 5.0 * temp.xi(1)

    def lhs_integrand(omega):
        return (_weight_real(omega, temp)
                * _f_pole(omega, big_omega).imag)

    lhs, _ = quad(lhs_integrand, 0.0, np.inf, limit=400)

    def term(n):
        xi = temp.xi(n)
        return (_weight_imaginary(xi, temp)
                * _f_pole(1j * xi, big_omega).real)

    rhs = -0.5 * matsubara_sum(term, temp, rel_tol=1e-12).value
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_residue_identity_zero_temperature():
    # At T = 0 the sum becomes an integral over the continuum density,
    # and for F = 1/(w + i W)**4 both sides equal -(hbar/(pi eps0 c**2))
    # / (3 W) in closed form.
    temp = Temperature.zero()
    big_omega = 2e14

    def lhs_integrand(omega):
        return (_weight_real(omega, temp)
                * _f_pole(omega, big_omega).imag)

    lhs, _ = quad(lhs_integrand, 0.0, np.inf, limit=400)

    def density_term(xi):
        return (_weight_imaginary(xi, temp)
                * _f_pole(1j * xi, big_omega).real)

    rhs = -0.5 * integrate_semi_infinite(density_term, rel_tol=1e-12,
                                         scale=big_omega,
                                         vectorized=False).value
    closed = -HBAR / (math.pi * EPSILON_0 * C_LIGHT ** 2) / (3.0 * big_omega)
    assert lhs == pytest.approx(closed, rel=1e-9)
    assert rhs == pytest.approx(closed, rel=1e-10)


def _w_si(xi, q, xi_p, q_p, d):
    """Transparent plate facing a mirror: closed kernel in SI variables."""
    kappa = math.hypot(xi / C_LIGHT, q)
    kappa_p = math.hypot(xi_p / C_LIGHT, q_p)
    a = xi * xi / C_LIGHT ** 2
    b = xi_p * xi_p / C_LIGHT ** 2
    bracket = (8.0 * a * b + 6.0 * a * q_p * q_p + 6.0 * q * q * b
               + 7.0 * q * q * q_p * q_p)
    return (-q * q_p * bracket * math.exp(-2.0 * (kappa + kappa_p) * d)
            / ((kappa + kappa_p) * kappa_p))


def _unprimed(x, y, eps1, eps3):
    a1, a2, _, _, k1 = _kernel_vectors(x, y, eps1, eps3)
    return a1, a2, k1


def _primed(x, y, eps1, eps3):
    return _kernel_vectors(x, y, eps1, eps3)[2:]


def _w_point(xi, q, xi_p, q_p, d, eps_nl, eps_lin):
    """Production kernel at one SI spectral point, units 1/m**4."""
    a1, a2, k1 = _unprimed(xi * d / C_LIGHT, np.array([q * d]),
                           eps_nl, eps_lin)
    b1, b2, k1p = _primed(xi_p * d / C_LIGHT, np.array([q_p * d]),
                          eps_nl, eps_lin)
    den = k1[0] + k1p[0]
    if den == 0.0:
        return 0.0
    return float((a1[0] * b1[0] + a2[0] * b2[0]) / den) / d ** 4


def test_kernel_reduces_to_closed_form():
    # sample the full kernel machinery at random spectral points and
    # compare against the closed transparent-mirror expression
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = float(rng.uniform(1e-8, 2e-7))
        xi = float(rng.uniform(0.0, 3.0) / d * C_LIGHT * 0.3)
        xi_p = float(rng.uniform(0.05, 3.0) / d * C_LIGHT * 0.3)
        q = float(rng.uniform(0.01, 3.0) / d)
        q_p = float(rng.uniform(0.01, 3.0) / d)
        want = _w_si(xi, q, xi_p, q_p, d)
        assert _w_point(xi, q, xi_p, q_p, d, 1.0, math.inf) \
            == pytest.approx(want, rel=1e-10)


def test_kernel_vanishes_at_grazing_momentum():
    assert _w_point(1e14, 0.0, 2e14, 3e6, 5e-8, 2.0, 10.0) == 0.0
    assert _w_point(1e14, 3e6, 2e14, 0.0, 5e-8, 2.0, 10.0) == 0.0


def test_kernel_one_signed():
    # w <= 0 pointwise, so chi3 > 0 gives an attractive correction
    rng = np.random.default_rng(11)
    for eps_nl, eps_lin in ((1.0, math.inf), (2.0, 10.0), (5.0, 2.0)):
        for _ in range(10):
            d = 5e-8
            xi = float(rng.uniform(0.0, 1.5)) / d * C_LIGHT
            xi_p = float(rng.uniform(0.0, 1.5)) / d * C_LIGHT
            q = float(rng.uniform(0.0, 2.5)) / d
            q_p = float(rng.uniform(0.0, 2.5)) / d
            assert _w_point(xi, q, xi_p, q_p, d, eps_nl, eps_lin) <= 0.0


def _w_direct(x, xp, eps, eps_p, rel_tol):
    """W(x, x') with the exact 1/(kappa1 + kappa1') coupling matrix."""
    return _pair_quadrature(
        lambda y: _unprimed(x, y, *eps),
        lambda y: _primed(xp, y, *eps_p),
        max(1.0, math.sqrt(x)), max(1.0, math.sqrt(xp)), rel_tol)


def test_exponential_sum_coupling():
    """sum_r w_r exp(-t_r a) exp(-t_r b) = 1/(a + b) to 1e-10 relative.

    a and b each run over [5e-5, 4e3]. The momentum nodes reach smaller
    kappa1 only at y, x < 5e-5, where A and B vanish as y**2 or faster,
    and larger kappa1 only where the gap factor exp(-2 k2) has
    underflowed for every Kerr-plate permittivity up to 100.
    """
    kappa = np.logspace(math.log10(5e-5), math.log10(4e3), 161)
    decay = np.exp(-np.outer(kappa, _COUPLING_T))
    approx = (decay * _COUPLING_W) @ decay.T
    exact = 1.0 / (kappa[:, None] + kappa[None, :])
    assert np.max(np.abs(approx / exact - 1.0)) <= 1e-10


def test_separable_kernel_matches_direct_pair_quadrature():
    table_nl = MaterialResponse.from_table(TABLE_NL)
    table_lin = MaterialResponse.from_table(TABLE_LIN)

    def tabulated(x, d=1e-7):
        xi = x * C_LIGHT / d
        return table_nl.permittivity(xi), table_lin.permittivity(xi)

    cases = [(0.0, 0.0, (2.0, 10.0), (2.0, 10.0)),
             (0.0, 1.7, (1.0, math.inf), (1.0, math.inf)),
             (0.3, 25.0, (2.0, 10.0), (2.0, 10.0)),
             (18.0, 18.0, (5.0, 2.0), (5.0, 2.0)),
             (0.4, 3.0, tabulated(0.4), tabulated(3.0))]
    for x, xp, eps, eps_p in cases:
        f, res = _frequency_vectors(x, *eps, 1e-10)
        fp, res_p = _frequency_vectors(xp, *eps_p, 1e-10)
        direct = _w_direct(x, xp, eps, eps_p, 1e-10)
        assert res.converged and res_p.converged and direct.converged
        assert _contract(f, fp) == pytest.approx(direct.value, rel=1e-8)


def test_pressure_nonlinear_orients_kerr_plate_first():
    # the Kerr plate may sit in either slot: swapping the slots gives
    # the same result, which is the eps_nl = 2, eps_lin = 10 coefficient
    d, temp = 5e-8, Temperature.high(300.0)
    fwd = pressure_nonlinear(LayerStack(
        MaterialResponse.constant(2.0, chi3=CHI3),
        MaterialResponse.constant(10.0), d, temp), rel_tol=1e-8)
    rev = pressure_nonlinear(LayerStack(
        MaterialResponse.constant(10.0),
        MaterialResponse.constant(2.0, chi3=CHI3), d, temp), rel_tol=1e-8)
    assert fwd == rev and fwd.converged
    closed = (CHI3 / EPSILON_0) * (K_BOLTZMANN * 300.0) ** 2 / d ** 6 \
        * i_nl_high_t(2.0, 10.0, rel_tol=1e-8)
    assert fwd.value == pytest.approx(closed, rel=1e-7)
    assert i_nl_high_t(10.0, 2.0) != pytest.approx(i_nl_high_t(2.0, 10.0),
                                                   rel=1e-2)


def test_i_nl_zero_t_transparent_mirror_value():
    value = i_nl_zero_t(1.0, math.inf, rel_tol=1e-7)
    assert value == pytest.approx(45.0 / (4096.0 * math.pi ** 6), rel=1e-6)


def test_i_nl_high_t_transparent_mirror_value():
    value = i_nl_high_t(1.0, math.inf, rel_tol=1e-8)
    assert value == pytest.approx(21.0 / (4096.0 * math.pi ** 4), rel=1e-7)


def test_i_nl_rejects_opaque_kerr_plate():
    with pytest.raises(MaterialError):
        i_nl_zero_t(math.inf, 10.0)
    with pytest.raises(MaterialError):
        i_nl_high_t(math.inf, 10.0)


def test_transparent_mirror_two_paths_zero_t():
    d = 2e-8
    direct = pressure_transparent_mirror(d, Temperature.zero(), CHI3,
                                         rel_tol=1e-6)
    general = pressure_nonlinear(
        _stack(1.0, math.inf, CHI3, d, Temperature.zero()), rel_tol=1e-6)
    assert direct.converged and general.converged
    assert direct.value == pytest.approx(general.value, rel=1e-4)
    # and both against the closed-form coefficient
    closed = (CHI3 / EPSILON_0) * (HBAR * C_LIGHT) ** 2 / d ** 8 \
        * 45.0 / (4096.0 * math.pi ** 6)
    assert direct.value == pytest.approx(closed, rel=1e-4)


def test_transparent_mirror_two_paths_finite_t():
    d = 1e-6
    temp = Temperature.finite(300.0)
    direct = pressure_transparent_mirror(d, temp, CHI3, rel_tol=1e-6)
    general = pressure_nonlinear(_stack(1.0, math.inf, CHI3, d, temp),
                                 rel_tol=1e-6)
    assert direct.converged and general.converged
    assert direct.value == pytest.approx(general.value, rel=1e-4)
    assert direct.value > 0.0


def test_transparent_mirror_route_is_independent(monkeypatch):
    # the dual-route check is only a check while the transparent route
    # never reaches the general kernel vectors
    def forbidden(*args):
        raise AssertionError("general kernel reached")

    monkeypatch.setattr(lifshitz_nonlinear, "_kernel_vectors", forbidden)
    d, temp = 1e-7, Temperature.high(300.0)
    res = pressure_transparent_mirror(d, temp, CHI3, rel_tol=1e-8)
    assert res.converged
    closed = (CHI3 / EPSILON_0) * (K_BOLTZMANN * 300.0) ** 2 / d ** 6 \
        * 21.0 / (4096.0 * math.pi ** 4)
    assert res.value == pytest.approx(closed, rel=1e-7)
    for d in (1e-6, 1e-8):
        finite = pressure_transparent_mirror(d, Temperature.finite(300.0),
                                             CHI3)
        assert finite.converged and finite.value > 0.0


def test_transparent_mirror_validation():
    with pytest.raises(MaterialError):
        pressure_transparent_mirror(0.0, Temperature.zero(), CHI3)
    with pytest.raises(MaterialError):
        pressure_transparent_mirror(math.inf, Temperature.zero(), CHI3)
    res = pressure_transparent_mirror(1e-8, Temperature.zero(), 0.0)
    assert res.value == 0.0 and res.converged


def test_pressure_linear_in_chi3():
    d = 1e-6
    temp = Temperature.finite(300.0)
    base = pressure_nonlinear(_stack(2.0, 10.0, CHI3, d, temp)).value
    double = pressure_nonlinear(_stack(2.0, 10.0, 2.0 * CHI3, d, temp)).value
    neg = pressure_nonlinear(_stack(2.0, 10.0, -CHI3, d, temp)).value
    assert double == pytest.approx(2.0 * base, rel=1e-12)
    assert neg == pytest.approx(-base, rel=1e-12)
    assert base > 0.0


def test_zero_chi3_gives_exact_zero():
    stack = LayerStack(MaterialResponse.constant(2.0),
                       MaterialResponse.constant(10.0), 1e-6,
                       Temperature.finite(300.0))
    res = pressure_nonlinear(stack)
    assert res.value == 0.0 and res.error == 0.0 and res.converged


def test_finite_t_matches_direct_double_sum():
    # oracle: the nested double Matsubara sum with one exact-coupling
    # momentum quadrature per frequency pair
    temp = Temperature.finite(300.0)
    for d in (1e-6, 4.47e-7):
        x_factor = d / C_LIGHT

        def term(n, m):
            return _w_direct(temp.xi(n) * x_factor, temp.xi(m) * x_factor,
                             (2.0, 10.0), (2.0, 10.0), 1e-9).value

        dsum = double_matsubara_sum(term, temp, rel_tol=1e-7)
        direct = -_PREFACTOR * (CHI3 / EPSILON_0) \
            * (K_BOLTZMANN * 300.0) ** 2 / d ** 6 * dsum.value
        res = pressure_nonlinear(_stack(2.0, 10.0, CHI3, d, temp),
                                 rel_tol=1e-7)
        assert dsum.converged and res.converged
        assert res.value == pytest.approx(direct, rel=1e-6)


def test_finite_t_bounded_work_at_nanometre_gap():
    # at 300 K and d = 10 nm (n_star ~ 121) the series took 1,134
    # frequency vectors and 272,160 momentum nodes; the head, the
    # integrated tail vector and its corrections take 74 vectors. The
    # thermal correction is below 1e-4 there
    d = 1e-8
    zero = pressure_nonlinear(_stack(2.0, 10.0, CHI3, d, Temperature.zero()))
    warm = pressure_nonlinear(
        _stack(2.0, 10.0, CHI3, d, Temperature.finite(300.0)))
    assert warm.converged and zero.converged
    assert warm.value == pytest.approx(zero.value, rel=1e-4)
    assert warm.n_evals < 272_160 // 10


def test_finite_t_tail_matches_direct_sum_for_tables(monkeypatch):
    # kinks at n ~ 4, 40 and 405 at 300 K, all of weight above rel_tol:
    # the head runs to 407, past all of them. The series at the default
    # 1e-6 takes 229,200 momentum nodes
    stack = LayerStack(MaterialResponse.from_table(TABLE_NL, chi3=CHI3),
                       MaterialResponse.from_table(TABLE_LIN), 1e-8,
                       Temperature.finite(300.0))
    tail = pressure_nonlinear(stack)
    monkeypatch.setattr(quadrature, "_euler_maclaurin", lambda *args: None)
    direct = pressure_nonlinear(stack, rel_tol=1e-8)
    assert tail.converged and direct.converged
    assert tail.error <= 1e-6 * tail.value
    assert abs(tail.value - direct.value) <= tail.error + direct.error
    assert tail.n_evals < 229_200 // 2


def test_finite_t_flag_comes_from_the_returned_attempt(monkeypatch):
    # as for the linear sum: the frequency vectors of a dropped tail
    # attempt report failure, the series' ones do not
    temp = Temperature.finite(300.0)
    stack = _stack(2.0, 10.0, CHI3, 5e-8, temp)
    x1 = temp.xi(1) * 5e-8 / C_LIGHT
    flagged = []

    def flaky(x, *args):
        f, res = _frequency_vectors(x, *args)
        if abs(x / x1 - round(x / x1)) > 1e-6:
            flagged.append(x)
            res = dataclasses.replace(res, converged=False)
        return f, res

    monkeypatch.setattr(lifshitz_nonlinear, "_frequency_vectors", flaky)
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", quadrature.MIN_LEVEL)
    dropped = pressure_nonlinear(stack)
    monkeypatch.setattr(quadrature, "_euler_maclaurin", lambda *args: None)
    series = pressure_nonlinear(stack)
    assert flagged and dropped.converged and series.converged
    assert (dropped.value, dropped.error) == (series.value, series.error)
    assert dropped.n_evals > series.n_evals


def test_transparent_flags_come_from_the_returned_attempts(monkeypatch):
    # both nested tails are capped at their first level and dropped for
    # the series; a stand-in kernel reports failure at every non-integer
    # index, which only the dropped attempts visit
    temp = Temperature.finite(300.0)
    x1 = temp.xi(1) * 5e-8 / C_LIGHT
    flagged = []

    def kernel(x, xp, rel_tol):
        ok = all(abs(v / x1 - round(v / x1)) < 1e-6 for v in (x, xp))
        flagged.extend([] if ok else [(x, xp)])
        return quadrature.QuadratureResult(math.exp(-2.0 * (x + xp)), 0.0,
                                           1, ok)

    monkeypatch.setattr(lifshitz_nonlinear, "_w_ct", kernel)
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", quadrature.MIN_LEVEL)
    dropped = pressure_transparent_mirror(5e-8, temp, CHI3, rel_tol=1e-5)
    monkeypatch.setattr(quadrature, "_euler_maclaurin", lambda *args: None)
    series = pressure_transparent_mirror(5e-8, temp, CHI3, rel_tol=1e-5)
    assert flagged and dropped.converged and series.converged
    assert dropped.value == series.value


def test_finite_t_tends_to_zero_t_at_fixed_gap():
    # 1 K at 100 nm: n_star ~ 3,600
    cold = pressure_nonlinear(
        _stack(2.0, 10.0, CHI3, 1e-7, Temperature.finite(1.0)))
    zero = pressure_nonlinear(_stack(2.0, 10.0, CHI3, 1e-7,
                                     Temperature.zero()))
    assert cold.converged and zero.converged
    assert abs(cold.value - zero.value) <= 1e-10 * zero.value + cold.error \
        + zero.error


def test_zero_t_coefficient_counts_momentum_nodes():
    # i_nl_zero_t and pressure_nonlinear integrate the same frequency
    # vectors and report the same momentum-node work
    coeff = _i_nl_zero_raw(2.0, 10.0, 1e-6)
    res = pressure_nonlinear(_stack(2.0, 10.0, CHI3, 2e-8,
                                    Temperature.zero()), rel_tol=1e-6)
    assert coeff.converged and res.converged
    assert coeff.n_evals == res.n_evals
    # at least 16 frequency nodes, each with two momentum levels or more
    assert coeff.n_evals >= 16 * 2 * (8 + 16)


@pytest.mark.parametrize("d", [1e-8, 1e-7, 1e-6])
def test_tabulated_zero_t_kerr_converges(d):
    # the frequency integrals split at the table nodes of both plates;
    # one rule across the kinks ran into its level cap unconverged
    temp = Temperature.zero()
    res = pressure_nonlinear(LayerStack(
        MaterialResponse.from_table(TABLE_NL, chi3=CHI3),
        MaterialResponse.from_table(TABLE_LIN), d, temp))
    assert res.converged and res.n_evals < 200_000
    # the coefficient falls with eps_nl and grows with eps_lin, so the
    # extremes of the two tables bracket the tabulated value
    lo = pressure_nonlinear(_stack(11.7, 1.05, CHI3, d, temp)).value
    hi = pressure_nonlinear(_stack(1.01, 1e4, CHI3, d, temp)).value
    assert lo < res.value < hi


def test_flat_table_kerr_matches_constant_material():
    temp = Temperature.zero()
    flat = LayerStack(
        MaterialResponse.from_table(
            ((0.0, 2.0), (1e14, 2.0), (1e15, 2.0), (1e16, 2.0)), chi3=CHI3),
        MaterialResponse.from_table(((0.0, 10.0), (1e13, 10.0), (1e15, 10.0))),
        1e-7, temp)
    res = pressure_nonlinear(flat)
    ref = pressure_nonlinear(_stack(2.0, 10.0, CHI3, 1e-7, temp))
    assert res.converged and ref.converged
    assert abs(res.value - ref.value) \
        <= 4e-6 * abs(ref.value) + res.error + ref.error


def test_finite_t_approaches_zero_t_at_low_temperature():
    # at 30 K and d = 1 um the thermal wavelength dominates the gap, so
    # the discrete double sum should sit close to the T = 0 integral
    d = 1e-6
    zero = pressure_nonlinear(_stack(2.0, 10.0, CHI3, d, Temperature.zero()),
                              rel_tol=1e-6)
    cold = pressure_nonlinear(
        _stack(2.0, 10.0, CHI3, d, Temperature.finite(30.0)), rel_tol=1e-6)
    assert zero.converged and cold.converged
    assert cold.value == pytest.approx(zero.value, rel=2e-2)


def test_finite_t_approaches_high_t_at_high_temperature():
    # with the gap far beyond the thermal wavelength only the (0, 0)
    # term survives and the finite sum collapses onto the classical form
    d = 1e-6
    temp_f = Temperature.finite(1e5)
    temp_h = Temperature.high(1e5)
    fin = pressure_nonlinear(_stack(2.0, 10.0, CHI3, d, temp_f),
                             rel_tol=1e-8)
    high = pressure_nonlinear(_stack(2.0, 10.0, CHI3, d, temp_h),
                              rel_tol=1e-8)
    assert fin.converged and high.converged
    assert fin.value == pytest.approx(high.value, rel=1e-6)
    closed = (CHI3 / EPSILON_0) * (K_BOLTZMANN * 1e5) ** 2 / d ** 6 \
        * i_nl_high_t(2.0, 10.0, rel_tol=1e-8)
    assert high.value == pytest.approx(closed, rel=1e-7)


def test_power_law_exponents():
    # P_nl ~ d**-8 at T = 0 and d**-6 in the classical limit; the slope
    # is d log P / d log d over a doubling of the gap
    chi = CHI3
    z1 = pressure_nonlinear(_stack(2.0, 10.0, chi, 1e-8,
                                   Temperature.zero())).value
    z2 = pressure_nonlinear(_stack(2.0, 10.0, chi, 2e-8,
                                   Temperature.zero())).value
    assert math.log2(z2 / z1) == pytest.approx(-8.0, abs=1e-5)
    h1 = pressure_nonlinear(_stack(2.0, 10.0, chi, 1e-7,
                                   Temperature.high(300.0))).value
    h2 = pressure_nonlinear(_stack(2.0, 10.0, chi, 2e-7,
                                   Temperature.high(300.0))).value
    assert math.log2(h2 / h1) == pytest.approx(-6.0, abs=1e-6)


def test_casimir_pressure_combines_parts():
    stack = _stack(2.0, 10.0, CHI3, 1e-8, Temperature.zero())
    total = casimir_pressure(stack, rel_tol_linear=1e-8,
                             rel_tol_nonlinear=1e-6)
    assert total.value == total.linear.value + total.nonlinear.value
    assert total.converged
    assert total.linear.value > 0.0 and total.nonlinear.value > 0.0


def test_crossover_distance_scaling_in_chi3():
    # at T = 0, P_lin ~ d**-4 and P_nl ~ chi3 d**-8, so doubling chi3
    # moves the crossover out by 2**(1/4)
    stack = _stack(2.0, math.inf, CHI3, 1e-8, Temperature.zero())
    d1 = crossover_distance(stack, rel_tol=1e-6, d_tol=1e-9)
    d2 = crossover_distance(
        _stack(2.0, math.inf, 2.0 * CHI3, 1e-8, Temperature.zero()),
        rel_tol=1e-6, d_tol=1e-9)
    assert d1 is not None and d2 is not None
    assert d2 / d1 == pytest.approx(2.0 ** 0.25, rel=1e-6)
    assert 1e-10 < d1 < 1e-7


def test_crossover_distance_none_without_kerr():
    stack = LayerStack(MaterialResponse.constant(2.0),
                       MaterialResponse.perfect_mirror(), 1e-8,
                       Temperature.zero())
    assert crossover_distance(stack) is None


def test_monotone_in_kerr_permittivity():
    values = [i_nl_high_t(e, 10.0, rel_tol=1e-7) for e in (1.0, 2.0, 5.0)]
    assert values[0] > values[1] > values[2] > 0.0


def test_monotone_in_linear_permittivity():
    values = [i_nl_high_t(2.0, e, rel_tol=1e-7)
              for e in (2.0, 10.0, math.inf)]
    assert 0.0 < values[0] < values[1] < values[2]
