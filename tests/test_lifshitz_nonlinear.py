"""Tests for the Kerr pressure correction.

The independent checks: the thermal weight (restated here, since the
kernel has it folded in) obeys the residue identity that connects
real-axis and imaginary-axis evaluation; the kernel reduces to a
closed polynomial form for a transparent plate facing a mirror,
checked pointwise in raw SI variables; the dimensionless
coefficients hit their closed-form transparent-mirror values; the
separable (exponential-sum) coupling agrees with a test-local direct
1/(kappa1 + kappa1') quadrature per frequency pair and per double sum;
the closed-form momentum integrals of the transparent-mirror route
agree with that quadrature and with mpmath; and the general double-sum
machinery agrees with that route at zero and finite temperature.
"""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from kerrcasimir import (C_LIGHT, EPSILON_0, HBAR, K_BOLTZMANN, LayerStack,
                         MaterialError, MaterialResponse, Temperature,
                         UnconvergedError, casimir_pressure, crossover_distance,
                         i_nl_high_t, i_nl_zero_t, integrate_semi_infinite,
                         matsubara_sum, pressure_linear,
                         pressure_nonlinear, pressure_transparent_mirror)
from kerrcasimir import lifshitz_linear, lifshitz_nonlinear, quadrature
from kerrcasimir.lifshitz_linear import _X_FLOOR
from kerrcasimir.lifshitz_nonlinear import (_COUPLING_T, _COUPLING_W,
                                            _PREFACTOR, _contract,
                                            _ct_pair_sum,
                                            _frequency_vectors,
                                            _i_nl_raw, _k_moments,
                                            _kernel_vectors)
from kerrcasimir.quadrature import QuadratureResult, _rule

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

    rhs = -0.5 * matsubara_sum(lambda ns: [term(n) for n in ns], temp,
                               rel_tol=1e-12).value
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

    rhs = -0.5 * integrate_semi_infinite(
        lambda xis: [density_term(xi) for xi in xis], rel_tol=1e-12,
        scale=big_omega).value
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


def _pair_quadrature(unprimed, primed, scale_y, scale_yp, rel_tol):
    """Joint momentum quadrature of (A1 B1 + A2 B2) / (kappa + kappa').

    unprimed/primed map a node array to (vec1, vec2, kappa). Both grids
    (the composite rule _rule) double together from 8 up to 1024 nodes, and
    each level is two quadratic forms against the exact
    1/(kappa_i + kappa'_j) coupling matrix, accepted once it moves by at
    most rel_tol relative: the oracle for the separable coupling and the
    closed transparent route.
    """
    total, m = None, 8
    while m <= 1024:
        y, wy = _rule(m, scale_y)
        yp, wyp = _rule(m, scale_yp)
        a1, a2, k1 = unprimed(y)
        b1, b2, k1p = primed(yp)
        den = k1[:, None] + k1p[None, :]
        with np.errstate(divide="ignore"):
            cross = np.where(den == 0.0, 0.0, 1.0 / den)
        prev, total = total, float((wy * a1) @ cross @ (wyp * b1)
                                   + (wy * a2) @ cross @ (wyp * b2))
        err = math.inf if prev is None else abs(total - prev)
        if err <= rel_tol * abs(total):
            return QuadratureResult(total, err, 2 * m, True)
        m *= 2
    return QuadratureResult(total, err, m, False)


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
        res, = _frequency_vectors(np.array([x]), *eps, 1e-10)
        res_p, = _frequency_vectors(np.array([xp]), *eps_p, 1e-10)
        direct = _w_direct(x, xp, eps, eps_p, 1e-10)
        assert res.converged and res_p.converged and direct.converged
        assert _contract(res.value, res_p.value) \
            == pytest.approx(direct.value, rel=1e-8)


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


@pytest.mark.parametrize("limit", ["zero", "high"])
def test_the_coefficients_have_no_thermal_sum_of_their_own(monkeypatch,
                                                          limit):
    # each coefficient is a pressure part of the unit stack: one call of
    # that pressure, whose thermal sum is the only one
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for module, name in ((lifshitz_linear, "pressure_linear"),
                         (lifshitz_nonlinear, "pressure_nonlinear")):
        monkeypatch.setattr(module, name,
                            counted(name, getattr(module, name)))
    lifshitz_linear._i_lin_raw.__wrapped__(limit, 2.0, 3.0, 1e-8)
    assert calls == ["pressure_linear"]
    lifshitz_nonlinear._i_nl_raw.__wrapped__(limit, 2.0, 3.0, 1e-6)
    assert calls == ["pressure_linear", "pressure_nonlinear"]


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
    # never reaches the general kernel vectors or the separable coupling
    def forbidden(*args):
        raise AssertionError("general kernel reached")

    for name in ("_kernel_vectors", "_frequency_vectors", "_contract"):
        monkeypatch.setattr(lifshitz_nonlinear, name, forbidden)
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
    # a bare kelvin number fails as in LayerStack, chi3 = 0 or not
    for chi3 in (CHI3, 0.0):
        with pytest.raises(MaterialError, match="must be a Temperature"):
            pressure_transparent_mirror(1e-7, 300.0, chi3)


def test_transparent_mirror_rejects_non_finite_chi3():
    # as MaterialResponse does; both used to return nan or inf, converged
    for chi3 in (math.nan, math.inf, -math.inf):
        with pytest.raises(MaterialError, match="chi3 must be finite"):
            pressure_transparent_mirror(1e-7, Temperature.finite(300.0),
                                        chi3)


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1.0, 2.0, math.nan, "1e-6",
                                     None])
def test_kerr_pressures_reject_a_bad_rel_tol(rel_tol):
    # rel_tol = 0 or -1 used to run to the level caps and report
    # converged, "1e-6" and None to raise a bare TypeError; chi3 = 0 is
    # checked too, before its early return
    temp = Temperature.finite(300.0)
    for chi3 in (CHI3, 0.0):
        with pytest.raises(ValueError, match="rel_tol"):
            pressure_nonlinear(_stack(2.0, 10.0, chi3, 1e-7, temp),
                               rel_tol=rel_tol)
        with pytest.raises(ValueError, match="rel_tol"):
            pressure_transparent_mirror(1e-7, temp, chi3, rel_tol=rel_tol)


# W_ct(x, x') = -sum_j c_j(x, x') K_j(x + x'), j = 1..6, from the closed
# bracket by sympy: row j - 1 lists the coefficients of x**a x'**(6-j-a)
_CT_C = ((0, 0, 0, 8, 0, 0), (0, 0, 10, 6, 0), (0, 6, 20 / 3, 2),
         (3 / 2, 7 / 2, 5 / 3), (7 / 10, 7 / 10), (7 / 60,))


def _w_closed(x, xp):
    c = [sum(cf * x ** a * xp ** (len(row) - 1 - a)
             for a, cf in enumerate(row)) for row in _CT_C]
    return -float(_k_moments(x + xp) @ c)


def _k_oracle(j, s):
    # 20 digits; agrees with a 40-digit run split at 7 points to 1e-19
    with mpmath.workdps(20):
        s = mpmath.mpf(s)
        return float(mpmath.exp(-2 * s) * mpmath.quad(
            lambda g: g ** j * mpmath.exp(-2 * g) / (s + g),
            [0, 2, mpmath.inf]))


def test_k_moments_match_mpmath():
    # the one trapezoidal rule in ln u, from s -> 0 (a node grid cut
    # back toward ln u = -18 misses by 1.4e-8 there) to far out
    points = np.concatenate((np.logspace(-6, math.log10(200.0), 22),
                             [1e-12, 1e-9, 0.999, 1.0, 1.001, 300.0]))
    for s in points:
        k = _k_moments(float(s))
        for j in range(1, 7):
            assert k[j - 1] == pytest.approx(_k_oracle(j, s), rel=1e-13)


def test_k_moments_at_zero_and_far_out():
    assert list(_k_moments(0.0)) == [math.factorial(j - 1) / 2.0 ** j
                                     for j in range(1, 7)]
    # finite and >= 0 through underflow, without a warning
    for s in (5e-324, 1e-300, 1.0, math.nextafter(1.0, 2.0), 50.0, 372.0,
              400.0, 1e4, 1e300):
        k = _k_moments(s)
        assert np.all(np.isfinite(k)) and np.all(k >= 0.0)
    assert not np.any(_k_moments(400.0))


@pytest.mark.parametrize("x, xp", [(0.3, 1.7), (2.0, 0.5), (12.0, 20.0),
                                   (0.01, 0.02), (80.0, 3.0)])
def test_closed_transparent_kernel_matches_pair_quadrature(x, xp):
    # the general kernel at eps = 1 against a mirror, exact coupling
    direct = _w_direct(x, xp, (1.0, math.inf), (1.0, math.inf), 1e-12)
    assert direct.converged
    assert _w_closed(x, xp) == pytest.approx(direct.value, rel=1e-14)


@pytest.mark.parametrize("tau", [0.01, 0.3, 2.0])
def test_pair_sums_are_sums_over_the_pairs(tau):
    # discrete: the Euler-Maclaurin polynomials of _CT_P against the
    # trapezoidal sum over the pairs; continuum: against the integral
    # over m, of a polynomial in m at fixed n (Gauss-Legendre, exact)
    u, w = np.polynomial.legendre.leggauss(4)
    for n in (1, 2, 3, 7, 40):
        pairs = [_w_closed(m * tau, (n - m) * tau) for m in range(n + 1)]
        trapezoid = math.fsum(pairs) - 0.5 * (pairs[0] + pairs[-1])
        assert _ct_pair_sum(n, tau, True) == pytest.approx(trapezoid,
                                                          rel=1e-13)
        m = 0.5 * n * (u + 1.0)
        integral = 0.5 * n * math.fsum(
            wi * _w_closed(mi * tau, (n - mi) * tau) for wi, mi in zip(w, m))
        assert _ct_pair_sum(n, tau, False) == pytest.approx(integral,
                                                           rel=1e-13)
    assert _ct_pair_sum(0, tau, True) == 0.5 * _w_closed(0.0, 0.0)
    assert _ct_pair_sum(0.0, tau, False) == 0.0


def test_transparent_route_closed_forms():
    d = 2e-8
    zero = pressure_transparent_mirror(d, Temperature.zero(), CHI3)
    closed = (CHI3 / EPSILON_0) * (HBAR * C_LIGHT) ** 2 / d ** 8 \
        * 45.0 / (4096.0 * math.pi ** 6)
    assert zero.converged
    assert zero.value == pytest.approx(closed, rel=1e-12)
    high = pressure_transparent_mirror(d, Temperature.high(300.0), CHI3)
    closed = (CHI3 / EPSILON_0) * (K_BOLTZMANN * 300.0) ** 2 / d ** 6 \
        * 21.0 / (4096.0 * math.pi ** 4)
    assert high.converged and high.n_evals == 1
    assert high.value == pytest.approx(closed, rel=1e-14)


@pytest.mark.parametrize("d", [1e-9, 1e-8, 1e-7, 1e-6])
def test_transparent_route_matches_general_kernel_at_finite_t(d):
    temp = Temperature.finite(300.0)
    general = pressure_nonlinear(_stack(1.0, math.inf, CHI3, d, temp),
                                 rel_tol=1e-8)
    assert general.converged
    for rel_tol in (1e-6, 1e-8):
        direct = pressure_transparent_mirror(d, temp, CHI3, rel_tol=rel_tol)
        assert direct.converged
        assert abs(direct.value - general.value) \
            <= direct.error + general.error


@pytest.mark.parametrize("kelvin", [3.0, 300.0])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
def test_transparent_route_work_is_bounded(kelvin, rel_tol):
    # a count, not a timing: n_evals counts pair sums. The tail takes at
    # most 143 of them at 1e-6; at 1e-10 the series runs where n_star ~
    # 121 is too small for the tail, 2,083 terms. The pair quadratures
    # took 741,952 momentum nodes at 10 nm and 300 K
    bound = 200 if rel_tol == 1e-6 else 2_500
    for d in (1e-9, 1e-8, 1e-7, 1e-6):
        res = pressure_transparent_mirror(d, Temperature.finite(kelvin),
                                          CHI3, rel_tol=rel_tol)
        assert res.converged and res.n_evals <= bound


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
    # oracle: the nested double Matsubara sum (inner sums to a tenth of
    # the outer rel_tol) with one exact-coupling momentum quadrature per
    # frequency pair
    temp = Temperature.finite(300.0)
    for d in (1e-6, 4.47e-7):
        x_factor = d / C_LIGHT

        def term(n, m):
            return _w_direct(temp.xi(n) * x_factor, temp.xi(m) * x_factor,
                             (2.0, 10.0), (2.0, 10.0), 1e-9).value

        dsum = matsubara_sum(
            lambda ns: [matsubara_sum(lambda ms: [term(n, m) for m in ms],
                                      temp, rel_tol=0.1 * 1e-7)
                        for n in ns],
            temp, rel_tol=1e-7)
        direct = -_PREFACTOR * (CHI3 / EPSILON_0) \
            * (K_BOLTZMANN * 300.0) ** 2 / d ** 6 * dsum.value
        res = pressure_nonlinear(_stack(2.0, 10.0, CHI3, d, temp),
                                 rel_tol=1e-7)
        assert dsum.converged and res.converged
        assert res.value == pytest.approx(direct, rel=1e-6)


_CORNER_TEMPERATURES = [Temperature.zero()] + [
    make(kelvin) for make in (Temperature.finite, Temperature.high)
    for kelvin in (2.0 ** -64, 2.0 ** 64)]


@pytest.mark.parametrize("d", [2.0 ** -127, 2.0 ** 127],
                         ids=["d_min", "d_max"])
@pytest.mark.parametrize("temp", _CORNER_TEMPERATURES,
                         ids=lambda t: "%s-2^%g" % (t.kind,
                                                    math.log2(t.kelvin)))
@pytest.mark.parametrize("eps_lin", [math.inf, 3.0])
def test_pressures_at_the_corners_of_the_input_box(d, temp, eps_lin):
    # every route is finite and converged at each corner of the gap and
    # temperature ranges; the transparent route at 2**64 K and 2**127 m
    # used to return NaN after 20,001 pair sums
    stack = _stack(2.0, eps_lin, CHI3, d, temp)
    results = [pressure_linear(stack), pressure_nonlinear(stack)]
    if math.isinf(eps_lin):
        results.append(pressure_transparent_mirror(d, temp, CHI3))
    for res in results:
        assert res.converged
        assert math.isfinite(res.value) and math.isfinite(res.error)


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
    monkeypatch.setattr(quadrature, "_tail_head", lambda *args: None)
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

    def flaky(xs, *args):
        rows = []
        for x, res in zip(xs, _frequency_vectors(xs, *args)):
            if abs(x / x1 - round(x / x1)) > 1e-6:
                flagged.append(x)
                res = dataclasses.replace(res, converged=False)
            rows.append(res)
        return rows

    monkeypatch.setattr(lifshitz_nonlinear, "_frequency_vectors", flaky)
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", quadrature.MIN_LEVEL)
    dropped = pressure_nonlinear(stack)
    monkeypatch.setattr(quadrature, "_tail_head", lambda *args: None)
    series = pressure_nonlinear(stack)
    assert flagged and dropped.converged and series.converged
    assert (dropped.value, dropped.error) == (series.value, series.error)
    assert dropped.n_evals > series.n_evals


def test_transparent_flags_come_from_the_returned_attempts(monkeypatch):
    # the tail is capped at its first level and dropped for the series;
    # the wrapped pair sum reports failure at every non-integer N, which
    # only the dropped attempt visits
    temp = Temperature.finite(300.0)
    flagged = []

    def pair_sum(n, tau, discrete):
        ok = n == round(n)
        flagged.extend([] if ok else [n])
        return quadrature.QuadratureResult(_ct_pair_sum(n, tau, discrete),
                                           0.0, 1, ok)

    monkeypatch.setattr(lifshitz_nonlinear, "_ct_pair_sum", pair_sum)
    monkeypatch.setattr(quadrature, "_TAIL_MAX_LEVEL", quadrature.MIN_LEVEL)
    dropped = pressure_transparent_mirror(5e-8, temp, CHI3, rel_tol=1e-5)
    monkeypatch.setattr(quadrature, "_tail_head", lambda *args: None)
    series = pressure_transparent_mirror(5e-8, temp, CHI3, rel_tol=1e-5)
    assert flagged and dropped.converged and series.converged
    assert (dropped.value, dropped.error) == (series.value, series.error)
    assert dropped.n_evals > series.n_evals


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
    coeff = _i_nl_raw("zero", 2.0, 10.0, 1e-6)
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


def test_tabulated_zero_t_converges_at_large_gaps():
    # from 1 cm up the terms decay on n* ~ 3.6e-4 m / d, far below the
    # first table kink (n ~ 12), and a first panel [0, 12] held an
    # exponential it could not resolve: flagged, and 7% (linear) and 35%
    # (Kerr) off at 1 m. By the kink rule of matsubara_sum every kink
    # there lies past n* ln(1/rel_tol) and splits nothing, so the
    # integral takes the one mapped rule and the nodes of constant
    # plates (72,000 linear nodes at 1 cm and 58,560 at 1 m, against
    # 5,056, while every kink had a panel). Both parts converge and
    # approach the plates at the tables' eps(0), 11.7 against 1e4, by at
    # least 1/d: the rest is the tables' slope between xi = 0 and their
    # first node
    temp = Temperature.zero()
    gaps = []
    for d in (1e-2, 1e-1, 1.0):
        tabulated = LayerStack(MaterialResponse.from_table(TABLE_NL,
                                                           chi3=CHI3),
                               MaterialResponse.from_table(TABLE_LIN), d,
                               temp)
        constant = _stack(11.7, 1e4, CHI3, d, temp)
        gap = []
        for part, rel_tol in ((pressure_linear, 1e-8),
                              (pressure_nonlinear, 1e-6)):
            res, ref = part(tabulated, rel_tol), part(constant, rel_tol)
            assert res.converged and ref.converged
            assert res.n_evals <= 1.1 * ref.n_evals
            gap.append(abs(res.value / ref.value - 1.0))
        gaps.append(gap)
    assert max(gaps[-1]) < 3e-7
    for near, far in zip(gaps, gaps[1:]):
        assert all(10.0 * b <= a for a, b in zip(near, far))


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


def test_crossover_distance_none_for_a_same_sign_bracket():
    # chi3 = 1e-40 puts the crossover near 4e-15 m, below the bracket:
    # the linear part wins at both ends
    stack = _stack(2.0, math.inf, 1e-40, 1e-8, Temperature.zero())
    assert stack.kerr_layer is not None
    assert crossover_distance(stack) is None


def test_crossover_distance_raises_on_an_unconverged_pressure(monkeypatch):
    real = lifshitz_nonlinear._i_nl_raw
    monkeypatch.setattr(lifshitz_nonlinear, "_i_nl_raw",
                        lambda *args: dataclasses.replace(real(*args),
                                                          converged=False))
    stack = _stack(2.0, math.inf, CHI3, 1e-8, Temperature.zero())
    with pytest.raises(UnconvergedError, match="d = 1e-11 m"):
        crossover_distance(stack)


def test_kerr_coefficients_raise_when_unconverged():
    # the classical momentum integral runs at rel_tol itself and stops
    # at its 1024-node cap; the zero-T integral at its 256-node cap
    with pytest.raises(UnconvergedError, match="high-temperature"):
        i_nl_high_t(2.0, math.inf, rel_tol=1e-16)
    with pytest.raises(UnconvergedError, match="zero-temperature"):
        i_nl_zero_t(2.0, math.inf, rel_tol=1e-16)


def test_pressures_reject_a_gap_below_the_bound():
    # d = 1e-150 used to end in ZeroDivisionError (d**4, d**6 or d**8
    # underflowed); the stack, and the transparent route's own check,
    # refuse the gap first
    for temp in (Temperature.zero(), Temperature.finite(300.0),
                 Temperature.high(300.0)):
        with pytest.raises(MaterialError, match="gap"):
            _stack(2.0, math.inf, CHI3, 1e-150, temp)
        with pytest.raises(MaterialError, match="gap"):
            pressure_transparent_mirror(1e-150, temp, CHI3)
    # at the bound itself both parts are finite
    total = casimir_pressure(_stack(2.0, math.inf, CHI3, 2.0 ** -127,
                                    Temperature.zero()))
    assert total.converged and math.isfinite(total.value)


def _count_probes(monkeypatch):
    # pressure evaluations of crossover_distance, capped so that a
    # bisection that never stops fails instead of hanging
    probes = []
    real = lifshitz_nonlinear._pressure_pair

    def counted(stack, rel_tol):
        pair = real(stack, rel_tol)

        def probe(d):
            probes.append(d)
            assert len(probes) <= 200, "the bisection does not stop"
            return pair(d)

        return probe

    monkeypatch.setattr(lifshitz_nonlinear, "_pressure_pair", counted)
    return probes


def test_crossover_distance_rejects_a_bad_d_tol(monkeypatch):
    probes = _count_probes(monkeypatch)
    stack = _stack(2.0, math.inf, CHI3, 1e-8, Temperature.zero())
    for d_tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            crossover_distance(stack, d_tol=d_tol)
    assert probes == []


def test_crossover_distance_stops_once_the_midpoint_stops_splitting(
        monkeypatch):
    # a count, not a timing: at d_tol = 1e-15 the bracket never gets
    # that narrow in log d, so the bisection must stop on the midpoint
    probes = _count_probes(monkeypatch)
    stack = _stack(2.0, math.inf, CHI3, 1e-8, Temperature.zero())
    d_ref = crossover_distance(stack, rel_tol=1e-6, d_tol=1e-9)
    # two bracket ends, then ceil(log2(ln(1e7) / 1e-9)) = 34 halvings
    assert len(probes) == 2 + 34
    del probes[:]
    d_star = crossover_distance(stack, rel_tol=1e-6, d_tol=1e-15)
    # about 52 halvings take ln(1e7) down to the spacing of log d
    assert len(probes) <= 2 + 64
    assert d_star == pytest.approx(d_ref, rel=1e-8)


def test_monotone_in_kerr_permittivity():
    values = [i_nl_high_t(e, 10.0, rel_tol=1e-7) for e in (1.0, 2.0, 5.0)]
    assert values[0] > values[1] > values[2] > 0.0


def test_monotone_in_linear_permittivity():
    values = [i_nl_high_t(2.0, e, rel_tol=1e-7)
              for e in (2.0, 10.0, math.inf)]
    assert 0.0 < values[0] < values[1] < values[2]


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1.0, 2.0, math.nan, "1e-6",
                                     None])
def test_kerr_coefficients_and_crossover_reject_a_bad_rel_tol(rel_tol):
    # i_nl_zero_t(rel_tol=2) used to return 3.79e-7, and crossover_distance
    # to raise UnconvergedError at 0 and to return 4.25e-9 at 2; "1e-6"
    # and None raised a bare TypeError
    for coefficient in (i_nl_zero_t, i_nl_high_t):
        with pytest.raises(ValueError, match="rel_tol"):
            coefficient(2.0, 3.0, rel_tol=rel_tol)
    for chi3 in (CHI3, 0.0):
        stack = _stack(2.0, math.inf, chi3, 1e-7, Temperature.zero())
        with pytest.raises(ValueError, match="rel_tol"):
            crossover_distance(stack, rel_tol=rel_tol)


def _tabulated_row(x, d=1e-7):
    # (x, eps1, eps3) of the tabulated pair at scaled frequency x
    xi = x * C_LIGHT / d
    return (x, MaterialResponse.from_table(TABLE_NL).permittivity(xi),
            MaterialResponse.from_table(TABLE_LIN).permittivity(xi))


# x = 0, small and large x; mirror, vacuum, eps = 2 and tabulated plates
_ROWS = [(0.0, 2.0, math.inf), (1e-6, 1.0, math.inf), (0.3, 2.0, 1.0),
         (5.0, 2.0, 10.0), (50.0, 1.0001, math.inf), _tabulated_row(0.7),
         _tabulated_row(12.0)]


def _key(res):
    # a frequency-vector result: W(x, x) = <f, f> and the refinement's
    # error, work and flag
    return (_contract(res.value, res.value).hex(), res.error.hex(),
            res.n_evals, res.converged)


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-16])
def test_frequency_vectors_rows_equal_single_rows_bitwise(rel_tol):
    # rows refine in lockstep and stop on their own, each as if alone,
    # vectors included; at 1e-16 some stop at the 1024 cap, flagged.
    # Tiled to 21 rows, a level of 8 nodes spans three contraction
    # chunks (_level_vectors)
    alone = {}
    for rows in (_ROWS, _ROWS * 3):
        x, eps1, eps3 = (np.array(col) for col in zip(*rows))
        batch = _frequency_vectors(x, eps1, eps3, rel_tol)
        for (xi, e1, e3), res in zip(rows, batch):
            if xi not in alone:
                alone[xi], = _frequency_vectors(np.array([xi]), e1, e3,
                                                rel_tol)
            assert _key(res) == _key(alone[xi]), xi
            f, f_alone = res.value, alone[xi].value
            assert f.shape == (4, _COUPLING_T.size)
            assert np.array_equal(f.view(np.uint64),
                                  f_alone.view(np.uint64))
        capped = [res.n_evals == 1024 and not res.converged
                  for res in batch]
        if rel_tol == 1e-16:
            assert any(capped) and not all(capped)
        assert len({res.n_evals for res in batch}) >= 2


@pytest.mark.parametrize("n_rows, m", [(20, 8), (9, 16), (3, 64),
                                         (1, 1024)])
def test_level_vectors_chunks_keep_each_rows_bits(n_rows, m):
    # the block contraction, in chunks of at most 64 nodes' coupling
    # exponentials (8, 4 and 1 rows here, the last one partial) or of
    # one row that has more, equals the per-row formula bit for bit,
    # the vectors f and <f, f> alike
    x = np.linspace(0.0, 6.0, n_rows)
    y, w = _rule(m, np.maximum(1.0, np.sqrt(x))[:, None])
    vals = lifshitz_nonlinear._node_vectors(
        y.ravel(), np.repeat(x, m), 2.0, math.inf, None).reshape(
            n_rows, m, 5)
    totals, f = lifshitz_nonlinear._level_vectors(w, vals)
    assert np.ravel(totals).size == n_rows == len(f)
    for j in range(n_rows):
        row = (w[j] * vals[j, :, :4].T) @ np.exp(
            np.multiply.outer(vals[j, :, 4], -_COUPLING_T))
        assert np.array_equal(f[j].view(np.uint64), row.view(np.uint64))
        assert np.ravel(totals)[j].hex() == _contract(row, row).hex()


def test_a_batch_at_the_node_cap_peaks_below_8_mib():
    # 64 frequencies refined up to the 1,024-node cap: the contraction
    # holds one row's coupling exponentials at a time (1 MiB), and the
    # batch peaks at about 7 MiB of traced arrays; the exponentials of a
    # whole block at once would take about 39 MiB
    _frequency_vectors(np.array([1.0]), 2.0, math.inf, 1e-18)
    tracemalloc.start()
    try:
        batch = _frequency_vectors(np.linspace(0.5, 5.0, 64), 2.0, math.inf,
                                   1e-18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(res.n_evals for res in batch) == 1024
    assert peak <= 8 * 2 ** 20


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-16])
def test_frequency_vectors_at_the_floor_equal_x_zero_bitwise(rel_tol):
    # the zero-T rule maps x = 0 to _X_FLOOR; at the floor the s-channel
    # terms carry x**2 = 0, so every plate pair of _ROWS keeps the bits of
    # x = 0, and the 0/0 of the y = 0 node (masked) raises no warning
    for _, e1, e3 in _ROWS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floor, = _frequency_vectors(np.array([_X_FLOOR]), e1, e3,
                                        rel_tol)
            zero, = _frequency_vectors(np.array([0.0]), e1, e3, rel_tol)
        assert _key(floor) == _key(zero), (e1, e3)
        assert np.array_equal(floor.value.view(np.uint64),
                              zero.value.view(np.uint64))


@pytest.mark.parametrize("temp", [Temperature.zero(),
                                  Temperature.finite(300.0),
                                  Temperature.high(300.0)],
                         ids=["zero", "finite", "high"])
def test_both_parts_sum_one_frequency_map(temp, monkeypatch):
    # both parts hand their momentum rows the same x: xi_n d / c, the
    # n = 0 node _X_FLOOR in the zero-T integral (its limit from above)
    # and exactly +0.0 in the discrete sums
    seen = {}
    for module, name in ((lifshitz_linear, "_g_hat"),
                         (lifshitz_nonlinear, "_frequency_vectors")):
        real = getattr(module, name)

        def recorded(x, *args, _fn=real, _name=name):
            seen.setdefault(_name, []).extend(x.tolist())
            return _fn(x, *args)

        monkeypatch.setattr(module, name, recorded)
    d = 1e-6
    stack = _stack(2.0, math.inf, CHI3, d, temp)
    assert pressure_linear(stack, 1e-6).converged
    assert pressure_nonlinear(stack, 1e-4).converged
    assert set(seen) == {"_g_hat", "_frequency_vectors"}
    for name, xs in seen.items():
        if temp.kind == "zero":
            assert min(xs) == _X_FLOOR and 0.0 not in xs, name
        else:
            assert min(xs) == 0.0 and math.copysign(1.0, min(xs)) == 1.0
            ns = np.arange(max(xs) / (temp.xi(1) * d / C_LIGHT) + 2.0)
            grid = set((temp.xi(ns) * d / C_LIGHT).tolist())
            assert set(xs) <= grid, name
            if temp.kind == "high":
                assert xs == [0.0], name


def test_frequency_vectors_return_underflowed_frequencies_as_exact_zeros(
        monkeypatch):
    # the Kerr twin of _g_hat's: where e^(-2x) underflows (x > 372.6)
    # every kernel value is 0, so the vectors are exact zeros, read-only,
    # with no nodes. Each such frequency used to take 16 nodes, and a
    # batch of them alone never reaches the row driver
    real = lifshitz_linear._refine_rows
    (f, res), = real(
        lambda y, _: lifshitz_nonlinear._node_vectors(y, 400.0, 2.0, 1.05,
                                                      0.0),
        lifshitz_nonlinear._level_vectors, [20.0], 1e-9, 1024)
    assert not f.any() and (res.n_evals, res.converged) == (16, True)
    batches = []

    def recorded(*args):
        batches.append(args[2])
        return real(*args)

    monkeypatch.setattr(lifshitz_linear, "_refine_rows", recorded)
    dead = (_frequency_vectors(np.array([1e10]), 2.0, math.inf, 1e-9)
            + _frequency_vectors(np.array([373.0, 1e300]),
                                 np.array([2.0, 3.0]), 1.5, 1e-9))
    for res in dead:
        assert (res.error, res.n_evals, res.converged) == (0.0, 0, True)
        assert res.value.shape == (4, _COUPLING_T.size)
        assert not res.value.any() and not res.value.flags.writeable
    assert batches == []
    # the live frequencies of a mixed batch keep their results
    mixed = _frequency_vectors(np.array([370.0, 400.0, 3.0]),
                               np.array([1.01, 2.0, 2.0]), 1.05, 1e-9)
    alone = [_frequency_vectors(np.array([x]), eps, 1.05, 1e-9)[0]
             for x, eps in ((370.0, 1.01), (3.0, 2.0))]
    assert [_key(res) for res in mixed] \
        == [_key(alone[0]), _key(dead[0]), _key(alone[1])]
    for res, single in zip(mixed[::2], alone):
        assert np.array_equal(res.value.view(np.uint64),
                              single.value.view(np.uint64))
    assert alone[0].value.any() and len(batches[0]) == 2


@pytest.mark.parametrize("pressure", [pressure_linear, pressure_nonlinear])
def test_sub_kelvin_tabulated_plates_stop_flagged(pressure, monkeypatch):
    # at 2**-64 K the last table kink lies at n ~ 2.2e24, below the series
    # budget: the Euler-Maclaurin head used to take every frequency up to
    # it in one batch and raised ValueError. A head past _MAX_HEAD
    # declines the tail, and the series stops flagged at _MAX_TERMS, here
    # made small: 51 frequencies of 64 momentum nodes each
    monkeypatch.setattr(quadrature, "_MAX_TERMS", 50)
    stack = LayerStack(MaterialResponse.from_table(TABLE_NL, chi3=CHI3),
                       MaterialResponse.from_table(TABLE_LIN), 1e-8,
                       Temperature.finite(2.0 ** -64))
    res = pressure(stack)
    assert math.isfinite(res.value) and res.value > 0.0
    assert not res.converged and res.n_evals <= 51 * 64


def test_a_zero_kerr_part_is_plus_zero():
    # a vacuum Kerr partner gives a zero sum, and the negative prefactor
    # used to turn it into -0.0
    zero_t = _stack(2.0, 1.0, CHI3, 1e-7, Temperature.zero())
    for value in (i_nl_zero_t(2.0, 1.0), i_nl_high_t(2.0, 1.0),
                  pressure_nonlinear(zero_t).value):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("tabulated", [False, True])
def test_kernels_get_plate_floats_or_one_column_per_row(monkeypatch,
                                                        tabulated):
    # a constant plate's permittivity reaches both kernels as one float;
    # a tabulated plate's, x and e^(-2x) as one entry per node of the
    # flat y, its row's value: one run of equal entries per row
    if tabulated:
        stack = LayerStack(MaterialResponse.from_table(TABLE_NL, chi3=CHI3),
                           MaterialResponse.from_table(TABLE_LIN), 1e-7,
                           Temperature.finite(300.0))
    else:
        stack = _stack(2.0, math.inf, CHI3, 1e-7, Temperature.finite(300.0))
    seen = []
    for module, name in ((lifshitz_linear, "_gap_integrand"),
                         (lifshitz_nonlinear, "_node_vectors")):
        real = getattr(module, name)

        def spy(y, x, eps1, eps3, edge, real=real):
            seen.append((y.shape, x, eps1, eps3, edge))
            return real(y, x, eps1, eps3, edge)
        monkeypatch.setattr(module, name, spy)
    assert pressure_linear(stack).converged
    assert pressure_nonlinear(stack).converged
    assert len(seen) > 2
    n_rows = set()
    for shape, *columns in seen:
        # the batch's frequencies differ, so x changes at each new row
        starts = np.flatnonzero(np.diff(columns[0], prepend=math.nan))
        n_rows.add(starts.size)
        per_row = shape[0] // starts.size
        assert len(shape) == 1 and shape[0] == starts.size * per_row

        def one_per_row(col):
            return np.array_equal(col, np.repeat(col[starts], per_row))
        for col in columns[:1] + columns[3:]:
            assert col.shape == shape and one_per_row(col)
        for eps in columns[1:3]:
            if tabulated:
                assert eps.shape == shape and one_per_row(eps)
            else:
                assert type(eps) is float
    assert n_rows != {1}
