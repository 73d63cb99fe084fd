"""Kerr correction to the Casimir pressure between parallel plates.

One plate carries an isotropic third-order (Kerr) susceptibility chi3.
To first order in chi3 the pressure acquires a correction driven by
pairs of fluctuation frequencies: the field fluctuations at omega'
inside the Kerr plate shift its refractive index, and that shift reacts
back on the round-trip phase of the modes at omega. Both frequency
integrals are evaluated on the imaginary axis, where the mode sum is a
smooth, real, exponentially decaying kernel.

In scaled variables x = xi*d/c, y = q*d (and primed counterparts) the
kernel is

    w(x, y, x', y') = (A1 * B1 + A2 * B2) / (kappa1 + kappa1'),

with the unprimed factors (response of the cavity modes at xi)

    G_s = (1 - F21_s) / (1 - F21_s F23_s e^(-2 k2)),   likewise G_p,
    A1 = y (k2/kappa1)**2 e^(-2 k2) (-F23_s G_s**2 x**2
                                     + F23_p G_p**2 kappa1**2),
    A2 = y (k2/kappa1)**2 e^(-2 k2) F23_p G_p**2 y**2,

and the primed factors (fluctuation spectrum inside the Kerr plate)

    R_s = F23_s' (1 - F21_s'**2) / (1 - F21_s' F23_s' e^(-2 k2')),
    mx = 2 x'**2 R_s - (3 y'**2 / eps1' + 2 x'**2) R_p,
    mz =   x'**2 R_s - (4 y'**2 / eps1' +   x'**2) R_p,
    B1 = y' e^(-2 k2') mx / kappa1',
    B2 = y' e^(-2 k2') mz / kappa1'.

Here k2 = hypot(x, y) is the gap decay constant and kappa1 the decay
constant inside the Kerr plate. The thermal weights, which grow as
xi**2, are already folded in; that is what cancels the 1/xi'**2
divergence of the raw mode response and makes the x' = 0 term finite.

The pressure is the doubly primed thermal double sum

    P_nl = -(3 / (2**5 pi**4)) (chi3/eps0) (kB T)**2 / d**6
           * sum'_n sum'_m  W(x_n, x_m),

where W is w integrated over both momenta; at zero temperature the
sums become integrals over continuous n, and in the classical limit
only the (0, 0) term is left. With the attraction-positive sign
convention of pressure_linear, the kernel is pointwise of one sign and
chi3 > 0 gives an attractive correction for every material pair.

Separable coupling. The only factor of w that ties the two frequencies
together is 1/(kappa1 + kappa1'). Writing it as
int_0^inf e^(-t kappa1) e^(-t kappa1') dt and applying the trapezoidal
rule in s = ln t, which converges exponentially for this integrand
(Trefethen & Weideman, SIAM Rev. 56 (2014) 385), gives a rank-127 sum

    1/(a + b) ~ sum_r w_r e^(-t_r a) e^(-t_r b),

accurate to 1e-10 relative for a + b between 1e-4 and about 9e3. Then

    W(x, x') = sum_r w_r (U1(x)_r V1(x')_r + U2(x)_r V2(x')_r),
    U_k(x)_r = int dy A_k(x, y) e^(-t_r kappa1(x, y)),

and V_k the same with B_k. Each thermal frequency needs one momentum
quadrature (_frequency_vectors, refined on the diagonal W(x, x)), and
the double sum or double integral is the contraction of the summed or
integrated vectors: O(N) momentum quadratures for N frequencies, where
a quadrature per pair costs O(N**2). pressure_transparent_mirror keeps
the exact coupling matrix, one quadrature per frequency pair, so the
dual-route check compares two independent evaluations.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .constants import C_LIGHT, EPSILON_0, HBAR, K_BOLTZMANN
from .errors import MaterialError, UnconvergedError
from .fresnel import reflection_p, reflection_s
from .lifshitz_linear import (PressureResult, _inner_tol, _n_star,
                              as_permittivity, i_lin_high_t, i_lin_zero_t,
                              pressure_linear)
from .quadrature import (MIN_LEVEL, QuadratureResult, Temperature,
                         _euler_maclaurin, _nested_values, _refine,
                         double_matsubara_sum, matsubara_sum,
                         semi_infinite_nodes)

_PREFACTOR = 3.0 / (2.0 ** 5 * math.pi ** 4)
_I_ZERO_FACTOR = 3.0 / (2.0 ** 7 * math.pi ** 6)
_I_HIGH_FACTOR = 3.0 / (2.0 ** 7 * math.pi ** 4)
_INNER_MAX_LEVEL = 1024
_OUTER_MAX_LEVEL = 256

# 1/(a + b) = int_0^inf e^(-t a) e^(-t b) dt, trapezoidal in s = ln t
# over s = -32 + 0.35 r, r = 0..126: t_r = e^(s_r), w_r = h t_r
_COUPLING_H = 0.35
_COUPLING_T = np.exp(-32.0 + _COUPLING_H * np.arange(127.0))
_COUPLING_W = _COUPLING_H * _COUPLING_T

_CROSSOVER_LO = 1e-11
_CROSSOVER_HI = 1e-4


def _kernel_vectors(x, y, eps1, eps3):
    """A1, A2, B1, B2 and kappa1 over a y grid at one scaled frequency x.

    A_k are the unprimed factors (x as the frequency of the cavity
    modes), B_k the primed ones (x as the fluctuation frequency); both
    share the four Fresnel amplitudes.
    """
    k2 = np.hypot(x, y)
    k1sq = eps1 * x * x + y * y
    k1 = np.sqrt(k1sq)
    damp = np.exp(-2.0 * k2)
    fs21 = reflection_s(x, y, eps1)
    fp21 = reflection_p(x, y, eps1)
    fs23 = reflection_s(x, y, eps3)
    fp23 = reflection_p(x, y, eps3)
    gs = (1.0 - fs21) / (1.0 - fs21 * fs23 * damp)
    gp = (1.0 - fp21) / (1.0 - fp21 * fp23 * damp)
    rs = fs23 * (1.0 - fs21 * fs21) / (1.0 - fs21 * fs23 * damp)
    rp = fp23 * (1.0 - fp21 * fp21) / (1.0 - fp21 * fp23 * damp)
    mx = 2.0 * x * x * rs - (3.0 * y * y / eps1 + 2.0 * x * x) * rp
    mz = x * x * rs - (4.0 * y * y / eps1 + x * x) * rp
    with np.errstate(invalid="ignore", divide="ignore"):
        pref = y * (k2 * k2 / k1sq) * damp
        vecs = (pref * (-fs23 * gs * gs * x * x + fp23 * gp * gp * k1sq),
                pref * fp23 * gp * gp * y * y,
                y * damp * mx / k1, y * damp * mz / k1)
    zero = y == 0.0
    return tuple(np.where(zero, 0.0, vec) for vec in vecs) + (k1,)


def _ct_unprimed(x, y):
    damp = np.exp(-2.0 * np.hypot(x, y))
    u = y * damp
    return u * x * x, u * y * y, np.hypot(x, y)


def _ct_primed(x, y):
    k = np.hypot(x, y)
    damp = np.exp(-2.0 * k)
    with np.errstate(invalid="ignore", divide="ignore"):
        v = y * damp / k
    b1 = -(8.0 * x * x + 6.0 * y * y) * v
    b2 = -(6.0 * x * x + 7.0 * y * y) * v
    zero = (y == 0.0) & (k == 0.0)
    return np.where(zero, 0.0, b1), np.where(zero, 0.0, b2), k


def _pair_quadrature(unprimed, primed, scale_y, scale_yp, rel_tol):
    """Joint momentum quadrature of (A1 B1 + A2 B2) / (kappa + kappa').

    unprimed/primed map a node array to (vec1, vec2, kappa). Both grids
    double together; the value at each level is assembled from two
    quadratic forms against the 1/(kappa_i + kappa'_j) coupling matrix.
    This direct form serves the transparent-plate/mirror route, which
    must not share the separable coupling it is compared against.
    """

    def levels():
        m, n_evals = MIN_LEVEL, 0
        while True:
            y, wy = semi_infinite_nodes(m, scale_y)
            yp, wyp = semi_infinite_nodes(m, scale_yp)
            a1, a2, k1 = unprimed(y)
            b1, b2, k1p = primed(yp)
            den = k1[:, None] + k1p[None, :]
            with np.errstate(divide="ignore"):
                cross = np.where(den == 0.0, 0.0, 1.0 / den)
            n_evals += 2 * m
            yield float((wy * a1) @ cross @ (wyp * b1)
                        + (wy * a2) @ cross @ (wyp * b2)), n_evals
            if m >= _INNER_MAX_LEVEL:
                return
            m *= 2

    return _refine(levels(), rel_tol)


def _w_ct(x, xp, rel_tol):
    """Transparent-plate/mirror kernel integrated over both momenta."""
    return _pair_quadrature(
        lambda y: _ct_unprimed(x, y),
        lambda y: _ct_primed(xp, y),
        max(1.0, math.sqrt(x)), max(1.0, math.sqrt(xp)), rel_tol)


def _contract(f, g):
    """W between the frequencies of f and g: sum_r w_r U(f)_r . V(g)_r."""
    return float(_COUPLING_W @ (f[0] * g[2] + f[1] * g[3]))


def _frequency_vectors(x, eps1, eps3, rel_tol):
    """Separable factors of the kernel at one scaled frequency x.

    Returns (f, res). The rows of f are U1, U2, V1, V2 with
    U_k[r] = int dy A_k(x, y) exp(-t_r kappa1(x, y)) and V_k the same
    with B_k; both share the y nodes of semi_infinite_nodes(m,
    max(1, sqrt(x))) and kappa1. res is the refinement of the diagonal
    W(x, x) = _contract(f, f), and f belongs to its last level.
    """
    scale = max(1.0, math.sqrt(x))
    f = None

    def levels():
        nonlocal f
        m, n_evals = MIN_LEVEL, 0
        while True:
            y, wy = semi_infinite_nodes(m, scale)
            *vecs, k1 = _kernel_vectors(x, y, eps1, eps3)
            f = (wy * np.array(vecs)) \
                @ np.exp(np.multiply.outer(k1, -_COUPLING_T))
            n_evals += 2 * m
            yield _contract(f, f), n_evals
            if m >= _INNER_MAX_LEVEL:
                return
            m *= 2

    res = _refine(levels(), rel_tol)
    return f, res


def _separable_double_sum(frequency, temperature, n_star, rel_tol,
                          breaks=()):
    """sum'_n sum'_m W(x_n, x_m) contracted from per-frequency vectors.

    frequency(n) gives (x, eps1, eps3) at thermal index n. At zero
    temperature the sum is the integral over continuous (n, m): both
    axes share the nested rule semi_infinite_nodes(., n_star, breaks),
    breaks being the thermal indices of the table nodes, so the
    tensor-product integral is the contraction of the integrated
    vectors. At finite T, _euler_maclaurin forms F = sum'_n f_n the same
    way (head plus integrated tail vector) for _contract(F, F). Where it
    declines or fails, and in the classical limit, matsubara_sum adds
    the shells of the square truncation S_N = _contract(F_N, F_N),
    F_N = sum'_{n <= N} f_n. n_evals counts momentum nodes.
    """
    inner_tol = _inner_tol(rel_tol)
    ok = [True]
    evals = [0]
    res = None

    def vectors(n):
        f, res = _frequency_vectors(*frequency(n), inner_tol)
        ok[0] = (n == 0 or ok[0]) and res.converged
        evals[0] += res.n_evals
        return f

    if temperature.kind == "zero":
        def levels():
            for wn, fs in _nested_values(vectors, n_star, _OUTER_MAX_LEVEL,
                                         False, breaks):
                total = np.tensordot(wn, fs, 1)
                yield _contract(total, total), evals[0]

        res = _refine(levels(), rel_tol)
    elif temperature.kind == "finite":
        res = _euler_maclaurin(vectors, n_star, rel_tol, breaks,
                               lambda total: _contract(total, total))
    if temperature.kind != "zero" and not (res and res.converged):
        partial = None

        def term(n):
            # S_n - S_{n-1}; matsubara_sum halves term(0) into S_0
            nonlocal partial
            f = vectors(n)
            if n == 0:
                partial = 0.5 * f
                return 0.5 * _contract(f, f)
            step = _contract(f, partial + f) + _contract(partial, f)
            partial = partial + f
            return step

        res = matsubara_sum(term, temperature, rel_tol=rel_tol)
    return QuadratureResult(res.value, res.error, evals[0],
                            res.converged and ok[0])


def _kerr_pressure(dsum, temperature, d, chi3):
    """Kerr pressure in pascals from the thermal double sum of W."""
    pref = -_PREFACTOR * (chi3 / EPSILON_0) \
        * (K_BOLTZMANN * temperature.kelvin) ** 2 / d ** 6
    return PressureResult(pref * dsum.value, abs(pref) * dsum.error,
                          dsum.converged, dsum.n_evals)


def pressure_nonlinear(stack, rel_tol=1e-6):
    """Kerr correction to the Casimir pressure, in pascals.

    Exactly one plate should carry chi3 (either slot; the geometry is
    relabeled internally). chi3 = 0 returns zero. The result is first
    order in chi3 and shares the attraction-positive sign convention of
    pressure_linear; chi3 > 0 yields an attractive correction for every
    material pair.

    Returns
    -------
    PressureResult
        Convergence failures set the flag, nothing is raised.
    """
    st = stack.oriented()
    chi3 = st.layer1.chi3
    if chi3 == 0.0:
        return PressureResult(0.0, 0.0, True, 0)
    temp = st.temperature
    x_factor = st.gap / C_LIGHT

    def frequency(n):
        xi = temp.xi(n)
        return (xi * x_factor, st.layer1.permittivity(xi),
                st.layer3.permittivity(xi))

    dsum = _separable_double_sum(frequency, temp, _n_star(temp, st.gap),
                                 rel_tol, st.breakpoints / temp.xi(1))
    return _kerr_pressure(dsum, temp, st.gap, chi3)


def pressure_transparent_mirror(d, temperature, chi3, rel_tol=1e-6):
    """Pressure on a fully transparent Kerr slab facing a perfect mirror.

    Independent evaluation path: the mode sum collapses to a closed
    polynomial bracket when the Kerr plate has the response of vacuum
    and the other plate reflects perfectly, and this routine integrates
    that bracket directly, one momentum quadrature per frequency pair
    with the exact 1/(kappa + kappa') coupling. It must agree with
    pressure_nonlinear(eps_nl=1, eps_lin=inf), which exercises the full
    kernel through the separable coupling; the acceptance suite pins the
    two paths together.

    Returns
    -------
    PressureResult
    """
    if not (d > 0.0 and math.isfinite(d)):
        raise MaterialError("gap must be positive and finite")
    chi3 = float(chi3)
    if chi3 == 0.0:
        return PressureResult(0.0, 0.0, True, 0)
    x_factor = d / C_LIGHT
    inner_tol = _inner_tol(rel_tol)
    ok = {}
    evals = [0]

    def term(n, m):
        # flags per outer index, reset where a thermal sum (re)starts
        if n == m == 0:
            ok.clear()
        res = _w_ct(temperature.xi(n) * x_factor,
                    temperature.xi(m) * x_factor, inner_tol)
        ok[n] = (m == 0 or ok[n]) and res.converged
        evals[0] += res.n_evals
        return res.value

    n_star = _n_star(temperature, d)
    dsum = double_matsubara_sum(term, temperature, rel_tol=rel_tol,
                                zero_scale=(n_star, n_star))
    return _kerr_pressure(
        QuadratureResult(dsum.value, dsum.error, evals[0],
                         dsum.converged and all(ok.values())),
        temperature, d, chi3)


@lru_cache(maxsize=128)
def _i_nl_zero_raw(eps_nl, eps_lin, rel_tol):
    res = _separable_double_sum(lambda x: (x, eps_nl, eps_lin),
                                Temperature.zero(), 1.0, rel_tol)
    return QuadratureResult(-_I_ZERO_FACTOR * res.value,
                            _I_ZERO_FACTOR * res.error, res.n_evals,
                            res.converged)


def _check_kerr_eps(eps_nl):
    eps_nl = as_permittivity(eps_nl)
    if math.isinf(eps_nl):
        raise MaterialError("the Kerr plate permittivity must be finite")
    return eps_nl


def i_nl_zero_t(eps_nl, eps_lin, rel_tol=1e-6):
    """Dimensionless zero-temperature Kerr coefficient.

    P_nl = (chi3/eps0) * (hbar*c)**2 / d**8 * i_nl_zero_t(eps_nl,
    eps_lin) for constant permittivities; eps_lin may be math.inf.
    Positive, monotonically decreasing in eps_nl (vanishing as the Kerr
    plate turns opaque) and increasing in eps_lin. The transparent
    plate facing a mirror gives 45/(4096 pi**6). Raises
    UnconvergedError instead of returning a flagged estimate.
    """
    res = _i_nl_zero_raw(_check_kerr_eps(eps_nl), as_permittivity(eps_lin),
                         float(rel_tol))
    if not res.converged:
        raise UnconvergedError(
            "zero-temperature Kerr integral missed tolerance %g" % rel_tol)
    return res.value


@lru_cache(maxsize=128)
def _i_nl_high_raw(eps_nl, eps_lin, rel_tol):
    _, res = _frequency_vectors(0.0, eps_nl, eps_lin, rel_tol)
    return QuadratureResult(-_I_HIGH_FACTOR * res.value,
                            _I_HIGH_FACTOR * res.error, res.n_evals,
                            res.converged)


def i_nl_high_t(eps_nl, eps_lin, rel_tol=1e-6):
    """Dimensionless high-temperature Kerr coefficient.

    P_nl = (chi3/eps0) * (kB*T)**2 / d**6 * i_nl_high_t(eps_nl,
    eps_lin); monotonicity as in i_nl_zero_t. The transparent
    plate facing a mirror gives 21/(4096 pi**4).
    """
    res = _i_nl_high_raw(_check_kerr_eps(eps_nl), as_permittivity(eps_lin),
                         float(rel_tol))
    if not res.converged:
        raise UnconvergedError(
            "high-temperature Kerr integral missed tolerance %g" % rel_tol)
    return res.value


@dataclass(frozen=True)
class TotalPressure:
    """Linear and Kerr pressure parts of one stack."""

    linear: PressureResult
    nonlinear: PressureResult

    @property
    def value(self):
        return self.linear.value + self.nonlinear.value

    @property
    def error(self):
        return self.linear.error + self.nonlinear.error

    @property
    def converged(self):
        return self.linear.converged and self.nonlinear.converged


def casimir_pressure(stack, rel_tol_linear=1e-8, rel_tol_nonlinear=1e-6):
    """Both pressure parts of the stack; see TotalPressure.value."""
    return TotalPressure(pressure_linear(stack, rel_tol=rel_tol_linear),
                         pressure_nonlinear(stack,
                                            rel_tol=rel_tol_nonlinear))


def _abs_pressure_pair(stack, rel_tol):
    """Return d -> (|P_lin|, |P_nl|) for the stack, fast when possible.

    For constant permittivities in the zero and high regimes both parts
    are exact power laws with cached dimensionless coefficients, which
    makes the crossover bisection essentially free. Everything else
    falls back to full pressure evaluations per probe distance.
    """
    st = stack.oriented()
    temp = st.temperature
    kind = temp.kind
    constant = st.layer1.is_constant and st.layer3.is_constant
    if constant and kind in ("zero", "high"):
        e1 = st.layer1.permittivity(0.0)
        e3 = st.layer3.permittivity(0.0)
        chi3 = st.layer1.chi3
        if kind == "zero":
            c_lin = HBAR * C_LIGHT * i_lin_zero_t(e1, e3,
                                                  rel_tol=min(rel_tol, 1e-9))
            c_nl = abs(chi3) / EPSILON_0 * (HBAR * C_LIGHT) ** 2 \
                * i_nl_zero_t(e1, e3, rel_tol=rel_tol)
            return lambda d: (c_lin / d ** 4, c_nl / d ** 8)
        kbt = K_BOLTZMANN * temp.kelvin
        c_lin = kbt * i_lin_high_t(e1, e3, rel_tol=min(rel_tol, 1e-9))
        c_nl = abs(chi3) / EPSILON_0 * kbt ** 2 \
            * i_nl_high_t(e1, e3, rel_tol=rel_tol)
        return lambda d: (c_lin / d ** 3, c_nl / d ** 6)

    def full(d):
        probe = replace(stack, gap=d)
        lin = pressure_linear(probe, rel_tol=min(rel_tol, 1e-8))
        nl = pressure_nonlinear(probe, rel_tol=rel_tol)
        if not (lin.converged and nl.converged):
            raise UnconvergedError(
                "pressure evaluation at d = %g m missed tolerance" % d)
        return abs(lin.value), abs(nl.value)

    return full


def crossover_distance(stack, rel_tol=1e-6, d_tol=1e-6):
    """Gap at which the Kerr correction catches up with the linear term.

    Bisects log d over [1e-11, 1e-4] m for |P_nl(d)| = |P_lin(d)| and
    returns the root, or None when the difference keeps one sign over
    the whole bracket (chi3 = 0 included). d_tol is the relative width
    at which the bisection stops.
    """
    if stack.kerr_layer is None:
        return None
    pair = _abs_pressure_pair(stack, rel_tol)

    def h(d):
        lin, nl = pair(d)
        return nl - lin

    lo, hi = _CROSSOVER_LO, _CROSSOVER_HI
    h_lo, h_hi = h(lo), h(hi)
    if h_lo == 0.0:
        return lo
    if h_hi == 0.0:
        return hi
    if (h_lo > 0.0) == (h_hi > 0.0):
        return None
    log_lo, log_hi = math.log(lo), math.log(hi)
    while log_hi - log_lo > d_tol:
        log_mid = 0.5 * (log_lo + log_hi)
        if (h(math.exp(log_mid)) > 0.0) == (h_lo > 0.0):
            log_lo = log_mid
        else:
            log_hi = log_mid
    return math.exp(0.5 * (log_lo + log_hi))
