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
a quadrature per pair costs O(N**2). The vectors are summed or
integrated as array terms by quadrature.matsubara_sum, which sums the
linear pressure too. pressure_transparent_mirror keeps
the exact coupling matrix, one quadrature per frequency pair, so the
dual-route check compares two independent evaluations.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .constants import C_LIGHT, EPSILON_0, HBAR, K_BOLTZMANN
from .errors import MaterialError, UnconvergedError
from .fresnel import reflection
from .lifshitz_linear import (_coefficient_tol, _i_lin_raw, _inner_tol,
                              _n_star, as_permittivity, pressure_linear)
from .quadrature import (QuadratureResult, Temperature, _nested_values,
                         _refine, double_matsubara_sum, matsubara_sum)

_PREFACTOR = 3.0 / (2.0 ** 5 * math.pi ** 4)
_I_ZERO_FACTOR = 3.0 / (2.0 ** 7 * math.pi ** 6)
_I_HIGH_FACTOR = 3.0 / (2.0 ** 7 * math.pi ** 4)
_INNER_MAX_LEVEL = 1024

# 1/(a + b) = int_0^inf e^(-t a) e^(-t b) dt, trapezoidal in s = ln t
# over s = -32 + 0.35 r, r = 0..126: t_r = e^(s_r), w_r = h t_r
_COUPLING_H = 0.35
_COUPLING_T = np.exp(-32.0 + _COUPLING_H * np.arange(127.0))
_COUPLING_W = _COUPLING_H * _COUPLING_T

_NO_KERR = QuadratureResult(0.0, 0.0, 0, True)

_CROSSOVER_LO = 1e-11
_CROSSOVER_HI = 1e-4


def _kernel_vectors(x, y, eps1, eps3):
    """A1, A2, B1, B2 and kappa1 over a y grid at one scaled frequency x.

    A_k are the unprimed factors (x as the frequency of the cavity
    modes), B_k the primed ones (x as the fluctuation frequency); both
    share the Fresnel amplitudes of the two plates.
    """
    k2 = np.hypot(x, y)
    k1sq = eps1 * x * x + y * y
    k1 = np.sqrt(k1sq)
    damp = np.exp(-2.0 * k2)
    fs21, fp21 = reflection(x, y, eps1)
    fs23, fp23 = reflection(x, y, eps3)
    ds = 1.0 - fs21 * fs23 * damp
    dp = 1.0 - fp21 * fp23 * damp
    gs = (1.0 - fs21) / ds
    gp = (1.0 - fp21) / dp
    rs = fs23 * (1.0 - fs21 * fs21) / ds
    rp = fp23 * (1.0 - fp21 * fp21) / dp
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
    double together, each evaluated on its new nodes only; the value at
    each level is assembled from two quadratic forms against the
    1/(kappa_i + kappa'_j) coupling matrix. This direct form serves the
    transparent-plate/mirror route, which must not share the separable
    coupling it is compared against. n_evals counts the distinct nodes
    of both grids.
    """

    def levels():
        for (wy, a), (wyp, b) in zip(
                _nested_values(lambda y: np.array(unprimed(y)).T, scale_y,
                               _INNER_MAX_LEVEL, True),
                _nested_values(lambda y: np.array(primed(y)).T, scale_yp,
                               _INNER_MAX_LEVEL, True)):
            a1, a2, k1 = a.T
            b1, b2, k1p = b.T
            den = k1[:, None] + k1p[None, :]
            with np.errstate(divide="ignore"):
                cross = np.where(den == 0.0, 0.0, 1.0 / den)
            yield float((wy * a1) @ cross @ (wyp * b1)
                        + (wy * a2) @ cross @ (wyp * b2)), wy.size + wyp.size

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
    max(1, sqrt(x))), each evaluated once. res is the refinement of the
    diagonal W(x, x) = _contract(f, f), n_evals its distinct nodes, and
    f belongs to its last level.
    """
    f = None

    def rows(y):
        *vecs, k1 = _kernel_vectors(x, y, eps1, eps3)
        return np.column_stack(
            (*vecs, np.exp(np.multiply.outer(k1, -_COUPLING_T))))

    def levels():
        nonlocal f
        for w, vals in _nested_values(rows, max(1.0, math.sqrt(x)),
                                      _INNER_MAX_LEVEL, True):
            f = (w * vals[:, :4].T) @ vals[:, 4:]
            yield _contract(f, f), w.size

    res = _refine(levels(), rel_tol)
    return f, res


def _separable_double_sum(frequency, temperature, n_star, rel_tol,
                          breaks=()):
    """sum'_n sum'_m W(x_n, x_m) contracted from per-frequency vectors.

    frequency(n) gives (x, eps1, eps3) at thermal index n. The double
    sum is <F, F> = _contract(F, F) of the single sum F = sum'_n f_n of
    the frequency vectors, so matsubara_sum sums the 4 x 127 arrays f_n
    elementwise with value <F, F>, in every regime: the integral over
    continuous n at zero temperature (n_star the decay scale, breaks
    the thermal indices of the table nodes), the head plus the
    integrated tail or the series at finite temperature, and
    <f_0/2, f_0/2> in the classical limit.

    Returns
    -------
    QuadratureResult
        n_evals counts the distinct momentum nodes of every frequency in
        every attempt, and the flag covers the momentum quadratures of
        the attempt returned.
    """
    inner_tol = _inner_tol(rel_tol)

    def vectors(n):
        f, res = _frequency_vectors(*frequency(n), inner_tol)
        return replace(res, value=f)

    return matsubara_sum(vectors, temperature, rel_tol, zero_scale=n_star,
                         zero_breaks=breaks,
                         value=lambda total: _contract(total, total))


def _kerr_pressure(dsum, temperature, d, chi3):
    """Kerr pressure in pascals from the thermal double sum of W."""
    return dsum.scaled(-_PREFACTOR * (chi3 / EPSILON_0)
                       * (K_BOLTZMANN * temperature.kelvin) ** 2 / d ** 6)


def pressure_nonlinear(stack, rel_tol=1e-6):
    """Kerr correction to the Casimir pressure, in pascals.

    Exactly one plate should carry chi3 (either slot; the geometry is
    relabeled internally). chi3 = 0 returns zero. The result is first
    order in chi3 and shares the attraction-positive sign convention of
    pressure_linear; chi3 > 0 yields an attractive correction for every
    material pair.

    Returns
    -------
    QuadratureResult
        In pascals. n_evals counts distinct momentum nodes, summed over
        the frequencies; convergence failures set the flag, nothing is
        raised.
    """
    st = stack.oriented()
    chi3 = st.layer1.chi3
    if chi3 == 0.0:
        return _NO_KERR
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
    QuadratureResult
        In pascals. n_evals counts distinct momentum nodes, both grids
        of every frequency pair, and the flag covers the pair
        quadratures of the sums returned.
    """
    if not (d > 0.0 and math.isfinite(d)):
        raise MaterialError("gap must be positive and finite")
    if not isinstance(temperature, Temperature):
        raise MaterialError("temperature must be a Temperature")
    chi3 = float(chi3)
    if chi3 == 0.0:
        return _NO_KERR
    x_factor = d / C_LIGHT
    inner_tol = _inner_tol(rel_tol)
    n_star = _n_star(temperature, d)
    dsum = double_matsubara_sum(
        lambda n, m: _w_ct(temperature.xi(n) * x_factor,
                           temperature.xi(m) * x_factor, inner_tol),
        temperature, rel_tol=rel_tol, zero_scale=(n_star, n_star))
    return _kerr_pressure(dsum, temperature, d, chi3)


@lru_cache(maxsize=128)
def _i_nl_raw(limit, eps_nl, eps_lin, rel_tol):
    # i_nl_zero_t or i_nl_high_t as a flagged QuadratureResult
    if limit == "zero":
        res = _separable_double_sum(lambda x: (x, eps_nl, eps_lin),
                                    Temperature.zero(), 1.0, rel_tol)
        return res.scaled(-_I_ZERO_FACTOR)
    _, res = _frequency_vectors(0.0, eps_nl, eps_lin, rel_tol)
    return res.scaled(-_I_HIGH_FACTOR)


def _i_nl(limit, eps_nl, eps_lin, rel_tol):
    # _i_nl_raw with validated arguments; raises when unconverged
    eps_nl = as_permittivity(eps_nl)
    if math.isinf(eps_nl):
        raise MaterialError("the Kerr plate permittivity must be finite")
    res = _i_nl_raw(limit, eps_nl, as_permittivity(eps_lin), float(rel_tol))
    if not res.converged:
        raise UnconvergedError(
            "%s-temperature Kerr integral missed tolerance %g"
            % (limit, rel_tol))
    return res


def i_nl_zero_t(eps_nl, eps_lin, rel_tol=1e-6):
    """Dimensionless zero-temperature Kerr coefficient.

    P_nl = (chi3/eps0) * (hbar*c)**2 / d**8 * i_nl_zero_t(eps_nl,
    eps_lin) for constant permittivities; eps_lin may be math.inf.
    Positive, monotonically decreasing in eps_nl (vanishing as the Kerr
    plate turns opaque) and increasing in eps_lin. The transparent
    plate facing a mirror gives 45/(4096 pi**6). Raises
    UnconvergedError instead of returning a flagged estimate.
    """
    return _i_nl("zero", eps_nl, eps_lin, rel_tol).value


def i_nl_high_t(eps_nl, eps_lin, rel_tol=1e-6):
    """Dimensionless high-temperature Kerr coefficient.

    P_nl = (chi3/eps0) * (kB*T)**2 / d**6 * i_nl_high_t(eps_nl,
    eps_lin); monotonicity as in i_nl_zero_t. The transparent
    plate facing a mirror gives 21/(4096 pi**4).
    """
    return _i_nl("high", eps_nl, eps_lin, rel_tol).value


@dataclass(frozen=True)
class TotalPressure:
    """Linear and Kerr pressure parts of one stack."""

    linear: QuadratureResult
    nonlinear: QuadratureResult

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


def _pressure_pair(stack, rel_tol):
    """Return d -> TotalPressure of the stack at gap d; nothing raised.

    Constant plates at zero or high temperature set no length scale but
    d, so both parts are exact power laws: cached d-independent
    coefficients times E / d**p and (chi3/eps0) E**2 / d**(2p), with
    E = hbar c and p = 4 at zero temperature, E = kB T and p = 3 in the
    classical limit. The linear coefficient runs at _coefficient_tol;
    the Kerr one at rel_tol at zero temperature, and in the classical
    limit at the momentum tolerance pressure_nonlinear gives its single
    x = 0 frequency. Every other stack is evaluated directly at each d.
    """
    st = stack.oriented()
    temp = st.temperature
    limit = temp.kind
    if not (st.layer1.is_constant and st.layer3.is_constant
            and limit in ("zero", "high")):
        return lambda d: casimir_pressure(replace(stack, gap=d),
                                          min(rel_tol, 1e-8), rel_tol)
    if limit == "zero":
        energy, power, nl_tol = HBAR * C_LIGHT, 4, rel_tol
    else:
        energy, power = K_BOLTZMANN * temp.kelvin, 3
        nl_tol = _inner_tol(rel_tol)
    eps = (st.layer1.permittivity(0.0), st.layer3.permittivity(0.0))
    chi3 = st.layer1.chi3
    lin = _i_lin_raw(limit, *eps, _coefficient_tol(rel_tol))
    # chi3 = -0.0 too: no Kerr coefficient, and a Kerr part of +0.0
    nl = _i_nl_raw(limit, *eps, nl_tol) if chi3 else _NO_KERR
    return lambda d: TotalPressure(
        lin.scaled(energy / d ** power),
        nl.scaled(chi3 / EPSILON_0 * energy ** 2 / d ** (2 * power))
        if chi3 else nl)


def crossover_distance(stack, rel_tol=1e-6, d_tol=1e-6):
    """Gap at which the Kerr correction catches up with the linear term.

    Bisects log d over [1e-11, 1e-4] m for |P_nl(d)| = |P_lin(d)| and
    returns the root, or None when the difference keeps one sign over
    the whole bracket (chi3 = 0 included). d_tol > 0 is the relative
    width at which the bisection stops, or earlier once the midpoint no
    longer splits the bracket in floating point. Raises
    UnconvergedError if a pressure evaluation misses its tolerance.
    """
    if not (d_tol > 0.0 and math.isfinite(d_tol)):
        raise ValueError("d_tol must be positive and finite")
    if stack.kerr_layer is None:
        return None
    pair = _pressure_pair(stack, rel_tol)

    def h(d):
        p = pair(d)
        if not p.converged:
            raise UnconvergedError(
                "pressure evaluation at d = %g m missed tolerance" % d)
        return abs(p.nonlinear.value) - abs(p.linear.value)

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
        if not log_lo < log_mid < log_hi:
            break
        if (h(math.exp(log_mid)) > 0.0) == (h_lo > 0.0):
            log_lo = log_mid
        else:
            log_hi = log_mid
    return math.exp(0.5 * (log_lo + log_hi))
