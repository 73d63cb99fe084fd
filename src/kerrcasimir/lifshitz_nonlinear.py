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

and V_k the same with B_k. The momentum integrals are one per thermal
frequency, not one per pair (_frequency_vectors), and the double sum
or integral is the contraction <F, F> (_gram) of the single one F of
the vectors, which quadrature.matsubara_sum takes as array terms over
the frequencies of the linear pressure (lifshitz_linear._thermal_sum):
O(N) momentum integrals for N frequencies, where a quadrature per pair
costs O(N**2).

The dual route, pressure_transparent_mirror, integrates the closed
kernel of a transparent plate and a mirror over both momenta exactly
and sums over n + m: no kernel vectors, no exponential-sum coupling.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .constants import C_LIGHT, EPSILON_0, K_BOLTZMANN
from .errors import UnconvergedError
from .fresnel import reflection
from .lifshitz_linear import (_coefficient, _i_lin_raw, _linear_tol,
                              _momentum_batch, _power_law, _thermal_sum,
                              _unit_stack, pressure_linear)
from .materials import LayerStack, MaterialResponse
from .quadrature import (QuadratureResult, _check_rel_tol, _frozen, _real,
                         matsubara_sum)

_PREFACTOR = 3.0 / (2.0 ** 5 * math.pi ** 4)
_INNER_MAX_LEVEL = 1024

# 1/(a + b) = int_0^inf e^(-t a) e^(-t b) dt, trapezoidal in s = ln t
# over s = -32 + 0.35 r, r = 0..126: t_r = e^(s_r), w_r = h t_r
_COUPLING_H = 0.35
_COUPLING_T = np.exp(-32.0 + _COUPLING_H * np.arange(127.0))
_COUPLING_W = _COUPLING_H * _COUPLING_T

_NO_KERR = QuadratureResult(0.0, 0.0, 0, True)
# the frequency vectors where e^(-2x) underflows: exactly 0, no nodes
_DEAD_VECTORS = QuadratureResult(_frozen(np.zeros((4, _COUPLING_T.size)))[0],
                                 0.0, 0, True)

_CROSSOVER_LO = 1e-11
_CROSSOVER_HI = 1e-4


def _kernel_vectors(x, y, eps1, eps3):
    """A1, A2, B1, B2 and kappa1 over a y grid at one scaled frequency x.

    A_k are the unprimed factors (x as the frequency of the cavity
    modes), B_k the primed ones (x as the fluctuation frequency); both
    share the Fresnel amplitudes of the two plates. x and the
    permittivities may be columns, one entry per row of the y block.
    """
    k2 = np.hypot(x, y)
    k1sq = eps1 * x * x + y * y
    k1 = np.sqrt(k1sq)
    damp = np.exp(-2.0 * k2)
    fs21, fp21 = reflection(x, y, eps1)
    fs23, fp23 = reflection(x, y, eps3)
    ds = 1.0 - fs21 * fs23 * damp
    dp = 1.0 - fp21 * fp23 * damp
    with np.errstate(invalid="ignore", divide="ignore"):
        gs = (1.0 - fs21) / ds
        gp = (1.0 - fp21) / dp
        rs = fs23 * (1.0 - fs21 * fs21) / ds
        rp = fp23 * (1.0 - fp21 * fp21) / dp
        mx = 2.0 * x * x * rs - (3.0 * y * y / eps1 + 2.0 * x * x) * rp
        mz = x * x * rs - (4.0 * y * y / eps1 + x * x) * rp
        pref = y * (k2 * k2 / k1sq) * damp
        vecs = (pref * (-fs23 * gs * gs * x * x + fp23 * gp * gp * k1sq),
                pref * fp23 * gp * gp * y * y,
                y * damp * mx / k1, y * damp * mz / k1)
    zero = y == 0.0
    return tuple(np.where(zero, 0.0, vec) for vec in vecs) + (k1,)


def _contract(f, g):
    """W between the frequencies of f and g: sum_r w_r U(f)_r . V(g)_r."""
    return float(_COUPLING_W @ (f[0] * g[2] + f[1] * g[3]))


def _frequency_vectors(x, eps1, eps3, rel_tol):
    """Separable factors of the kernel at each scaled frequency of x.

    x is a 1-D array, eps1 and eps3 floats or one permittivity per
    frequency. Returns one QuadratureResult per frequency, whose value
    is the 4 x 127 array f: its rows are U1, U2, V1, V2 with
    U_k[r] = int dy A_k(x, y) exp(-t_r kappa1(x, y)) and V_k the same
    with B_k; both share the y nodes of the momentum rule, each
    evaluated once. Error, n_evals (its distinct nodes) and flag are
    those of the refinement of the diagonal W(x, x) = _gram(f), and f
    belongs to its last level. All frequencies are one _momentum_batch
    of _kernel_vectors (_DEAD_VECTORS where e^(-2x) underflows); only
    A_k, B_k and kappa1 are kept per node, and each level's contraction
    recomputes the coupling exponentials of its rows.
    """
    return _momentum_batch(_node_vectors, _level_vectors,
                           lambda _, f, res: replace(res, value=f),
                           _DEAD_VECTORS, _INNER_MAX_LEVEL,
                           np.asarray(x, dtype=float), eps1, eps3, rel_tol)


def _node_vectors(y, x, eps1, eps3, _edge):
    # A1, A2, B1, B2 and kappa1 stacked on a last axis; the kernel damps
    # by its own e^(-2 k2), so _momentum_batch's edge goes unused
    return np.stack(_kernel_vectors(x, y, eps1, eps3), axis=-1)


def _level_vectors(w, vals):
    # one row's frequency vectors f at a level, and their W(x, x)
    f = (w * vals[:, :4].T) @ np.exp(
        np.multiply.outer(vals[:, 4], -_COUPLING_T))
    return _gram(f), f


def _gram(f):
    # <F, F>, the value of every Kerr thermal sum (module docstring)
    return _contract(f, f)


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
        the frequencies. Convergence failures set the flag; only a
        rel_tol outside (0, 1) raises (ValueError).
    """
    _check_rel_tol(rel_tol)
    st = stack.oriented()
    chi3 = st.layer1.chi3
    if chi3 == 0.0:
        return _NO_KERR
    dsum = _thermal_sum(st, _frequency_vectors, rel_tol, value=_gram)
    return _kerr_pressure(dsum, st.temperature, st.gap, chi3)


# Transparent plate and mirror: W_ct(x, x') = -sum_j c_j(x, x') K_j(x + x'),
# j = 1..6, with c_1..c_6 = 8 x**3 x'**2, 6 x**3 x' + 10 x**2 x'**2,
# 2 x**3 + 20 x**2 x'/3 + 6 x x'**2, 5 x**2/3 + 7 x x'/2 + 3 x'**2/2,
# 7 (x + x')/10 and 7/60. Over x = m tau, x' = (N - m) tau, m = 0..N,
# end terms halved, c_j sums (Euler-Maclaurin, exact) to
# sum_k _CT_P[j-1, k] tau**(2k-1) s**(7-j-2k), s = N tau; column 0
# alone is the integral over continuous m.
_CT_P = np.array([[2 / 15, 0, -2 / 15], [19 / 30, -1 / 2, -2 / 15],
                  [14 / 9, -5 / 9, 0], [59 / 36, -1 / 18, 0],
                  [7 / 10, 0, 0], [7 / 60, 0, 0]])
_CT_POW = np.maximum(6 - np.arange(6)[:, None] - 2 * np.arange(3), 0)
# K_j(s) e^(2s) = int_0^inf (u/2)**j e^(-u) / (u + 2s) du by the
# trapezoidal rule in ln u over [-40, 4.3] (error geometric in 1/_K_H):
# in ln u the pole stays pi off the real line for every s >= 0. Nodes u
# and, as rows, the weights times (u/2)**j; K_j(0) = (j-1)!/2**j exact
_K_H = 0.2
_K_U = np.exp(np.arange(-40.0, 4.3, _K_H))
_K_W = (_K_H * _K_U * np.exp(-_K_U)
        * (0.5 * _K_U) ** np.arange(1, 7)[:, None])
_K_ZERO = _frozen(np.array([math.factorial(j) / 2.0 ** (j + 1)
                            for j in range(6)]))[0]


def _k_moments(s):
    """K_j(s) = int_s^inf (t - s)**j e^(-2t) / t dt, j = 1..6, s >= 0,
    by one quadrature in u = 2(t - s) for every s > 0 (_K_U). Within
    about 2e-14 relative, finite and >= 0; _K_ZERO at s = 0."""
    if s == 0.0:
        return _K_ZERO
    return math.exp(-2.0 * s) * (_K_W @ (1.0 / (2.0 * s + _K_U)))


def _ct_pair_sum(n, tau, discrete):
    """W_ct over the pairs (m tau, (n - m) tau): weighted as in the
    discrete sum'_n sum'_m, else integrated over continuous m."""
    if discrete and n == 0:
        # lone pair (0, 0), halved twice: W_ct(0, 0) = -(7/60) K_6(0)
        return -7.0 / 64.0
    s = n * tau
    k = _k_moments(s)
    if not k.any():
        # e^(-2s) underflowed: exactly zero, where the polynomial in tau
        # and s may overflow (0 * inf)
        return 0.0
    t2 = tau * tau if discrete else 0.0
    poly = (_CT_P * (1.0, t2, t2 * t2) * s ** _CT_POW).sum(axis=1)
    return -float(k @ poly) / tau


def pressure_transparent_mirror(d, temperature, chi3, rel_tol=1e-6):
    """Pressure on a fully transparent Kerr slab facing a perfect mirror.

    Independent path: for a vacuum-like Kerr plate and a perfect mirror
    the kernel is a closed bracket, its momentum integrals with the exact
    coupling are closed forms, and the double sum is one thermal sum over
    N = n + m of _ct_pair_sum. The acceptance suite pins it to
    pressure_nonlinear(eps_nl=1, eps_lin=inf). Arguments are validated
    as for a LayerStack; a rel_tol outside (0, 1) raises ValueError.

    Returns
    -------
    QuadratureResult
        In pascals. n_evals counts the calls of _ct_pair_sum (one per N
        in every attempt of the thermal sum); the flag is the sum's.
    """
    kerr = MaterialResponse(eps_constant=1.0, chi3=chi3)
    LayerStack(kerr, MaterialResponse.perfect_mirror(), d, temperature)
    _check_rel_tol(rel_tol)
    if kerr.chi3 == 0.0:
        return _NO_KERR
    tau = temperature.xi(1) * d / C_LIGHT
    discrete = temperature.kind != "zero"
    dsum = matsubara_sum(lambda ns: [_ct_pair_sum(n, tau, discrete)
                                     for n in ns],
                         temperature, rel_tol, zero_scale=1.0 / tau)
    return _kerr_pressure(dsum, temperature, d, kerr.chi3)


@lru_cache(maxsize=128)
def _i_nl_raw(limit, eps_nl, eps_lin, rel_tol):
    # i_nl_zero_t or i_nl_high_t as a flagged QuadratureResult: the Kerr
    # plate of the unit stack at chi3 = eps0, so that chi3/eps0 is 1
    stack = _unit_stack(limit, eps_nl, eps_lin, EPSILON_0)
    energy, _ = _power_law(stack.temperature)
    return pressure_nonlinear(stack, rel_tol).scaled(1.0 / energy ** 2)


def _i_nl(limit, eps_nl, eps_lin, rel_tol):
    return _coefficient(_i_nl_raw, "Kerr", limit, eps_nl, eps_lin, rel_tol)


def i_nl_zero_t(eps_nl, eps_lin, rel_tol=1e-6):
    """Dimensionless zero-temperature Kerr coefficient.

    P_nl = (chi3/eps0) * (hbar*c)**2 / d**8 * i_nl_zero_t(eps_nl,
    eps_lin) for constant permittivities; eps_lin may be math.inf.
    Positive, monotonically decreasing in eps_nl (vanishing as the Kerr
    plate turns opaque) and increasing in eps_lin. The transparent
    plate facing a mirror gives 45/(4096 pi**6). Raises
    UnconvergedError instead of returning a flagged estimate, and
    ValueError for a rel_tol outside (0, 1).
    """
    return _i_nl("zero", eps_nl, eps_lin, rel_tol).value


def i_nl_high_t(eps_nl, eps_lin, rel_tol=1e-6):
    """Dimensionless high-temperature Kerr coefficient.

    P_nl = (chi3/eps0) * (kB*T)**2 / d**6 * i_nl_high_t(eps_nl,
    eps_lin); monotonicity and errors as in i_nl_zero_t. The
    transparent plate facing a mirror gives 21/(4096 pi**4).
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

    Constant plates at zero or high temperature: the cached
    coefficients times the power laws of _power_law. Every other stack:
    casimir_pressure at each d. Tolerances: _linear_tol.
    """
    st = stack.oriented()
    temp = st.temperature
    limit = temp.kind
    if not (st.layer1.is_constant and st.layer3.is_constant
            and limit in ("zero", "high")):
        return lambda d: casimir_pressure(replace(stack, gap=d),
                                          _linear_tol(rel_tol), rel_tol)
    energy, power = _power_law(temp)
    eps = (st.layer1.permittivity(0.0), st.layer3.permittivity(0.0))
    chi3 = st.layer1.chi3
    lin = _i_lin_raw(limit, *eps, _linear_tol(rel_tol))
    # chi3 = -0.0 too: no Kerr coefficient, and a Kerr part of +0.0
    nl = _i_nl_raw(limit, *eps, rel_tol) if chi3 else _NO_KERR
    return lambda d: TotalPressure(
        lin.scaled(energy / d ** power),
        nl.scaled(chi3 / EPSILON_0 * energy ** 2 / d ** (2 * power))
        if chi3 else nl)


def crossover_distance(stack, rel_tol=1e-6, d_tol=1e-6):
    """Gap at which the Kerr correction catches up with the linear term.

    Bisects log d over [1e-11, 1e-4] m for |P_nl(d)| = |P_lin(d)| and
    returns the root, or None when the difference keeps one sign over
    the whole bracket (chi3 = 0 included). d_tol > 0, a real number, is
    the relative width at which the bisection stops, or earlier once the
    midpoint no longer splits the bracket in floating point. Raises
    UnconvergedError if a pressure evaluation misses its tolerance, and
    ValueError for a rel_tol outside (0, 1).
    """
    _check_rel_tol(rel_tol)
    if not (_real(d_tol) and d_tol > 0.0 and math.isfinite(d_tol)):
        raise ValueError("d_tol must be a positive, finite real number")
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
