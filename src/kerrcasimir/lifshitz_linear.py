"""Linear Casimir pressure between two parallel plates.

Everything runs on the imaginary frequency axis in scaled variables
x = xi*d/c and y = q*d, where the gap kernel is real, smooth and
exponentially decaying. The single-frequency momentum integral is

    g(x) = int_0^inf dy y k2 sum_pol r e^(-2 k2) / (1 - r e^(-2 k2)),

with k2 = hypot(x, y) and r the product of the two gap reflection
amplitudes of a polarization. Since k2 >= x, the momentum quadrature
refines e^(2x) g(x) and multiplies by e^(-2x) afterwards: at large x
the integrand of g itself is subnormal, and no relative tolerance can be
met on subnormal numbers. The pressure is the thermal sum of g over
frequencies x_n = 2 pi n kB T d / (hbar c),

    P = (kB T / (pi d**3)) sum'_n g(x_n),

in each thermal regime of quadrature.matsubara_sum. Positive pressure
means attraction. The Kerr correction sums over the same frequencies:
both parts are one _thermal_sum each.

The s-channel reflection vanishes identically at x = 0 for every
material, the symbolic mirror included; that zero-frequency
prescription is what reproduces the classical result
zeta(3) kB T / (8 pi d**3) for ideal mirrors.
"""

import math
from functools import lru_cache

import numpy as np

from .constants import C_LIGHT, HBAR, K_BOLTZMANN
from .errors import UnconvergedError
from .fresnel import reflection
from .materials import LayerStack, MaterialResponse
from .quadrature import (MAX_LEVEL, QuadratureResult, Temperature,
                         _check_rel_tol, _refine_rows, matsubara_sum)


def _gap_integrand(y, x, eps1, eps3, edge):
    # e^(2x) times the integrand of g (see the module docstring), with
    # edge = math.exp(-2x): numpy's SIMD exp does not always match its
    # bits. x, the permittivities and edge may be columns, one per row
    k2 = np.hypot(x, y)
    damp_hat = np.exp(-2.0 * (k2 - x))
    damp = damp_hat * edge
    total = np.zeros_like(y)
    with np.errstate(invalid="ignore", divide="ignore"):
        for r1, r3 in zip(reflection(x, y, eps1), reflection(x, y, eps3)):
            r = r1 * r3
            total = total + r * damp_hat / (1.0 - r * damp)
        out = y * k2 * total
    # the measure carries a factor y, so the y = 0 node is exactly zero
    # (and masking it avoids the 0 * inf corner of the mirror pair)
    return np.where(y == 0.0, 0.0, out)


# Smallest positive argument that still counts as "frequency > 0" for
# the reflection prescription. Substituted for x = 0 when sampling the
# continuous zero-temperature integrand, whose correct value there is
# the limit from above; hypot(_X_FLOOR, y) == y bitwise, so nothing
# else changes.
_X_FLOOR = 1e-300


def _g_hat(x, eps1, eps3, rel_tol):
    """Momentum integral g at each scaled frequency of the 1-D array x.

    Returns one QuadratureResult per frequency from one _momentum_batch
    of _gap_integrand: exactly 0 with no nodes where e^(-2x) underflows.
    eps1 and eps3 are floats or one permittivity per frequency.
    """
    return _momentum_batch(_gap_integrand,
                           lambda w, vals: (float(w @ vals), None),
                           lambda edge, _, res: res.scaled(edge),
                           QuadratureResult(0.0, 0.0, 0, True), MAX_LEVEL,
                           np.asarray(x, dtype=float), eps1, eps3, rel_tol)


def _momentum_batch(kernel, total, finish, dead, max_level, x, eps1, eps3,
                    rel_tol):
    """The momentum quadratures at the scaled frequencies of the 1-D x.

    Where e^(-2x) underflows every kernel value is exactly 0: the
    frequency gets dead, with no nodes. The others, all those of one
    call of a thermal sum's row term (a frequency level or a block of
    the series, quadrature._SERIES_BLOCK), are one _refine_rows batch
    of scales max(1, sqrt(x)), one kernel(y, x, eps1, eps3, edge) call
    per momentum level with edge = e^(-2x) (math.exp's bits), and each
    returns finish(edge, payload, result). x, edge and a permittivity
    given per frequency reach the kernel as one column per row of the
    node block y; a permittivity given as a float, a constant plate's,
    stays one.
    """
    edge = [math.exp(-2.0 * v) for v in x.tolist()]
    live = [i for i, e in enumerate(edge) if e > 0.0]
    out = [dead] * len(edge)
    if live:
        cols = [np.broadcast_to(v, x.shape)[live, None] if np.ndim(v)
                else float(v) for v in (x, eps1, eps3, edge)]
        results = _refine_rows(
            lambda y, rows: kernel(y, *[c if isinstance(c, float)
                                        else c[rows] for c in cols]),
            total, [max(1.0, math.sqrt(v)) for v in x[live].tolist()],
            rel_tol, max_level)
        for i, (payload, res) in zip(live, results):
            out[i] = finish(edge[i], payload, res)
    return out


def _inner_tol(rel_tol, kind):
    # the momentum tolerance of every thermal sum at rel_tol in regime
    # kind: a tenth of it, floored; in the classical limit the one n = 0
    # term is the whole sum and runs at rel_tol itself
    return rel_tol if kind == "high" else max(0.1 * rel_tol, 1e-12)


def _linear_tol(rel_tol):
    # the tolerance of a linear part beside a Kerr part at rel_tol: the
    # linear part is the cheap and large one, so never looser than
    # pressure_linear's default
    return min(rel_tol, 1e-8)


def _thermal_sum(stack, momentum, rel_tol, value=float):
    """The thermal sum of a momentum row over the stack's frequencies.

    momentum(x, eps1, eps3, tol) is _g_hat or _frequency_vectors: one
    result per scaled frequency x = xi_n d / c of the 1-D array x, with
    the plates' permittivities at xi_n (a constant plate's one float)
    and tol = _inner_tol(rel_tol, kind). The rows are summed by
    quadrature.matsubara_sum in the stack's regime at rel_tol, value
    as there, with the terms' decay scale n*, the index at which xi_n
    reaches c/d, and the thermal indices of the table nodes as kinks.
    At zero temperature the sum is an integral, whose integrand at
    x = 0 is the limit from above: that node is _X_FLOOR.
    """
    temp, d = stack.temperature, stack.gap
    tol = _inner_tol(rel_tol, temp.kind)
    floor = _X_FLOOR if temp.kind == "zero" else 0.0

    def rows(ns):
        xi = temp.xi(np.asarray(ns, dtype=float))
        x = xi * d / C_LIGHT
        return momentum(np.where(x == 0.0, floor, x), *(
            layer.permittivity(0.0 if layer.is_constant else xi)
            for layer in (stack.layer1, stack.layer3)), tol)

    n_star = HBAR * C_LIGHT / (2.0 * math.pi * K_BOLTZMANN
                               * temp.kelvin * d)
    return matsubara_sum(rows, temp, rel_tol, zero_scale=n_star,
                         zero_breaks=stack.breakpoints / temp.xi(1),
                         value=value)


def pressure_linear(stack, rel_tol=1e-8):
    """Equilibrium pressure of the two-plate stack, in pascals.

    Parameters
    ----------
    stack : LayerStack
        Plates, gap and thermal state. Kerr coefficients are ignored
        here; this is the purely linear part.
    rel_tol : float
        Relative tolerance of the thermal sum.

    Returns
    -------
    QuadratureResult
        In pascals, positive value meaning attraction; n_evals counts
        momentum nodes. Convergence problems set the flag; only a
        rel_tol outside (0, 1) raises (ValueError).
    """
    _check_rel_tol(rel_tol)
    return _thermal_sum(stack, _g_hat, rel_tol).scaled(
        K_BOLTZMANN * stack.temperature.kelvin / (math.pi * stack.gap ** 3))


def _power_law(temp):
    # the energy E and power p of constant plates in the zero or high
    # limit of temp: the linear pressure is a d-independent coefficient
    # times E / d**p, the Kerr part one times (chi3/eps0) E**2 / d**(2p)
    if temp.kind == "zero":
        return HBAR * C_LIGHT, 4
    return K_BOLTZMANN * temp.kelvin, 3


def _unit_stack(limit, eps1, eps3, chi3=0.0):
    # constant plates eps1 (carrying chi3) and eps3, 1 m apart at 1 K in
    # limit: its pressure parts over E and E**2 (_power_law) are the
    # dimensionless coefficients
    return LayerStack(MaterialResponse.constant(eps1, chi3),
                      MaterialResponse.constant(eps3), 1.0,
                      Temperature(limit, 1.0))


@lru_cache(maxsize=256)
def _i_lin_raw(limit, eps1, eps3, rel_tol):
    # i_lin_zero_t or i_lin_high_t as a flagged QuadratureResult
    stack = _unit_stack(limit, eps1, eps3)
    energy, _ = _power_law(stack.temperature)
    return pressure_linear(stack, rel_tol).scaled(1.0 / energy)


def _coefficient(raw, part, limit, eps1, eps3, rel_tol):
    # raw(limit, eps1, eps3, rel_tol), raising when it is unconverged
    res = raw(limit, eps1, eps3, rel_tol)
    if not res.converged:
        raise UnconvergedError("%s-temperature %s integral missed "
                               "tolerance %g" % (limit, part, rel_tol))
    return res


def _i_lin(limit, eps1, eps3, rel_tol):
    return _coefficient(_i_lin_raw, "pressure", limit, eps1, eps3, rel_tol)


def i_lin_zero_t(eps1, eps3, rel_tol=1e-9):
    """Dimensionless zero-temperature pressure coefficient.

    For constant permittivities the linear pressure at zero temperature
    is (hbar c / d**4) * i_lin_zero_t(eps1, eps3). Either argument may
    be math.inf; the ideal-mirror pair gives pi**2 / 240. Raises
    UnconvergedError instead of returning a flagged estimate, and
    ValueError for a rel_tol outside (0, 1).
    """
    return _i_lin("zero", eps1, eps3, rel_tol).value


def i_lin_high_t(eps1, eps3, rel_tol=1e-9):
    """Dimensionless high-temperature pressure coefficient.

    P = (kB T / d**3) * i_lin_high_t(eps1, eps3); only the p channel
    contributes at zero frequency. Ideal mirrors give zeta(3)/(8 pi),
    and for finite permittivities the closed form is
    Li_3(r) / (8 pi) with r the product of the two static p-channel
    amplitudes (eps - 1)/(eps + 1). Raises as i_lin_zero_t.
    """
    return _i_lin("high", eps1, eps3, rel_tol).value
