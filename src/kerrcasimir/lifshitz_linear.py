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

which the quadrature module turns into the continuous-frequency
integral at zero temperature and into the halved n = 0 term in the
classical high-temperature limit. Positive pressure means attraction.

The s-channel reflection vanishes identically at x = 0 for every
material, the symbolic mirror included; that zero-frequency
prescription is what reproduces the classical result
zeta(3) kB T / (8 pi d**3) for ideal mirrors.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .constants import C_LIGHT, HBAR, K_BOLTZMANN
from .errors import MaterialError, UnconvergedError
from .fresnel import reflection_p, reflection_s
from .quadrature import integrate_semi_infinite, matsubara_sum


def as_permittivity(value):
    """Validate a constant imaginary-axis permittivity.

    Returns it as float; must be >= 1, math.inf (symbolic mirror)
    allowed.
    """
    value = float(value)
    if math.isnan(value) or value < 1.0:
        raise MaterialError("permittivity must be >= 1 (math.inf allowed)")
    return value


def _gap_integrand(y, x, eps1, eps3):
    # e^(2x) times the integrand of g (see the module docstring)
    k2 = np.hypot(x, y)
    damp_hat = np.exp(-2.0 * (k2 - x))
    damp = damp_hat * math.exp(-2.0 * x)
    total = np.zeros_like(y)
    with np.errstate(invalid="ignore", divide="ignore"):
        for refl in (reflection_s, reflection_p):
            r = refl(x, y, eps1) * refl(x, y, eps3)
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


def _g_hat(x, eps1, eps3, rel_tol, continuum=False):
    """Momentum integral g at one scaled frequency; QuadratureResult.

    With continuum=True the x = 0 node is evaluated as the limit from
    above (the s channel of a mirror stays alive), which is the correct
    integrand of the continuous zero-temperature frequency integral;
    the discrete sums keep the x = 0 prescription instead.
    """
    if continuum and x == 0.0:
        x = _X_FLOOR
    scale = max(1.0, math.sqrt(x))
    res = integrate_semi_infinite(
        lambda y: _gap_integrand(y, x, eps1, eps3),
        rel_tol=rel_tol, scale=scale, vectorized=True)
    return res.scaled(math.exp(-2.0 * x))


def _n_star(temperature, d):
    # thermal index at which xi reaches c/d: the kernel's decay scale
    return HBAR * C_LIGHT / (2.0 * math.pi * K_BOLTZMANN
                             * temperature.kelvin * d)


def _inner_tol(rel_tol):
    # momentum tolerance under an outer frequency integral or double sum
    return max(1e-2 * rel_tol, 1e-11)


def pressure_linear(stack, rel_tol=1e-8):
    """Equilibrium pressure of the two-plate stack, in pascals.

    Parameters
    ----------
    stack : LayerStack
        Plates, gap and thermal state. Kerr coefficients are ignored
        here; this is the purely linear part.
    rel_tol : float
        Relative tolerance of the thermal sum; momentum integrals run
        ten times tighter.

    Returns
    -------
    QuadratureResult
        In pascals, positive value meaning attraction; n_evals counts
        momentum nodes. Convergence problems set the flag, nothing is
        raised.
    """
    d = stack.gap
    temp = stack.temperature
    inner_tol = max(0.1 * rel_tol, 1e-12)
    continuum = temp.kind == "zero"

    def term(n):
        xi = temp.xi(n)
        return _g_hat(xi * d / C_LIGHT, stack.layer1.permittivity(xi),
                      stack.layer3.permittivity(xi), inner_tol,
                      continuum=continuum)

    prefactor = K_BOLTZMANN * temp.kelvin / (math.pi * d ** 3)
    msum = matsubara_sum(term, temp, rel_tol=rel_tol,
                         zero_scale=_n_star(temp, d),
                         zero_breaks=stack.breakpoints / temp.xi(1))
    return msum.scaled(prefactor)


@lru_cache(maxsize=256)
def _i_lin_zero_cached(eps1, eps3, rel_tol):
    inner_tol = _inner_tol(rel_tol)
    outer = integrate_semi_infinite(
        lambda x: _g_hat(x, eps1, eps3, inner_tol, continuum=True),
        rel_tol=rel_tol, scale=1.0, vectorized=False)
    if not outer.converged:
        raise UnconvergedError(
            "zero-temperature pressure integral missed tolerance %g"
            % rel_tol)
    c = 2.0 * math.pi ** 2
    return replace(outer, value=outer.value / c, error=outer.error / c)


def _i_lin(limit, eps1, eps3, rel_tol):
    # i_lin_zero_t or i_lin_high_t as a QuadratureResult, with its error
    cached = _i_lin_zero_cached if limit == "zero" else _i_lin_high_cached
    return cached(as_permittivity(eps1), as_permittivity(eps3),
                  float(rel_tol))


def i_lin_zero_t(eps1, eps3, rel_tol=1e-9):
    """Dimensionless zero-temperature pressure coefficient.

    For constant permittivities the linear pressure at zero temperature
    is (hbar c / d**4) * i_lin_zero_t(eps1, eps3). Either argument may
    be math.inf; the ideal-mirror pair gives pi**2 / 240. Raises
    UnconvergedError instead of returning a flagged estimate.
    """
    return _i_lin("zero", eps1, eps3, rel_tol).value


@lru_cache(maxsize=256)
def _i_lin_high_cached(eps1, eps3, rel_tol):
    res = _g_hat(0.0, eps1, eps3, rel_tol)
    if not res.converged:
        raise UnconvergedError(
            "high-temperature momentum integral missed tolerance %g"
            % rel_tol)
    c = 2.0 * math.pi
    return replace(res, value=res.value / c, error=res.error / c)


def i_lin_high_t(eps1, eps3, rel_tol=1e-9):
    """Dimensionless high-temperature pressure coefficient.

    P = (kB T / d**3) * i_lin_high_t(eps1, eps3); only the p channel
    contributes at zero frequency. Ideal mirrors give zeta(3)/(8 pi),
    and for finite permittivities the closed form is
    Li_3(r) / (8 pi) with r the product of the two static p-channel
    amplitudes (eps - 1)/(eps + 1).
    """
    return _i_lin("high", eps1, eps3, rel_tol).value
