"""Single-interface reflection amplitudes on the imaginary frequency axis.

Only the imaginary axis is implemented: the engine runs there, after the
fluctuation-dissipation rotation, in scaled variables where everything
is real and well conditioned. There is no real-frequency (complex
Fresnel) route.

Scaled variables: with gap d, imaginary frequency xi and transverse
wavenumber q, set x = xi * d / c and y = q * d. The axial decay
constant in a medium of permittivity eps is then
kappa_eps * d = sqrt(eps * x**2 + y**2), and the vacuum gap has
k2 = sqrt(x**2 + y**2).
"""

import math

import numpy as np


def _finite_refl(x, y, eps, pol):
    if eps == 1.0:
        # exact zero, not the 1-ulp noise of hypot vs sqrt
        return np.broadcast_arrays(np.asarray(0.0), x, y)[0]
    k2 = np.hypot(x, y)
    kl = np.sqrt(eps * x * x + y * y)
    if pol == "s":
        num = k2 - kl
        den = k2 + kl
    else:
        num = eps * k2 - kl
        den = eps * k2 + kl
    with np.errstate(invalid="ignore", divide="ignore"):
        r = num / den
    corner = (x == 0.0) & (y == 0.0)
    if pol == "s":
        limit = 0.0
    else:
        limit = (eps - 1.0) / (eps + 1.0)
    return np.where(corner, limit, r)


def reflection_s(x, y, eps):
    """s reflection amplitude off a plate, imaginary axis, scaled units.

    Parameters
    ----------
    x, y : float or ndarray
        Scaled imaginary frequency xi*d/c and transverse wavenumber q*d.
    eps : float
        Plate permittivity at this frequency; math.inf is the symbolic
        mirror.

    Returns
    -------
    float or ndarray
        (k2 - kappa) / (k2 + kappa). Identically zero at x = 0 for
        every material, mirror included: the mirror value is the
        x -> 0 limit taken after eps -> inf, which is the prescription
        that reproduces the classical high-temperature force.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if math.isinf(eps):
        r = np.where(x > 0.0, -1.0, 0.0)
        r = np.broadcast_arrays(r, y)[0]
    else:
        r = _finite_refl(x, y, eps, "s")
    if r.ndim == 0:
        return float(r)
    return r


def reflection_p(x, y, eps):
    """p reflection amplitude off a plate, imaginary axis, scaled units.

    (eps*k2 - kappa) / (eps*k2 + kappa); equals (eps-1)/(eps+1) at
    x = 0 and +1 for the mirror at every frequency.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if math.isinf(eps):
        r = np.broadcast_arrays(np.asarray(1.0), x, y)[0]
    else:
        r = _finite_refl(x, y, eps, "p")
    if r.ndim == 0:
        return float(r)
    return r
