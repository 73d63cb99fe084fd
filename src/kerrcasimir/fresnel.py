"""Single-interface reflection amplitudes on the imaginary frequency axis.

A plate enters the kernels only through its (r_s, r_p) pair at each
(x, y) node, and one call returns both. Only the imaginary axis exists:
the engine runs there, after the fluctuation-dissipation rotation, in
scaled variables where everything is real and well conditioned.

Scaled variables: with gap d, imaginary frequency xi and transverse
wavenumber q, set x = xi * d / c and y = q * d. The axial decay
constant in a medium of permittivity eps is then
kappa_eps * d = sqrt(eps * x**2 + y**2), and the vacuum gap has
k2 = sqrt(x**2 + y**2).
"""

import math

import numpy as np


def reflection(x, y, eps):
    """s and p reflection amplitudes (r_s, r_p) off a plate.

    x = xi*d/c and y = q*d broadcast against each other, and scalar
    inputs give floats; eps is the plate permittivity at this
    frequency, math.inf the symbolic mirror, or an ndarray of them that
    broadcasts too, each entry treated as a float eps would be. r_s =
    (k2 - kappa) / (k2 + kappa) and r_p = (eps*k2 - kappa) / (eps*k2 +
    kappa), with (0, (eps-1)/(eps+1)) at x = y = 0 and exact zeros for
    vacuum. The mirror has r_p = 1 and r_s = -1, but r_s = 0 at x = 0:
    the x -> 0 limit taken after eps -> inf, which is the prescription
    that reproduces the classical high-temperature force.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    per_entry = getattr(eps, "ndim", 0) > 0
    # fast path of every mirror/vacuum plate; one path made kerr 12-17% slower
    if not per_entry and math.isinf(eps):
        shape = np.broadcast(x, y).shape
        r_s, r_p = np.where(x > 0.0, -1.0, np.zeros(shape)), np.ones(shape)
    elif not per_entry and eps == 1.0:
        # exact zeros, not the 1-ulp noise of hypot vs sqrt
        r_s = r_p = np.zeros(np.broadcast(x, y).shape)
    else:
        k2 = np.hypot(x, y)
        corner = (x == 0.0) & (y == 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            kappa = np.sqrt(eps * x * x + y * y)
            r_s = np.where(corner, 0.0, (k2 - kappa) / (k2 + kappa))
            r_p = np.where(corner, (eps - 1.0) / (eps + 1.0),
                           (eps * k2 - kappa) / (eps * k2 + kappa))
        if per_entry:
            # the mirror and vacuum entries, as for a float eps
            mirror, vacuum = np.isinf(eps), eps == 1.0
            r_s = np.where(mirror, np.where(x > 0.0, -1.0, 0.0),
                           np.where(vacuum, 0.0, r_s))
            r_p = np.where(mirror, 1.0, np.where(vacuum, 0.0, r_p))
    if r_s.ndim == 0:
        return float(r_s), float(r_p)
    return r_s, r_p
