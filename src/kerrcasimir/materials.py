"""Material response models evaluated on the imaginary frequency axis.

The pressure engine only ever needs the permittivity at imaginary
frequencies, eps(i*xi) with xi >= 0, where every passive dielectric
response is real, greater than one, and monotonically decreasing toward
one. Two models are supported: a constant permittivity (including the
symbolic perfect mirror, eps = inf) and a tabulated response with
piecewise log-linear interpolation in xi.

The interpolant of a table has a kink (a jump in its derivative) at
every table node, and so has every frequency integrand built on it.
breakpoints exposes the positive nodes; mapped to thermal indices
n = xi / xi_1 they are the zero_breaks of quadrature.matsubara_sum,
whose kink rule says where the frequency integrals split.

A plate may additionally carry an isotropic third-order (Kerr)
susceptibility chi3, in m**2/V**2. The pressure kernels have the
contractions of the isotropic chi3 tensor folded in already and take
the scalar chi3 directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MaterialError
from .quadrature import Temperature, _real


class MaterialResponse:
    """Dielectric response of one plate on the imaginary frequency axis.

    Build with one of the classmethods, or directly with exactly one of
    eps_constant / eps_table. eps_constant and chi3 must be real numbers
    (quadrature._real), kept as floats.

    Parameters
    ----------
    eps_constant : float, optional
        Frequency-independent permittivity, >= 1. math.inf denotes the
        symbolic perfect mirror.
    eps_table : sequence of (xi, eps) pairs, optional
        Tabulated response. xi in rad/s, strictly increasing, >= 0; eps
        finite, >= 1, non-increasing. Interpolation is linear in log xi
        (linear in xi on a first segment starting at xi = 0) and the
        end values are clamped outside the table range.
    chi3 : float
        Isotropic Kerr susceptibility, m**2/V**2. Zero means a purely
        linear plate. Not allowed on a perfect mirror.
    """

    def __init__(self, eps_constant=None, eps_table=None, chi3=0.0):
        if (eps_constant is None) == (eps_table is None):
            raise MaterialError(
                "give exactly one of eps_constant or eps_table")
        if not (_real(chi3) and math.isfinite(chi3)):
            raise MaterialError("chi3 must be finite and a real number")
        self.chi3 = float(chi3)

        if eps_constant is not None:
            if not (_real(eps_constant) and eps_constant >= 1.0):  # NaN too
                raise MaterialError(
                    "constant permittivity must be a real number >= 1")
            eps_constant = float(eps_constant)
            if math.isinf(eps_constant) and chi3 != 0.0:
                raise MaterialError(
                    "a perfect mirror cannot carry a Kerr response")
            self._eps_const = eps_constant
            self._xi_nodes = None
            self._eps_nodes = None
            return

        table = np.asarray(eps_table, dtype=float)
        if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
            raise MaterialError(
                "eps_table must be a sequence of at least two (xi, eps) "
                "pairs")
        xi = table[:, 0]
        eps = table[:, 1]
        if not np.all(np.isfinite(xi)) or xi[0] < 0.0:
            raise MaterialError("table frequencies must be finite and >= 0")
        if not np.all(np.diff(xi) > 0.0):
            raise MaterialError("table frequencies must strictly increase")
        if not np.all(np.isfinite(eps)) or np.any(eps < 1.0):
            raise MaterialError("table permittivities must be finite, >= 1")
        if np.any(np.diff(eps) > 0.0):
            raise MaterialError(
                "permittivity on the imaginary axis must not increase")
        self._eps_const = None
        self._xi_nodes = xi.copy()
        self._eps_nodes = eps.copy()

    @classmethod
    def constant(cls, eps, chi3=0.0):
        return cls(eps_constant=eps, chi3=chi3)

    @classmethod
    def from_table(cls, pairs, chi3=0.0):
        return cls(eps_table=pairs, chi3=chi3)

    @classmethod
    def perfect_mirror(cls):
        """Symbolic ideal reflector (eps = inf at every frequency)."""
        return cls(eps_constant=math.inf)

    @classmethod
    def vacuum(cls):
        return cls(eps_constant=1.0)

    @property
    def is_mirror(self):
        return self._eps_const is not None and math.isinf(self._eps_const)

    @property
    def is_constant(self):
        return self._eps_const is not None

    @property
    def has_kerr(self):
        return self.chi3 != 0.0

    @property
    def breakpoints(self):
        """Positive table frequencies, rad/s, ascending: where the
        interpolated permittivity has kinks. Empty for constant plates
        and the mirror."""
        if self._xi_nodes is None:
            return np.empty(0)
        return self._xi_nodes[self._xi_nodes > 0.0]

    def permittivity(self, xi):
        """Permittivity at imaginary frequency i*xi, xi >= 0 in rad/s.

        Accepts scalars or arrays and returns the matching shape. The
        mirror returns inf.
        """
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        if self._eps_const is not None:
            out = np.full(xi.shape, self._eps_const)
            return float(out) if scalar else out

        nodes = self._xi_nodes
        eps = self._eps_nodes
        x = np.clip(xi, nodes[0], nodes[-1])
        idx = np.searchsorted(nodes, x, side="right") - 1
        idx = np.clip(idx, 0, nodes.size - 2)
        x0 = nodes[idx]
        x1 = nodes[idx + 1]
        e0 = eps[idx]
        e1 = eps[idx + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_log = (np.log(x) - np.log(x0)) / (np.log(x1) - np.log(x0))
        t_lin = (x - x0) / (x1 - x0)
        t = np.where(x0 > 0.0, t_log, t_lin)
        out = e0 + t * (e1 - e0)
        return float(out) if scalar else out

    def __repr__(self):
        if self._eps_const is not None:
            base = "MaterialResponse(eps_constant=%r" % self._eps_const
        else:
            base = "MaterialResponse(<table of %d points>" % \
                self._xi_nodes.size
        return base + ", chi3=%r)" % self.chi3


def _check_gap(gap):
    # the LayerStack gap range; the CLI checks it at config time too
    if not _real(gap):
        raise MaterialError("gap must be a real number")
    if not 2.0 ** -127 <= gap < math.inf:  # NaN included
        raise MaterialError("gap must be finite and at least 2**-127 m")
    if gap > 2.0 ** 127:
        raise MaterialError("gap must be at most 2**127 m")


@dataclass(frozen=True)
class LayerStack:
    """Two parallel plates separated by a vacuum gap.

    layer1 and layer3 are the plate responses, gap is the separation d
    in meters, temperature the thermal state. At most one plate may
    carry a Kerr response. The gap must be a real number
    (quadrature._real) in [2**-127, 2**127] m (about 5.9e-39 to
    1.7e38 m), so that d**8, the zero-temperature power law of the Kerr
    part, is a finite normal float; anything else raises MaterialError.
    """

    layer1: MaterialResponse
    layer3: MaterialResponse
    gap: float
    temperature: Temperature

    def __post_init__(self):
        _check_gap(self.gap)
        if self.layer1.has_kerr and self.layer3.has_kerr:
            raise MaterialError(
                "at most one plate may carry a Kerr response")
        if not isinstance(self.temperature, Temperature):
            raise MaterialError("temperature must be a Temperature")

    @property
    def breakpoints(self):
        """Union of the breakpoints of both plates, rad/s, ascending."""
        return np.array(sorted({*self.layer1.breakpoints,
                                *self.layer3.breakpoints}), dtype=float)

    @property
    def kerr_layer(self):
        """The plate with chi3 != 0, or None if both are linear."""
        if self.layer1.has_kerr:
            return self.layer1
        if self.layer3.has_kerr:
            return self.layer3
        return None

    def oriented(self):
        """Equivalent stack with the Kerr plate (if any) as layer1.

        The geometry is mirror symmetric, so the pressure is unchanged;
        the nonlinear kernel simply assumes the Kerr plate comes first.
        """
        if self.layer3.has_kerr and not self.layer1.has_kerr:
            return LayerStack(self.layer3, self.layer1, self.gap,
                              self.temperature)
        return self
