"""Equilibrium Casimir pressure with a third-order (Kerr) plate.

The package evaluates the Lifshitz pressure between two parallel half
spaces and its leading correction when one plate carries a local Kerr
nonlinearity, plus a dense 1-D operator laboratory that verifies the
underlying fluctuation-operator identities to machine precision.
"""

from .constants import C_LIGHT, EPSILON_0, HBAR, K_BOLTZMANN
from .errors import (ConfigError, KerrCasimirError, MaterialError,
                     NearResonanceError, UnconvergedError)
from .fresnel import reflection_p, reflection_s
from .lifshitz_linear import i_lin_high_t, i_lin_zero_t, pressure_linear
from .lifshitz_nonlinear import (TotalPressure, casimir_pressure,
                                 crossover_distance, i_nl_high_t,
                                 i_nl_zero_t, pressure_nonlinear,
                                 pressure_transparent_mirror)
from .materials import LayerStack, MaterialResponse
from .operator_lab import (CheckResult, Grid1D, build_linear,
                           build_n_operator, combined_correction, gtilde,
                           monte_carlo_fdt, naive_combination,
                           noise_covariance, run_verification_suite,
                           rytov_residual)
from .quadrature import (QuadratureResult, Temperature, clenshaw_curtis,
                         double_matsubara_sum, integrate_2d,
                         integrate_semi_infinite, matsubara_sum,
                         semi_infinite_nodes)

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT", "EPSILON_0", "HBAR", "K_BOLTZMANN",
    "KerrCasimirError", "ConfigError", "MaterialError",
    "UnconvergedError", "NearResonanceError",
    "reflection_s", "reflection_p",
    "MaterialResponse", "LayerStack",
    "QuadratureResult", "Temperature", "clenshaw_curtis",
    "semi_infinite_nodes", "integrate_semi_infinite", "integrate_2d",
    "matsubara_sum", "double_matsubara_sum",
    "pressure_linear",
    "i_lin_zero_t", "i_lin_high_t",
    "TotalPressure",
    "pressure_nonlinear", "pressure_transparent_mirror",
    "casimir_pressure", "crossover_distance", "i_nl_zero_t", "i_nl_high_t",
    "Grid1D", "CheckResult",
    "build_linear", "build_n_operator", "gtilde", "naive_combination",
    "combined_correction", "rytov_residual", "noise_covariance",
    "monte_carlo_fdt", "run_verification_suite",
    "__version__",
]
