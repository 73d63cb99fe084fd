"""Two independent evaluation routes for one special geometry.

For an index-matched Kerr plate (eps = 1) facing a perfect mirror the
spectral kernel collapses to a closed polynomial bracket.
pressure_transparent_mirror integrates that bracket over both momenta
in closed form and sums the result over n + m, one thermal sum, while
pressure_nonlinear runs the full machinery of Fresnel amplitudes,
cavity factors, folded mode sums and the separable coupling of the two
frequencies. The two routes share no kernel code, so their agreement
cross-validates both.
"""

import math

from kerrcasimir import (LayerStack, MaterialResponse, Temperature,
                         pressure_nonlinear, pressure_transparent_mirror)

CHI3 = 2e-16
TEMP = Temperature.finite(300.0)

print("index-matched Kerr plate vs mirror at T = 300 K")
print("%10s %16s %16s %12s" % ("d [m]", "direct [Pa]", "general [Pa]",
                               "rel diff"))
for d in (5e-7, 1e-6, 2e-6):
    direct = pressure_transparent_mirror(d, TEMP, CHI3)
    stack = LayerStack(MaterialResponse.constant(1.0, chi3=CHI3),
                       MaterialResponse.perfect_mirror(), d, TEMP)
    general = pressure_nonlinear(stack)
    diff = abs(direct.value - general.value) / abs(direct.value)
    print("%10.1e %16.8e %16.8e %12.3e"
          % (d, direct.value, general.value, diff))

closed = 21.0 / (4096.0 * math.pi ** 4)
print()
print("classical-limit coefficient for this geometry: 21/(4096 pi^4)"
      " = %.8e" % closed)
