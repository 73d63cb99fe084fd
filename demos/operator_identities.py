"""Run the dense operator laboratory and print its identity table.

The 1-D Helmholtz lab checks, on a desk-sized dense matrix, every
operator identity the pressure engine relies on structurally: the
resolvent (Lippmann-Schwinger) identity, reciprocity, the two-object
combination rule and its first-order Kerr correction, the Rytov
fluctuation-dissipation decomposition, conjugation symmetry, the
positive-definiteness of the noise covariance, and a Monte-Carlo
sampling check of the amended fluctuation-dissipation relation.
"""

from kerrcasimir import run_verification_suite

results = run_verification_suite(n_points=32, seed=0)

width = max(len(r.name) for r in results)
print("%-*s %12s %12s  %s" % (width, "identity", "residual", "threshold",
                              "status"))
for row in results:
    print("%-*s %12.3e %12.1e  %s"
          % (width, row.name, row.value, row.threshold,
             "pass" if row.passed else "FAIL"))

print()
exact = [r for r in results if r.threshold <= 1e-12]
print("%d of %d identities hold at machine precision; the rest are"
      % (len(exact), len(results)))
print("first-order or statistical and sit at their theoretical order.")
