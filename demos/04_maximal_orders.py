"""The density of monic integer polynomials f with Z[x]/(f) maximal.

Dedekind's criterion decides maximality at p from the factorization
pattern of f mod p; geometrically the same condition says the divisor
of the homogenized form has no point on the fiber at p inside the
square of the maximal ideal.  Both routes are computed independently
for every sample and must agree exactly.

The density converges to 1/zeta(2) = 0.607927..., i.e. the product of
the local densities (1 - p^-2).  An exhaustive census of quadratics in
a small height ball shows the finite-height bias directly.
"""

import time

from bertinilab.arithlab import (MonicPoly, bsw_experiment, dedekind_p_maximal,
                                 discriminant, maximality_scan,
                                 quadratic_field_census)

for a, label in [((0, -5), "x^2 - 5"), ((-1, -1), "x^2 - x - 1"),
                 ((0, 1), "x^2 + 1"), ((0, 0, 2), "x^3 + 2")]:
    f = MonicPoly(a)
    verdict = maximality_scan(f, 100)
    print(f"{label:>12}: disc = {discriminant(f):>4}, verdict {verdict.kind}"
          + (f" at p={verdict.p}" if verdict.p else "")
          + ("" if verdict.unconditional or verdict.p else " (conditional)"))
print(f"{'x^2 - 5':>12}: Dedekind at 2 -> maximal: "
      f"{dedekind_p_maximal(MonicPoly((0, -5)), 2)} "
      "(the golden-ratio order Z[(1+sqrt5)/2] is strictly larger)")

print("\nMonte Carlo, cubics in the height ball H(f) <= 60, trial bound 200:")
start = time.time()
est = bsw_experiment(3, 60, 200, 20000, seed=11)
print(f"  mean {est.value:.5f} +- {est.ci_halfwidth:.5f} (99%), reference "
      f"{float(est.reference_value):.5f} + tail {float(est.reference_error):.4f} "
      f"[{time.time() - start:.1f}s]")
print(f"  non-maximal samples by prime: "
      f"{dict(sorted(est.extras['not_maximal_at'].items())[:6])} ...")

print("\nexhaustive quadratics |a_1| <= 20, |a_2| <= 400:")
census = quadratic_field_census(20)
print(f"  exact density {census.value} = {float(census.value):.5f}; "
      f"bias against 1/zeta(2): {census.extras['bias_vs_zeta2']:+.5f}")
