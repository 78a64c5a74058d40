"""A point where the reduced divisor is singular but the divisor itself
is regular: the quadric X^2 + 5Y^2 - Z^2 at [0:1:0] over p = 5.

Mod 5 the section becomes X^2 - Z^2, whose divisor (a pair of lines)
crosses itself at [0:1:0].  But mod 25 the value of the section at the
lifted point is 5*Y^2: divisible by 5, not by 25, so the local equation
escapes the square of the maximal ideal and the scheme cut out over the
integers is regular there.  Exhaustive censuses mod 4 on the projective
line show how often this rescue happens, and that the certified exact
density uses the arithmetic per-point probability p^{-3}, one factor of
p stronger than the residue-field p^{-2}.
"""

from bertinilab.projgeom import ProjectiveScheme, parse_form, rational_closed_point
from bertinilab.fiberlab import classify_point_detail, fiber_density_exhaustive

p2 = ProjectiveScheme(2, 2, name="P2")
fiber5 = p2.fiber(5)
section = parse_form("X^2+5*Y^2-Z^2", 2)
x = rational_closed_point(fiber5, (0, 1, 0))
arith, residue = classify_point_detail(section, x, fiber5)
print(f"X^2+5Y^2-Z^2 at [0:1:0], p=5:")
print(f"  residue-field divisor: {residue}")
print(f"  mod-25 classification: {arith}   (the rescue in action)")

p1 = ProjectiveScheme(1, 1, name="P1")
print("\nexhaustive censuses of quartic/quintic sections mod 4 on P^1,")
print("no singular point among the three rational points:")
for d in (4, 5):
    est = fiber_density_exhaustive(p1, 2, d, 1)
    cert = est.extras["certificate"]
    print(f"  d={d}: census {est.value} (= {float(est.value):.6f}), "
          f"exact product {est.reference_value}, jet map surjective: "
          f"{cert.surjective}, rescued point-events: {est.extras['rescued_points']}")
print("  at d=5 the census equals (1 - 2^-3)^3 = 343/512 exactly;")
print("  the residue-field census at d=5 is (1 - 2^-2)^3 = 27/64:")
est = fiber_density_exhaustive(p1, 2, 5, 1, count="fiber")
print(f"  residue-field census: {est.value}, certified: "
      f"{est.extras['certified_equal']}")
