"""How often is the divisor of a random binary form over F_2 smooth?

A degree-d binary form cuts out d points (with multiplicity) on the
projective line; the divisor is smooth exactly when the form is
squarefree.  Counting all 2^(d+1) forms for each degree shows the
density locking onto the inverse zeta value

    1 / zeta_{P^1/F_2}(2) = (1 - 1/2)(1 - 1/4) = 3/8,

and the surjectivity certificates explain why: once the degree-d
coefficient space surjects onto the 1-jets at all points of degree <= r,
the singularity events there become exact independent coin flips with
probability 2^(-2 deg x).
"""

from fractions import Fraction

from bertinilab.projgeom import ProjectiveScheme
from bertinilab.fiberlab import (FiberClassifier, reference_truncation,
                                 squarefree_binary_census)

scheme = ProjectiveScheme(1, 1, name="P1")
fiber = scheme.fiber(2)

print("degree-d binary forms over F_2 with squarefree divisor:")
for d in range(2, 15):
    hits, total = squarefree_binary_census(2, d)
    print(f"  d={d:>2}: {hits:>6}/{total:<6} = {Fraction(hits, total)} "
          f"= {hits / total:.5f}")
print(f"  target 1/zeta(2) of the line over F_2: {3 / 8}")

print("\ncertified jet surjectivity (3 rational points, 1-jets need 6 dims):")
for d in range(3, 8):
    cert = FiberClassifier(fiber, d, fiber.closed_points_up_to(1)).certificate(
        "fiber")
    print(f"  d={d}: source dim {cert.source_dim}, target dim "
          f"{cert.target_dim}, surjective: {cert.surjective}")

print("\ntruncated products over points of degree <= r (exponent m+1 = 2):")
for r in range(0, 5):
    value = reference_truncation(fiber, r, "fiber").value
    print(f"  r={r}: {value} = {float(value):.6f}")
