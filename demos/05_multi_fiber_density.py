"""Integer binary forms classified on several fibers at once.

Uniform coefficient boxes reduce almost uniformly modulo each p^2
(the residue classes of [-B, B] are hit k or k+1 times each, and the
Chinese remainder theorem makes distinct primes independent once the
box covers the joint modulus), so the proportion of sections with no
singular point of degree <= r on any fiber p <= P factors into the
truncated local products.

The arithmetic (mod p^2) classification converges per fiber to
1/zeta_{X_p}(3) = (1 - p^-2)(1 - p^-3); demanding only smoothness of
the reduced divisor is a stronger condition with the smaller limit
(1 - p^-1)(1 - p^-2).  Both are measured below on the same samples.
"""

import time

from bertinilab.arithlab import equidistribution_audit, multi_fiber_experiment

print("box equidistribution audit for B = 10^4:")
for N in (4, 9, 25, 49):
    aud = equidistribution_audit(9, 10 ** 4, N)
    print(f"  N={N:>2}: per-class counts within [{aud.min_count}, "
          f"{aud.max_count}], ratio {aud.ratio} "
          f"({'exact' if aud.exact else 'off by one per coordinate'})")

for mode in ("arithmetic", "fiber"):
    start = time.time()
    est = multi_fiber_experiment(8, 10 ** 4, 7, 4, 20000, seed=3,
                                 classification=mode)
    print(f"\n{mode} classification, d=8, primes <= 7, degrees <= 4, "
          f"2*10^4 samples [{time.time() - start:.1f}s]:")
    print(f"  mean {est.value:.5f} +- {est.ci_halfwidth:.5f}")
    print(f"  truncated product reference {float(est.reference_value):.5f} "
          f"+- {float(est.reference_error):.5f}")
    print(f"  singular samples per fiber: {est.extras['singular_by_prime']}")
    if mode == "arithmetic":
        print(f"  residue-singular points rescued by the lift: "
              f"{est.extras['rescued_points']}")
