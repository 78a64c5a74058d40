"""Truncated inverse zeta values and the explicit bounds they obey.

Every truncation is an exact rational; the convergence to the closed
form is controlled by 4*c0*p^{-2(r+1)}, where c0 is the observed
point-count constant (N_e <= c0 p^{(n-1)e}).  A product over several
primes is the same kind of truncation, and its error bound is the sum
of the local ones.  The audit grid checks each inequality at 160-bit
precision and reports any violation.
"""

from bertinilab.zetas import (c0_estimate, closed_point_counts,
                              global_zeta_inverse, local_zeta_inverse,
                              projective_counts,
                              projective_zeta_inverse_exact,
                              verify_section_bounds)

table = projective_counts(2, 1, 10)
print("the line over F_2: closed points by degree:",
      closed_point_counts(table))
print("observed count constant c0 =", c0_estimate(table, 2))

exact = projective_zeta_inverse_exact(2, 1, 3)
print(f"\ntruncations at s = 3 against the closed form {exact} = "
      f"{float(exact):.6f}:")
for r in range(0, 8):
    t = local_zeta_inverse(table, 3, r, 1)
    print(f"  r={r}: value {float(t.value):.8f}, gap "
          f"{float(abs(t.value - exact)):.2e} <= bound "
          f"{float(t.error_bound):.2e}")

print("\nproduct over the primes up to 7 at depth 5 (model of the line over Z):")
tables = {p: projective_counts(p, 1, 5) for p in (2, 3, 5, 7)}
for s in (2, 3):
    g = global_zeta_inverse(tables, s, 7, 5, 1)
    tail = "n/a (diverges over all primes)" if g.tail_bound is None \
        else f"{float(g.tail_bound):.4f}"
    print(f"  s={s}: value {float(g.value):.6f}, error bound "
          f"{float(g.error_bound):.2e}, prime tail bound {tail}")

report = verify_section_bounds([2, 3, 5, 7, 11], 10, 10)
print(f"\ninequality audit: {report.checks} checks, "
      f"{len(report.violations)} violations")
