"""Acceptance suite: one numbered criterion per test, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Two criteria are implemented exactly as stated and marked strict-xfail,
because their stated targets belong to the residue-field (mod p)
smoothness census while every other criterion pins the classifier to
the mod-p^2 (arithmetic) sense, and no single classifier satisfies
both:

* criterion 1 asks the exhaustive mod-4 census at d=4, r=1 on the line
  to equal 27/64 under a surjectivity certificate.  The jet target at
  the three rational points is 6-dimensional mod 2 while degree-4 forms
  have 5 coefficients, so no certificate exists at d=4; the honest
  census is 171/256, and the certified exact product appears at d=5:
  343/512 arithmetically (per-point probability p^{-3}) and 27/64 for
  the residue-field census (p^{-2}).  Companions assert both.

* criterion 8's reference 0.14330 is the product of the residue-field
  local factors (1-p^{-1})(1-p^{-2}); the arithmetic classification
  converges to the s=3 product 0.52264.  Companions assert the
  residue-field reading against 0.14330 and the arithmetic run against
  its own truncated product.
"""

import time
from fractions import Fraction

import pytest

from bertinilab.arithlab import (MonicPoly, bsw_experiment, dedekind_p_maximal,
                                 discriminant, equidistribution_audit,
                                 multi_fiber_experiment)
from bertinilab.fiberlab import (FiberClassifier, classify_point_detail,
                                 fiber_density_exhaustive,
                                 reference_truncation,
                                 singular_at_point_proportion,
                                 squarefree_binary_census)
from bertinilab.p1sections import binary_section_report
from bertinilab.projgeom import parse_form, rational_closed_point
from bertinilab.zetas import (c0_estimate, local_zeta_inverse, primes_up_to,
                              projective_counts, projective_zeta_inverse_exact,
                              verify_section_bounds)
from bertinilab import sampling

SEED = 20260811
HEAVY_SAMPLES = 100_000


def report(number, ok, detail, documented=False):
    status = "PASS" if ok else ("FAIL (documented)" if documented else "FAIL")
    print(f"ACCEPTANCE {number:>2}: {status} - {detail}")


# ----------------------------------------------------------------------
# 1. Exact small-degree product on the line, p = 2.


@pytest.mark.xfail(strict=True, reason=(
    "at d=4 the three rational 1-jets span a 6-dimensional mod-2 target "
    "against 5 coefficients, so the stated certificate cannot exist, and "
    "the stated 27/64 is the residue-field value; the mod-4 census is 171/256"))
def test_criterion_01_as_stated(p1):
    start = time.monotonic()
    est = fiber_density_exhaustive(p1, 2, 4, 1)
    elapsed = time.monotonic() - start
    stated = Fraction(27, 64)
    ok = (est.total == 1024 and est.value == stated
          and est.extras["certificate"].surjective and elapsed < 1.0)
    report(1, ok, f"d=4 census {est.value} vs stated 27/64, certificate "
                  f"{est.extras['certificate'].surjective} [{elapsed:.2f}s]",
           documented=True)
    assert ok


def test_criterion_01_certified_arithmetic_product(p1):
    """d=5 is the first degree with a surjectivity certificate: the census of
    all 4^6 sections equals the exact product (1 - 2^-3)^3 = 343/512."""
    start = time.monotonic()
    est = fiber_density_exhaustive(p1, 2, 5, 1)
    elapsed = time.monotonic() - start
    ok = (est.value == Fraction(343, 512)
          and est.value == reference_truncation(p1.fiber(2), 1, "arithmetic").value
          and est.extras["certified_equal"] and elapsed < 1.0)
    report(1, ok, f"certified d=5 census = {est.value} = exact product "
                  f"[{elapsed:.2f}s]")
    assert ok


def test_criterion_01_residue_field_value(p1):
    """The 27/64 target is realized by the certified residue-field census."""
    est = fiber_density_exhaustive(p1, 2, 5, 1, count="fiber")
    ok = (est.value == Fraction(27, 64)
          and est.value == reference_truncation(p1.fiber(2), 1, "fiber").value
          and est.extras["certified_equal"])
    # and the honest uncertified d=4 values, pinned
    est4 = fiber_density_exhaustive(p1, 2, 4, 1)
    ok &= est4.value == Fraction(171, 256)
    ok &= not est4.extras["certificate"].surjective
    ok &= est4.extras["rescued_points"] > 0
    report(1, ok, f"residue-field certified census = {est.value}; "
                  f"uncertified d=4 census pinned at 171/256")
    assert ok


# ----------------------------------------------------------------------
# 2. Exact singular-at-a-point proportions.


def test_criterion_02_singular_point_proportions(p1, p2):
    start = time.monotonic()
    fib1 = p1.fiber(2)
    fib2 = p2.fiber(2)
    deg1 = next(x for x in fib1.closed_points_up_to(1))
    deg1_p2 = next(x for x in fib2.closed_points_up_to(1))
    deg2 = next(x for x in fib1.closed_points_up_to(2) if x.degree == 2)
    cases = [
        (singular_at_point_proportion(fib1, deg1, 3), Fraction(1, 4)),
        (singular_at_point_proportion(fib2, deg1_p2, 3), Fraction(1, 8)),
        (singular_at_point_proportion(fib1, deg2, 5), Fraction(1, 16)),
    ]
    elapsed = time.monotonic() - start
    ok = all(est.value == expected and est.extras["certified_equal"]
             for est, expected in cases) and elapsed < 3.0
    report(2, ok, "exact proportions 1/4, 1/8, 1/16 "
                  f"[{elapsed:.2f}s total]")
    assert ok


# ----------------------------------------------------------------------
# 3. Finite-field limit: squarefree binary forms over F_2.


def test_criterion_03_squarefree_density_band(p1):
    start = time.monotonic()
    fib = p1.fiber(2)
    c0 = c0_estimate(projective_counts(2, 1, 4), 2)     # 3/2
    target = projective_zeta_inverse_exact(2, 1, 2)     # 3/8
    rows = []
    ok = True
    for d in range(6, 15):
        rd = 0
        for r in range(1, d):
            pts = fib.closed_points_up_to(r)
            if FiberClassifier(fib, d, pts).certificate("fiber").surjective:
                rd = r
            else:
                break
        band = reference_truncation(fib, rd, "fiber").error_bound
        ok &= band == 2 * c0 * Fraction(1, 2 ** rd)     # 4 c0 2^-(r(d)+1)
        hits, total = squarefree_binary_census(2, d)
        density = Fraction(hits, total)
        rows.append((d, density, rd, band))
        ok &= abs(density - target) <= band
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    detail = ", ".join(f"d={d}:{float(v):.4f}(r={rd})" for d, v, rd, _ in rows[:3])
    report(3, ok, f"densities within 2*c0*2^-r(d) of 3/8; {detail}, ... "
                  f"[{elapsed:.1f}s]")
    assert ok


# ----------------------------------------------------------------------
# 4. Convergence bound audit.


def test_criterion_04_bound_suite():
    start = time.monotonic()
    rep = verify_section_bounds([2, 3, 5, 7, 11], 10, 10, fiber_dims=(1, 2))
    elapsed = time.monotonic() - start
    ok = rep.ok and elapsed < 5.0
    report(4, ok, f"{rep.checks} grid inequalities, {len(rep.violations)} "
                  f"violations [{elapsed:.2f}s]")
    assert ok


# ----------------------------------------------------------------------
# 5. The worked quadric example.


def test_criterion_05_quadric_example(p2):
    start = time.monotonic()
    fib = p2.fiber(5)
    section = parse_form("X^2+5*Y^2-Z^2", 2)
    x = rational_closed_point(fib, (0, 1, 0))
    arith, fiber_status = classify_point_detail(section, x, fib)
    elapsed = time.monotonic() - start
    ok = (arith == "RegularPoint" and fiber_status == "SingularPoint"
          and elapsed < 1.0)
    report(5, ok, f"X^2+5Y^2-Z^2 mod 25 at [0:1:0]: {arith} / fiber "
                  f"{fiber_status} [{elapsed:.2f}s]")
    assert ok


# ----------------------------------------------------------------------
# 6. Oracle equivalence: Dedekind = mod-p^2 geometry.


def test_criterion_06_dedekind_geometry_agreement():
    start = time.monotonic()
    primes = primes_up_to(50)
    rng = sampling.substream(SEED, 0)
    pairs = 0
    polys = 0
    while polys < 500:
        a = tuple(int(c) for c in rng.integers(-50, 51, size=3))
        f = MonicPoly(a)
        disc = discriminant(f)
        if disc == 0:
            continue
        hom = (1,) + f.a
        for p in primes:
            dedekind = dedekind_p_maximal(f, p, disc=disc)
            geometric = binary_section_report(hom, p, 3).arith_singular == 0
            assert dedekind == geometric, (a, p)
            pairs += 1
        polys += 1
    elapsed = time.monotonic() - start
    ok = pairs == 500 * len(primes) and elapsed < 120.0
    report(6, ok, f"{pairs} (f, p) pairs agree exactly [{elapsed:.1f}s]")
    assert ok


# ----------------------------------------------------------------------
# 7. Density of maximal orders among monic cubics.


@pytest.fixture(scope="module")
def bsw_run():
    start = time.monotonic()
    est = bsw_experiment(3, 1000, 1000, HEAVY_SAMPLES, seed=SEED)
    est.extras["elapsed"] = time.monotonic() - start
    return est


def test_criterion_07_maximal_order_density(bsw_run):
    est = bsw_run
    reference, tail = est.reference_value, est.reference_error
    gap = abs(est.value - float(reference))
    tolerance = est.ci_halfwidth + float(tail)
    ok = gap <= tolerance and est.extras["elapsed"] < 600.0
    report(7, ok, f"mean {est.value:.5f} vs {float(reference):.5f} "
                  f"(gap {gap:.5f} <= {tolerance:.5f}; full 1/zeta(2) = 0.60793) "
                  f"[{est.extras['elapsed']:.0f}s]")
    assert ok


# ----------------------------------------------------------------------
# 8. Multi-fiber density, primes <= 7.


@pytest.fixture(scope="module")
def multifiber_arithmetic():
    start = time.monotonic()
    est = multi_fiber_experiment(8, 10 ** 4, 7, 4, HEAVY_SAMPLES, seed=SEED)
    est.extras["elapsed"] = time.monotonic() - start
    return est


@pytest.fixture(scope="module")
def multifiber_residue():
    start = time.monotonic()
    est = multi_fiber_experiment(8, 10 ** 4, 7, 4, HEAVY_SAMPLES, seed=SEED,
                                 classification="fiber")
    est.extras["elapsed"] = time.monotonic() - start
    return est


def _stated_reference_and_bounds():
    """0.14330 comes from the exact residue-field local factors; the stated
    tolerance adds the per-fiber truncation bounds at the same exponent."""
    reference = Fraction(1)
    bounds = Fraction(0)
    for p in (2, 3, 5, 7):
        reference *= projective_zeta_inverse_exact(p, 1, 2)
        bounds += local_zeta_inverse(projective_counts(p, 1, 4), 2, 4, 1).error_bound
    return reference, bounds


@pytest.mark.xfail(strict=True, reason=(
    "the stated 0.14330 is the product of the residue-field local factors "
    "(1-p^-1)(1-p^-2); the mod-p^2 classification converges to the s=3 "
    "product 0.52264"))
def test_criterion_08_as_stated(multifiber_arithmetic):
    est = multifiber_arithmetic
    reference, bounds = _stated_reference_and_bounds()
    gap = abs(est.value - float(reference))
    tolerance = est.ci_halfwidth + float(bounds)
    ok = gap <= tolerance and est.extras["elapsed"] < 600.0
    report(8, ok, f"arithmetic mean {est.value:.5f} vs stated 0.14330 "
                  f"(gap {gap:.5f} vs tolerance {tolerance:.5f}) "
                  f"[{est.extras['elapsed']:.0f}s]", documented=True)
    assert ok


def test_criterion_08_residue_field_reading(multifiber_residue):
    est = multifiber_residue
    reference, bounds = _stated_reference_and_bounds()
    gap = abs(est.value - float(reference))
    tolerance = est.ci_halfwidth + float(bounds)
    ok = gap <= tolerance and est.extras["elapsed"] < 600.0
    report(8, ok, f"residue-field mean {est.value:.5f} vs 0.14330 "
                  f"(gap {gap:.5f} <= {tolerance:.5f}) "
                  f"[{est.extras['elapsed']:.0f}s]")
    assert ok


def test_criterion_08_arithmetic_reference(multifiber_arithmetic):
    """The arithmetic run against its own truncated product (s = 3), with the
    documented 0.01 allowance for the jet degrees d=8 cannot certify."""
    est = multifiber_arithmetic
    gap = abs(est.value - float(est.reference_value))
    tolerance = est.ci_halfwidth + float(est.reference_error) + 0.01
    ok = gap <= tolerance
    report(8, ok, f"arithmetic mean {est.value:.5f} vs truncated s=3 product "
                  f"{float(est.reference_value):.5f} (gap {gap:.5f} <= "
                  f"{tolerance:.5f})")
    assert ok


# ----------------------------------------------------------------------
# 9. Equidistribution audit.


def test_criterion_09_equidistribution_exact():
    import numpy as np
    start = time.monotonic()
    checked = 0
    for h in (1, 2, 3):
        for B in range(1, 13):
            for N in range(2, 8):
                aud = equidistribution_audit(h, B, N)
                grid = np.stack(np.meshgrid(
                    *[np.arange(-B, B + 1) % N] * h), axis=-1).reshape(-1, h)
                counts = np.bincount(np.ravel_multi_index(grid.T, (N,) * h),
                                     minlength=N ** h)
                assert counts.min() == aud.min_count, (h, B, N)
                assert counts.max() == aud.max_count, (h, B, N)
                assert (aud.ratio == 1) == ((2 * B + 1) % N == 0), (h, B, N)
                checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 3 * 12 * 6 and elapsed < 30.0
    report(9, ok, f"{checked} (h, B, N) grids, closed form == exhaustive "
                  f"[{elapsed:.1f}s]")
    assert ok


# ----------------------------------------------------------------------
# 10. Reported (non-asserted) empirical convergence over d.


def test_criterion_10_convergence_table_reported(p1):
    """The asymptotic rates carry non-effective constants and are excluded
    from quantitative acceptance; this emits the observed gaps only."""
    from bertinilab.fiberlab import fiber_density_mc
    target = float(projective_zeta_inverse_exact(2, 1, 3))     # 21/32
    lines = []
    for d in (6, 10, 14, 18):
        est = fiber_density_mc(p1, 2, d, 4, 20000, seed=SEED)
        lines.append(f"d={d}: |mean-21/32| = {abs(est.value - target):.4f}")
    report(10, True, "convergence table (reported, not asserted): "
                     + "; ".join(lines))
    assert lines                  # presence of the table is the contract
