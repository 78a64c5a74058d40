"""Point-count tables, truncated zeta values, convergence bounds."""

from fractions import Fraction

import pytest

from bertinilab import zetas
from bertinilab.cli import _default_depth
from bertinilab.zetas import (GlobalZetaTruncation, InconsistentTable,
                              PointCountTable, affine_counts,
                              affine_zeta_inverse_exact, c0_estimate,
                              closed_point_counts, global_zeta_inverse,
                              local_zeta_inverse, mobius,
                              primes_up_to, projective_counts,
                              projective_zeta_inverse_exact,
                              reconstruct_counts, truncation_exponent,
                              verify_section_bounds)


def test_mobius():
    assert [mobius(n) for n in range(1, 13)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_closed_point_counts_examples():
    assert closed_point_counts(PointCountTable(2, (3, 5))) == (3, 1)
    assert closed_point_counts(PointCountTable(2, (3, 5, 9))) == (3, 1, 2)
    assert closed_point_counts(PointCountTable(2, (7,))) == (7,)


def test_closed_point_counts_roundtrip():
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 2)]:
        table = projective_counts(p, m, 8)
        a = closed_point_counts(table)
        assert reconstruct_counts(p, a) == table.counts
        assert all(c >= 0 for c in a)


def test_inconsistent_table_rejected():
    with pytest.raises(InconsistentTable):
        closed_point_counts(PointCountTable(2, (3, 4)))   # (4-3)/2 not integral
    with pytest.raises(InconsistentTable):
        closed_point_counts(PointCountTable(2, (3, 1)))   # negative a_2


def test_c0_estimate_examples():
    assert c0_estimate(projective_counts(2, 1, 6), 2) == Fraction(3, 2)
    assert c0_estimate(PointCountTable(5, (0, 0, 0)), 2) == 0
    assert c0_estimate(projective_counts(3, 2, 5), 3) == Fraction(13, 9)


def test_local_zeta_inverse_examples():
    table = projective_counts(2, 1, 12)
    assert local_zeta_inverse(table, 2, 1, 1).value == Fraction(27, 64)
    assert local_zeta_inverse(table, 2, 2, 1).value == Fraction(405, 1024)
    assert local_zeta_inverse(table, 2, 0, 1).value == 1
    assert local_zeta_inverse(table, 3, 1, 1).value == Fraction(343, 512)
    a = closed_point_counts(table)
    for s, r in ((2, 2), (3, 5), (2, 12)):        # 1024 = 2^(2(1*3 + 2*1))
        assert truncation_exponent(a, s, r) == sum(s * e * a[e - 1]
                                                   for e in range(1, r + 1))
        assert local_zeta_inverse(table, s, r, 1).value.denominator == \
            2 ** truncation_exponent(a, s, r)
    with pytest.raises(ValueError):
        local_zeta_inverse(table, 2, 13, 1)       # r beyond the table
    with pytest.raises(ValueError):
        local_zeta_inverse(table, 1, 3, 1)        # outside convergence


def test_truncation_monotone_with_explicit_factor():
    table = projective_counts(3, 1, 10)
    a = closed_point_counts(table)
    prev = local_zeta_inverse(table, 3, 0, 1).value
    for r in range(1, 11):
        cur = local_zeta_inverse(table, 3, r, 1).value
        assert cur <= prev
        # the exact relative factor from step r-1 to r
        assert cur == prev * (1 - Fraction(1, 3 ** (3 * r))) ** a[r - 1]
        prev = cur


def test_truncation_error_bound_closed_form():
    # fibers P^m: the truncation approaches prod_{i<=m}(1 - p^{i-s})
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        s = m + 2
        exact = projective_zeta_inverse_exact(p, m, s)
        table = projective_counts(p, m, 8 if p == 2 else 6)
        for r in range(0, table.e_max + 1):
            t = local_zeta_inverse(table, s, r, m)
            assert abs(t.value - exact) <= t.error_bound, (p, m, r)
            assert 0 < t.value <= 1


def test_global_zeta_single_factor():
    tables = {2: projective_counts(2, 1, 6)}
    g = global_zeta_inverse(tables, 2, 2, 4, 1)
    assert g.value == local_zeta_inverse(tables[2], 2, 4, 1).value
    assert isinstance(g, GlobalZetaTruncation)
    assert g.tail_bound is None          # s = m+1 diverges over all primes


def test_global_zeta_truncated_product_value():
    tables = {p: projective_counts(p, 1, 12) for p in (2, 3, 5, 7)}
    depths = {2: 12, 3: 8, 5: 6, 7: 5}
    g = global_zeta_inverse(tables, 2, 7, depths, 1)
    exact = Fraction(1)
    for p in (2, 3, 5, 7):
        exact *= projective_zeta_inverse_exact(p, 1, 2)
    assert abs(g.value - exact) <= g.local_error
    assert abs(float(exact) - 0.14330) < 5e-5
    g3 = global_zeta_inverse(tables, 3, 7, depths, 1)
    assert g3.tail_bound is not None and g3.tail_bound > 0
    with pytest.raises(ValueError):
        global_zeta_inverse({2: tables[2]}, 3, 7, 4, 1)   # missing primes


@pytest.mark.parametrize("prime_bound,depths", [
    (0, 4), (1, 4), (-3, 4),                # a product over no fibers
    (7, {2: 4, 3: 4, 7: 4}),                # no depth for p = 5
])
def test_global_zeta_inverse_validates_input(prime_bound, depths):
    tables = {p: projective_counts(p, 1, 4) for p in (2, 3, 5, 7)}
    with pytest.raises(ValueError):
        global_zeta_inverse(tables, 3, prime_bound, depths, 1)


def test_affine_euler_product_value():
    # the truncated product over p <= 1000 of the affine local factors
    value = Fraction(1)
    for p in primes_up_to(1000):
        value *= affine_zeta_inverse_exact(p, 1, 3)
    assert abs(float(value) - 0.60800) < 5e-5
    # consistency with truncated affine tables at desk depth
    tables = {p: affine_counts(p, 1, 4) for p in primes_up_to(50)}
    depths = {p: max(e for e in range(1, 5) if p ** e <= 1 << 10)
              for p in primes_up_to(50)}
    g = global_zeta_inverse(tables, 3, 50, depths, 1)
    exact50 = Fraction(1)
    for p in primes_up_to(50):
        exact50 *= affine_zeta_inverse_exact(p, 1, 3)
    assert abs(g.value - exact50) <= g.local_error


def test_default_truncation_depth(p1):
    """On P^1 the default depth of ``bertini zeta`` is the largest e >= 1
    with p^e <= 2^12: its table is a closed form, so the scan check never
    binds there."""
    for p in (2, 3, 5, 7, 11, 13, 61, 4093, 4099):
        expected = max([e for e in range(1, 13) if p ** e <= 1 << 12], default=1)
        assert _default_depth(p1.fiber(p)) == expected, p


def test_reduced_fraction_fallback(monkeypatch):
    """Without Fraction's private _normalize switch the full gcd runs and
    gives the same value."""
    table = projective_counts(2, 1, 12)
    expected = local_zeta_inverse(table, 2, 12, 1).value
    refused = []

    class NoNormalizeFraction(Fraction):
        def __new__(cls, numerator=0, denominator=None, **kwargs):
            if kwargs:
                refused.append(kwargs)
                raise TypeError("unexpected keyword argument '_normalize'")
            return super().__new__(cls, numerator, denominator)

    monkeypatch.setattr(zetas, "Fraction", NoNormalizeFraction)
    value = local_zeta_inverse(table, 2, 12, 1).value
    assert refused == [{"_normalize": False}]
    assert value == expected
    assert value.denominator == expected.denominator == \
        2 ** truncation_exponent(closed_point_counts(table), 2, 12)


def test_verify_bounds_spot_values():
    # -log(1 - 1/2) = 0.6931 < 1.0 and -log(1 - 5^-3) = 0.008032 < 0.016
    import math
    assert -math.log(1 - 0.5) < 2 * 0.5
    assert -math.log(1 - 5.0 ** -3) < 2 * 5.0 ** -3
    report = verify_section_bounds([2, 5], 3, 3)
    assert report.ok and report.checks > 0


def test_verify_bounds_full_grid_clean():
    report = verify_section_bounds([2, 3, 5, 7, 11], 10, 10)
    assert report.ok, report.violations[:3]
    doc = report.as_report()
    assert doc["violations"] == [] and doc["checks"] == report.checks
