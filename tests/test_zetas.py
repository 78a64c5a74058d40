"""Point-count tables, truncated zeta values, convergence bounds."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, log10, prod
from pathlib import Path

import numpy as np
import pytest
from sympy import divisors
from sympy.ntheory import mobius

import bertinilab
from bertinilab import projgeom, zetas
from bertinilab.cli import _default_depth
from bertinilab.zetas import (InconsistentTable,
                              PointCountTable, ZetaTruncation, c0_estimate,
                              closed_point_counts, global_zeta_inverse,
                              local_zeta_inverse, primes_up_to,
                              projective_counts, projective_zeta_inverse_exact,
                              truncation_exponent,
                              verify_section_bounds)


def _mobius_counts(counts) -> tuple:
    """a_e = (1/e) sum_{f | e} mu(e/f) N_f with sympy's Mobius function,
    raising as closed_point_counts does at the first bad e."""
    a = []
    for e in range(1, len(counts) + 1):
        total = sum(int(mobius(e // f)) * counts[f - 1] for f in divisors(e))
        if total % e != 0 or total < 0:
            raise InconsistentTable(f"a_{e} = {total}/{e} is not a nonnegative integer")
        a.append(total // e)
    return tuple(a)


def _outcome(inversion, counts):
    try:
        return inversion(counts)
    except InconsistentTable as exc:
        return str(exc)


def test_closed_point_counts_match_mobius_inversion():
    """The running sums over multiples against Mobius inversion (sympy's
    mu): the same a_e on random consistent tables, and on tables with one
    count moved the same result or the same InconsistentTable message, so
    the same e and numerator."""
    rng = random.Random(33)
    raised = 0
    for _ in range(300):
        depth = rng.randint(1, 40)
        a = [rng.choice((0, rng.randrange(10), rng.randrange(10 ** 30)))
             for _ in range(depth)]
        counts = tuple(sum(f * a[f - 1] for f in divisors(e)) for e in range(1, depth + 1))
        assert closed_point_counts(PointCountTable(2, counts)) == _mobius_counts(counts) \
            == tuple(a)
        broken = list(counts)
        e = rng.randint(1, depth)
        broken[e - 1] = max(0, broken[e - 1] + rng.randint(-3 * e, 3 * e))
        ours = _outcome(lambda c: closed_point_counts(PointCountTable(2, c)), tuple(broken))
        assert ours == _outcome(_mobius_counts, broken)
        raised += isinstance(ours, str)
    assert raised > 200


def test_closed_point_counts_examples():
    assert closed_point_counts(PointCountTable(2, (3, 5))) == (3, 1)
    assert closed_point_counts(PointCountTable(2, (3, 5, 9))) == (3, 1, 2)
    assert closed_point_counts(PointCountTable(2, (7,))) == (7,)


def test_closed_point_counts_roundtrip():
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 2)]:
        table = projective_counts(p, m, 8)
        a = closed_point_counts(table)
        # N_e = sum over f | e of f * a_f
        assert tuple(sum(f * a[f - 1] for f in range(1, e + 1) if e % f == 0)
                     for e in range(1, len(a) + 1)) == table.counts
        assert all(c >= 0 for c in a)


def test_inconsistent_table_rejected():
    with pytest.raises(InconsistentTable):
        closed_point_counts(PointCountTable(2, (3, 4)))   # (4-3)/2 not integral
    with pytest.raises(InconsistentTable):
        closed_point_counts(PointCountTable(2, (3, 1)))   # negative a_2
    with pytest.raises(InconsistentTable, match="negative point count"):
        PointCountTable(2, (3, -1))


def test_c0_estimate_examples():
    assert c0_estimate(projective_counts(2, 1, 6), 2) == Fraction(3, 2)
    assert c0_estimate(PointCountTable(5, (0, 0, 0)), 2) == 0
    assert c0_estimate(projective_counts(3, 2, 5), 3) == Fraction(13, 9)
    with pytest.raises(ValueError, match="absolute dimension must be >= 1"):
        c0_estimate(projective_counts(2, 1, 2), 0)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_c0_of_projective_counts_is_its_depth_one_value(p, m):
    """On P^m, N_e / p^(m e) = sum_{j <= m} p^(-j e) never grows with e, so
    c0 of a table of any depth is its e = 1 value, a proven constant."""
    table = projective_counts(p, m, 8)
    ratios = [Fraction(n_e, p ** (m * e)) for e, n_e in enumerate(table.counts, 1)]
    assert ratios == sorted(ratios, reverse=True)
    assert ratios[-1] < ratios[0] or m == 0
    assert c0_estimate(table, m + 1) == ratios[0] == \
        sum(Fraction(1, p ** j) for j in range(m + 1))


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


@pytest.mark.parametrize("seed", range(4))
def test_error_bound_is_the_fraction_sum(seed):
    """error_bound, summed in pairs by cross-multiplication with no gcd, is
    the plain Fraction sum of the local tail bounds, numerator and
    denominator alike: on projective, empty and random tables at up to 40
    primes from 2, at depths 0..5 and exponents s = m + 1..m + 3.  At p = 2
    a term can be an integer: 4 * 3/2 / 2 on P^1 at s = 2, r = 0."""
    rng = random.Random(seed)
    primes = primes_up_to(200)
    for _ in range(60):
        chosen = rng.sample(primes, rng.randint(1, 40))
        if rng.random() < 0.5 and 2 not in chosen:
            chosen.append(2)
        m, r = rng.randint(0, 2), rng.randint(0, 5)
        s = m + rng.randint(1, 3)
        tables = [projective_counts(p, m, max(r, 1)) if rng.random() < 0.4
                  else PointCountTable(p, (0,) * max(r, 1)) if rng.random() < 0.1
                  else PointCountTable(p, tuple(rng.randint(0, 2 * p ** (m * e))
                                                for e in range(1, max(r, 1) + 1)))
                  for p in chosen]
        t = ZetaTruncation(tuple(tables), tuple(() for _ in tables), s, r, m, max(chosen))
        depth = (s - m) * (r + 1)
        plain = sum(4 * c0_estimate(table, m + 1) / table.p ** depth for table in tables)
        assert t.error_bound.as_integer_ratio() == plain.as_integer_ratio()
    assert local_zeta_inverse(projective_counts(2, 1, 1), 2, 0, 1).error_bound == 3


def test_error_bound_digit_cap(monkeypatch):
    """An error bound whose denominator has DIGIT_CAP digits or more is
    refused, naming the error bound, before any power of its primes is
    formed: at s = 10^12, r = 0 on P^1 it would be 2^(10^12 - 2)."""
    t = local_zeta_inverse(projective_counts(2, 1, 1), 10 ** 12, 0, 1)
    with pytest.raises(zetas.BudgetExceeded, match=re.escape(
            "the error bound's denominator 2^999999999998 has more than 2000000 digits")):
        t.error_bound
    monkeypatch.setattr(zetas, "DIGIT_CAP", 1000)
    tables = {p: projective_counts(p, 1, 1) for p in primes_up_to(2000)}
    g = global_zeta_inverse(tables, 3, 2000, 0, 1)       # the value passes: 1
    with pytest.raises(zetas.BudgetExceeded, match=re.escape(
            "2^1 * 3^3 * 5^3 * 7^3 * ... (298 more) * 1999^3 has more than 1000 digits")):
        g.error_bound


def test_global_zeta_single_factor():
    tables = {2: projective_counts(2, 1, 6)}
    g = global_zeta_inverse(tables, 2, 2, 4, 1)
    assert g.value == local_zeta_inverse(tables[2], 2, 4, 1).value
    assert g.tail_bound is None          # s = m+1 diverges over all primes


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_global_product_is_its_local_truncations(p, m):
    """The product over the primes up to p holds, prime by prime, the table
    and counts of the local truncation there; its value is the product of
    theirs and its error bound the sum of theirs.  Over the one prime 2 it
    is the local truncation itself: the same ZetaTruncation, with the same
    value and digits."""
    primes = primes_up_to(p)
    tables = {q: projective_counts(q, m, 4) for q in primes}
    for s in (m + 1, m + 2):
        for r in range(5):
            g = global_zeta_inverse(tables, s, p, r, m)
            local = [local_zeta_inverse(tables[q], s, r, m) for q in primes]
            assert g.tables == tuple(t.tables[0] for t in local), (s, r)
            assert g.a == tuple(t.a[0] for t in local), (s, r)
            assert g.value == prod(t.value for t in local), (s, r)
            assert g.error_bound == sum(t.error_bound for t in local), (s, r)
            if p == 2:
                t, = local
                assert g == t, (s, r)
                assert g.decimal_digits() == t.decimal_digits()


def test_global_zeta_truncated_product_value():
    tables = {p: projective_counts(p, 1, 12) for p in (2, 3, 5, 7)}
    g = global_zeta_inverse(tables, 2, 7, 5, 1)
    exact = Fraction(1)
    for p in (2, 3, 5, 7):
        exact *= projective_zeta_inverse_exact(p, 1, 2)
    assert abs(g.value - exact) <= g.error_bound
    assert abs(float(exact) - 0.14330) < 5e-5
    g3 = global_zeta_inverse(tables, 3, 7, 5, 1)
    assert g3.tail_bound is not None and g3.tail_bound > 0
    with pytest.raises(ValueError):
        global_zeta_inverse({2: tables[2]}, 3, 7, 4, 1)   # missing primes
    with pytest.raises(ValueError, match="fiber at p = 2"):
        global_zeta_inverse({2: tables[3], 3: tables[3]}, 3, 3, 4, 1)


@pytest.mark.parametrize("r", [1, 4, 6])
def test_global_product_matches_fraction_product(r):
    """The integer product of the local values on P^1 at p <= 7, s = 3,
    against Fraction's product.  The local factors share primes (7 divides
    2^3 - 1, 2 divides 3^3 - 1), and Fraction compares numerator and
    denominator, so an unreduced product would compare unequal."""
    tables = {p: projective_counts(p, 1, r) for p in (2, 3, 5, 7)}
    local = {p: local_zeta_inverse(tables[p], 3, r, 1).value for p in tables}
    expected = Fraction(1)
    for value in local.values():
        expected *= value
    value = global_zeta_inverse(tables, 3, 7, r, 1).value
    assert (value.numerator, value.denominator) == \
        (expected.numerator, expected.denominator)
    for q in (2, 7):            # some of q's local denominator cancels
        assert expected.denominator % local[q].denominator != 0


@pytest.mark.parametrize("prime_bound,r", [
    (0, 4), (1, 4), (-3, 4),                # a product over no fibers
    (7, 5),                                 # deeper than the tables
    (7, -1),
])
def test_global_zeta_inverse_validates_input(prime_bound, r):
    tables = {p: projective_counts(p, 1, 4) for p in (2, 3, 5, 7)}
    with pytest.raises(ValueError):
        global_zeta_inverse(tables, 3, prime_bound, r, 1)


def _fraction_text(value):
    return str(value.numerator), str(value.denominator)


@pytest.mark.parametrize("name", ["p1", "p2", "conic"])
def test_report_digits_are_the_fraction(request, unlimited_int_digits, name):
    """The truncation's decimal_digits, multiplied in decimal from the
    factors, are the numerator and denominator of ``value``, the int
    product, for p in {2, 3, 5, 7}, s in {2, 3, 4} (from m + 1) and every
    r <= 6 the scan check admits.  They are compared as decimal text:
    Decimal == int converts the int in quadratic time, and the longest
    here has 406,956 digits.  One routine forms both, so where the
    denominator has fewer than 20,000 digits ``value`` is also pinned to
    the naive product of Fractions prod (1 - p^{-se})^{a_e}.  On P^1 the
    digits of the global products up to 3, 7 and 13 at s in {2, 3} and
    r <= 4, where the primes shared by numerator and denominator are
    divided out, are those of ``value`` too."""
    scheme = request.getfixturevalue(name)
    naive = 0
    for p in (2, 3, 5, 7):
        fiber = scheme.fiber(p)
        depth = max(r for r in range(7) if fiber.scan_fits(r))
        table = fiber.point_table(max(depth, 1))
        for s in range(max(2, fiber.m + 1), 5):
            for r in range(depth + 1):
                t = local_zeta_inverse(table, s, r, fiber.m)
                assert tuple(map(str, t.decimal_digits())) == \
                    _fraction_text(t.value), (p, s, r)
                if truncation_exponent(t.a[0], s, r) * log10(p) < 20_000:
                    naive += 1
                    assert t.value == prod((1 - Fraction(1, p ** (s * e))) ** a_e
                                           for e, a_e in enumerate(t.a[0], 1)), (p, s, r)
    assert naive
    if name != "p1":
        return
    stripped = 0
    for bound in (3, 7, 13):
        tables = {p: projective_counts(p, 1, 4) for p in primes_up_to(bound)}
        for s in (2, 3):
            for r in range(5):
                g = global_zeta_inverse(tables, s, bound, r, 1)
                assert tuple(map(str, g.decimal_digits())) == \
                    _fraction_text(g.value), (bound, s, r)
                stripped += any(zetas._shared_exponents(g))
    assert stripped


def test_a_remainder_of_the_shared_powers_raises(monkeypatch):
    """The numerator is divided by the prime powers it shares with the
    denominator, and a remainder raises: on P^1 at p <= 7, s = 3, r = 2,
    7 divides the numerator 17 times, and with its shared exponent
    overstated by one, ``value`` and ``decimal_digits`` both raise
    ArithmeticError where a floor division would return a wrong Fraction."""
    tables = {p: projective_counts(p, 1, 2) for p in (2, 3, 5, 7)}
    shared = zetas._shared_exponents(global_zeta_inverse(tables, 3, 7, 2, 1))
    assert shared[3] == 17
    overstated = shared[:3] + [18]
    monkeypatch.setattr(zetas, "_shared_exponents", lambda t: overstated)
    with pytest.raises(ArithmeticError):
        global_zeta_inverse(tables, 3, 7, 2, 1).value
    with pytest.raises(ArithmeticError):
        global_zeta_inverse(tables, 3, 7, 2, 1).decimal_digits()


def _plain_valuation(n, q):
    k = 0
    while n % q == 0:
        n //= q
        k += 1
    return k


def _shared_oracle(t, literal):
    """v_q(gcd(N, D)) for each prime q of the truncation, with plain ints,
    where N = prod_u prod_e (u^(se) - 1)^(a_e) and D = prod_u u^(x_u).  With
    ``literal`` N, D and their gcd are formed; otherwise, for products of
    millions of digits, v_q(N) is summed over every factor of every prime."""
    primes = [table.p for table in t.tables]
    x = [truncation_exponent(a, t.s, t.r) for a in t.a]
    factors = [(u ** (t.s * e) - 1, a_e) for u, a in zip(primes, t.a)
               for e, a_e in enumerate(a, 1)]
    if literal:
        num = 1
        for f, a_e in factors:
            num *= f ** a_e
        common = gcd(num, prod(q ** x_q for q, x_q in zip(primes, x)))
        return [_plain_valuation(common, q) for q in primes]
    return [min(x_q, sum(a_e * _plain_valuation(f, q) for f, a_e in factors))
            for q, x_q in zip(primes, x)]


@pytest.mark.parametrize("m", [0, 1, 2])
def test_shared_exponents_oracle(m):
    """The shared exponents, read off the roots of unity mod each prime,
    are v_q(gcd(N, D)) of the product's numerator N and denominator D, on
    a point (m = 0), P^1 and P^2 per prime, s = 2..4, r = 0..6: over one
    prime, and over every prime up to bounds from 2, where mu_k(F_2) = {1},
    to 31.  Products the digit cap refuses are compared too, through the
    factor-wise oracle; products under 20,000 digits through the gcd."""
    checked = {"gcd": 0, "refused": 0}
    for primes in ([2], [7], [2, 3], primes_up_to(13), primes_up_to(31)):
        for s in (2, 3, 4):
            for r in range(7):
                tables = [projective_counts(p, m, max(r, 1)) for p in primes]
                t = ZetaTruncation(tuple(tables),
                                   tuple(closed_point_counts(table)[:r] for table in tables),
                                   s, r, m, primes[-1])
                exponents = [(table.p, truncation_exponent(a, s, r))
                             for table, a in zip(tables, t.a)]
                digits = sum(x * log10(p) for p, x in exponents)
                try:
                    zetas._check_digits(exponents)
                except zetas.BudgetExceeded:
                    checked["refused"] += 1
                literal = digits < 20_000
                checked["gcd"] += literal
                assert zetas._shared_exponents(t) == \
                    _shared_oracle(t, literal), (primes, s, r)
    assert checked["gcd"] and (checked["refused"] or m == 0)


def test_roots_of_unity_brute_force():
    """The z mod q with z^k = 1 for some k in a set of exponents, against
    trying every z, for every prime q < 200; {1} and {1, 2} take only the
    subgroups {1} and {1, q - 1}."""
    for q in primes_up_to(200):
        for exponents in ({1}, {2}, {1, 2}, {2, 3}, {3, 6, 9}, {4, 8, 12, 16},
                          {5, 7}, set()):
            assert zetas._roots_of_unity(q, exponents) == \
                {z for z in range(1, q) if any(pow(z, k, q) == 1 for k in exponents)}


def test_shared_exponents_are_near_linear(monkeypatch, unlimited_int_digits):
    """On a point per prime up to 30,000 (3,245 primes, one factor p^2 - 1
    each) the shared exponents take at most 8 valuations per factor, each
    at a prime that divides it; an engine that tries every pair of primes
    takes 10.5 million.  The product's digits are the reduced
    prod (p^2 - 1) / prod p^2."""
    calls = 0

    def counted(n, q):
        nonlocal calls
        calls += 1
        return valuation(n, q)

    valuation = zetas._valuation
    monkeypatch.setattr(zetas, "_valuation", counted)
    primes = primes_up_to(30_000)
    g = global_zeta_inverse({p: PointCountTable(p, (1,)) for p in primes},
                            2, 30_000, 1, 0)
    factors = sum(1 for a in g.a for a_e in a if a_e)
    num, den = g.decimal_digits()
    assert factors == len(primes) == 3245
    assert 0 < calls <= 8 * factors
    value = Fraction(prod(p * p - 1 for p in primes), prod(p * p for p in primes))
    assert (str(num), str(den)) == _fraction_text(value)


def test_shared_exponents_stop_at_the_denominator(monkeypatch):
    """On bsw's reference at T = 10^4 (a point per prime, s = 2, so each
    x_q = 2), the walk for q stops once v_q reaches x_q: at most two
    valuations per prime, where the full walk reads one off every
    u = +-1 (mod q).  The exponents are min(2, v_q(prod (u^2 - 1))),
    counted with numpy from each factor's divisibility by q and q^2."""
    primes = primes_up_to(10 ** 4)
    calls = {}

    def counted(n, q):
        calls[q] = calls.get(q, 0) + 1
        return valuation(n, q)

    valuation = zetas._valuation
    monkeypatch.setattr(zetas, "_valuation", counted)
    t = global_zeta_inverse({p: PointCountTable(p, (1,)) for p in primes},
                            2, 10 ** 4, 1, 0)
    shared = zetas._shared_exponents(t)
    assert set(calls) <= set(primes) and max(calls.values()) <= 2
    assert t.powers == tuple((p, 2) for p in primes)
    factors = np.array(primes, dtype=np.int64) ** 2 - 1
    assert shared == [min(2, int((factors % q == 0).sum() + (factors % (q * q) == 0).sum()))
                      for q in primes]
    assert shared[:3] == [2, 2, 2] and 0 in shared


def test_truncation_needs_a_table_of_depth_one():
    """The tail bound reads c0 off the table: an empty table would give the
    false bound 0, so depth 0 is refused; r = 0 on a depth-1 table is the
    empty product with bound 4 c0 p^-(s - m)."""
    with pytest.raises(ValueError):
        local_zeta_inverse(PointCountTable(2, ()), 2, 0, 1)
    t = local_zeta_inverse(projective_counts(2, 1, 1), 2, 0, 1)
    assert (t.value, t.error_bound) == (1, 3)


def test_digit_cap_refuses_before_any_product():
    """The product (as an int or in decimal), c0 and the tail bounds all
    start from powers of p, so a prime that refuses its powers shows that
    the check runs before any of them: 2^(8e6) has 2.4e6 digits.  The global
    product refuses on the combined denominator, here 2^(4e6) * 3^(2.6e6)
    (1.20e6 + 1.24e6 digits), before any local product or bound, although
    each local one alone fits the cap."""
    class Prime(int):
        def __pow__(self, other):
            raise AssertionError("the product was formed")

    assert projgeom.BudgetExceeded is zetas.BudgetExceeded
    with pytest.raises(zetas.BudgetExceeded, match="2000000 digits"):
        local_zeta_inverse(PointCountTable(Prime(2), (4 * 10 ** 6,)), 2, 1, 1)
    counts = {2: (2 * 10 ** 6,), 3: (13 * 10 ** 5,)}
    for p, n in counts.items():
        zetas._check_digits([(p, truncation_exponent(n, 2, 1))])
    tables = {p: PointCountTable(Prime(p), n) for p, n in counts.items()}
    with pytest.raises(zetas.BudgetExceeded, match=re.escape("2^4000000 * 3^2600000")):
        global_zeta_inverse(tables, 2, 3, 1, 1)


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


def test_cli_import_leaves_mpmath_out():
    """Only verify_section_bounds uses mpmath, and it imports it itself, so
    a command line call that never audits never pays for the import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bertinilab.__file__).resolve().parents[1])
    code = "import sys, bertinilab.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
