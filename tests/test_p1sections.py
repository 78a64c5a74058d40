"""The polynomial fast path for sections on fibers of the projective line,
and the squarefree census of binary forms against sympy and brute force."""

import itertools
import random
from operator import mul

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bertinilab import p1sections
from bertinilab.ffield import (poly_derivative, poly_divmod, poly_gcd, poly_mul,
                               poly_trim)
from bertinilab.p1sections import (binary_section_report,
                                   distinct_degree_split, radical_fp)
from bertinilab.projgeom import HomogeneousForm
from bertinilab.fiberlab import (FiberClassifier, classify_point_detail,
                                 squarefree_binary_census)

x = sympy.symbols("x")


def to_expr(poly_le):
    return sum(int(c) * x ** i for i, c in enumerate(poly_le))


def test_radical_against_sympy():
    rng = random.Random(20)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        deg = rng.randint(1, 8)
        f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        rad = radical_fp(f, p)
        factors = sympy.factor_list(sympy.Poly(to_expr(f), x, modulus=p))[1]
        expected = sympy.Poly(1, x, modulus=p)
        for fac, _ in factors:
            expected = expected * sympy.Poly(fac, x, modulus=p)
        got = sympy.Poly(to_expr(rad), x, modulus=p)
        assert got.monic() == expected.monic(), (f, p)


def test_distinct_degree_split_against_sympy():
    """The split of the radical at every bound r from 1 to deg f holds
    exactly the degrees k <= r of f's irreducible factors, each h_k with
    deg h_k / k of them."""
    rng = random.Random(21)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        deg = rng.randint(1, 8)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        rad = radical_fp(f, p)
        factors = sympy.factor_list(sympy.Poly(to_expr(f), x, modulus=p))[1]
        by_degree = {}
        for fac, _ in factors:
            k = sympy.Poly(fac, x).degree()
            by_degree[k] = by_degree.get(k, 0) + 1
        for r in range(1, deg + 1):
            split = dict(distinct_degree_split(rad, p, r))
            assert {k: (len(hk) - 1) // k for k, hk in split.items()} == \
                {k: cnt for k, cnt in by_degree.items() if k <= r}, (f, p, r)


@pytest.mark.parametrize("v, p, r, expected", [
    # (t^2 + 1)(t^2 + t + 2) over F_3: deg v = 2k at k = 2, two quadratics
    # and not one irreducible quartic
    ([2, 1, 0, 1, 1], 3, 4, [(2, [2, 1, 0, 1, 1])]),
    ([2, 1, 0, 1, 1], 3, 2, [(2, [2, 1, 0, 1, 1])]),
    # t(t^3 + t + 1) over F_2, the cubic irreducible: past r = 2 it stays
    # out, at r = 3 it is h_3
    ([0, 1, 1, 0, 1], 2, 2, [(1, [0, 1])]),
    ([0, 1, 1, 0, 1], 2, 3, [(1, [0, 1]), (3, [1, 1, 0, 1])]),
    # t^3 + 2t + 1 is irreducible over F_3 and deg v = 3 < 2k already at k = 2
    ([1, 2, 0, 1], 3, 1, []),
    ([1, 2, 0, 1], 3, 2, []),
    ([1, 2, 0, 1], 3, 3, [(3, [1, 2, 0, 1])]),
])
def test_distinct_degree_split_exits_early_only_when_irreducible(v, p, r, expected):
    """Planted splits at the early exit of ``distinct_degree_split``: a
    product of two irreducibles of degree k with deg v = 2k, and an
    irreducible v of degree above r."""
    assert distinct_degree_split(v, p, r) == expected


def test_report_matches_pointwise_classifier(p1):
    rng = random.Random(22)
    for _ in range(350):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(1, 8)
        r = rng.randint(1, 3)
        coeffs = tuple(rng.randrange(p * p) for _ in range(d + 1))
        rep = binary_section_report(coeffs, p, r)
        fib = p1.fiber(p)
        sec = HomogeneousForm(1, d, coeffs)
        fiber_ct = arith_ct = 0
        for pt in fib.closed_points_up_to(r):
            arith, fiber_status = classify_point_detail(sec, pt, fib)
            fiber_ct += fiber_status == "SingularPoint"
            arith_ct += arith == "SingularPoint"
        assert (rep.fiber_singular, rep.arith_singular) == (fiber_ct, arith_ct), \
            (coeffs, p, d, r)
        assert rep.rescued == rep.fiber_singular - rep.arith_singular


def test_report_degenerate_sections(p1):
    # zero section: every point in range is singular
    rep = binary_section_report((0, 0, 0), 2, 2)
    assert rep.fiber_singular == rep.arith_singular == 4   # 3 rational + 1 quadratic
    # 2 * (X^2+XY+Y^2): tau has no F_2-rational zero, but vanishes at the
    # quadratic point (its affine part is the minimal polynomial T^2+T+1)
    rep2 = binary_section_report((2, 2, 2), 2, 2)
    assert rep2.fiber_singular == 4 and rep2.arith_singular == 1
    assert binary_section_report((2, 2, 2), 2, 1).arith_singular == 0
    # 2 * (X^2+XY): tau = X*(X+Y) vanishes at [0:1] and [1:1]
    rep3 = binary_section_report((2, 2, 0), 2, 1)
    assert rep3.arith_singular == 2 and rep3.fiber_singular == 3
    # no coefficients is no form, not one singular everywhere
    with pytest.raises(ValueError):
        binary_section_report((), 2, 2)


def clear_p1_caches():
    p1sections._radical_split.cache_clear()
    p1sections._repeated_part.cache_clear()


def test_radical_reads_the_reduced_polynomial():
    """Negative coefficients, coefficients >= p and trailing zeros give the
    radical of the reduced polynomial."""
    rng = random.Random(24)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        f = [rng.randrange(p) for _ in range(rng.randint(0, 8))] + [rng.randrange(1, p)]
        g = [c + p * rng.randint(-3, 3) for c in f] + [p * rng.randint(-2, 2)
                                                      for _ in range(rng.randint(1, 3))]
        assert radical_fp(g, p) == radical_fp(f, p)


def test_radical_returns_a_fresh_list():
    f = [1, 0, 1]                        # (x + 1)^2 over F_2
    got = radical_fp(f, 2)
    assert got == [1, 1]
    got[0] = 7
    got.append(3)
    assert radical_fp(f, 2) == [1, 1]
    assert radical_fp(f, 2) is not radical_fp(f, 2)
    # squarefree and not monic: 2t^2 + 1 = 2(t - 1)(t + 1) over F_3
    f = [1, 0, 2]
    got = radical_fp(f, 3)
    assert got == [2, 0, 1] and f == [1, 0, 2]
    got.append(5)
    assert radical_fp(f, 3) == [2, 0, 1]


def test_p1_caches_are_bounded():
    caches = [fn for fn in vars(p1sections).values() if hasattr(fn, "cache_info")]
    assert {p1sections._radical_split, p1sections._repeated_part} <= set(caches)
    for fn in caches:
        assert 0 < fn.cache_info().maxsize < 10 ** 5, fn


def test_report_verdicts_do_not_depend_on_cache_state():
    """Every row classified with cold caches equals the same row classified
    with caches warmed by all the others; a third of the rows are p*tau."""
    rng = random.Random(25)
    rows = []
    for i in range(500):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        d = rng.randint(1, 8)
        r = rng.randint(1, 4)
        if i % 3 == 0:                   # sigma = p * tau
            coeffs = [p * rng.randrange(p) for _ in range(d + 1)]
        elif i % 3 == 1 and d >= 2:      # a repeated factor g^2 mod p
            g = [rng.randrange(p) for _ in range(rng.randint(1, d // 2))] + [1]
            h = [rng.randrange(p) for _ in range(d - 2 * (len(g) - 1) + 1)]
            aff = (poly_mul(poly_mul(g, g, p), h, p) + [0] * (d + 1))[:d + 1]
            coeffs = [c + p * rng.randrange(p) for c in reversed(aff)]
        else:
            coeffs = [rng.randrange(p * p) for _ in range(d + 1)]
        rows.append((tuple(coeffs), p, r))
    # one fbar, so one w, at two lengths d + 1: the longer row has two more
    # leading coefficients, multiples of p, and comes after the shorter
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        g = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
        aff = poly_mul(poly_mul(g, g, p), [rng.randrange(p), 1], p)
        short = [c + p * rng.randrange(p) for c in reversed(aff)]
        rows.append((tuple(short), p, 3))
        rows.append((tuple([p * rng.randrange(1, p), p * rng.randrange(p)] + short), p, 3))
    cold = []
    for row in rows:
        clear_p1_caches()
        cold.append(binary_section_report(*row))
    for row in rows:
        binary_section_report(*row)
    warm = [binary_section_report(*row) for row in rows]
    assert p1sections._radical_split.cache_info().hits > 0
    assert p1sections._repeated_part.cache_info().hits > 0
    assert warm == cold
    assert sum(rep.fiber_singular > 0 for rep in cold) > 200


def test_mod_p2_test_is_not_cached(p1):
    """Rows f and f + p*g share fbar and so the f-bar memo entry, but their
    mod-p^2 verdicts may differ; each matches the pointwise classifier."""
    rng = random.Random(26)
    differ = 0
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(2, 6)
        r = rng.randint(1, 3)
        g = [rng.randrange(p) for _ in range(rng.randint(1, d // 2))] + [1]
        h = [rng.randrange(p) for _ in range(d - 2 * (len(g) - 1))] + [1]
        aff = poly_mul(poly_mul(g, g, p), h, p)      # monic, degree d, g^2 | aff
        base = tuple(reversed(aff))
        fib = p1.fiber(p)
        reports = []
        for _ in range(3):
            coeffs = tuple(c + p * rng.randrange(p) for c in base)
            rep = binary_section_report(coeffs, p, r)
            sec = HomogeneousForm(1, d, coeffs)
            arith_ct = sum(classify_point_detail(sec, pt, fib)[0] == "SingularPoint"
                           for pt in fib.closed_points_up_to(r))
            assert rep.arith_singular == arith_ct, (coeffs, p, d, r)
            reports.append(rep)
        assert len({rep.fiber_singular for rep in reports}) == 1
        differ += len({rep.arith_singular for rep in reports}) > 1
    assert p1sections._repeated_part.cache_info().hits > 0
    assert differ > 10


@pytest.mark.parametrize("aff, p, r, expected", [
    # f = t^2 (t + 1)^2 over Z: the repeated part h_1 = t(t + 1) divides f
    # mod 9, so q = 0 and both points are arithmetically singular
    ([0, 0, 1, 2, 1], 3, 1, (2, 2)),
    # f + 3: q is the nonzero constant 1, so neither point is
    ([3, 0, 1, 2, 1], 3, 1, (2, 0)),
    # f + 3t: q = t shares t = 0, but not t = -1, with h_1
    ([0, 3, 1, 2, 1], 3, 1, (2, 1)),
    # g1^2 g2^2 + 3 g1 with g1 = t^2 + 1 and g2 = t^2 + t + 2, both
    # irreducible over F_3: h_2 = g1 g2, and q = g1 shares g1's point only
    ([7, 4, 16, 10, 15, 8, 7, 2, 1], 3, 2, (2, 1)),
    # g1^2 g2^2 over Z: q = 0 at both quadratic points
    ([4, 4, 13, 10, 15, 8, 7, 2, 1], 3, 2, (2, 2)),
])
def test_mod_p2_count_outcomes(p1, aff, p, r, expected):
    """Rows built to hit each outcome of the mod-p^2 count of a repeated
    factor h_k: q = rem/p zero, a nonzero constant, and a q sharing some
    but not all of h_k's points; each against the pointwise classifier."""
    d = len(aff) - 1
    coeffs = tuple(reversed(aff))            # aff is little-endian in t = X/Y
    rep = binary_section_report(coeffs, p, r)
    fib = p1.fiber(p)
    sec = HomogeneousForm(1, d, coeffs)
    verdicts = [classify_point_detail(sec, pt, fib)
                for pt in fib.closed_points_up_to(r)]
    pointwise = (sum(f == "SingularPoint" for _, f in verdicts),
                 sum(a == "SingularPoint" for a, _ in verdicts))
    assert (rep.fiber_singular, rep.arith_singular) == pointwise == expected


def reduction_rows_cases(rng, p, d):
    """Rows of d + 1 integer coefficients (from X^d down), most far outside
    [0, p^2) as ``bsw`` may pass them: random ones, planted squares g^2 h
    mod p with g of degree 1 to 4, sigma = p*tau, and fbar = h(t^p)."""
    for kind in range(4):
        for _ in range(12):
            if kind == 0:
                aff = [rng.randrange(p) for _ in range(d + 1)]
            elif kind == 1:
                if d < 2:
                    continue
                g = [rng.randrange(p) for _ in range(rng.randint(1, min(4, d // 2)))] + [1]
                h = [rng.randrange(p) for _ in range(d - 2 * (len(g) - 1))] + [1]
                aff = poly_mul(poly_mul(g, g, p), h, p)
            elif kind == 2:
                aff = [0] * (d + 1)
            else:
                aff = [rng.randrange(p) if i % p == 0 else 0 for i in range(d + 1)]
            aff = (aff + [0] * (d + 1))[:d + 1]
            yield [c + p * rng.randint(-10 ** 30, 10 ** 30) for c in reversed(aff)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 191])
def test_reduction_rows_match_long_division_mod_p2(monkeypatch, p):
    """Every split the report reads from ``_radical_split`` (its own w, or
    tau mod p when sigma = p*tau, at its own row length) carries rows whose
    dot product with the report's row f (from the constant term up, raw
    integers) is f mod h_k over Z/p^2, by ``ffield.poly_divmod``'s long
    division; where h_k divides fbar that remainder is 0 mod p, and q is
    its quotient by p."""
    rng = random.Random(50 + p)
    real = p1sections._radical_split
    splits = []

    def recording(*key):
        splits.append(real(*key))
        return splits[-1]
    monkeypatch.setattr(p1sections, "_radical_split", recording)
    p2 = p * p
    seen = set()
    for d in range(13):
        for coeffs in reduction_rows_cases(rng, p, d):
            splits.clear()
            binary_section_report(coeffs, p, max(1, d))
            f = coeffs[::-1]
            fbar = poly_trim([c % p for c in f])
            for split in splits:
                for k, hk, rows in split:
                    assert len(rows) == len(hk) - 1 and {len(row) for row in rows} == {d + 1}
                    rem = [sum(map(mul, row, f)) % p2 for row in rows]
                    want = poly_divmod(f, list(hk), p2, quotient=False)[1]
                    assert poly_trim(list(rem)) == want, (coeffs, p, hk)
                    if fbar:
                        assert all(c % p == 0 for c in rem)
                    seen.add(len(hk) - 1 if fbar else "sigma")
            if splits and len(fbar) > 1 and not poly_derivative(fbar, p):
                seen.add("fbar' = 0")
    assert {1, 2, 3, 4, "sigma"} <= seen
    assert "fbar' = 0" in seen or p > 12


def test_squarefree_predicate_matches_sympy(p1):
    """Per-row ``any_fiber`` of the census at the points of degree <= d/2
    (the squarefree census's point set) is "not squarefree"."""
    rng = random.Random(23)
    classifiers = {}
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        d = rng.randint(1, 6)
        coeffs = tuple(rng.randrange(p) for _ in range(d + 1))
        if (p, d) not in classifiers:
            fib = p1.fiber(p)
            classifiers[p, d] = FiberClassifier(
                fib, d, fib.closed_points_up_to(max(1, d // 2)))
        _, any_fiber, _ = classifiers[p, d].census(np.array([coeffs]))
        got = not any_fiber[0]
        # oracle: factor the binary form as X^a * Y^b * (affine part)
        fa = poly_trim([coeffs[d - i] % p for i in range(d + 1)])
        if not fa:
            assert not got
            continue
        inf_mult = d - (len(fa) - 1)
        if len(fa) == 1:
            expected = inf_mult <= 1
        else:
            factors = sympy.factor_list(sympy.Poly(to_expr(fa), x, modulus=p))[1]
            expected = all(mult == 1 for _, mult in factors) and inf_mult <= 1
        assert got == expected, (coeffs, p)


def test_squarefree_census_values():
    # over F_2 the density is exactly 3/8 from degree 3 up
    for d in (3, 6, 10):
        hits, total = squarefree_binary_census(2, d)
        assert hits * 8 == total * 3
    hits, total = squarefree_binary_census(3, 4)
    assert total == 3 ** 5
    # reference: (1 - q^-1)(1 - q^-2) = 16/27 for q = 3 once d is large enough
    assert abs(hits / total - 16 / 27) < 0.01


def test_census_matches_itertools_oracle(p1):
    for p, d in [(2, 3), (2, 5), (3, 2)]:
        hits, total = squarefree_binary_census(p, d)
        fib = p1.fiber(p)
        pts = fib.closed_points_up_to(d)
        expected = 0
        for coeffs in itertools.product(range(p), repeat=d + 1):
            if all(c == 0 for c in coeffs):
                continue
            form = HomogeneousForm(1, d, coeffs)
            if all(fib.divisor_smooth_at(form, pt) != "SingularPoint"
                   for pt in pts):
                expected += 1
        assert (hits, total) == (expected, p ** (d + 1))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17]),
       st.lists(st.integers() | st.integers(-10 ** 6, 10 ** 6).map(lambda k: 510510 * k),
                min_size=1, max_size=9),
       st.integers(1, 4))
def test_report_reads_only_the_residues_mod_p2(p, coeffs, r):
    """The report of integer coefficients of any sign and size is the report
    of their residues mod p^2, which lets bsw memoize it per f mod p^2.
    Multiples of 510510 vanish mod every p drawn, so sections p*tau and
    repeated factors come up too."""
    residues = [c % (p * p) for c in coeffs]
    report = binary_section_report(coeffs, p, r)
    assert report == binary_section_report(residues, p, r)


def euclid_cases(rng, p):
    """Affine polynomials mod p (from the constant term up) for the batch
    Euclid, of degree <= 30: planted square factors, h(t^p) (derivative 0),
    h(t^p) + g with g of degree at most about half the total (low-degree
    derivative, so long divisions), plain random ones; and three random
    ones past 256 coefficients.  Leading and constant terms are often 0."""
    for kind in range(5):
        for _ in range(60 if kind < 4 else 3):
            deg = rng.randint(1, 30) if kind < 4 else rng.randint(257, 300)
            if kind == 0:
                g = [rng.randrange(p) for _ in range(rng.randint(1, 8))] + [1]
                h = [rng.randrange(p) for _ in range(rng.randint(1, 14))]
                aff = poly_mul(poly_mul(g, g, p), h, p)
            elif kind >= 3:
                aff = [rng.randrange(p) for _ in range(deg + 1)]
            else:
                low = rng.randint(2, deg // 2 + 2) if kind == 2 else 0
                aff = [rng.randrange(p) if i % p == 0 or i < low else 0
                       for i in range(deg + 1)]
            aff = aff or [0]
            if rng.random() < 0.3:
                aff[0] = 0
            if rng.random() < 0.3:
                aff[-1] = 0
            yield aff


def repeated_part(fbar, p):
    """The oracle: gcd(fbar, fbar') by ffield.poly_gcd, or fbar itself when
    fbar' = 0, from the constant term up; () for the zero polynomial."""
    deriv = poly_derivative(fbar, p)
    return tuple(fbar) if not deriv else tuple(poly_gcd(fbar, deriv, p))


LAST_INT64_PRIME = 3037000493


# 181 is the last int16 prime, 191 the first int64
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 181, 191, LAST_INT64_PRIME])
def test_batch_euclid_matches_poly_gcd(p):
    """``_repeated_parts`` against ffield.poly_gcd: the monic gcd(fbar,
    fbar'), or fbar itself when fbar' = 0, as a tuple from the constant term
    up.  Each polynomial goes in once in a batch of its own length, and once
    in one batch of all of them, padded with leading zeros to the longest."""
    rng = random.Random(27 + p)
    cases = list(euclid_cases(rng, p))
    expected = [repeated_part(poly_trim(list(aff)), p) for aff in cases]
    width = max(map(len, cases))
    padded = np.array([[0] * (width - len(aff)) + aff[::-1] for aff in cases])
    assert p1sections._repeated_parts(padded, p) == expected
    by_length = {}
    for aff, want in zip(cases, expected):
        by_length.setdefault(len(aff), []).append((aff[::-1], want))
    for length, group in by_length.items():
        if length > 1:
            rows = np.array([row for row, _ in group])
            assert p1sections._repeated_parts(rows, p) == [want for _, want in group]
    fbars = [poly_trim(list(aff)) for aff in cases]
    # fbar' = 0 needs an exponent divisible by p within degree 30
    assert any(len(f) > 1 and not poly_derivative(f, p) for f in fbars) or p > 30
    assert any(len(w) > 1 and poly_derivative(f, p) for f, w in zip(fbars, expected))


def test_batch_euclid_refuses_primes_past_int64():
    """(p - 1)^2 must fit int64: the prime after the last one that
    ``test_batch_euclid_matches_poly_gcd`` runs is refused."""
    p = sympy.nextprime(LAST_INT64_PRIME)
    assert (LAST_INT64_PRIME - 1) ** 2 < 2 ** 63 <= (p - 1) ** 2
    with pytest.raises(ValueError):
        p1sections._repeated_parts(np.array([[1, 0, 1]]), p)


def census_rows(rng, p, d):
    """Rows mod p^2 of degree-d binary forms (from X^d down) that mix every
    branch of the report: random rows, planted square factors mod p,
    sigma = p*tau, the zero row, rows vanishing at infinity (X^d, or X^d
    and X^(d-1)Y, zero mod p; or X^d zero mod p^2), rows with fbar' = 0,
    and duplicates of all of these.  Square factors need d >= 2, and a
    row of d + 1 coefficients has at most d + 1 of them zero at the top."""
    p2 = p * p
    rows = [[rng.randrange(p2) for _ in range(d + 1)] for _ in range(120)]
    for _ in range(60 if d >= 2 else 0):
        g = [rng.randrange(p) for _ in range(rng.randint(1, d // 2))] + [1]
        h = [rng.randrange(p) for _ in range(d - 2 * (len(g) - 1) + 1)]
        aff = (poly_mul(poly_mul(g, g, p), h, p) + [0] * (d + 1))[:d + 1]
        rows.append([c + p * rng.randrange(p) for c in reversed(aff)])
    rows += [[p * rng.randrange(p) for _ in range(d + 1)] for _ in range(20)]
    rows.append([0] * (d + 1))
    for top in (1, 2)[:d + 1]:
        rows += [[p * rng.randrange(p)] * top + [rng.randrange(p2) for _ in range(d + 1 - top)]
                 for _ in range(20)]
    rows += [[0] + [rng.randrange(p2) for _ in range(d)] for _ in range(5)]
    # fbar = h(t^p): nonzero residues mod p only at exponents divisible by p
    rows += [[rng.randrange(p2) if (d - i) % p == 0 else p * rng.randrange(p)
              for i in range(d + 1)] for _ in range(20)]
    rows += [list(rows[rng.randrange(len(rows))]) for _ in range(150)]
    rng.shuffle(rows)
    return rows


# 191 runs the int64 Euclid
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 191])
@pytest.mark.parametrize("d", [0, 1, 2, 8])
def test_binary_census_matches_per_row_reports(monkeypatch, p, d):
    """``binary_census`` gives each row the report that the row alone gets,
    without w, from ``_repeated_part``'s gcd: every report call it makes is
    checked, in order, and so are its verdicts and rescued count.  At
    d = 0 the rows have one column and no batch Euclid; at d = 1 the
    Euclid runs on two columns.  At both, the report's d >= 2 guard keeps
    its test at infinity from reading a second coefficient."""
    rng = random.Random(1000 * d + 40 + p)
    rows = census_rows(rng, p, d)
    real = p1sections.binary_section_report
    checked = []

    def checking(coeffs, p_, r_, w):
        checked.append(real(coeffs, p_, r_, w))
        return checked[-1]
    monkeypatch.setattr(p1sections, "binary_section_report", checking)
    for r in (1, 4, 8):
        checked.clear()
        any_arith, any_fiber, rescued = p1sections.binary_census(np.array(rows), p, r)
        reports = [real(tuple(row), p, r) for row in rows]
        assert checked == reports
        assert any_arith.tolist() == [rep.arith_singular > 0 for rep in reports]
        assert any_fiber.tolist() == [rep.fiber_singular > 0 for rep in reports]
        assert rescued == sum(rep.rescued for rep in reports)
    fbars = [poly_trim([c % p for c in reversed(row)]) for row in rows]
    assert sum(len(f) > 1 and not poly_derivative(f, p) for f in fbars) >= (p <= d)
    if d >= 2:
        assert sum(len(repeated_part(f, p)) > 1 for f in fbars if len(f) > 1) > 20
