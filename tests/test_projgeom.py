"""Forms, schemes, point enumeration, smoothness tests."""

import json
import random
from collections import Counter
from itertools import product
from math import comb
from pathlib import Path

import pytest

from bertinilab.ffield import GF, GaloisRing
from bertinilab.projgeom import (BudgetExceeded, HomogeneousForm,
                                 ProjectiveScheme, load_scheme, monomial_basis,
                                 parse_form, parse_point,
                                 rational_closed_point, scheme_from_dict)

SCHEMES = Path(__file__).resolve().parent.parent / "schemes"


def test_monomial_basis_examples():
    assert monomial_basis(1, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_basis(2, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(monomial_basis(1, 3)) == 4


def test_monomial_basis_shape():
    for n in (1, 2, 3):
        for d in (0, 1, 2, 5):
            basis = monomial_basis(n, d)
            assert len(basis) == comb(n + d, n)
            assert all(sum(e) == d for e in basis)
            assert basis == sorted(basis, reverse=True)    # graded lex, X_0 first


def test_form_validation():
    with pytest.raises(ValueError):
        HomogeneousForm(1, 2, (1, 2))        # wrong length
    f = parse_form("X^2+5*Y^2-Z^2", 2)
    for i in (-1, 3):
        with pytest.raises(ValueError, match="variable index out of range"):
            f.partial(i)
    for point in ((0, 1), (0, 1, 0, 0)):
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            f.eval_gf(GF(5), point)
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            f.eval_gr(GaloisRing(GF(5)), tuple((c,) for c in point))
    with pytest.raises(ValueError, match="defining forms must live on the same P"):
        ProjectiveScheme(2, 1, [parse_form("X^2+Y^2", 1)])


def test_eval_examples():
    f = parse_form("X^2+5*Y^2-Z^2", 2)
    assert f.eval_gr(GaloisRing(GF(5)), ((0,), (1,), (0,))) == (5,)
    assert f.eval_gf(GF(5), (0, 1, 0)) == 0
    g = parse_form("X*Y", 1)
    assert g.eval_gf(GF(2), (1, 1)) == 1


def test_partial_examples():
    f = parse_form("X^2+5*Y^2-Z^2", 2)
    assert f.partial(0).coeffs == (2, 0, 0)         # 2*X
    assert f.partial(1).coeffs == (0, 10, 0)        # 10*Y
    assert parse_form("X^2", 1).partial(0).eval_gf(GF(2), (1, 1)) == 0
    assert parse_form("X", 1).partial(1).coeffs == (0,)


def test_euler_relation_random():
    """d*F = sum_i X_i * dF/dX_i, identically over F_p (eval_gf) and over
    Z/p^2 = GR(p^2, 1) (eval_gr), for integer forms of any sign and size."""
    rng = random.Random(10)
    for p in (2, 3, 5):
        field = GF(p)
        ring = GaloisRing(field)
        for _ in range(170):
            n = rng.randint(1, 2)
            d = rng.randint(1, 4)
            coeffs = tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(comb(n + d, n)))
            f = HomogeneousForm(n, d, coeffs)
            point = tuple(rng.randrange(p) for _ in range(n + 1))
            rhs = 0
            for i in range(n + 1):
                rhs = field.add(rhs, field.mul(point[i], f.partial(i).eval_gf(field, point)))
            assert field.mul(d % p, f.eval_gf(field, point)) == rhs
            point = tuple((rng.randrange(p * p),) for _ in range(n + 1))
            rhs = ring.zero()
            for i in range(n + 1):
                rhs = ring.add(rhs, ring.mul(point[i], f.partial(i).eval_gr(ring, point)))
            assert ring.mul_int(f.eval_gr(ring, point), d) == rhs


def test_rational_point_counts(p1, p2):
    assert len(p1.fiber(2).rational_points(1)) == 3
    assert len(p1.fiber(2).rational_points(2)) == 5
    assert len(p2.fiber(3).rational_points(1)) == 13
    for p in (2, 3, 5):
        fib = p1.fiber(p)
        for e in (1, 2):
            assert len(fib.rational_points(e)) == p ** e + 1


def test_conic_points(conic):
    # X^2+Y^2+Z^2 = (X+Y+Z)^2 over F_2: the line X+Y+Z = 0
    pts = conic.fiber(2).rational_points(1)
    assert len(pts) == 3
    line = parse_form("X+Y+Z", 2)
    assert all(line.eval_gf(GF(2), pt) == 0 for pt in pts)


def test_points_are_normalized_once(p2):
    pts = p2.fiber(3).rational_points(2)
    field = GF(3, 2)
    seen = set()
    for pt in pts:
        assert pt[next(i for i, c in enumerate(pt) if c)] == 1
        for lam in range(1, field.q):
            scaled = tuple(field.mul(lam, c) for c in pt)
            assert scaled not in seen or scaled == pt
        seen.add(pt)
    assert len(seen) == len(pts)


def _scan_by_eval_gf(fib, e):
    """X(F_{p^e}) by one eval_gf call per form and coordinate tuple, in the
    chart order of rational_points."""
    field = fib.extension(e)
    tuples = ((0,) * lead + (1,) + tail for lead in range(fib.n + 1)
              for tail in product(range(field.q), repeat=fib.n - lead))
    return [pt for pt in tuples if all(f.eval_gf(field, pt) == 0 for f in fib.forms)]


def test_rational_points_match_pointwise_scan(conic, elliptic):
    """The batched scan returns the pointwise scan's list, in its order: the
    conic mod 3 for e <= 4, the elliptic curve mod 5 for e <= 3, and two
    forms with negative coefficients in characteristic 2 (a line and a
    point in common) for e <= 4."""
    two_forms = ProjectiveScheme(2, 1, [parse_form("X*Y-X*Z", 2),
                                        parse_form("-X^2+3*X*Z", 2)], name="two")
    for scheme, p, e_max in ((conic, 3, 4), (elliptic, 5, 3), (two_forms, 2, 4)):
        for e in range(1, e_max + 1):
            expected = _scan_by_eval_gf(scheme.fiber(p), e)
            assert scheme.fiber(p).rational_points(e) == expected, (scheme.name, p, e)
    assert len(two_forms.fiber(2).rational_points(4)) == 16 + 1 + 1


@pytest.mark.parametrize("name, p", [("conic", 2), ("conic", 3), ("conic", 5),
                                     ("elliptic", 3), ("elliptic", 5)])
def test_zech_scan_matches_pointwise_scan(conic, elliptic, name, p):
    """The scan's Zech-log sums against one eval_gf call per tuple, same
    points in the same order, at every e that scan_fits allows: the conic
    mod 2 (the double line (X + Y + Z)^2, where the Zech sentinel is
    1 + 1 = 0), 3 and 5, and the elliptic curve mod 3 and 5."""
    fib = {"conic": conic, "elliptic": elliptic}[name].fiber(p)
    depth = {2: 8, 3: 5, 5: 3}[p]
    assert fib.scan_fits(depth) and not fib.scan_fits(depth + 1)
    for e in range(1, depth + 1):
        assert fib.rational_points(e) == _scan_by_eval_gf(fib, e), e


@pytest.mark.parametrize("p, r, counts", [(3, 5, (4, 16, 28, 64, 244)),
                                          (5, 3, (9, 27, 108)),
                                          (7, 3, (5, 55, 380))])
def test_elliptic_point_counts_hasse_weil(elliptic, p, r, counts):
    """#E(F_{p^e}) = p^e + 1 - s_e with s_0 = 2, s_1 = a_p = p + 1 - N_1 and
    s_e = a_p s_{e-1} - p s_{e-2}: the whole table follows from N_1."""
    table = elliptic.fiber(p).point_table(r)
    a_p = p + 1 - table.counts[0]
    s = [2, a_p]
    while len(s) <= r:
        s.append(a_p * s[-1] - p * s[-2])
    assert table.counts == tuple(p ** e + 1 - s[e] for e in range(1, r + 1)) == counts


def test_closed_points_examples(p1):
    fib = p1.fiber(2)
    by_degree = Counter(x.degree for x in fib.closed_points_up_to(3))
    assert by_degree == {1: 3, 2: 1, 3: 2}
    assert all(len(set(x.orbit)) == x.degree for x in fib.closed_points_up_to(3))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_points_moebius_consistency(p, p1, p2, conic):
    for scheme, r in [(p1, 3), (p2, 2), (conic, 2)]:
        fib = scheme.fiber(p)
        points = fib.closed_points_up_to(r)
        for e in range(1, r + 1):
            total = sum(f * sum(1 for x in points if x.degree == f)
                        for f in range(1, e + 1) if e % f == 0)
            assert total == len(fib.rational_points(e)), (scheme.name, p, e)


def test_closed_point_orbits_lie_on_scheme(p1, p2, conic, elliptic):
    """Every conjugate lies on the scheme and is normalized (first nonzero
    coordinate 1); rep is orbit[0], the least conjugate, and the orbit
    runs along the Frobenius, wrapping from its last conjugate to rep:
    P^1, P^2, the conic and E mod 3."""
    for scheme, r in [(p1, 3), (p2, 2), (conic, 3), (elliptic, 3)]:
        fib = scheme.fiber(3)
        for x in fib.closed_points_up_to(r):
            assert x.rep == x.orbit[0] == min(x.orbit)
            for k, conj in enumerate(x.orbit):
                assert all(f.eval_gf(x.field, conj) == 0 for f in fib.forms)
                assert next(c for c in conj if c) == 1
                assert tuple(x.field.frobenius(c) for c in conj) == \
                    x.orbit[(k + 1) % x.degree]
    assert rational_closed_point(p2.fiber(5), (3, 4, 0)).rep == (1, 3, 0)


def test_divisor_smooth_examples(p1, p2):
    fib = p1.fiber(2)
    pts = {x.rep: x for x in fib.closed_points_up_to(1)}
    assert fib.divisor_smooth_at(parse_form("X*Y", 1), pts[(1, 0)]) == "SmoothPoint"
    assert fib.divisor_smooth_at(parse_form("X^2*Y^2", 1),
                                 pts[(1, 0)]) == "SingularPoint"
    fib5 = p2.fiber(5)
    # [3:4:0] normalizes to (1, 3, 0); sigma(3,4,0) = 25 = 0 mod 5, partials nonzero
    x = {x.rep: x for x in fib5.closed_points_up_to(1)}[(1, 3, 0)]
    assert fib5.divisor_smooth_at(parse_form("X^2+Y^2-Z^2", 2), x) == "SmoothPoint"
    # 1 + 2*9 = 19 = 4 mod 5, off the divisor
    assert fib5.divisor_smooth_at(parse_form("X^2+2*Y^2+Z^2", 2), x) == "NotOnDivisor"


def test_divisor_smooth_invariance(p1, p2, conic, relabelings):
    """The verdict reads the same at every conjugate of a point and in
    every chart: P^1 mod 2, 3, 5, P^2 mod 2 and the conic mod 3, 5."""
    rng = random.Random(11)
    for scheme, p in [(p1, 2), (p1, 3), (p1, 5), (p2, 2), (conic, 3), (conic, 5)]:
        fib = scheme.fiber(p)
        readings = [(x, list(relabelings(fib, x))) for x in fib.closed_points_up_to(2)]
        for _ in range(60):
            d = rng.randint(1, 4)
            coeffs = tuple(rng.randrange(p) for _ in range(comb(scheme.n + d, scheme.n)))
            sigma = HomogeneousForm(scheme.n, d, coeffs)
            if not any(sigma.coeffs):
                continue
            for x, views in readings:
                base = fib.divisor_smooth_at(sigma, x)
                for fib_k, x_k, move in views:
                    assert fib_k.divisor_smooth_at(move(sigma), x_k) == base


def test_divisor_smooth_rejects_singular_fiber_point():
    # the cuspidal cubic is singular at [0:0:1]
    cusp = ProjectiveScheme(2, 1, [parse_form("Y^2*Z-X^3", 2)], name="cusp")
    fib = cusp.fiber(5)
    x = rational_closed_point(fib, (0, 0, 1))
    with pytest.raises(ValueError):
        fib.divisor_smooth_at(parse_form("X", 2), x)


def test_validate_smooth(conic):
    assert conic.fiber(3).validate_smooth(2) > 0
    cusp = ProjectiveScheme(2, 1, [parse_form("Y^2*Z-X^3", 2)], name="cusp")
    with pytest.raises(ValueError):
        cusp.fiber(5).validate_smooth(1)
    # a wrongly declared dimension is caught the same way
    bad_dim = ProjectiveScheme(2, 2, [parse_form("X^2+Y^2+Z^2", 2)], name="bad")
    with pytest.raises(ValueError):
        bad_dim.fiber(3).validate_smooth(1)


def test_tangent_space_solves_once(conic):
    """tangent_space's step solves J v = rhs and its basis spans the kernel
    of J, both 0 at the chart coordinate.  A singular point is refused
    whatever rhs is (the double line mod 2), and so is a system with no
    solution: Y = Y + 3X = 0 is the line Y = 0 mod 3, but has no point
    mod 9 over [1:0:0]."""
    fib = conic.fiber(5)
    for x in fib.closed_points_up_to(2):
        fld, chart = x.field, x.chart()
        step, basis = fib.tangent_space(x, [1])
        row = fib.jacobian_rows(x)[0]
        row.insert(chart, 0)

        def dot(v):
            acc = 0
            for a, b in zip(row, v):
                acc = fld.add(acc, fld.mul(a, b))
            return acc

        assert len(basis) == 1 and step[chart] == basis[0][chart] == 0
        assert (dot(step), dot(basis[0])) == (1, 0)
    double = conic.fiber(2)
    with pytest.raises(ValueError, match="is singular at"):
        double.tangent_space(rational_closed_point(double, (1, 1, 0)), [1])
    flat = ProjectiveScheme(2, 1, [parse_form("Y", 2), parse_form("Y+3*X", 2)],
                            name="line").fiber(3)
    assert flat.validate_smooth(1) == 4
    with pytest.raises(ValueError, match="line has no point mod 3\\^2 over"):
        flat.tangent_space(rational_closed_point(flat, (1, 0, 0)), [0, 2])


def test_scan_budget(monkeypatch, p1, conic):
    """One size check, q^(n+1) <= 10^8 at q = p^r, guards every scan; it
    runs before a field of any degree is built."""
    big = ProjectiveScheme(3, 3)
    with pytest.raises(BudgetExceeded):
        big.fiber(251).rational_points(2)
    with pytest.raises(BudgetExceeded):
        ProjectiveScheme(1, 1).fiber(2).closed_points_up_to(30)
    fib = p1.fiber(2)
    assert fib.scan_fits(13) and not fib.scan_fits(14)     # 2^26, 2^28
    assert conic.fiber(3).table_fits(5) and not conic.fiber(3).table_fits(6)
    assert p1.fiber(4099).table_fits(100)          # the closed form scans nothing

    def no_field(self, p, e=1):
        raise AssertionError(f"GF({p}, {e}) built")

    monkeypatch.setattr(GF, "__init__", no_field)
    with pytest.raises(BudgetExceeded):
        fib.closed_points_up_to(14)
    with pytest.raises(BudgetExceeded):
        fib.rational_points(14)
    with pytest.raises(BudgetExceeded):
        conic.fiber(3).point_table(6)
    assert fib.point_table(14).counts[-1] == 2 ** 14 + 1


def test_parse_form_errors_and_roundtrip():
    f = parse_form("X^2 + 5*Y^2 - Z^2", 2)
    assert f.coeffs == (1, 0, 0, 5, 0, -1)
    assert parse_form("-Z^2+5*Y^2+X^2", 2).coeffs == f.coeffs
    with pytest.raises(ValueError):
        parse_form("X^2+Y", 1)              # inhomogeneous
    with pytest.raises(ValueError):
        parse_form("X^2+W^2", 1)           # unknown variable on P^1
    with pytest.raises(ValueError):
        parse_form("2X", 1)                # juxtaposition is not multiplication


@pytest.mark.parametrize("text, n, d, coeffs", [
    ("X ^ 2", 1, 2, (1, 0, 0)),            # whitespace separates tokens
    ("  -X", 1, 1, (-1, 0)),               # leading whitespace, then a sign
    ("  +1", 2, 0, (1,)),
    ("  -X2", 2, 1, (0, 0, -1)),
    ("−Y^2+X*Y", 1, 2, (0, 1, -1)),        # U+2212 minus
    ("2*3*X", 1, 1, (6, 0)),               # integer factors multiply
    ("X*X", 1, 2, (1, 0, 0)),
    ("X1", 1, 1, (0, 1)),                  # X0..Xn next to X, Y on P^1
    ("X^02", 1, 2, (1, 0, 0)),
    ("0*X^2+Y", 1, None, None),            # homogeneous, but X^2 is not degree 1
    ("1 2", 1, None, None),                # whitespace never joins tokens
    ("X Y", 1, None, None),
    ("X_1", 1, None, None),
    ("X^2^3", 1, None, None),
    ("--X", 1, None, None),
    ("X+", 1, None, None),
    ("", 1, None, None),
    ("X²", 1, None, None),
    ("  -X2", 1, None, None),              # X2 is not a variable on P^1
])
def test_parse_form_grammar(text, n, d, coeffs):
    if coeffs is None:
        with pytest.raises(ValueError):
            parse_form(text, n)
    else:
        f = parse_form(text, n)
        assert (f.d, f.coeffs) == (d, coeffs)


def test_parse_form_on_p4():
    """On P^4 the variables are X0..X4 only: X0*X4 is monomial 4 of the
    degree-2 basis and X2^2 monomial 9, and X is refused."""
    f = parse_form("X0*X4-3*X2^2", 4)
    assert (f.coeffs[4], f.coeffs[9]) == (1, -3)
    assert [i for i, c in enumerate(f.coeffs) if c] == [4, 9]
    with pytest.raises(ValueError, match="unknown variable 'X' on P\\^4"):
        parse_form("X", 4)


def test_parse_point():
    assert parse_point("[0:1:0]", 2) == (0, 1, 0)
    with pytest.raises(ValueError):
        parse_point("[0:1]", 2)


def test_scheme_file_roundtrip(p1, p2, conic):
    """The shipped P^1, P^2 and conic files load to the fixtures' schemes,
    and the conic also with the legacy "p" key in its document."""
    for name, scheme in (("p1z", p1), ("p2z", p2), ("conic_f2", conic)):
        loaded = load_scheme(SCHEMES / f"{name}.json")
        assert (loaded.n, loaded.m) == (scheme.n, scheme.m)
        assert [f.coeffs for f in loaded.defining_forms] == \
            [f.coeffs for f in scheme.defining_forms]
    doc = json.loads((SCHEMES / "conic_f2.json").read_text(encoding="utf-8"))
    assert "p" not in doc
    legacy = scheme_from_dict({**doc, "p": 2})
    assert [f.coeffs for f in legacy.defining_forms] == \
        [f.coeffs for f in conic.defining_forms]


def test_rational_closed_point(p2):
    fib = p2.fiber(5)
    x = rational_closed_point(fib, (0, 3, 0))
    assert x.rep == (0, 1, 0) and x.degree == 1
    with pytest.raises(ValueError):
        rational_closed_point(fib, (0, 0, 0))
