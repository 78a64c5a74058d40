"""Mod-p^2 classification, jet certificates, density censuses."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bertinilab import fiberlab
from bertinilab.ffield import GaloisRing
from bertinilab.arithlab import multi_fiber_experiment
from bertinilab.projgeom import (BudgetExceeded, HomogeneousForm,
                                 ProjectiveScheme, SchemeFiber, monomial_basis,
                                 parse_form, rational_closed_point)
from bertinilab.fiberlab import (FiberClassifier, SectionModP2,
                                 classify_point, classify_point_detail,
                                 fiber_density_exhaustive, fiber_density_mc,
                                 lifted_point,
                                 medium_degree_tail_bound,
                                 reference_truncation,
                                 singular_at_point_proportion,
                                 squarefree_binary_census)
from bertinilab.zetas import local_zeta_inverse, projective_counts


def closed_point(scheme_fiber, rep, r=1):
    return {x.rep: x for x in scheme_fiber.closed_points_up_to(r)}[rep]


def test_worked_example_mod_25(p2):
    """The quadric X^2+5Y^2-Z^2 at [0:1:0] over p=5: the fiber divisor is
    singular there, the arithmetic divisor is regular (lifted value 5)."""
    fib = p2.fiber(5)
    sec = SectionModP2(parse_form("X^2+5*Y^2-Z^2", 2, modulus=25), 5)
    x = closed_point(fib, (0, 1, 0))
    arith, fiber_status = classify_point_detail(sec, x, fib)
    assert arith == "RegularPoint"
    assert fiber_status == "SingularPoint"


def test_xy_always_singular_at_origin_point(p2):
    for p in (2, 3, 5, 7):
        fib = p2.fiber(p)
        sec = SectionModP2(parse_form("X*Y", 2, modulus=p * p), p)
        assert classify_point(sec, closed_point(fib, (0, 0, 1)), fib) == \
            "SingularPoint"


def test_mod_4_rescue_example(p2):
    # fiber value 0 and fiber partials vanish mod 2, lifted value 6, 6/2 = 3 odd
    fib = p2.fiber(2)
    sec = SectionModP2(parse_form("X^2+5*Y^2-Z^2", 2, modulus=4), 2)
    arith, fiber_status = classify_point_detail(sec, closed_point(fib, (1, 1, 0)), fib)
    assert (arith, fiber_status) == ("RegularPoint", "SingularPoint")


def test_zero_section_and_p_multiples(p1):
    fib = p1.fiber(2)
    x = closed_point(fib, (0, 1))
    zero = SectionModP2(HomogeneousForm(1, 2, (0, 0, 0), 4), 2)
    assert classify_point(zero, x, fib) == "SingularPoint"
    # 2 * (X^2 + XY + Y^2): tau never vanishes on P^1(F_2), divisor is the
    # doubled fiber but stays regular at every rational point
    twice = SectionModP2(HomogeneousForm(1, 2, (2, 2, 2), 4), 2)
    for rep in [(0, 1), (1, 0), (1, 1)]:
        assert classify_point(twice, closed_point(fib, rep), fib) == "RegularPoint"


def test_classify_rejects_singular_fiber_points():
    cusp = ProjectiveScheme(2, 1, [parse_form("Y^2*Z-X^3", 2)], name="cusp")
    fib = cusp.fiber(5)
    x = rational_closed_point(fib, (0, 0, 1))
    sec = SectionModP2(parse_form("X", 2, modulus=25), 5)
    with pytest.raises(ValueError):
        classify_point(sec, x, fib)


def test_classify_on_curve_in_p2():
    """A smooth plane conic: classification runs through the scheme lift."""
    conic = ProjectiveScheme(2, 1, [parse_form("X*Z-Y^2", 2)], name="xz=y2")
    rng = random.Random(12)
    for p in (3, 5):
        fib = conic.fiber(p)
        points = fib.closed_points_up_to(2)
        assert points
        for _ in range(40):
            coeffs = tuple(rng.randrange(p * p) for _ in range(6))
            sec = SectionModP2(HomogeneousForm(2, 2, coeffs, p * p), p)
            for x in points:
                base = classify_point_detail(sec, x, fib)
                for conj in range(x.degree):
                    coords = x.orbit[conj]
                    for chart in [i for i, c in enumerate(coords) if c != 0]:
                        assert classify_point_detail(
                            sec, x, fib, chart=chart, conjugate=conj) == base


def test_lift_conjugate_chart_independence(p1):
    rng = random.Random(13)
    pairs = 0
    for p in (2, 3, 5):
        fib = p1.fiber(p)
        points = fib.closed_points_up_to(2)
        quota = pairs + 180
        while pairs < quota:
            d = rng.randint(1, 5)
            coeffs = tuple(rng.randrange(p * p) for _ in range(d + 1))
            sec = SectionModP2(HomogeneousForm(1, d, coeffs, p * p), p)
            for x in points:
                base = classify_point_detail(sec, x, fib)
                for _ in range(10):
                    pert = [rng.randrange(x.field.q) for _ in range(2)]
                    assert classify_point_detail(sec, x, fib,
                                                 perturbation=pert) == base
                for conj in range(x.degree):
                    coords = x.orbit[conj]
                    for chart in [i for i, c in enumerate(coords) if c != 0]:
                        assert classify_point_detail(
                            sec, x, fib, chart=chart, conjugate=conj) == base
                pairs += 1
    assert pairs >= 500


def test_consistency_with_fiber_test(p1):
    """Arithmetic regular/singular refines the residue-field test except in
    the rescue case, which is flagged; rescues exist at p=2, d=4."""
    rng = random.Random(14)
    fib = p1.fiber(2)
    points = fib.closed_points_up_to(2)
    rescues = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        coeffs = tuple(rng.randrange(4) for _ in range(d + 1))
        sec = SectionModP2(HomogeneousForm(1, d, coeffs, 4), 2)
        for x in points:
            arith, fiber_status = classify_point_detail(sec, x, fib)
            if arith == "NotOnDivisor":
                assert fiber_status == "NotOnDivisor"
            elif arith == "SingularPoint":
                assert fiber_status == "SingularPoint"
            elif fiber_status == "SingularPoint":
                rescues += 1          # fiber-singular yet arithmetically regular
    assert rescues > 0
    census = fiber_density_exhaustive(p1, 2, 4, 1)
    assert census.extras["rescued_points"] > 0


def test_reference_truncation_examples(p1, p2):
    fib = p1.fiber(2)
    assert reference_truncation(fib, 1, "arithmetic").value == Fraction(343, 512)
    assert reference_truncation(fib, 1, "fiber").value == Fraction(27, 64)
    assert reference_truncation(fib, 2, "fiber").value == Fraction(405, 1024)
    assert reference_truncation(fib, 0, "arithmetic").value == 1
    with pytest.raises(ValueError):
        reference_truncation(fib, 1, "nonsense")
    with pytest.raises(ValueError):
        reference_truncation(fib, 1, "finite-field")
    # exponent m + 2 (arithmetic) or m + 1 (fiber), with the tail bound
    fib2 = p2.fiber(3)
    for reading, s in (("arithmetic", 4), ("fiber", 3)):
        t = reference_truncation(fib2, 2, reading)
        assert t == local_zeta_inverse(projective_counts(3, 2, 2), s, 2, 2)


def test_medium_degree_tail_bound_examples():
    assert medium_degree_tail_bound(Fraction(3, 2), 2, 3) == Fraction(3, 256)
    for r in range(1, 6):
        assert medium_degree_tail_bound(Fraction(3, 2), 2, r + 1) == \
            medium_degree_tail_bound(Fraction(3, 2), 2, r) / 4
    assert medium_degree_tail_bound(Fraction(0), 5, 2) == 0
    assert medium_degree_tail_bound(Fraction(3, 2), 2, 3, "fiber") == \
        Fraction(3, 8)
    with pytest.raises(ValueError):
        medium_degree_tail_bound(Fraction(3, 2), 2, 3, "finite-field")


def certificate(fiber, points, d, reading):
    return FiberClassifier(fiber, d, points).certificate(reading)


def test_surjectivity_certificates(p1, p2):
    fib = p1.fiber(2)
    pts = fib.closed_points_up_to(1)
    # dimension count alone rules out d <= 4 (source 5 < target 6)
    assert not certificate(fib, pts, 2, "fiber").surjective
    assert not certificate(fib, pts, 4, "fiber").surjective
    assert certificate(fib, pts, 5, "fiber").surjective
    assert certificate(fib, pts, 7, "fiber").surjective
    assert not certificate(fib, pts, 4, "arithmetic").surjective
    cert5 = certificate(fib, pts, 5, "arithmetic")
    assert cert5.surjective and cert5.image_size == cert5.target_size == 512
    # a single rational point with linear forms on P^2
    fib2 = p2.fiber(2)
    x = closed_point(fib2, (0, 0, 1))
    assert certificate(fib2, [x], 1, "fiber").surjective
    with pytest.raises(ValueError):
        FiberClassifier(fib, 5, [pts[0], pts[0]])
    with pytest.raises(ValueError):
        certificate(fib, pts, 5, "residue")


def test_exhaustive_census_uncertified_d4(p1):
    est = fiber_density_exhaustive(p1, 2, 4, 1)
    assert est.total == 1024
    assert est.value == Fraction(171, 256)          # the honest raw proportion
    assert est.reference_value == Fraction(343, 512)
    assert not est.extras["certificate"].surjective
    assert not est.extras["certified_equal"]


def test_exhaustive_census_certified_d5(p1):
    est = fiber_density_exhaustive(p1, 2, 5, 1)
    assert est.total == 4096
    assert est.value == est.reference_value == Fraction(343, 512)
    assert est.extras["certificate"].surjective
    assert est.extras["certified_equal"]
    fiber_est = fiber_density_exhaustive(p1, 2, 5, 1, count="fiber")
    assert fiber_est.value == fiber_est.reference_value == Fraction(27, 64)
    assert fiber_est.extras["certified_equal"]


def test_exhaustive_census_r0_and_budget(p1):
    est = fiber_density_exhaustive(p1, 2, 3, 0)
    assert est.value == 1 == est.reference_value
    with pytest.raises(BudgetExceeded):
        fiber_density_exhaustive(p1, 5, 9, 1)


def test_exhaustive_census_p3(p1):
    est = fiber_density_exhaustive(p1, 3, 3, 1)
    # certificate: source dim 4 over Z/9 against 4 rational points
    expected = reference_truncation(p1.fiber(3), 1, "arithmetic").value
    if est.extras["certificate"].surjective:
        assert est.value == expected
    else:
        assert est.value != expected


def test_mc_determinism_and_reference(p1):
    a = fiber_density_mc(p1, 2, 12, 3, 4000, seed=123)
    b = fiber_density_mc(p1, 2, 12, 3, 4000, seed=123)
    assert a.mean == b.mean and a.ci_halfwidth == b.ci_halfwidth
    c = fiber_density_mc(p1, 2, 12, 3, 4000, seed=124)
    assert a.mean != c.mean             # astronomically unlikely to collide
    assert abs(a.mean - float(a.reference_value)) <= \
        a.ci_halfwidth + float(a.reference_error) + 0.02
    with pytest.raises(ValueError):
        fiber_density_mc(p1, 2, 12, 3, 99, seed=1)


def test_singular_at_point_proportions(p1, p2):
    fib = p1.fiber(2)
    est = singular_at_point_proportion(fib, closed_point(fib, (0, 1)), 3)
    assert est.value == Fraction(1, 4) and est.extras["certified_equal"]
    fib2 = p2.fiber(2)
    est2 = singular_at_point_proportion(fib2, closed_point(fib2, (0, 0, 1)), 3)
    assert est2.value == Fraction(1, 8) and est2.extras["certified_equal"]
    deg2 = next(x for x in fib.closed_points_up_to(2) if x.degree == 2)
    est3 = singular_at_point_proportion(fib, deg2, 5)
    assert est3.value == Fraction(1, 16) and est3.extras["certified_equal"]


def test_singular_at_point_matches_kernel_count(p1):
    """Exhaustive proportion equals p^{-rank} of the single-point jet matrix."""
    fib = p1.fiber(3)
    for x in fib.closed_points_up_to(2):
        for d in (2, 3):
            est = singular_at_point_proportion(fib, x, d)
            cert = certificate(fib, [x], d, "fiber")
            assert est.value == Fraction(1, 3 ** cert.rank)


def test_section_mod_p2_validation():
    form = parse_form("X^2+Y^2", 1)
    sec = SectionModP2(form, 3)
    assert sec.form.modulus == 9
    with pytest.raises(ValueError):
        SectionModP2(parse_form("X^2+Y^2", 1, modulus=10), 3)
    # an integer form is reduced, a form mod 8 refines to mod 4 at p = 2,
    # and a form mod 6 does not determine a section mod 4
    assert SectionModP2(parse_form("10*X^2-Y^2", 1), 3).form.coeffs == (1, 0, 8)
    sec8 = SectionModP2(parse_form("7*X^2+5*X*Y", 1, modulus=8), 2)
    assert (sec8.form.modulus, sec8.form.coeffs) == (4, (3, 1, 0))
    with pytest.raises(ValueError):
        SectionModP2(parse_form("X^2+Y^2", 1, modulus=6), 2)


def test_budget_refused_before_points_and_jets(p1, p2, monkeypatch):
    fib = p2.fiber(2)
    x = closed_point(fib, (0, 0, 1))

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated points or built jets over budget")

    monkeypatch.setattr(SchemeFiber, "closed_points_up_to", refuse)
    monkeypatch.setattr(fiberlab, "_PointJet", refuse)
    with pytest.raises(BudgetExceeded):
        fiber_density_exhaustive(p1, 5, 9, 1)
    with pytest.raises(BudgetExceeded):
        singular_at_point_proportion(fib, x, 9)
    with pytest.raises(BudgetExceeded):
        squarefree_binary_census(2, 26)


def test_ring_cap_refused_before_points(p1, p2, monkeypatch):
    """A census whose lift ring GR(p^2, r) passes 2^24 is a budget refusal,
    raised before any point is enumerated or ring built."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated points or built a ring over the cap")

    p1.fiber(2).check_census(12)                    # 2^24 is within the cap
    with pytest.raises(ValueError):
        GaloisRing(2, 13)                           # direct callers: ValueError
    monkeypatch.setattr(SchemeFiber, "rational_points", refuse)
    monkeypatch.setattr(GaloisRing, "__init__", refuse)
    with pytest.raises(BudgetExceeded):
        fiber_density_exhaustive(p1, 2, 1, 13)
    with pytest.raises(BudgetExceeded):
        fiber_density_mc(p1, 2, 3, 13, 100, seed=0)
    with pytest.raises(BudgetExceeded):
        multi_fiber_experiment(1, 2, 2, 13, 100, seed=0, n=2)


def test_scan_refused_before_the_reference(p2, monkeypatch):
    """P^2 mod 2 at r = 12 passes the ring cap (2^24) but not the point scan
    (2^36 tuples): every census caller refuses before its reference, whose
    exact product is the bulk of the time such a refusal used to take."""
    def refuse(*args, **kwargs):
        raise AssertionError("computed the reference of a refused census")

    monkeypatch.setattr(fiberlab, "local_zeta_inverse", refuse)
    with pytest.raises(BudgetExceeded):
        fiber_density_exhaustive(p2, 2, 1, 12)
    with pytest.raises(BudgetExceeded):
        fiber_density_mc(p2, 2, 1, 12, 100, seed=0)
    with pytest.raises(BudgetExceeded):
        multi_fiber_experiment(1, 2, 2, 12, 100, seed=0, n=2)


def test_census_int64_guard(p1):
    """h * (p^2 - 1)^2 must stay below 2^63 for the int64 matmuls."""
    fib = p1.fiber(9973)
    assert 1001 * (9973 ** 2 - 1) ** 2 >= 1 << 63
    with pytest.raises(BudgetExceeded):
        FiberClassifier(fib, 1000, [])
    assert 901 * (9973 ** 2 - 1) ** 2 < 1 << 63
    assert FiberClassifier(fib, 900, []).h == 901


def test_unknown_count_rejected(p1):
    with pytest.raises(ValueError):
        fiber_density_exhaustive(p1, 2, 4, 1, count="residue")
    with pytest.raises(ValueError):
        fiber_density_mc(p1, 2, 4, 1, 100, seed=0, count="residue")
    with pytest.raises(ValueError):
        multi_fiber_experiment(4, 100, 3, 1, 100, seed=0,
                               classification="residue")


def test_one_jet_build_per_point(p1, monkeypatch):
    """The census and the certificate share the classifier's jets."""
    built = []

    class CountingJet(fiberlab._PointJet):
        def __init__(self, fiber, x, d):
            built.append(x.rep)
            super().__init__(fiber, x, d)

    monkeypatch.setattr(fiberlab, "_PointJet", CountingJet)
    fib = p1.fiber(2)
    points = fib.closed_points_up_to(2)
    assert len(points) == 4
    est = fiber_density_exhaustive(p1, 2, 5, 2)
    assert sorted(built) == sorted(x.rep for x in points)
    assert est.extras["certificate"].target_dim == 3 * 5
    built.clear()
    singular_at_point_proportion(fib, points[0], 3)
    assert built == [points[0].rep]


@pytest.mark.parametrize("name, p", [("P1", 2), ("P1", 3), ("P2", 2),
                                     ("conic", 3), ("conic", 5)])
def test_jets_match_form_evaluation(p1, p2, conic, name, p):
    """Every _PointJet array against HomogeneousForm on each monomial, at
    every closed point of degree <= 3: value_p by eval_gf at x.rep,
    value_p2 by eval_gr at the scheme lift, each tangent block by
    sum_j t_j * partial_j(sigma)(x) over the chart coordinates j."""
    fib = {"P1": p1, "P2": p2, "conic": conic}[name].fiber(p)
    for x in fib.closed_points_up_to(3):
        fld = x.field
        ring, lift = lifted_point(fib, x)
        cols = [j for j in range(fib.n + 1) if j != x.chart()]
        tangent = fib.tangent_basis(x)
        for d in (1, 2, 3):
            jet = fiberlab._PointJet(fib, x, d)
            assert jet.tangent.shape == (jet.value_p.shape[0], len(tangent) * x.degree)
            for k, exps in enumerate(monomial_basis(fib.n, d)):
                mono = HomogeneousForm.from_monomials(fib.n, d, [(exps, 1)])
                assert list(jet.value_p[k]) == fld.decode(mono.eval_gf(fld, x.rep))
                assert tuple(jet.value_p2[k]) == mono.eval_gr(ring, lift)
                for t, vec in enumerate(tangent):
                    acc = 0
                    for j, tj in zip(cols, vec):
                        acc = fld.add(acc, fld.mul(tj, mono.partial(j).eval_gf(fld, x.rep)))
                    block = jet.tangent[k, t * x.degree:(t + 1) * x.degree]
                    assert list(block) == fld.decode(acc)


# (scheme, p, r): the closed points of degree <= r are checked.
# X^2+Y^2+Z^2 is a double line mod 2, so the conic is checked at odd p.
_AGREEMENT_CASES = (("P2", 2, 2), ("P2", 3, 2), ("conic", 3, 2), ("conic", 5, 2),
                    ("P2", 2, 3), ("conic", 3, 3), ("P2", 2, 4), ("conic", 3, 4))
_classifiers = {}


def _classifier(scheme, name, p, r, d):
    if (name, p, r, d) not in _classifiers:
        fib = scheme.fiber(p)
        _classifiers[name, p, r, d] = FiberClassifier(fib, d,
                                                      fib.closed_points_up_to(r))
    return _classifiers[name, p, r, d]


@st.composite
def _census_case(draw):
    name, p, r = draw(st.sampled_from(_AGREEMENT_CASES))
    d = draw(st.integers(1, 3))
    h = (d + 1) * (d + 2) // 2
    row = st.lists(st.integers(0, p * p - 1), min_size=h, max_size=h)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    # sections p * tau put every fiber point on the divisor: rescue cases
    if draw(st.booleans()):
        rows = [[c * p % (p * p) for c in row] for row in rows]
    return name, p, r, d, rows


@settings(max_examples=30, deadline=None)
@given(case=_census_case())
@example(case=("P2", 2, 3, 2, [[2, 0, 2, 0, 0, 2], [1, 3, 0, 2, 1, 0]]))
@example(case=("conic", 3, 3, 3, [[3 * (k % 3) for k in range(10)],
                                  [k % 9 for k in range(10)]]))
@example(case=("P2", 2, 4, 3, [[2 * (k % 2) for k in range(10)],
                               [(3 * k + 1) % 4 for k in range(10)]]))
@example(case=("conic", 3, 4, 2, [[3, 0, 6, 3, 0, 3], [1, 7, 0, 4, 2, 8]]))
def test_census_matches_pointwise_definition(p2, conic, case):
    """census against classify_point_detail at every closed point of
    degree <= 2 of P^2 and of a smooth conic, where the scheme lift and
    value_p2 matter, and of degree <= 3 and <= 4 on P^2 mod 2 and the
    conic mod 3."""
    name, p, r, d, rows = case
    cls = _classifier({"P2": p2, "conic": conic}[name], name, p, r, d)
    batch = np.array(rows, dtype=np.int64)
    any_arith, any_fiber, rescued = cls.census(batch)
    total_rescued = 0
    for j, coeffs in enumerate(rows):
        sec = SectionModP2(HomogeneousForm(2, d, tuple(coeffs), p * p), p)
        verdicts = [classify_point_detail(sec, x, cls.fiber) for x in cls.points]
        row_rescued = sum(f == "SingularPoint" and a != "SingularPoint"
                          for a, f in verdicts)
        assert any_arith[j] == any(a == "SingularPoint" for a, _ in verdicts)
        assert any_fiber[j] == any(f == "SingularPoint" for _, f in verdicts)
        assert cls.census(batch[j:j + 1])[2] == row_rescued
        total_rescued += row_rescued
    assert rescued == total_rescued
