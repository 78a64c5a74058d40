"""Mod-p^2 classification, jet certificates, density censuses."""

import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bertinilab import ffield, fiberlab
from bertinilab.ffield import GF, GaloisRing, solve_linear
from bertinilab.arithlab import multi_fiber_experiment
from bertinilab.projgeom import (BudgetExceeded, HomogeneousForm,
                                 ProjectiveScheme, SchemeFiber, monomial_basis,
                                 parse_form, rational_closed_point)
from bertinilab.fiberlab import (FiberClassifier, classify_point_detail,
                                 fiber_density_exhaustive, fiber_density_mc,
                                 lifted_point,
                                 reference_truncation,
                                 singular_at_point_proportion,
                                 squarefree_binary_census)
from bertinilab.zetas import (local_zeta_inverse, projective_counts,
                              projective_zeta_inverse_exact)


def closed_point(scheme_fiber, rep, r=1):
    return {x.rep: x for x in scheme_fiber.closed_points_up_to(r)}[rep]


def test_worked_example_mod_25(p2):
    """The quadric X^2+5Y^2-Z^2 at [0:1:0] over p=5: the fiber divisor is
    singular there, the arithmetic divisor is regular (lifted value 5)."""
    fib = p2.fiber(5)
    sec = parse_form("X^2+5*Y^2-Z^2", 2)
    x = closed_point(fib, (0, 1, 0))
    arith, fiber_status = classify_point_detail(sec, x, fib)
    assert arith == "RegularPoint"
    assert fiber_status == "SingularPoint"


def test_xy_always_singular_at_origin_point(p2):
    for p in (2, 3, 5, 7):
        fib = p2.fiber(p)
        sec = parse_form("X*Y", 2)
        assert classify_point_detail(sec, closed_point(fib, (0, 0, 1)), fib)[0] == \
            "SingularPoint"


def test_mod_4_rescue_example(p2):
    # fiber value 0 and fiber partials vanish mod 2, lifted value 6, 6/2 = 3 odd
    fib = p2.fiber(2)
    sec = parse_form("X^2+5*Y^2-Z^2", 2)
    arith, fiber_status = classify_point_detail(sec, closed_point(fib, (1, 1, 0)), fib)
    assert (arith, fiber_status) == ("RegularPoint", "SingularPoint")


def test_zero_section_and_p_multiples(p1):
    fib = p1.fiber(2)
    x = closed_point(fib, (0, 1))
    zero = HomogeneousForm(1, 2, (0, 0, 0))
    assert classify_point_detail(zero, x, fib)[0] == "SingularPoint"
    # 2 * (X^2 + XY + Y^2): tau never vanishes on P^1(F_2), divisor is the
    # doubled fiber but stays regular at every rational point
    twice = HomogeneousForm(1, 2, (2, 2, 2))
    for rep in [(0, 1), (1, 0), (1, 1)]:
        assert classify_point_detail(twice, closed_point(fib, rep), fib)[0] == \
            "RegularPoint"


def test_classify_rejects_singular_fiber_points():
    cusp = ProjectiveScheme(2, 1, [parse_form("Y^2*Z-X^3", 2)], name="cusp")
    fib = cusp.fiber(5)
    x = rational_closed_point(fib, (0, 0, 1))
    sec = parse_form("X", 2)
    with pytest.raises(ValueError):
        classify_point_detail(sec, x, fib)
    with pytest.raises(ValueError, match="different projective spaces"):
        classify_point_detail(parse_form("X", 1), x, fib)


def test_classify_on_curve_in_p2(relabelings):
    """A smooth plane conic: classification runs through the scheme lift,
    and reads the same at every conjugate of a point and in every chart."""
    conic = ProjectiveScheme(2, 1, [parse_form("X*Z-Y^2", 2)], name="xz=y2")
    rng = random.Random(12)
    for p in (3, 5):
        fib = conic.fiber(p)
        points = fib.closed_points_up_to(2)
        assert points
        readings = [(x, list(relabelings(fib, x))) for x in points]
        for _ in range(40):
            coeffs = tuple(rng.randrange(p * p) for _ in range(6))
            sec = HomogeneousForm(2, 2, coeffs)
            for x, views in readings:
                base = classify_point_detail(sec, x, fib)
                for fib_k, x_k, move in views:
                    assert classify_point_detail(move(sec), x_k, fib_k) == base


def test_lift_conjugate_chart_independence(p1, p2, relabelings):
    """On P^1 mod 2, 3, 5 and P^2 mod 2: the classification reads the same
    at every conjugate of a point and in every chart, and at a point where
    the fiber divisor is singular, moving lifted_point's lift by p * delta
    leaves sigma(lift) / p zero or not as the arithmetic verdict says."""
    rng = random.Random(13)
    pairs = lifts = 0
    for scheme, p in ((p1, 2), (p1, 3), (p1, 5), (p2, 2)):
        fib = scheme.fiber(p)
        readings = [(x, list(relabelings(fib, x))) for x in fib.closed_points_up_to(2)]
        quota = pairs + 180
        while pairs < quota:
            d = rng.randint(1, 5 if scheme.n == 1 else 3)
            coeffs = tuple(rng.randrange(p * p) for _ in range(comb(scheme.n + d, d)))
            sec = HomogeneousForm(scheme.n, d, coeffs)
            for x, views in readings:
                base = classify_point_detail(sec, x, fib)
                for fib_k, x_k, move in views:
                    assert classify_point_detail(move(sec), x_k, fib_k) == base
                if base[1] == "SingularPoint":
                    ring, lift = lifted_point(fib, x)
                    for _ in range(10):
                        moved = tuple(ring.add(c, ring.mul_int(
                            ring.lift(rng.randrange(x.field.q)), p)) for c in lift)
                        value = ring.divide_by_p(sec.eval_gr(ring, moved))
                        assert (value != 0) == (base[0] == "RegularPoint")
                    lifts += 1
                pairs += 1
    assert pairs >= 720 and lifts >= 40


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
        sec = HomogeneousForm(1, d, coeffs)
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


def test_tally_counts_joint_hits_and_each_census():
    """A section is a hit of a reading when no census of its batch finds a
    singular point in that reading; each census keeps its own singular-row
    counts, and the rescues add up.  The toy census reads its rows as
    (arithmetically singular, fiber singular) flags."""
    def census(rows):
        return rows[:, 0], rows[:, 1], int((rows[:, 1] & ~rows[:, 0]).sum())
    a = np.array([[0, 0], [1, 1], [0, 1], [0, 0]], dtype=bool)
    b = np.array([[0, 1], [0, 0], [0, 0], [0, 0]], dtype=bool)
    hits_arith, hits_fiber, singular, rescued = fiberlab._tally(
        [census, census], [(a, b), (b, a)])
    assert (hits_arith, hits_fiber) == (6, 2)
    assert singular == [[1, 3], [1, 3]]
    assert rescued == 4


def test_mc_determinism_and_reference(p1):
    a = fiber_density_mc(p1, 2, 12, 3, 4000, seed=123)
    b = fiber_density_mc(p1, 2, 12, 3, 4000, seed=123)
    assert a.value == b.value and a.ci_halfwidth == b.ci_halfwidth
    c = fiber_density_mc(p1, 2, 12, 3, 4000, seed=124)
    assert a.value != c.value             # astronomically unlikely to collide
    assert abs(a.value - float(a.reference_value)) <= \
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


def test_classify_reads_the_section_mod_p2(p1):
    """classify_point_detail reads the section mod p^2 off its integer form."""
    for p, form, reduced in ((3, parse_form("10*X^2-Y^2", 1), (1, 0, 8)),
                             (2, parse_form("7*X^2+5*X*Y", 1), (3, 1, 0))):
        fib = p1.fiber(p)
        for x in fib.closed_points_up_to(2):
            assert classify_point_detail(form, x, fib) == classify_point_detail(
                HomogeneousForm(1, 2, reduced), x, fib)


_fibers = {}


def _outcome(form, x, fib):
    """classify_point_detail's verdicts, or the refusal at a singular
    fiber point (the conic mod 2 is a double line)."""
    try:
        return classify_point_detail(form, x, fib)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["P1", "P2", "conic"]), st.sampled_from([2, 3, 5]),
       st.integers(1, 3), st.integers(1, 2), st.data())
def test_forms_are_reduced_where_evaluated(p1, p2, conic, name, p, d, e, data):
    """An integer form of any sign and size reads as its reduction: eval_gf
    over GF(p^e) as the form mod p, eval_gr over GR(p^2, e) and
    classify_point_detail as the form mod p^2."""
    scheme = {"P1": p1, "P2": p2, "conic": conic}[name]
    if (name, p) not in _fibers:
        fib = scheme.fiber(p)
        _fibers[name, p] = fib, fib.closed_points_up_to(2)
    fib, points = _fibers[name, p]
    n = scheme.n
    h = len(monomial_basis(n, d))
    coeffs = data.draw(st.lists(st.integers(), min_size=h, max_size=h))
    form = HomogeneousForm(n, d, tuple(coeffs))
    mod_p = HomogeneousForm(n, d, tuple(c % p for c in coeffs))
    mod_p2 = HomogeneousForm(n, d, tuple(c % (p * p) for c in coeffs))
    field = fib.extension(e)
    ring = GaloisRing(field)
    coords = st.integers(0, field.q - 1)
    point = data.draw(st.tuples(*[coords] * (n + 1)))
    assert form.eval_gf(field, point) == mod_p.eval_gf(field, point)
    digits = st.tuples(*[st.integers(0, p * p - 1)] * e)
    lift = data.draw(st.tuples(*[digits] * (n + 1)))
    assert form.eval_gr(ring, lift) == mod_p2.eval_gr(ring, lift)
    for x in data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=6)):
        assert _outcome(form, x, fib) == _outcome(mod_p2, x, fib)


def test_budget_refused_before_points_and_jets(p1, p2, monkeypatch):
    fib = p2.fiber(2)
    x = closed_point(fib, (0, 0, 1))

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated points or built jets over budget")

    monkeypatch.setattr(SchemeFiber, "closed_points_up_to", refuse)
    monkeypatch.setattr(fiberlab, "_point_jets", refuse)
    with pytest.raises(BudgetExceeded):
        fiber_density_exhaustive(p1, 5, 9, 1)
    with pytest.raises(BudgetExceeded):
        singular_at_point_proportion(fib, x, 9)
    with pytest.raises(BudgetExceeded):
        squarefree_binary_census(2, 26)


def test_census_size_refused_before_the_count_is_formed():
    """The exhaustive budget compares at most modulus^27 (every modulus is
    >= 2 and the budget is 2^26), so h = 10^9 is refused at once, and the
    refusal names the count as modulus^h."""
    assert fiberlab._census_size(26, 2) == fiberlab.EXHAUSTIVE_BUDGET
    assert fiberlab._census_size(16, 3) == 3 ** 16
    for h, modulus in ((27, 2), (17, 3), (10 ** 9, 3)):
        with pytest.raises(BudgetExceeded, match=rf"^{modulus}\^{h} sections exceed"):
            fiberlab._census_size(h, modulus)


def test_ring_cap_refused_before_points(p1, p2, monkeypatch):
    """A census whose lift ring GR(p^2, r) passes 2^24 is a budget refusal,
    raised before any point is enumerated or ring built."""
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated points or built a ring over the cap")

    p1.fiber(2).check_census(12)                    # 2^24 is within the cap
    with pytest.raises(ValueError):
        GaloisRing(GF(2, 13))                           # direct callers: ValueError
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


def test_census_blocks_match_row_by_row(conic, monkeypatch):
    """A batch of three value-pass blocks plus one row, censused at once
    with pair-pass blocks of at most 2^8 gathered digits, against the
    census of each row alone; then the same batch through the unpacked
    pass and its integer divisibility test, which replace the packed rows
    and their lookup table when R^k passes _RESIDUE_TABLE_CAP for every
    k >= 1."""
    monkeypatch.setattr(fiberlab, "_PAIR_BLOCK", 1 << 8)
    fib = conic.fiber(3)
    points = fib.closed_points_up_to(3)
    cls = FiberClassifier(fib, 2, points)
    # sums of h = 6 balanced digit products mod 3 take R = 13 values and
    # 13^3 fits the table, so each point's <= 3 digits share one value row
    assert cls._pack == 3 and len(cls._values) == len(points)
    assert cls._block == fiberlab._VALUE_BLOCK // len(points)
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 9, size=(3 * cls._block + 1, cls.h), dtype=np.int64)
    rows[::5] = rows[::5] * 3 % 9          # p * tau: on the divisor everywhere
    any_arith, any_fiber, rescued = cls.census(rows)
    singles = [cls.census(rows[j:j + 1]) for j in range(len(rows))]
    assert list(any_arith) == [a[0] for a, _, _ in singles]
    assert list(any_fiber) == [f[0] for _, f, _ in singles]
    assert rescued == sum(r for _, _, r in singles) > 0
    assert any_arith.any() and not any_fiber.all()
    monkeypatch.setattr(fiberlab, "_RESIDUE_TABLE_CAP", 0)
    without_table = FiberClassifier(fib, 2, points)
    assert without_table._pack == 0 and without_table._table is None
    assert without_table._residues is None
    # one value row per digit, as many as the top degree has for every point
    assert len(without_table._values) == 3 * len(points)
    again = without_table.census(rows)
    assert (again[0] == any_arith).all() and (again[1] == any_fiber).all()
    assert again[2] == rescued


@pytest.mark.parametrize("p, d, r, k", [(2, 14, 5, 5), (5, 126, 2, 2)])
def test_float32_value_pass_at_the_packing_cap(p1, monkeypatch, p, d, r, k):
    """The float32 value pass where the packed sums come closest to 2^20.
    On P^1, h = d + 1 coefficients give digit sums of spread
    R = h (low high + high^2) + 1, and R^k is the largest such power
    <= 2^20: R = 16, R^5 = 2^20 mod 2 (d = 14) and R = 1017,
    R^2 = 1,034,289 mod 5 (d = 126).  Each value row gets two rows of
    extreme balanced digits, high or -low, signed with its packed values
    to make the sum largest and smallest; the census equals the
    float64 pass without a table."""
    low, high = (p - 1) // 2, p // 2
    spread = (d + 1) * (low * high + high * high) + 1
    assert spread ** k <= 1 << 20 < (spread + low * high + high * high) ** k
    fib = p1.fiber(p)
    points = fib.closed_points_up_to(r)
    cls = FiberClassifier(fib, d, points)
    assert cls._pack == k and len(cls._table) == spread ** k
    assert cls._values.dtype == np.float32
    packed = cls._values.astype(np.int64)
    digits = np.concatenate([np.where(packed > 0, high, -low),
                             np.where(packed > 0, -low, high)])
    sums = np.concatenate([packed, packed]) * digits
    # the sums of the extreme rows reach past a quarter of the bound 2^20
    assert 1 << 18 < np.abs(sums.sum(axis=1)).max() < 1 << 20
    rng = np.random.default_rng(13)
    rows = digits % p + p * rng.integers(0, p, size=digits.shape)
    rows = np.concatenate([rows, rng.integers(0, p * p, size=(64, cls.h))])
    got = cls.census(rows)
    monkeypatch.setattr(fiberlab, "_RESIDUE_TABLE_CAP", 0)
    without_table = FiberClassifier(fib, d, points)
    assert without_table._table is None
    assert without_table._values.dtype == np.float64
    expected = without_table.census(rows)
    assert (got[0] == expected[0]).all() and (got[1] == expected[1]).all()
    assert got[2] == expected[2]


def _rows_through(value_p2, tangent, p, rng, first_order):
    """A row mod p^2 whose reduction vanishes at a point, and with
    ``first_order`` is singular on the fiber there: a random F_p-kernel
    vector of the point's value digits (h, e) (and tangent digits
    (h, m e)) mod p, plus p times noise."""
    digits = np.hstack([value_p2, tangent]) if first_order else value_p2
    digits = digits % p
    h = len(digits)
    kernel = np.array(solve_linear(digits.T.tolist(), [0] * digits.shape[1], h, GF(p))[1],
                      dtype=np.int64)
    tau = rng.integers(0, p, size=h)
    return (rng.integers(0, p, size=len(kernel)) @ kernel + p * tau) % (p * p)


def _check_pointwise(cls, p, d, rng):
    """cls.census against classify_point_detail at every point, for the
    whole batch and for each row alone.  Rows: random, p * tau, the zero
    row, and rows through a point of each degree, on the divisor and
    singular on the fiber there."""
    fib = cls.fiber
    rows = [rng.integers(0, p * p, size=cls.h) for _ in range(8)]
    rows += [p * rng.integers(0, p, size=cls.h) for _ in range(4)]
    rows.append(np.zeros(cls.h, dtype=np.int64))
    singular = []
    for _, _, tangent, value_p2 in cls._runs:          # the first point of each run
        rows.append(_rows_through(value_p2[0], tangent[0], p, rng, False))
        singular += [len(rows), len(rows) + 1]
        rows += [_rows_through(value_p2[0], tangent[0], p, rng, True)
                 for _ in range(2)]
    batch = np.array(rows, dtype=np.int64)
    any_arith, any_fiber, rescued = cls.census(batch)
    total_rescued = 0
    for j, coeffs in enumerate(rows):
        sec = HomogeneousForm(fib.n, d, tuple(int(c) for c in coeffs))
        verdicts = [classify_point_detail(sec, x, fib) for x in cls.points]
        arith = any(a == "SingularPoint" for a, _ in verdicts)
        fiber = any(f == "SingularPoint" for _, f in verdicts)
        row_rescued = sum(f == "SingularPoint" and a != "SingularPoint"
                          for a, f in verdicts)
        assert (any_arith[j], any_fiber[j]) == (arith, fiber)
        single = cls.census(batch[j:j + 1])
        assert (single[0][0], single[1][0], single[2]) == (arith, fiber, row_rescued)
        total_rescued += row_rescued
    assert rescued == total_rescued > 0
    assert any_arith.any() and not any_fiber.all() and any_fiber[singular].all()


# (scheme, p, r, d) -> digits per packed value row k, and value rows: every
# point takes as many value rows as a point of the top degree needs
_PACKING_EDGES = {
    # R = 57, k = 3: degrees 4 and 5 need two value rows, e_max = 5 is no
    # multiple of k
    ("conic", 3, 5, 6): (3, 2 * (4 + 3 + 8 + 18 + 48)),
    # p = 2: digits {0, 1}, sums in [0, h], R = h + 1 = 11; two tangent
    # vectors per point
    ("P2", 2, 3, 3): (3, 7 + 7 + 22),
    # R = 121, k = 2: two value rows, four slots; a degree-1 point folds
    # both its tangent digits, across the two rows, a degree-2 point two
    # of its four and a degree-3 point one of its six, in its second row
    ("P2", 2, 3, 14): (2, 2 * (7 + 7 + 22)),
    # R = 15 * 128 * 256 + 1 = 491,521: one digit sum per value row
    ("P1", 257, 1, 14): (1, 258),
    # R = 2 * 515 * 1030 + 1 > 2^20: no table, int64 remainders; p^2 > 2^20
    # also leaves the rows to an int64 reduction
    ("P1", 1031, 1, 1): (0, 1032),
    # the elliptic fiber mod 3: R = 21, k = 4, degree 5 needs two rows
    ("elliptic", 3, 5, 3): (4, 2 * (4 + 6 + 8 + 12 + 48)),
}


@pytest.mark.parametrize("name, p, r, d", [("conic", 3, 5, 6), ("P2", 2, 3, 3),
                                           ("P2", 2, 3, 14),
                                           ("P1", 257, 1, 14), ("P1", 1031, 1, 1),
                                           ("elliptic", 3, 5, 3)])
def test_padded_census_matches_pointwise_definition(p1, p2, conic, elliptic,
                                                    name, p, r, d):
    """The packed value pass against classify_point_detail at every point,
    at the edges of the packing: value slots filled with tangent digits
    and then zeros, partly folded runs with two tangent vectors, p = 2,
    one digit per row, the int64 path of a prime past the table, and the
    elliptic fiber."""
    fib = {"P1": p1, "P2": p2, "conic": conic, "elliptic": elliptic}[name].fiber(p)
    cls = FiberClassifier(fib, d, fib.closed_points_up_to(r))
    # one pair-pass run per degree, m tangent blocks of e digits per point
    assert [value_p2.shape[2] for _, _, _, value_p2 in cls._runs] == list(range(1, r + 1))
    assert {tangent.shape[2] // value_p2.shape[2]
            for _, _, tangent, value_p2 in cls._runs} == {fib.m}
    k, value_rows = _PACKING_EDGES[name, p, r, d]
    assert cls._pack == k and (cls._table is None) == (k == 0)
    # float32 rows exactly when they are packed under a table
    assert cls._values.dtype == (np.float64 if k == 0 else np.float32)
    assert len(cls._values) == value_rows
    _check_pointwise(cls, p, d, np.random.default_rng(11))


@pytest.mark.parametrize("name, p, r, d", [("conic", 3, 4, 3), ("P2", 2, 3, 3)])
def test_unpacked_census_matches_pointwise_definition(p2, conic, monkeypatch,
                                                      name, p, r, d):
    """With the table cap at 0, the conic mod 3 and P^2 mod 2 take the
    unpacked float64 path (one value row per digit, rows reduced by
    remainders), against the pointwise definition."""
    monkeypatch.setattr(fiberlab, "_RESIDUE_TABLE_CAP", 0)
    fib = {"P2": p2, "conic": conic}[name].fiber(p)
    cls = FiberClassifier(fib, d, fib.closed_points_up_to(r))
    assert cls._pack == 0 and cls._table is None and cls._residues is None
    # one value row per digit, r for every point: the value rows of a point
    # of lower degree, then whole rows of its tangent digits, then zeros
    assert len(cls._values) == r * len(cls.points)
    _check_pointwise(cls, p, d, np.random.default_rng(12))


# (scheme, p, r, d) -> the degrees whose m e tangent digits all fit next to
# their e value digits in a point's value slots, and per other degree how
# many of them do
_FOLDS = {
    # k = 3, two value rows: six slots per point
    ("conic", 3, 5, 6): ({1, 2, 3}, {4: 2, 5: 1}),
    # R = 15, k = 5: one value row of five slots
    ("P1", 3, 5, 6): ({1, 2}, {3: 2, 4: 1, 5: 0}),
    # m = 2, R = 11, k = 3: three slots
    ("P2", 2, 3, 3): ({1}, {2: 1, 3: 0}),
}


@pytest.mark.parametrize("name, p, r, d", sorted(_FOLDS))
def test_value_pass_folds_tangent_conditions(p1, p2, conic, monkeypatch,
                                             name, p, r, d):
    """Each point's value slots hold its balanced value digit sums, then
    as many of its balanced tangent digit sums as fit, and are zero only
    past (m + 1) e.  So the value pass hands the pair pass's tangent test
    only pairs that meet the folded tangent conditions: every pair of a
    fully folded run is singular on the fiber there.  The rows include,
    per run, rows through its first point that are on the divisor only,
    and rows that also meet the folded conditions only."""
    fib = {"P1": p1, "P2": p2, "conic": conic}[name].fiber(p)
    cls = FiberClassifier(fib, d, fib.closed_points_up_to(r))
    k, spread, _ = fiberlab._packing(p, cls.h, r)
    width = max(k, 1)
    slots = len(cls._values) // len(cls.points) * width
    values = cls._values.reshape(-1, len(cls.points), cls.h)
    full, partial = _FOLDS[name, p, r, d]
    folds, first = {}, 0
    for run, value_p2, tangent in fiberlab._point_jets(fib, cls.points, d):
        e, size = run[0].degree, len(run)
        folds[e] = min(fib.m * e, slots - e)
        assert (e in full) == (folds[e] == fib.m * e)
        assert partial.get(e, folds[e]) == folds[e]
        digits = np.zeros((size, cls.h, slots), dtype=np.int64)
        digits[..., :e] = value_p2 % p
        digits[..., e:e + folds[e]] = tangent[..., :folds[e]]
        digits = (digits + (p - 1) // 2) % p - (p - 1) // 2
        assert (digits[..., :e + folds[e]] != 0).any(axis=(0, 1)).all()
        packed = digits.reshape(size, cls.h, -1, width) @ spread ** np.arange(width)
        assert (values[:, first:first + size] == packed.transpose(2, 0, 1)).all()
        first += size
    rng = np.random.default_rng(21)
    rows = [rng.integers(0, p * p, size=cls.h) for _ in range(16)]
    rows += [p * rng.integers(0, p, size=cls.h) for _ in range(4)]
    for _, _, tangent, value_p2 in cls._runs:
        e = value_p2.shape[2]
        rows += [_rows_through(value_p2[0], tangent[0][:, :folded], p, rng, True)
                 for folded in (0, folds[e]) for _ in range(4)]
    # the tangent test is the first _pair_sums call of a pair-pass block;
    # the value_p2 test follows when it leaves a pair singular on the fiber
    handed, value_test = [], [False]
    pair_sums = fiberlab._pair_sums

    def recording(a, b):
        out = pair_sums(a, b)
        if value_test[0]:
            value_test[0] = False
        else:
            handed.append(out % p)
            value_test[0] = not (out % p).any(axis=1).all()
        return out

    monkeypatch.setattr(fiberlab, "_pair_sums", recording)
    cls.census(np.array(rows, dtype=np.int64))
    unmet = dict.fromkeys(folds, False)     # some handed pair not fiber-singular
    for sums in handed:
        e = sums.shape[1] // fib.m
        assert not sums[:, :folds[e]].any()
        unmet[e] |= bool(sums.any())
    assert {sums.shape[1] // fib.m for sums in handed} == set(folds)
    assert unmet == {e: e not in full for e in folds}


def test_census_memory_is_bounded(conic):
    """One 1,563-row call on the conic mod 3 (d = 6, r = 5: the chunk of a
    10^5-sample Monte Carlo run) allocates at most 640 KiB above its
    inputs; about 420 KB was measured (the whole-batch residue lookup, the
    grid of candidate pairs, and the pair-pass gathers)."""
    fib = conic.fiber(3)
    cls = FiberClassifier(fib, 6, fib.closed_points_up_to(5))
    rows = np.random.default_rng(3).integers(0, 9, size=(1563, cls.h))
    cls.census(rows)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cls.census(rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 640 * 1024


def test_one_elimination_per_closed_point(conic, elliptic, monkeypatch):
    """A classifier build row-reduces once per closed point: one solve gives
    the point's Newton step and its tangent basis.  81 points on the conic
    mod 3 at r = 5, 51 on E mod 5 at r = 3."""
    calls = []
    reduce = ffield.row_reduce

    def counting(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(ffield, "row_reduce", counting)
    for scheme, p, r, d, count in ((conic, 3, 5, 6, 81), (elliptic, 5, 3, 3, 51)):
        fib = scheme.fiber(p)
        points = fib.closed_points_up_to(r)
        calls.clear()
        FiberClassifier(fib, d, points)
        assert len(points) == len(calls) == count


def test_newton_lift_lands_on_the_scheme(conic, elliptic):
    """lifted_point's lift lies over x.rep, and every defining form
    vanishes mod p^2 there: at the 170 closed points of degree <= 3 on the
    conic and on E mod 3 and 5, and of degree <= 2 on E mod 7."""
    checked = 0
    for scheme, p, r in ((conic, 3, 3), (conic, 5, 3), (elliptic, 3, 3),
                         (elliptic, 5, 3), (elliptic, 7, 2)):
        fib = scheme.fiber(p)
        for x in fib.closed_points_up_to(r):
            ring, lift = lifted_point(fib, x)
            assert tuple(x.field.encode(c) for c in lift) == x.rep
            assert all(g.eval_gr(ring, lift) == ring.zero() for g in fib.forms)
            checked += 1
    assert checked == 170


def test_classifier_builds_one_ring_per_degree_run(p2, conic, monkeypatch):
    """_point_jets lifts every point of a degree run into one GaloisRing,
    takes the Jacobian rows of each point of the conic once (for its
    tangent basis and its Newton step) and none on P^2, which has nothing
    to solve, and the fiber takes the partials of its defining forms
    once."""
    counts = {"ring": 0, "jacobian": 0, "partial": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(GaloisRing, "__init__", counting("ring", GaloisRing.__init__))
    monkeypatch.setattr(SchemeFiber, "jacobian_rows",
                        counting("jacobian", SchemeFiber.jacobian_rows))
    monkeypatch.setattr(HomogeneousForm, "partial",
                        counting("partial", HomogeneousForm.partial))
    for scheme, p, r, d in ((p2, 5, 3, 1), (conic, 3, 5, 6)):
        fib = scheme.fiber(p)
        points = fib.closed_points_up_to(r)
        for key in counts:
            counts[key] = 0
        FiberClassifier(fib, d, points)
        assert counts == {"ring": r, "jacobian": len(points) if fib.forms else 0,
                          "partial": len(fib.forms) * (fib.n + 1)}


@pytest.mark.parametrize("p, d", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (5, 3)])
def test_p1_untruncated_density_is_the_zeta_factor(p1, p, d):
    """At r = d >= 3 no singular point of a section on P^1 escapes the
    census, and the exact density is the local factor
    (1 - p^-2)(1 - p^-3) = 1/zeta_{P^1}(3): 21/32, 208/243, 2976/3125."""
    expected = {2: Fraction(21, 32), 3: Fraction(208, 243), 5: Fraction(2976, 3125)}[p]
    assert expected == projective_zeta_inverse_exact(p, 1, 3)
    assert fiber_density_exhaustive(p1, p, d, d).value == expected


def test_census_without_points(p1):
    """No points (r = 0, or an empty list): every row is regular."""
    fib = p1.fiber(3)
    rows = np.arange(5 * 4, dtype=np.int64).reshape(5, 4) % 9
    for points in ([], fib.closed_points_up_to(0)):
        any_arith, any_fiber, rescued = FiberClassifier(fib, 3, points).census(rows)
        assert not any_arith.any() and not any_fiber.any() and rescued == 0
        assert any_arith.shape == any_fiber.shape == (5,)


def test_unknown_count_rejected(p1):
    with pytest.raises(ValueError):
        fiber_density_exhaustive(p1, 2, 4, 1, count="residue")
    with pytest.raises(ValueError):
        fiber_density_mc(p1, 2, 4, 1, 100, seed=0, count="residue")
    with pytest.raises(ValueError):
        multi_fiber_experiment(4, 100, 3, 1, 100, seed=0,
                               classification="residue")


def test_one_jet_build_per_point(p1, conic, monkeypatch):
    """The census and the certificate share the classifier's jets: one
    _point_jets call per classifier, which builds each point's jet once,
    lifting the points by degree run and never one at a time through
    lifted_point, on P^1 and on the conic, whose points need the Newton
    step."""
    built, lifted = [], []
    point_jets, lift = fiberlab._point_jets, fiberlab.lifted_point

    def counting_jets(fiber, points, d):
        built.append([x.rep for x in points])
        return point_jets(fiber, points, d)

    def counting_lift(fiber, x):
        lifted.append(x.rep)
        return lift(fiber, x)

    monkeypatch.setattr(fiberlab, "_point_jets", counting_jets)
    monkeypatch.setattr(fiberlab, "lifted_point", counting_lift)
    fib = p1.fiber(2)
    points = fib.closed_points_up_to(2)
    assert len(points) == 4
    est = fiber_density_exhaustive(p1, 2, 5, 2)
    assert built == [[x.rep for x in points]] and lifted == []
    assert est.extras["certificate"].target_dim == 3 * 5
    built.clear()
    singular_at_point_proportion(fib, points[0], 3)
    assert built == [[points[0].rep]] and lifted == []
    built.clear()
    fib = conic.fiber(3)
    points = fib.closed_points_up_to(3)
    est = fiber_density_mc(conic, 3, 2, 3, 100, seed=0)
    assert built == [[x.rep for x in points]] and lifted == []
    # classify's single-point lift still goes through lifted_point
    sec = HomogeneousForm.from_monomials(2, 1, [((1, 0, 0), 3)])
    classify_point_detail(sec, points[0], fib)
    assert lifted == [points[0].rep]


def test_unsorted_points_match_sorted(conic, monkeypatch):
    """A shuffled point list gives the census verdicts, the rescued count
    and both certificates of the sorted list, and still one GaloisRing per
    degree: the classifier sorts its points by degree once."""
    fib = conic.fiber(3)
    points = fib.closed_points_up_to(4)
    shuffled = list(points)
    random.Random(5).shuffle(shuffled)
    assert [x.degree for x in shuffled] != sorted(x.degree for x in shuffled)
    ordered = FiberClassifier(fib, 3, points)
    rings = []
    init = GaloisRing.__init__

    def counting(self, *args, **kwargs):
        rings.append(args[0].e)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GaloisRing, "__init__", counting)
    cls = FiberClassifier(fib, 3, shuffled)
    assert rings == [1, 2, 3, 4]
    assert [x.degree for x in cls.points] == [x.degree for x in points]
    rng = np.random.default_rng(9)
    rows = rng.integers(0, 9, size=(600, ordered.h), dtype=np.int64)
    rows[::3] = rows[::3] * 3 % 9          # p * tau: on the divisor everywhere
    expected = ordered.census(rows)
    got = cls.census(rows)
    assert (got[0] == expected[0]).all() and (got[1] == expected[1]).all()
    assert got[2] == expected[2] > 0
    for reading in ("fiber", "arithmetic"):
        assert cls.certificate(reading) == ordered.certificate(reading)


@pytest.mark.parametrize("name, p", [("P1", 2), ("P1", 3), ("P2", 2),
                                     ("conic", 3), ("conic", 5),
                                     ("elliptic", 3), ("elliptic", 5)])
def test_jets_match_form_evaluation(p1, p2, conic, elliptic, name, p):
    """Every jet array of each degree run against HomogeneousForm on each
    monomial, at every closed point of degree <= r (5 on the conic mod 3,
    else 3), the jets built for all those points at once: value_p2 mod p by
    eval_gf at x.rep, value_p2 by eval_gr at the scheme lift (lifted_point,
    one point at a time, against the batched Newton residual of the
    quadric and of the elliptic cubic), each tangent block by
    sum_j t_j * partial_j(sigma)(x) over all coordinates j, t_j = 0 at the
    chart coordinate."""
    fib = {"P1": p1, "P2": p2, "conic": conic, "elliptic": elliptic}[name].fiber(p)
    r = 5 if (name, p) == ("conic", 3) else 3
    points = fib.closed_points_up_to(r)
    assert max(x.degree for x in points) == r
    for d in (1, 2, 3):
        monomials = [HomogeneousForm.from_monomials(fib.n, d, [(exps, 1)])
                     for exps in monomial_basis(fib.n, d)]
        runs = fiberlab._point_jets(fib, points, d)
        assert [x for run, _, _ in runs for x in run] == points
        assert [run[0].degree for run, _, _ in runs] == list(range(1, r + 1))
        for run, value_p2, jet_tangent in runs:
            assert value_p2.shape == (len(run), len(monomials), run[0].degree)
            for x, values, jet in zip(run, value_p2, jet_tangent):
                fld = x.field
                ring, lift = lifted_point(fib, x)
                tangent = fib.tangent_space(x, [0] * len(fib.forms))[1]
                assert all(vec[x.chart()] == 0 for vec in tangent)
                assert jet.shape == (len(monomials), len(tangent) * x.degree)
                for k, mono in enumerate(monomials):
                    assert list(values[k] % p) == fld.decode(mono.eval_gf(fld, x.rep))
                    assert tuple(values[k]) == mono.eval_gr(ring, lift)
                    for t, vec in enumerate(tangent):
                        acc = 0
                        for j, tj in enumerate(vec):
                            acc = fld.add(acc, fld.mul(tj, mono.partial(j).eval_gf(fld, x.rep)))
                        block = jet[k, t * x.degree:(t + 1) * x.degree]
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
        sec = HomogeneousForm(2, d, tuple(coeffs))
        verdicts = [classify_point_detail(sec, x, cls.fiber) for x in cls.points]
        row_rescued = sum(f == "SingularPoint" and a != "SingularPoint"
                          for a, f in verdicts)
        assert any_arith[j] == any(a == "SingularPoint" for a, _ in verdicts)
        assert any_fiber[j] == any(f == "SingularPoint" for _, f in verdicts)
        assert cls.census(batch[j:j + 1])[2] == row_rescued
        total_rescued += row_rescued
    assert rescued == total_rescued
