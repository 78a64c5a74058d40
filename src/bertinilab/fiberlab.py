"""Mod-p^2 section spaces and the three-way point classification:
off the divisor, regular, or singular in the arithmetic sense.

A section sigma over Z/p^2 is singular at a closed point x of the fiber
exactly when its local equation falls into the square of the maximal
ideal at x.  Concretely, with the point scaled so the chart coordinate
is 1 and lifted to the Galois ring GR(p^2, deg x):

* the value of sigma at the lift must vanish mod p^2, and
* every tangential derivative along the fiber must vanish mod p.

The classification therefore refines the residue-field smoothness test:
a point where the fiber divisor is singular can still be arithmetically
regular when the lifted value is p times a unit (the "rescue" case),
which is what separates the mod-p^2 theory from the finite-field one.

Densities of sections avoiding singular points are measured exactly (by
exhaustive enumeration) or by seeded Monte Carlo, against truncated
inverse zeta references, and the exact product formula is asserted only
under a computed jet-surjectivity certificate.  Every density is read in
one of two ways: "arithmetic" (sections mod p^2, singular in the sense
above) or "fiber" (the reductions over F_p, singular on the fiber).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, log10

import numpy as np

from .ffield import (GF, GaloisRing, image_size_mod_p2, matrix_rank,
                     solve_linear)
from .projgeom import (BudgetExceeded, ClosedPoint, HomogeneousForm,
                       ProjectiveScheme, SchemeFiber, monomial_basis)
from .zetas import (ZetaTruncation, closed_point_counts, local_zeta_inverse,
                    truncation_exponent)
from . import sampling

NOT_ON_DIVISOR = "NotOnDivisor"
REGULAR = "RegularPoint"
SINGULAR = "SingularPoint"
SMOOTH = "SmoothPoint"

EXHAUSTIVE_BUDGET = 1 << 26
# the longest integer a report may print, in decimal digits.  Reports print
# long integers through decimal, which sys.set_int_max_str_digits does not
# limit, so check_digits is the guard.
DIGIT_CAP = 2_000_000
_CHUNK = 1 << 14


@dataclass(frozen=True)
class SectionModP2:
    """A degree-d form with coefficients in Z/p^2."""

    form: HomogeneousForm
    p: int

    def __post_init__(self):
        if self.form.modulus != self.p ** 2:
            object.__setattr__(self, "form", self.form.reduce(self.p ** 2))

    @property
    def d(self):
        return self.form.d

    def reduction(self) -> HomogeneousForm:
        return HomogeneousForm(self.form.n, self.form.d, self.form.coeffs, self.p)


def lifted_point(fiber: SchemeFiber, x: ClosedPoint, chart: int | None = None,
                 conjugate: int = 0, perturbation=None):
    """Chart-normalized lift of x into GR(p^2, deg x), landed on the scheme.

    The coordinates are scaled so the chart coordinate is exactly 1,
    lifted digit-wise, then (when the scheme has defining forms) moved by
    one Newton step so every defining form vanishes mod p^2.  An optional
    perturbation (a field vector, applied as + p * delta) exercises the
    lift-independence of downstream classifications.
    """
    fld = x.field
    ring = GaloisRing(fiber.p, x.degree, fld)
    chart = x.chart() if chart is None else chart
    coords = x.orbit[conjugate]
    scaled = fiber._scaled_coords(fld, coords, chart)
    lift = [ring.lift(c) for c in scaled]
    if fiber.forms:
        tangent_cols = [j for j in range(fiber.n + 1) if j != chart]
        jac = fiber.jacobian_rows(fiber.forms, fld, scaled, chart)
        rhs = []
        for g in fiber.scheme.defining_forms:
            v = g.reduce(ring.p2).eval_gr(ring, lift)
            rhs.append(fld.neg(ring.divide_by_p(v)))
        delta = solve_linear(jac, rhs, len(tangent_cols), fld)
        for j, col in enumerate(tangent_cols):
            lift[col] = ring.add(lift[col], ring.mul_int(ring.lift(delta[j]), fiber.p))
    if perturbation is not None:
        for j in range(fiber.n + 1):
            if perturbation[j]:
                lift[j] = ring.add(lift[j],
                                   ring.mul_int(ring.lift(perturbation[j]), fiber.p))
    return ring, tuple(lift)


def classify_point_detail(section: SectionModP2, x: ClosedPoint, fiber: SchemeFiber,
                          chart: int | None = None, conjugate: int = 0,
                          perturbation=None):
    """(arithmetic classification, residue-field classification) at x."""
    if section.form.n != fiber.n:
        raise ValueError("section and scheme live on different projective spaces")
    fld = x.field
    coords = x.orbit[conjugate]
    sigma_p = section.reduction()
    if sigma_p.eval_gf(fld, coords) != 0:
        return NOT_ON_DIVISOR, NOT_ON_DIVISOR
    fiber_status = fiber.divisor_smooth_at(sigma_p, x, chart=chart, conjugate=conjugate)
    if fiber_status == SMOOTH:
        return REGULAR, SMOOTH
    ring, lift = lifted_point(fiber, x, chart=chart, conjugate=conjugate,
                              perturbation=perturbation)
    value = section.form.eval_gr(ring, lift)
    unit_over_p = ring.divide_by_p(value)   # sigma on the divisor: p | value
    arith = REGULAR if unit_over_p != 0 else SINGULAR
    return arith, fiber_status


def classify_point(section: SectionModP2, x: ClosedPoint, fiber: SchemeFiber,
                   **kwargs) -> str:
    """Arithmetic classification of x on div(section): off / regular / singular."""
    return classify_point_detail(section, x, fiber, **kwargs)[0]


# ----------------------------------------------------------------------
# Truncated products, tail bounds.


def reading_exponent(m: int, reading: str) -> int:
    """The zeta exponent s of a reading on a fiber of dimension m.

    s = m + 2 for the arithmetic reading (sections mod p^2: the paper's
    zeta(1 + dim) on a model of absolute dimension m + 1) and s = m + 1
    for the fiber reading (sections over F_p, Poonen's finite-field
    Bertini theorem).
    """
    if reading == "arithmetic":
        return m + 2
    if reading == "fiber":
        return m + 1
    raise ValueError(f"unknown reading {reading!r}")


def reference_truncation(fiber: SchemeFiber, r: int, reading: str) -> ZetaTruncation:
    """prod over closed points of degree <= r of (1 - p^{-s deg x}), with its
    tail bound: the reference of every density in the given reading."""
    return local_zeta_inverse(fiber.point_table(r),
                              reading_exponent(fiber.m, reading), r, fiber.m)


def check_digits(tables, s: int, r: int):
    """Refuse, before computing it, the product of the depth-r truncations
    at s of the point tables ``tables`` when its denominator
    prod_p p^(sum_{e <= r} s e a_e) has DIGIT_CAP or more decimal digits."""
    exponents = [(t.p, truncation_exponent(closed_point_counts(t), s, r)) for t in tables]
    if sum(x * log10(p) for p, x in exponents) >= DIGIT_CAP:
        powers = " * ".join(f"{p}^{x}" for p, x in exponents)
        raise BudgetExceeded(f"the truncation's denominator {powers} "
                             f"has more than {DIGIT_CAP} digits")


def medium_degree_tail_bound(c0: Fraction, p: int, r: int,
                             reading: str = "arithmetic") -> Fraction:
    """Tolerance band for points of degree beyond the truncation.

    Arithmetic reading: 2 c0 p^{-2(r+1)}; fiber reading: 2 c0 p^{-r}.
    """
    if c0 < 0:
        raise ValueError("c0 must be nonnegative")
    arithmetic = reading_exponent(0, reading) == 2     # s - m: 2 or 1
    return 2 * c0 * Fraction(1, p ** (2 * (r + 1) if arithmetic else r))


# ----------------------------------------------------------------------
# Jet matrices and the surjectivity certificate.


@dataclass(frozen=True)
class SurjectivityCertificate:
    mode: str               # "fiber" or "arithmetic"
    surjective: bool
    source_dim: int         # number of form coefficients
    target_dim: int         # F_p-dimension (fiber) / log_p of target size
    rank: int | None = None         # fiber mode
    image_size: int | None = None   # arithmetic mode
    target_size: int | None = None

    def as_report(self):
        return {k: v for k, v in self.__dict__.items() if v is not None}


def _monomial_values(ring: GaloisRing, point, basis, d: int) -> np.ndarray:
    """h x e digits of every monomial of ``basis`` (degree d) at a ring point."""
    powers = []
    for c in point:
        row = [ring.one()]
        for _ in range(d):
            row.append(ring.mul(row[-1], c))
        powers.append(row)
    out = np.zeros((len(basis), ring.e), dtype=np.int64)
    for k, exps in enumerate(basis):
        v = ring.one()
        for i, ex in enumerate(exps):
            v = ring.mul(v, powers[i][ex])
        out[k] = v
    return out


class _PointJet:
    """Per-point evaluation data for all degree-d monomials, read off the
    Galois ring at the scheme lift x~ of x.

    value_p2: h x e digits of the values at x~, mod p^2;
    value_p: the same digits mod p, the values over the residue field;
    tangent: h x (m*e) digits of the tangential derivatives mod p, one
    block per tangent vector t, from sigma(x~ + p t) - sigma(x~) = p dsigma(t).
    """

    def __init__(self, fiber: SchemeFiber, x: ClosedPoint, d: int):
        p = fiber.p
        chart = x.chart()
        basis = monomial_basis(fiber.n, d)
        tangent = fiber.tangent_basis(x)             # rejects singular fiber points
        ring, lift = lifted_point(fiber, x, chart=chart)
        e = x.degree
        v2 = _monomial_values(ring, lift, basis, d)
        tg = np.zeros((len(basis), len(tangent) * e), dtype=np.int64)
        for t, vec in enumerate(tangent):
            shift = list(vec)
            shift.insert(chart, 0)                  # tangent vectors skip the chart
            _, moved = lifted_point(fiber, x, chart=chart, perturbation=shift)
            tg[:, t * e:(t + 1) * e] = \
                (_monomial_values(ring, moved, basis, d) - v2) % ring.p2 // p
        self.x = x
        self.e = e
        self.m = len(tangent)
        self.value_p = v2 % p
        self.value_p2 = v2
        self.tangent = tg


# ----------------------------------------------------------------------
# Density estimates.


@dataclass
class DensityEstimate:
    """An exact or Monte Carlo density with its reference value."""

    mode: str                     # "exact" or "montecarlo"
    value: Fraction | float
    hits: int | None = None
    total: int | None = None
    mean: float | None = None
    samples: int | None = None
    seed: int | None = None
    ci_halfwidth: float | None = None
    reference_value: Fraction | None = None
    reference_error: Fraction | None = None
    extras: dict = field(default_factory=dict)

    @classmethod
    def monte_carlo(cls, hits: int, samples: int, seed: int,
                    reference_value: Fraction, reference_error: Fraction,
                    extras: dict) -> "DensityEstimate":
        """Mean hits / samples with its 99 percent normal halfwidth."""
        mean = hits / samples
        return cls(mode="montecarlo", value=mean, mean=mean, samples=samples,
                   seed=seed,
                   ci_halfwidth=sampling.confidence_halfwidth(mean, samples),
                   reference_value=reference_value,
                   reference_error=reference_error, extras=extras)

    def as_report(self):
        doc = {"mode": self.mode}
        if self.mode == "exact":
            doc.update(hits=self.hits, total=self.total,
                       value_num=self.value.numerator,
                       value_den=self.value.denominator)
        else:
            doc.update(mean=self.mean, samples=self.samples, seed=self.seed,
                       ci_halfwidth=self.ci_halfwidth)
        if self.reference_value is not None:
            doc.update(reference_num=self.reference_value.numerator,
                       reference_den=self.reference_value.denominator)
        if self.reference_error is not None:
            doc.update(reference_error_num=self.reference_error.numerator,
                       reference_error_den=self.reference_error.denominator)
        doc.update({k: (v.as_report() if hasattr(v, "as_report") else v)
                    for k, v in self.extras.items()})
        return doc


class FiberClassifier:
    """Vectorized classification of many sections at the given closed points.

    Callers pass ``fiber.closed_points_up_to(r)`` for a degree-<= r census
    or ``[x]`` for a single point; the points must be pairwise distinct.
    Rows are coefficient vectors mod p^2; ``any_fiber`` depends only on
    the rows mod p, so a census of forms over F_p passes their digit lifts.
    The jets built here also give the surjectivity ``certificate``.
    """

    def __init__(self, fiber: SchemeFiber, d: int, points):
        self.fiber = fiber
        self.d = d
        self.p = fiber.p
        self.p2 = fiber.p ** 2
        self.h = comb(fiber.n + d, fiber.n)
        if self.h * (self.p2 - 1) ** 2 >= 1 << 63:
            raise BudgetExceeded(f"int64 census of {self.h} coefficients mod "
                                 f"{self.p2} could overflow")
        reps = [(x.degree, x.rep) for x in points]
        if len(set(reps)) != len(reps):
            raise ValueError("points must be pairwise distinct closed points")
        self.points = points
        self.jets = [_PointJet(fiber, x, d) for x in points]

    def certificate(self, reading: str) -> SurjectivityCertificate:
        """Certificate that degree-d forms surject onto the first-order jets
        at the classifier's points.

        The fiber reading restricts sections over F_p to the infinitesimal
        neighborhoods inside the fiber ((m+1) deg x target length per
        point); the arithmetic reading restricts sections over Z/p^2
        ((m+2) deg x, counted as p-length, per point).  Surjectivity is
        what turns the singularity events at the points into exact
        independent probabilities.
        """
        target_dim = reading_exponent(self.fiber.m, reading) * \
            sum(j.e for j in self.jets)
        fiber_reading = reading == "fiber"
        rows = []
        for j in self.jets:
            values = j.value_p if fiber_reading else j.value_p2
            tangent = j.tangent if fiber_reading else self.p * j.tangent
            rows += np.hstack([values, tangent]).T.tolist()
        if fiber_reading:
            rank = matrix_rank(rows, GF(self.p))
            return SurjectivityCertificate("fiber", rank == target_dim, self.h,
                                           target_dim, rank=rank)
        image = image_size_mod_p2(rows, self.h, self.p)
        target_size = self.p ** target_dim
        return SurjectivityCertificate("arithmetic", image == target_size, self.h,
                                       target_dim, image_size=image,
                                       target_size=target_size)

    def census(self, rows: np.ndarray):
        """Classify each coefficient row (mod p^2) at every point.

        Returns per-section boolean arrays (any arithmetic singular
        point, any fiber-singular point) and the total point-level
        rescue count across the batch.
        """
        n = rows.shape[0]
        any_arith = np.zeros(n, dtype=bool)
        any_fiber = np.zeros(n, dtype=bool)
        rescued_points = 0
        rows_p = rows % self.p
        for jet in self.jets:
            vals_p = rows_p @ jet.value_p % self.p
            on_div = ~vals_p.any(axis=1)
            idx = np.nonzero(on_div)[0]
            if idx.size == 0:
                continue
            sub = rows[idx]
            tangential = sub @ jet.tangent % self.p
            fiber_sing = ~tangential.any(axis=1)
            vals_p2 = sub @ jet.value_p2 % self.p2
            arith_sing = fiber_sing & ~vals_p2.any(axis=1)
            any_fiber[idx[fiber_sing]] = True
            any_arith[idx[arith_sing]] = True
            rescued_points += int(fiber_sing.sum()) - int(arith_sing.sum())
        return any_arith, any_fiber, rescued_points


def _enumerate_rows(h, modulus, start, stop):
    idx = np.arange(start, stop, dtype=np.int64)
    rows = np.empty((stop - start, h), dtype=np.int64)
    for k in range(h):
        rows[:, k] = idx // (modulus ** k) % modulus
    return rows


def _census_size(h: int, modulus: int) -> int:
    """Number of coefficient vectors mod ``modulus``, within the budget."""
    total = modulus ** h
    if total > EXHAUSTIVE_BUDGET:
        raise BudgetExceeded(f"{total} sections exceed the exhaustive budget")
    return total


def _exhaustive_census(cls: FiberClassifier, modulus: int):
    """Census of every coefficient vector mod ``modulus`` (p or p^2).

    Returns the number of sections with no arithmetically singular point,
    the number with no fiber-singular point, and the rescued point count.
    """
    total = modulus ** cls.h
    hits_arith = 0
    hits_fiber = 0
    rescued = 0
    for start in range(0, total, _CHUNK):
        rows = _enumerate_rows(cls.h, modulus, start, min(start + _CHUNK, total))
        any_arith, any_fiber, resc = cls.census(rows)
        hits_arith += int((~any_arith).sum())
        hits_fiber += int((~any_fiber).sum())
        rescued += resc
    return hits_arith, hits_fiber, rescued


def fiber_density_exhaustive(scheme, p: int, d: int, r: int,
                             count: str = "arithmetic") -> DensityEstimate:
    """Exact census of sections mod p^2 with no singular point of degree <= r.

    The reference is the truncated product of the reading ``count``
    (``reference_truncation``); equality with the census is asserted
    (flag ``certified_equal``) exactly when the computed jet map is
    surjective.  ``count="fiber"`` censuses the residue-field singularity
    of the reductions instead.
    """
    fiber = scheme.fiber(p)
    total = _census_size(comb(fiber.n + d, fiber.n), p * p)
    fiber.check_census(r)
    reference = reference_truncation(fiber, r, count).value
    cls = FiberClassifier(fiber, d, fiber.closed_points_up_to(r))
    hits_arith, hits_fiber, rescued = _exhaustive_census(cls, p * p)
    certificate = cls.certificate(count)
    hits = hits_arith if count == "arithmetic" else hits_fiber
    value = Fraction(hits, total)
    return DensityEstimate(
        mode="exact", value=value, hits=hits, total=total,
        reference_value=reference, reference_error=Fraction(0),
        extras={
            "certificate": certificate,
            "certified_equal": certificate.surjective and value == reference,
            "rescued_points": rescued,
            "count": count,
            "no_fiber_singular_hits": hits_fiber,
            "no_arith_singular_hits": hits_arith,
        })


def fiber_density_mc(scheme, p: int, d: int, r: int, samples: int, seed: int,
                     count: str = "arithmetic") -> DensityEstimate:
    """Monte Carlo density of sections mod p^2 with no singular point of degree <= r.

    Coefficients are i.i.d. uniform over Z/p^2; the reference is the
    truncated local inverse zeta value with its tail bound.  Identical
    seed and configuration give bit-identical results.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    fiber = scheme.fiber(p)
    fiber.check_census(r)
    reference = reference_truncation(fiber, r, count)
    streams = sampling.chunks(seed, samples)
    cls = FiberClassifier(fiber, d, fiber.closed_points_up_to(r))
    hits = 0
    rescued = 0
    for rng, size in streams:
        rows = sampling.uniform_residues(rng, size, cls.h, cls.p2)
        any_arith, any_fiber, resc = cls.census(rows)
        hits += int((~(any_arith if count == "arithmetic" else any_fiber)).sum())
        rescued += resc
    return DensityEstimate.monte_carlo(
        hits, samples, seed, reference.value, reference.error_bound,
        extras={"rescued_points": rescued, "count": count, "p": p, "d": d, "r": r})


def singular_at_point_proportion(fiber: SchemeFiber, x: ClosedPoint,
                                 d: int) -> DensityEstimate:
    """Exact proportion of degree-d forms over F_p whose divisor is singular at x.

    Exhaustive over all p^h coefficient vectors; under the single-point
    fiber-reading surjectivity certificate this equals p^{-(m+1) deg x},
    one over p to the certificate's target dimension.
    """
    p = fiber.p
    total = _census_size(comb(fiber.n + d, fiber.n), p)
    cls = FiberClassifier(fiber, d, [x])
    _, smooth, _ = _exhaustive_census(cls, p)
    hits = total - smooth
    certificate = cls.certificate("fiber")
    expected = Fraction(1, p ** certificate.target_dim)
    return DensityEstimate(
        mode="exact", value=Fraction(hits, total), hits=hits, total=total,
        reference_value=expected, reference_error=Fraction(0),
        extras={"certificate": certificate,
                "certified_equal": certificate.surjective
                and Fraction(hits, total) == expected})


def squarefree_binary_census(p: int, d: int):
    """Exact count of degree-d binary forms over F_p with squarefree divisor.

    A repeated factor of a nonzero form has degree <= d/2, so the census
    runs at the points of P^1 of degree <= max(1, d // 2); the zero form
    is singular at every rational point.  Returns (hits, p^(d+1)).
    """
    total = _census_size(d + 1, p)
    fiber = ProjectiveScheme(1, 1).fiber(p)
    cls = FiberClassifier(fiber, d, fiber.closed_points_up_to(max(1, d // 2)))
    _, hits, _ = _exhaustive_census(cls, p)
    return hits, total
