"""Mod-p^2 section spaces and the three-way point classification:
off the divisor, regular, or singular in the arithmetic sense.

A section sigma over Z/p^2 is singular at a closed point x of the fiber
exactly when its local equation falls into the square of the maximal
ideal at x.  Concretely, at the normalized representative of x (chart
coordinate 1), lifted to the Galois ring GR(p^2, deg x):

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
from itertools import groupby
from math import comb

import numpy as np

from .ffield import GF, GaloisRing, image_size_mod_p2, matrix_rank
from .projgeom import (NOT_ON_DIVISOR, SINGULAR, SMOOTH, BudgetExceeded,
                       ClosedPoint, HomogeneousForm, ProjectiveScheme,
                       SchemeFiber, monomial_basis)
from .zetas import ZetaTruncation, local_zeta_inverse
from . import sampling

REGULAR = "RegularPoint"

EXHAUSTIVE_BUDGET = 1 << 26
_CHUNK = 1 << 14
# entries of one census value-pass block (packed value rows x rows); the
# largest divisibility table, one byte per packed value: k value or
# tangent digit sums of spread R share a value row while R^k stays within
# it, which must stay <= 2^24 for the float32 value pass to be exact; and
# the gathered digits of one pair-pass block
_VALUE_BLOCK = 1 << 14
_RESIDUE_TABLE_CAP = 1 << 20
_PAIR_BLOCK = 1 << 16


def lifted_point(fiber: SchemeFiber, x: ClosedPoint):
    """Lift of x.rep (chart coordinate 1) into GR(p^2, deg x), landed on
    the scheme: digit-wise, then the Newton step of ``tangent_space`` so
    every defining form vanishes mod p^2.  The census lifts a degree run
    at a time in ``_point_jets``; this is the lift of one point, for
    ``classify_point_detail``."""
    fld = x.field
    ring = GaloisRing(fld)
    lift = [ring.lift(c) for c in x.rep]
    rhs = [fld.neg(ring.divide_by_p(g.eval_gr(ring, lift))) for g in fiber.forms]
    step = fiber.tangent_space(x, rhs)[0]
    return ring, tuple(ring.add(c, ring.mul_int(ring.lift(s), fiber.p))
                       for c, s in zip(lift, step))


def classify_point_detail(form: HomogeneousForm, x: ClosedPoint, fiber: SchemeFiber):
    """(arithmetic classification, residue-field classification) at x of the
    section mod p^2 that the integer form ``form`` defines, read at x.rep in
    its chart; the fiber test reads it mod p, the lifted value mod p^2."""
    if form.n != fiber.n:
        raise ValueError("section and scheme live on different projective spaces")
    fiber_status = fiber.divisor_smooth_at(form, x)
    if fiber_status == NOT_ON_DIVISOR:
        return NOT_ON_DIVISOR, NOT_ON_DIVISOR
    if fiber_status == SMOOTH:
        return REGULAR, SMOOTH
    ring, lift = lifted_point(fiber, x)
    unit_over_p = ring.divide_by_p(form.eval_gr(ring, lift))   # sigma on the divisor: p | value
    return (REGULAR if unit_over_p != 0 else SINGULAR), fiber_status


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


def _monomial_values(ring: GaloisRing, coords: np.ndarray, basis: np.ndarray,
                     d: int) -> np.ndarray:
    """Digits of every monomial of ``basis`` (degree d, one exponent row per
    monomial) at ring points: coords (..., n + 1, e) -> values (..., h, e)."""
    one = np.zeros(ring.e, dtype=np.int64)
    one[0] = 1
    powers = [np.broadcast_to(one, coords.shape), coords]
    for _ in range(d - 1):
        powers.append(ring.mul_arrays(powers[-1], coords))
    powers = np.stack(powers, axis=-2)              # (..., n + 1, k, e): x_j^k
    out = powers[..., 0, basis[:, 0], :]
    for j in range(1, basis.shape[1]):
        out = ring.mul_arrays(out, powers[..., j, basis[:, j], :])
    return out


def _point_jets(fiber: SchemeFiber, points, d: int) -> list:
    """Evaluation data for all degree-d monomials at the points, read off
    the Galois ring at the scheme lift x~ of each point: one
    (run, value_p2, tangent) per run of points of equal degree e, in order.

    value_p2: (K, h, e) digits of the values at the K lifts x~, mod p^2;
    their reductions mod p are the values over the residue field.
    tangent: (K, h, m e) digits of the tangential derivatives mod p, one
    block per tangent vector t, from sigma(x~ + p t) - sigma(x~) = p dsigma(t).

    Each point is read in the chart of x.rep, whose chart coordinate is
    already 1.  The run shares one ring GR(p^2, e): the residuals g(x^)/p
    of the defining forms at the digit lifts x^ of all its points are one
    ``_monomial_values`` evaluation per form degree, and one solve per
    point (``tangent_space``) gives both its Newton step delta, with
    J delta = -g(x^)/p as in ``lifted_point``, and its tangent basis.  On
    P^n (no forms, m = n) there is nothing to solve: delta is 0 and the
    basis is the unit vectors off the chart, one frame per chart.  The
    scheme lifts x~ = x^ + p delta and the lifts x~ + p t along the
    tangent vectors t are one numpy sum over the run, and the monomial
    values at all of them are numpy products in the ring.
    """
    p, p2 = fiber.p, fiber.p ** 2
    basis = np.array(monomial_basis(fiber.n, d), dtype=np.int64)
    # on P^n, per chart c: the step 0 and the unit vectors off c, in the
    # encodings 0 and 1 of the field elements
    eye = np.eye(fiber.n + 1, dtype=np.int64)
    chart_frames = np.array([[0 * eye[0], *np.delete(eye, c, axis=0)]
                             for c in range(fiber.n + 1)])
    runs = []
    for e, run in groupby(points, key=lambda x: x.degree):
        run = list(run)
        fld = run[0].field
        ring = GaloisRing(fld)
        digits = fld.digit_array().astype(np.int64)
        lifts = digits[np.array([x.rep for x in run], dtype=np.int64)]  # (K, n + 1, e)
        if not fiber.forms and fiber.m == fiber.n:
            frame = chart_frames[[x.chart() for x in run]]
        else:
            # the right-hand sides -g(x^)/p of the Newton steps, negated digit
            # by digit mod p: elements of GF(p^e) in its base-p encoding
            residuals = _form_values(ring, lifts, fiber.forms) // p
            rhs = (-residuals % p @ p ** np.arange(e)).tolist()
            # per point its step delta and tangent vectors t, (K, 1 + m, n + 1);
            # tangent_space rejects singular fiber points and a wrong m
            frame = np.array([[step, *tangent] for step, tangent in (
                fiber.tangent_space(x, row) for x, row in zip(run, rhs))], dtype=np.int64)
        moves = p * digits[frame]                       # (K, 1 + m, n + 1, e)
        moves[:, 1:] += moves[:, :1]                # p (delta + t)
        values = _monomial_values(ring, (lifts[:, None] + moves) % p2,
                                  basis, d)         # (K, 1 + m, h, e): x~, x~ + p t
        value_p2 = values[:, 0]
        tangent = (values[:, 1:] - value_p2[:, None]) % p2 // p
        runs.append((run, value_p2,
                     tangent.transpose(0, 2, 1, 3).reshape(len(run), len(basis), -1)))
    return runs


def _form_values(ring: GaloisRing, coords: np.ndarray, forms) -> np.ndarray:
    """Digits of every form of ``forms`` at ring points, its coefficients
    read mod p^2: coords (K, n + 1, e) -> values (K, F, e), one
    ``_monomial_values`` evaluation per degree among the forms."""
    out = np.empty((len(coords), len(forms), ring.e), dtype=np.int64)
    for d in {g.d for g in forms}:
        at = [i for i, g in enumerate(forms) if g.d == d]
        coeffs = np.array([[c % ring.p2 for c in forms[i].coeffs] for i in at],
                          dtype=np.int64)
        basis = np.array(monomial_basis(forms[0].n, d), dtype=np.int64)
        out[:, at] = coeffs @ _monomial_values(ring, coords, basis, d) % ring.p2
    return out


# ----------------------------------------------------------------------
# Density estimates.


@dataclass
class DensityEstimate:
    """A density with its reference: ``hits`` of ``total`` sections, all of
    them for a census (``seed`` None), or ``total`` samples drawn from
    ``seed``.  ``value`` is the exact Fraction of a census or the float mean
    of a sample.  The reference is a short Fraction or a zeta truncation;
    the report keeps both exact, and only ``cli`` prints them."""

    hits: int
    total: int
    seed: int | None = None
    reference: Fraction | ZetaTruncation | None = None
    reference_error: Fraction | None = None
    extras: dict = field(default_factory=dict)

    @property
    def value(self) -> Fraction | float:
        return Fraction(self.hits, self.total) if self.seed is None else self.hits / self.total

    @property
    def ci_halfwidth(self) -> float:
        """The 99 percent normal halfwidth of a sample's mean; 0 for a census."""
        return 0.0 if self.seed is None else sampling.confidence_halfwidth(self.value, self.total)

    @property
    def reference_value(self) -> Fraction | None:
        """The reference as an exact Fraction."""
        ref = self.reference
        return ref if ref is None or isinstance(ref, Fraction) else ref.value

    def as_report(self) -> dict:
        if self.seed is None:
            doc = {"mode": "exact", "hits": self.hits, "total": self.total,
                   "value": self.value}
        else:
            doc = {"mode": "montecarlo", "mean": self.value, "samples": self.total,
                   "seed": self.seed, "ci_halfwidth": self.ci_halfwidth}
        refs = {"reference": self.reference, "reference_error": self.reference_error}
        return doc | {k: v for k, v in refs.items() if v is not None} | self.extras


class FiberClassifier:
    """Vectorized classification of many sections at the given closed points.

    Callers pass ``fiber.closed_points_up_to(r)`` for a degree-<= r census
    or ``[x]`` for a single point; the points must be pairwise distinct.
    Rows are coefficient vectors mod p^2; ``any_fiber`` depends only on
    the rows mod p, so a census of forms over F_p passes their digit lifts.
    The jets built here also give the surjectivity ``certificate``.
    """

    def __init__(self, fiber: SchemeFiber, d: int, points):
        """Build the jets of the points once (``_point_jets``, one ring and
        one Newton residual evaluation per degree run) and from them the
        census arrays: the packed value rows, float32 under a divisibility
        table and float64 without one, and per degree run the balanced
        tangent digits and the value_p2 digits of the pair pass.  Every
        point has the value slots of a point of the top degree; a point of
        degree e fills them with its e balanced value digits, then with
        the first of its m e balanced tangent digits that fit, so the value
        pass also tests those tangent conditions."""
        self.fiber = fiber
        self.d = d
        self.p = fiber.p
        self.p2 = fiber.p ** 2
        self.h = comb(fiber.n + d, fiber.n)
        # census sums: h products below (p^2 - 1)^2 in int64, and in the
        # unpacked value pass h products below (p - 1)^2 in float64, exact
        # below 2^53 (packed sums stay below 2^20, see _values).
        # The first bound implies the second for p >= 31; for smaller p the
        # second fails only at h >= 2^43 coefficients
        if (self.h * (self.p2 - 1) ** 2 >= 1 << 63
                or self.h * (self.p - 1) ** 2 >= 1 << 53):
            raise BudgetExceeded(f"int64 census of {self.h} coefficients mod "
                                 f"{self.p2} could overflow")
        reps = [(x.degree, x.rep) for x in points]
        if len(set(reps)) != len(reps):
            raise ValueError("points must be pairwise distinct closed points")
        # the points by degree: each degree is one run of the jets and of
        # the pair pass
        self.points = sorted(points, key=lambda x: x.degree)
        runs = _point_jets(fiber, self.points, d)
        p, h = self.p, self.h
        # balanced digits lie in [-(p - 1) // 2, p // 2], so a sum of h digit
        # products stays within h (p // 2)^2 of 0; a sum of h products of
        # residues mod p^2 lies in [0, h (p^2 - 1)^2]
        self._digit_type = _int_type(h * (p // 2) ** 2)
        self._square_type = _int_type(h * (self.p2 - 1) ** 2)
        # the balanced digit of every residue mod p^2, looked up by the census
        # while that table fits _RESIDUE_TABLE_CAP bytes (an int64 remainder
        # costs ten times the lookup)
        self._residues = None
        if self.p2 * np.dtype(self._digit_type).itemsize <= _RESIDUE_TABLE_CAP:
            self._residues = _balanced(np.arange(self.p2), p, self._digit_type)
        top = max((x.degree for x in self.points), default=0)
        self._pack, spread, self._table = _packing(p, h, top)
        width = max(self._pack, 1)
        weights = spread ** np.arange(width)
        # value row j of point i is row j P + i, for every point and every j
        # below the most value rows a point of the top degree needs; the
        # slots past a point's value and folded tangent digits hold zeros,
        # whose sums p divides.  Packed rows are float32: any partial sum of
        # the value pass, in any order, packs k partial value or tangent
        # digit sums of magnitude below R, so it lies strictly between -R^k
        # and R^k, within 2^21 integers around 0 (R^k <= 2^20), and float32
        # is exact below 2^24.  Unpacked sums reach h (p - 1)^2 and keep
        # float64
        points = len(self.points)
        rows = -(-top // width)
        slots = rows * width
        values = np.zeros((rows, points, h),
                          dtype=np.float64 if self._table is None else np.float32)
        self._runs, first = [], 0
        for run, value_p2, tangent in runs:
            k, e = len(run), run[0].degree
            tangent = _balanced(tangent, p, self._digit_type)
            folded = min(tangent.shape[2], slots - e)
            digits = np.zeros((k, h, slots), dtype=np.int64)
            digits[..., :e] = _balanced(value_p2, p, np.int64)
            digits[..., e:e + folded] = tangent[..., :folded]
            values[:, first:first + k] = (
                digits.reshape(k, h, rows, width) @ weights).transpose(2, 0, 1)
            # the pair pass: the run's points, their balanced tangent digits
            # (K, h, m e) and their value_p2 digits (K, h, e)
            self._runs.append((first, first + k, tangent,
                               value_p2.astype(self._square_type)))
            first += k
        self._values = values.reshape(rows * points, h)
        self._block = max(1, _VALUE_BLOCK // max(1, len(self._values)))

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
            sum(x.degree for x in self.points)
        fiber_reading = reading == "fiber"
        rows = []
        for _, _, tangent, value_p2 in self._runs:
            # the balanced tangent digits back in [0, p)
            tangent = tangent.astype(np.int64) % self.p
            if fiber_reading:
                value_p2 = value_p2 % self.p
            else:
                tangent *= self.p
            rows += np.concatenate([value_p2, tangent], axis=2).transpose(
                0, 2, 1).reshape(-1, self.h).tolist()
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

        The rows (entries in [0, p^2)) are reduced once to balanced digits
        mod p.  The value pass then finds the candidate (point, row) pairs:
        those on the divisor that also meet the tangent conditions folded
        into the point's free value slots (all of them for a point of low
        enough degree).  Each block of _block rows costs the same
        fixed-shape steps: the block, cast to the dtype of ``_values``,
        times the packed ``_values`` (one BLAS matmul: float32, exact since
        every partial sum lies within 2^21 < 2^24 integers around 0, or
        float64 without packing, exact below 2^53), one lookup in the
        divisibility table (or an int64 remainder), and one logical_and per
        value row index past the first.
        The pair pass then runs once per degree run, on blocks of its
        candidate pairs: the full tangent test mod p on the balanced
        digits, then the value_p2 test mod p^2 on the pairs singular on the
        fiber only, each in the smallest integer type that holds its sums.
        """
        n = rows.shape[0]
        any_arith = np.zeros(n, dtype=bool)
        any_fiber = np.zeros(n, dtype=bool)
        if n == 0 or not self.points:
            return any_arith, any_fiber, 0
        digits = (self._residues[rows] if self._residues is not None
                  else _balanced(rows, self.p, self._digit_type))
        points = len(self.points)
        candidates = np.empty((points, n), dtype=bool)
        for start in range(0, n, self._block):
            stop = start + self._block
            sums = self._values @ digits[start:stop].T.astype(self._values.dtype,
                                                              order="C")
            divisible = (self._table[sums.astype(np.intp)] if self._table is not None
                         else sums.astype(np.int64) % self.p == 0)
            for j in range(points, len(divisible), points):
                divisible[:points] &= divisible[j:j + points]
            candidates[:, start:stop] = divisible[:points]
        rescued_points = 0
        for first, last, tangent, value_p2 in self._runs:
            hits = np.flatnonzero(candidates[first:last])  # point * n + row
            pairs = max(1, _PAIR_BLOCK // tangent[0].size)
            for lo in range(0, hits.size, pairs):
                at, idx = np.divmod(hits[lo:lo + pairs], n)
                fiber_sing = ~(_pair_sums(digits[idx], tangent[at]) % self.p).any(axis=1)
                if not fiber_sing.any():
                    continue
                idx, at = idx[fiber_sing], at[fiber_sing]
                arith_sing = ~(_pair_sums(rows[idx].astype(self._square_type),
                                          value_p2[at]) % self.p2).any(axis=1)
                any_fiber[idx] = True
                any_arith[idx[arith_sing]] = True
                rescued_points += idx.size - int(arith_sing.sum())
        return any_arith, any_fiber, rescued_points


def _packing(p: int, h: int, e_max: int):
    """(k, R, table) of the packed value pass of h coefficients mod p.

    A sum S of h products of balanced digits takes one of R values.  A
    value row packs k digit sums as sum_i R^i S_i, for the largest
    k <= e_max with R^k <= _RESIDUE_TABLE_CAP, and ``table`` (R^k bytes)
    says at that packed value whether p divides all k sums.  Without room
    for one sum, k = 0 and there is no table.
    """
    low, high = (p - 1) // 2, p // 2
    shift = h * low * high                  # S lies in [-shift, h high^2]
    spread = shift + h * high * high + 1
    k = 0
    while k < e_max and spread ** (k + 1) <= _RESIDUE_TABLE_CAP:
        k += 1
    if not k:
        return 0, spread, None
    divides = (np.arange(spread) - shift) % p == 0
    table = divides
    for _ in range(k - 1):
        table = np.logical_and.outer(table, divides).ravel()
    # entry sum_i R^i (S_i + shift) answers for the sums S_i; rolled, the
    # table is read at the signed packed value sum_i R^i S_i, which numpy
    # wraps when it is negative
    return k, spread, np.roll(table, -shift * (spread ** k - 1) // (spread - 1))


def _int_type(bound: int):
    """The smallest signed integer dtype that holds [-bound, bound]."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64)
                if bound <= np.iinfo(t).max)


def _balanced(values: np.ndarray, p: int, dtype) -> np.ndarray:
    """values mod p as balanced digits in [-(p - 1) // 2, p // 2] ({0, 1} at
    p = 2), in a new array of ``dtype``."""
    low = (p - 1) // 2
    out = np.remainder(values + low, p, out=np.empty(values.shape, dtype=dtype),
                       casting="unsafe")
    out -= low
    return out


def _pair_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[i, j] b[i, j, c] for every pair i: (P, h), (P, h, C) -> (P, C),
    in the dtype of the operands."""
    return np.matmul(a[:, None, :], b)[:, 0]


def _enumerate_rows(h, modulus, start):
    """The coefficient vectors mod ``modulus`` of indices [start, start + _CHUNK)."""
    idx = np.arange(start, min(start + _CHUNK, modulus ** h), dtype=np.int64)
    rows = np.empty((idx.size, h), dtype=np.int64)
    for k in range(h):
        rows[:, k] = idx // (modulus ** k) % modulus
    return rows


def _census_size(h: int, modulus: int) -> int:
    """Number of coefficient vectors mod ``modulus``, within the budget.

    Every modulus is >= 2, so a count with as many coefficients as the
    budget has bits is already over it: the check never forms a larger
    power, and the refusal names the count as one.
    """
    if modulus ** min(h, EXHAUSTIVE_BUDGET.bit_length()) > EXHAUSTIVE_BUDGET:
        raise BudgetExceeded(f"{modulus}^{h} sections exceed the exhaustive budget")
    return modulus ** h


def _tally(censuses, batches):
    """The lab's one census loop.  A census maps rows to (any_arith,
    any_fiber, rescued), as ``FiberClassifier.census`` does; a batch holds one
    row array per census, all for the same sections.  Returns the sections
    singular under no census, arithmetically and on the fiber, each census's
    [arithmetic, fiber] singular-row counts, and the rescued point count."""
    hits_arith = hits_fiber = rescued = 0
    singular = [[0, 0] for _ in censuses]
    for batch in batches:
        bad_arith = bad_fiber = False
        for census, rows, counts in zip(censuses, batch, singular):
            any_arith, any_fiber, resc = census(rows)
            counts[0] += int(any_arith.sum())
            counts[1] += int(any_fiber.sum())
            bad_arith, bad_fiber = bad_arith | any_arith, bad_fiber | any_fiber
            rescued += resc
        hits_arith += int((~bad_arith).sum())
        hits_fiber += int((~bad_fiber).sum())
    return hits_arith, hits_fiber, singular, rescued


def _exhaustive_census(cls: FiberClassifier, modulus: int):
    """``_tally`` of every coefficient vector mod ``modulus`` (p or p^2)."""
    return _tally([cls.census], ((_enumerate_rows(cls.h, modulus, start),)
                                 for start in range(0, modulus ** cls.h, _CHUNK)))


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
    reference = reference_truncation(fiber, r, count)
    cls = FiberClassifier(fiber, d, fiber.closed_points_up_to(r))
    hits_arith, hits_fiber, _, rescued = _exhaustive_census(cls, p * p)
    certificate = cls.certificate(count)
    hits = hits_arith if count == "arithmetic" else hits_fiber
    return DensityEstimate(
        hits, total, reference=reference, reference_error=Fraction(0),
        extras={
            "certificate": certificate,
            "certified_equal": (certificate.surjective
                                and Fraction(hits, total) == reference.value),
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
    hits_arith, hits_fiber, _, rescued = _tally(
        [cls.census], ((sampling.uniform_residues(rng, size, cls.h, cls.p2),)
                       for rng, size in streams))
    return DensityEstimate(
        hits_arith if count == "arithmetic" else hits_fiber, samples, seed,
        reference, reference.error_bound,
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
    _, _, [(_, hits)], _ = _exhaustive_census(cls, p)     # rows singular at x
    certificate = cls.certificate("fiber")
    expected = Fraction(1, p ** certificate.target_dim)
    return DensityEstimate(
        hits, total, reference=expected, reference_error=Fraction(0),
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
    _, hits, _, _ = _exhaustive_census(cls, p)
    return hits, total
