"""Integer sections in coefficient boxes and the monic-polynomial track:
heights, discriminants, Dedekind maximality, and density experiments
over several fibers at once.

The experiments sample integer coefficient vectors, reduce them modulo
p^2 for each prime in play, classify the resulting sections, and compare
the observed densities with truncated Euler products carrying explicit
error bounds.  For monic polynomials the geometric classification is
equivalent to Dedekind's criterion: Z[x]/(f) is maximal at p exactly
when the homogenized divisor has no arithmetically singular point on
the fiber at p, and the experiments assert that equivalence sample by
sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

import numpy as np

from .ffield import (MR_DETERMINISTIC_BOUND, is_prime, poly_divmod, poly_gcd,
                     poly_mul, poly_sub, poly_trim)
from .fiberlab import (DensityEstimate, FiberClassifier, check_digits,
                       reading_exponent, reference_truncation)
from .projgeom import HomogeneousForm, ProjectiveScheme
from .p1sections import binary_section_report, radical_fp
from .zetas import primes_up_to
from . import sampling


class InternalCheckError(AssertionError):
    """A cross-check the artifact guarantees has failed; a bug, not bad input."""


# ----------------------------------------------------------------------
# Integer sections and reductions.


@dataclass(frozen=True)
class IntegerSection:
    """A form with integer coefficients drawn from a declared box.

    ``bounds[i]`` is the bound on |coeffs[i]|: a constant tuple for the
    uniform box, the tuple (R^0 ... would be degenerate) R^i for the
    height-ball mode of monic polynomials.
    """

    form: HomogeneousForm
    bounds: tuple

    def __post_init__(self):
        if self.form.modulus is not None:
            raise ValueError("integer sections need integer coefficients")
        if len(self.bounds) != len(self.form.coeffs):
            raise ValueError("one bound per coefficient")
        if any(abs(c) > b for c, b in zip(self.form.coeffs, self.bounds)):
            raise ValueError("coefficients leave the declared box")


def restrict_mod(section: IntegerSection | HomogeneousForm, N: int) -> HomogeneousForm:
    """Coefficient-wise reduction modulo N >= 2."""
    if N < 2:
        raise ValueError("modulus must be >= 2")
    form = section.form if isinstance(section, IntegerSection) else section
    return form.reduce(N)


# ----------------------------------------------------------------------
# Coefficient-box equidistribution.


@dataclass(frozen=True)
class EquidistributionAudit:
    h: int
    B: int
    N: int
    k: int                   # 2B+1 = k*N + s
    s: int
    min_count: int
    max_count: int
    ratio: Fraction | None   # max/min, None when some class is missed
    covered: bool            # every residue class hit at least once
    exact: bool              # ratio == 1, i.e. N divides 2B+1

    def as_report(self):
        doc = dict(self.__dict__)
        doc["ratio"] = None if self.ratio is None else \
            f"{self.ratio.numerator}/{self.ratio.denominator}"
        return doc


def equidistribution_audit(h: int, B: int, N: int) -> EquidistributionAudit:
    """Exact extreme fiber sizes of the reduction [-B, B]^h -> (Z/N)^h.

    With 2B+1 = kN + s, every coordinate residue is hit k or k+1 times,
    so the class counts range over [k^h, (k+1)^h]; the map misses classes
    entirely when k = 0 (box narrower than the modulus), which is
    reported rather than silently accepted.
    """
    if h < 1 or B < 1 or N < 2:
        raise ValueError("need h >= 1, B >= 1, N >= 2")
    k, s = divmod(2 * B + 1, N)
    min_count = k ** h
    max_count = (k + 1) ** h if s else k ** h
    ratio = Fraction(max_count, min_count) if min_count else None
    return EquidistributionAudit(h, B, N, k, s, min_count, max_count, ratio,
                                 covered=k >= 1, exact=s == 0)


# ----------------------------------------------------------------------
# Monic polynomials, heights, discriminants.


@dataclass(frozen=True)
class MonicPoly:
    """x^d + a_1 x^{d-1} + ... + a_d, stored as the tuple (a_1, ..., a_d)."""

    a: tuple

    @property
    def degree(self):
        return len(self.a)

    def little_endian(self):
        return list(self.a[::-1]) + [1]

    def __str__(self):
        d = self.degree
        parts = [f"x^{d}"]
        for i, c in enumerate(self.a, start=1):
            if c:
                power = f"x^{d - i}" if d - i > 1 else ("x" if d - i == 1 else "")
                parts.append(f"{'+' if c > 0 else '-'} {abs(c)}{'*' + power if power else ''}")
        return " ".join(parts)


def homogenize_monic(f: MonicPoly, bounds=None) -> IntegerSection:
    """X^d + a_1 X^{d-1} Y + ... + a_d Y^d; its divisor misses [1:0]."""
    form = HomogeneousForm(1, f.degree, (1,) + f.a)
    if bounds is None:
        bounds = (1,) + tuple(max(abs(c), 1) for c in f.a)
    return IntegerSection(form, tuple(bounds))


def height_le(f: MonicPoly, R: Fraction | int) -> bool:
    """Exact membership test H(f) <= R, i.e. |a_i| <= R^i for every i."""
    R = Fraction(R)
    return all(abs(c) * R.denominator ** i <= R.numerator ** i
               for i, c in enumerate(f.a, start=1))


def height_value(f: MonicPoly) -> float:
    """max |a_i|^{1/i}, for display only; use height_le for decisions."""
    return max((abs(c) ** (1.0 / i) for i, c in enumerate(f.a, start=1) if c),
               default=0.0)


def bareiss_determinant(M) -> int:
    """Fraction-free exact determinant of an integer matrix."""
    M = [list(r) for r in M]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[-1][-1]


def sylvester_matrix(f_desc, g_desc):
    """Sylvester matrix of two integer polynomials (descending coefficients)."""
    m = len(f_desc) - 1
    n = len(g_desc) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + list(f_desc) + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(g_desc) + [0] * (size - n - 1 - i))
    return rows


def discriminant(f: MonicPoly) -> int:
    """(-1)^{d(d-1)/2} Res(f, f'), fraction-free and exact."""
    d = f.degree
    if d == 1:
        return 1
    f_desc = [1] + list(f.a)
    g_desc = [(d - i) * f_desc[i] for i in range(d)]
    res = bareiss_determinant(sylvester_matrix(f_desc, g_desc))
    return -res if (d * (d - 1) // 2) % 2 else res


# ----------------------------------------------------------------------
# Dedekind's criterion and maximality verdicts.


def dedekind_p_maximal(f: MonicPoly, p: int, disc: int | None = None) -> bool:
    """Is Z[x]/(f) maximal at p?  Dedekind's criterion, radical-based.

    Shortcut: when p^2 does not divide disc(f) the order is maximal at p
    without any factoring.  Requires disc(f) != 0.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    disc = discriminant(f) if disc is None else disc
    if disc == 0:
        raise ValueError("discriminant is zero; the order is not an order")
    if disc % (p * p) != 0:
        return True
    fle = f.little_endian()
    fbar = poly_trim([c % p for c in fle])
    gbar = radical_fp(fbar, p)
    hbar = poly_divmod(fbar, gbar, p)[0]
    p2 = p * p
    diff = poly_sub(poly_mul(gbar, hbar, p2), [c % p2 for c in fle], p2)
    if any(c % p for c in diff):
        raise InternalCheckError("g*h != f mod p in Dedekind's criterion")
    f1bar = poly_trim([(c // p) % p for c in diff])
    g1 = poly_gcd(f1bar, gbar, p)
    return len(poly_gcd(g1, hbar, p)) == 1


@dataclass(frozen=True)
class MaximalityVerdict:
    """Outcome of a truncated maximality scan.

    kind is one of 'maximal_up_to', 'not_maximal_at', 'degenerate'.
    ``unconditional`` means the discriminant was fully accounted for
    (cofactor 1, or a prime cofactor below ``MR_DETERMINISTIC_BOUND``
    where ``is_prime`` is a proof), so the verdict holds at
    every prime, not only below the trial bound.
    """

    kind: str
    trial_bound: int
    p: int | None = None
    unconditional: bool = False
    checked_primes: str = ""

    def as_report(self):
        return dict(self.__dict__)


def maximality_scan(f: MonicPoly, trial_bound: int,
                    primes: list | None = None,
                    disc: int | None = None) -> MaximalityVerdict:
    """Trial-divide disc(f) below the bound and run Dedekind where needed."""
    disc = discriminant(f) if disc is None else disc
    if disc == 0:
        return MaximalityVerdict("degenerate", trial_bound)
    primes = primes_up_to(trial_bound) if primes is None else primes
    c = abs(disc)
    for p in primes:
        if p > c:
            break
        if c % p == 0:
            power = 0
            while c % p == 0:
                c //= p
                power += 1
            if power >= 2 and not dedekind_p_maximal(f, p, disc=disc):
                return MaximalityVerdict("not_maximal_at", trial_bound, p=p,
                                         unconditional=True)
    unconditional = c == 1 or (c < MR_DETERMINISTIC_BOUND and is_prime(c))
    note = (f"all primes <= {trial_bound}; cofactor {'fully factored' if c == 1 else c}")
    return MaximalityVerdict("maximal_up_to", trial_bound,
                             unconditional=unconditional, checked_primes=note)


# ----------------------------------------------------------------------
# Multi-fiber density experiment.


def multi_fiber_experiment(d: int, B: int, prime_bound: int, r: int,
                           samples: int, seed: int, n: int = 1,
                           classification: str = "arithmetic"):
    """Sample integer sections in [-B, B]^h on P^n and classify every fiber.

    Measures the proportion of sections with no singular point of degree
    <= r on any fiber p <= prime_bound; reference value is the product
    of the fibers' ``reference_truncation`` values in the reading
    ``classification``, with the sum of their tail bounds as reference
    error.  n = 1 runs the P^1 gcd path (``binary_section_report``);
    n > 1 runs the batched ``FiberClassifier.census``.
    """
    if n < 1:
        raise ValueError("need a projective dimension n >= 1")
    if samples < 1:
        raise ValueError("need at least one sample")
    primes = primes_up_to(prime_bound)
    for p in primes:
        if p * p > 2 * B + 1:
            raise ValueError(f"box [-{B},{B}] does not cover the residues mod {p}^2")
    h = comb(n + d, n)
    scheme = ProjectiveScheme(n, n)
    fibers = [scheme.fiber(p) for p in primes]
    if n > 1:
        for fib in fibers:
            fib.check_census(r)
    check_digits([fib.point_table(r) for fib in fibers],
                 reading_exponent(scheme.m, classification), r)
    references = [reference_truncation(fib, r, classification) for fib in fibers]
    streams = sampling.chunks(seed, samples)
    classifiers = {fib.p: FiberClassifier(fib, d, fib.closed_points_up_to(r))
                   for fib in fibers} if n > 1 else {}

    hits = 0
    singular_by_prime = {p: 0 for p in primes}
    rescued = 0
    for rng, size in streams:
        rows = sampling.uniform_box(rng, size, h, B)
        good = np.ones(size, dtype=bool)
        for p in primes:
            if n == 1:
                bad = np.zeros(size, dtype=bool)
                rows_p2 = (rows % (p * p)).tolist()
                for j, crow in enumerate(rows_p2):
                    rep = binary_section_report(crow, d, p, r)
                    rescued += rep.rescued
                    if (rep.any_arith if classification == "arithmetic"
                            else rep.any_fiber):
                        bad[j] = True
            else:
                any_arith, any_fiber, resc = classifiers[p].census(rows % (p * p))
                rescued += resc
                bad = any_arith if classification == "arithmetic" else any_fiber
            singular_by_prime[p] += int(bad.sum())
            good &= ~bad
        hits += int(good.sum())

    return DensityEstimate.monte_carlo(
        hits, samples, seed,
        prod((t.value for t in references), start=Fraction(1)),
        sum((t.error_bound for t in references), Fraction(0)),
        extras={"primes": primes, "d": d, "B": B, "r": r,
                "classification": classification,
                "singular_by_prime": singular_by_prime,
                "rescued_points": rescued, "prng": sampling.PRNG_NAME})


# ----------------------------------------------------------------------
# The monic-polynomial (maximal order) experiment.


def euler_product_reference(trial_bound: int) -> tuple[Fraction, Fraction]:
    """prod_{p <= T} (1 - p^{-2}) and the 8/T prime-tail bound."""
    value = Fraction(1)
    for p in primes_up_to(trial_bound):
        value *= 1 - Fraction(1, p * p)
    return value, Fraction(8, trial_bound)


def bsw_experiment(d: int, R: int, trial_bound: int, samples: int, seed: int,
                   fiber_cap: int = 7):
    """Sample monic degree-d polynomials uniformly from the height ball
    H(f) <= R and measure the density of maximal orders.

    The verdict counts 'maximal_up_to(trial_bound)' outcomes (conditional
    and unconditional alike); the reference is the truncated Euler
    product for 1/zeta(2) with the 8/T tail bound.  Each sample is also
    pushed through the geometric classifier on the fibers p <= fiber_cap
    and the two routes are required to agree exactly.
    """
    if d < 2:
        raise ValueError("need degree >= 2")
    if samples < 1:
        raise ValueError("need at least one sample")
    if trial_bound < 2:
        raise ValueError("need trial bound T >= 2")
    primes = primes_up_to(trial_bound)
    check_primes = [p for p in primes if p <= fiber_cap]
    bounds = [R ** i for i in range(1, d + 1)]
    hits = 0
    degenerate = 0
    not_maximal_at = {}
    conditional = 0
    for rng, size in sampling.chunks(seed, samples):
        for a in sampling.uniform_height_ball(rng, size, bounds):
            f = MonicPoly(tuple(int(c) for c in a))
            disc = discriminant(f)
            verdict = maximality_scan(f, trial_bound, primes=primes, disc=disc)
            if verdict.kind == "degenerate":
                degenerate += 1
                continue
            if verdict.kind == "not_maximal_at":
                not_maximal_at[verdict.p] = not_maximal_at.get(verdict.p, 0) + 1
            else:
                hits += 1
                if not verdict.unconditional:
                    conditional += 1
            if disc != 0:
                hom = (1,) + f.a
                for p in check_primes:
                    geo_ok = binary_section_report(hom, d, p, d).arith_singular == 0
                    ded_ok = dedekind_p_maximal(f, p, disc=disc)
                    if geo_ok != ded_ok:
                        raise InternalCheckError(
                            f"Dedekind and the mod-p^2 classifier disagree at "
                            f"p={p} for {f}")
    reference, tail = euler_product_reference(trial_bound)
    return DensityEstimate.monte_carlo(
        hits, samples, seed, reference, tail,
        extras={"d": d, "R": R, "trial_bound": trial_bound,
                "degenerate": degenerate, "conditional_verdicts": conditional,
                "not_maximal_at": not_maximal_at,
                "zeta2_inverse": 0.6079271018540267,
                "prng": sampling.PRNG_NAME})


def quadratic_field_census(R: int):
    """Exhaustive maximality census of x^2 + a_1 x + a_2, |a_1| <= R, |a_2| <= R^2.

    The discriminant is bounded by R^2 + 4R^2, so trial division below
    3R certifies every verdict; reports the exact proportion and its gap
    to 1/zeta(2) (the finite-R bias of the limit statement).
    """
    trial = 3 * R
    primes = primes_up_to(trial)
    hits = 0
    total = 0
    degenerate = 0
    for a1 in range(-R, R + 1):
        for a2 in range(-R * R, R * R + 1):
            f = MonicPoly((a1, a2))
            total += 1
            disc = a1 * a1 - 4 * a2
            if disc == 0:
                degenerate += 1
                continue
            verdict = maximality_scan(f, trial, primes=primes, disc=disc)
            if verdict.kind == "maximal_up_to":
                if not verdict.unconditional:
                    raise InternalCheckError("quadratic census verdict not certified")
                hits += 1
    value = Fraction(hits, total)
    return DensityEstimate(
        mode="exact", value=value, hits=hits, total=total,
        reference_value=None, reference_error=None,
        extras={"R": R, "degenerate": degenerate,
                "bias_vs_zeta2": float(value) - 0.6079271018540267})
