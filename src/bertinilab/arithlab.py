"""Integer sections and the monic-polynomial track: box equidistribution,
discriminants, Dedekind maximality, and density experiments over several
fibers at once.

The experiments sample integer coefficient vectors from a box (or monic
polynomials from a height ball), reduce them modulo p^2 for each prime
in play, classify the resulting sections, and compare the observed
densities with truncated Euler products carrying explicit error bounds,
all built by ``zetas.global_zeta_inverse``: over the fibers for
``multi_fiber_experiment``, and for ``bsw_experiment`` over a point per
prime at s = 2, the product prod_{p <= T} (1 - p^-2) for 1/zeta(2).  For
monic polynomials the geometric classification is equivalent to
Dedekind's criterion: Z[x]/(f) is maximal at p exactly
when the homogenized divisor has no arithmetically singular point on
the fiber at p, and the experiments assert that equivalence sample by
sample.  ``multi_fiber_experiment`` hands one census per prime, of the
same shape on P^1 and on P^n, to the lab's one loop ``fiberlab._tally``.

In ``bsw_experiment`` each sample's verdict comes from the trial step of
``maximality_scan``.  It trial-divides the discriminant by blocks of
primes, one gcd g per block, dividing each prime of the block that
divides g out of the discriminant and out of g until g is 1.  The odd
cofactors left are proved prime, or not, ``PROOF_BATCH`` at a time by
``ffield._is_prime_past_trial_batch``, ``is_prime`` past its own trial
division, whose base-2 tests below 2^63 are one numpy pass.  The
cross-check runs Dedekind's criterion on every sample with the exact
discriminant; its geometric side reads only f mod p^2, so it is memoized
per class (f mod p^2, p) at the primes p with p^(2d) <= samples, where
classes recur.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
from math import comb, gcd, isqrt, prod
from typing import NamedTuple

import numpy as np

from .ffield import (MR_DETERMINISTIC_BOUND, _is_prime_past_trial,
                     _is_prime_past_trial_batch, is_prime, poly_divmod, poly_gcd,
                     poly_mul, poly_sub, poly_trim)
from .fiberlab import DensityEstimate, FiberClassifier, _tally, reading_exponent
from .projgeom import ProjectiveScheme
from .p1sections import CACHE_SIZE, binary_census, binary_section_report, radical_fp
from .zetas import (PointCountTable, _check_digits, _coprime_fraction, exact_context,
                    global_zeta_inverse, primes_up_to)
from . import sampling


class InternalCheckError(AssertionError):
    """A cross-check the artifact guarantees has failed; a bug, not bad input."""


# ----------------------------------------------------------------------
# Coefficient-box equidistribution.


@dataclass(frozen=True)
class EquidistributionAudit:
    """The class counts of ``equidistribution_audit`` in factored form:
    every class is hit between k^h and (k+1)^h times (k^h when s = 0),
    and the counts and their ratio are formed only when read."""

    h: int
    B: int
    N: int
    k: int                   # 2B+1 = k*N + s
    s: int
    covered: bool            # every residue class hit at least once
    exact: bool              # ratio == 1, i.e. N divides 2B+1

    @property
    def top(self) -> int:
        """The base of the largest count: k + 1, or k when N divides 2B+1."""
        return self.k + 1 if self.s else self.k

    @property
    def min_count(self) -> int:
        return self.k ** self.h

    @property
    def max_count(self) -> int:
        return self.top ** self.h

    @property
    def ratio(self) -> Fraction | None:
        """max/min, None when some class is missed; k and k + 1 are coprime,
        so (k + 1)^h / k^h needs no gcd."""
        if not self.covered:
            return None
        return _coprime_fraction(self.max_count, self.min_count) if self.s else Fraction(1)

    def as_report(self):
        """The audit as a report.  The counts are exact integral Decimals,
        whose str is linear, unlike int's, and the ratio text is printed
        from them; the ratio is 1/1 when s = 0."""
        doc = dict(self.__dict__)
        with decimal.localcontext(exact_context()):
            min_count = decimal.Decimal(self.k) ** self.h
            max_count = decimal.Decimal(self.top) ** self.h
        doc.update(min_count=min_count, max_count=max_count,
                   ratio=(None if not self.covered else
                          f"{max_count}/{min_count}" if self.s else "1/1"))
        return doc


def equidistribution_audit(h: int, B: int, N: int) -> EquidistributionAudit:
    """Exact extreme fiber sizes of the reduction [-B, B]^h -> (Z/N)^h.

    With 2B+1 = kN + s, every coordinate residue is hit k or k+1 times,
    so the class counts range over [k^h, (k+1)^h]; the map misses classes
    entirely when k = 0 (box narrower than the modulus), which is
    reported rather than silently accepted.  A count of DIGIT_CAP or more
    digits is refused; the audit forms no count itself.
    """
    if h < 1 or B < 1 or N < 2:
        raise ValueError("need h >= 1, B >= 1, N >= 2")
    k, s = divmod(2 * B + 1, N)
    audit = EquidistributionAudit(h, B, N, k, s, covered=k >= 1, exact=s == 0)
    if audit.top > 1:
        _check_digits([(audit.top, h)], "the class count")
    return audit


# ----------------------------------------------------------------------
# Monic polynomials and discriminants.


@dataclass(frozen=True)
class MonicPoly:
    """x^d + a_1 x^{d-1} + ... + a_d, stored as the tuple (a_1, ..., a_d)."""

    a: tuple

    @property
    def degree(self):
        return len(self.a)

    def __str__(self):
        d = self.degree
        parts = [f"x^{d}"]
        for i, c in enumerate(self.a, start=1):
            if c:
                power = f"x^{d - i}" if d - i > 1 else ("x" if d - i == 1 else "")
                parts.append(f"{'+' if c > 0 else '-'} {abs(c)}{'*' + power if power else ''}")
        return " ".join(parts)


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
    """(-1)^{d(d-1)/2} Res(f, f'), exact.

    Closed forms for d = 2 (a^2 - 4b) and d = 3
    (a^2 b^2 - 4b^3 - 4a^3 c - 27c^2 + 18abc); otherwise the Sylvester
    matrix of f and f' through ``bareiss_determinant``.
    """
    d = f.degree
    if d == 2:
        a, b = f.a
        return a * a - 4 * b
    if d == 3:
        a, b, c = f.a
        return a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c + 18 * a * b * c
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
    return _dedekind_criterion(f, p, disc)


def _dedekind_criterion(f: MonicPoly, p: int, disc: int) -> bool:
    """``dedekind_p_maximal`` for a prime p and disc = disc(f) != 0, unchecked."""
    p2 = p * p
    if disc % p2 != 0:
        return True
    fle = [c % p2 for c in reversed(f.a)]
    fle.append(1)
    return _dedekind_mod_p2(tuple(fle), p)


@lru_cache(maxsize=CACHE_SIZE)
def _dedekind_mod_p2(fle: tuple, p: int) -> bool:
    """Dedekind's criterion at p from f mod p^2 (little-endian) alone, for a
    monic f with p^2 | disc(f); memoized on (f mod p^2, p).  Every f' = f
    mod p^2 has p^2 | disc(f') too, and the criterion reads only f mod p^2."""
    gbar, hbar = _dedekind_split(tuple(poly_trim([c % p for c in fle])), p)
    p2 = p * p
    diff = poly_sub(poly_mul(gbar, hbar, p2), fle, p2)
    if any(c % p for c in diff):
        raise InternalCheckError("g*h != f mod p in Dedekind's criterion")
    f1bar = poly_trim([(c // p) % p for c in diff])
    g1 = poly_gcd(f1bar, gbar, p)
    return len(poly_gcd(g1, hbar, p)) == 1


@lru_cache(maxsize=CACHE_SIZE)
def _dedekind_split(fbar: tuple, p: int) -> tuple:
    """(g, f / g) with g the radical of f over F_p, memoized on (f mod p, p)."""
    gbar = radical_fp(fbar, p)
    return tuple(gbar), tuple(poly_divmod(fbar, gbar, p)[0])


class MaximalityVerdict(NamedTuple):
    """Outcome of a truncated maximality scan.

    kind is one of 'maximal_up_to', 'not_maximal_at', 'degenerate'.
    ``unconditional`` means the discriminant was fully accounted for
    (cofactor 1, or a prime cofactor below ``MR_DETERMINISTIC_BOUND``,
    where ``is_prime`` is a proof: the psi_k tiers of its first five bases,
    BPSW below 2^64, all twelve bases above), so
    the verdict holds at every prime, not only below the trial bound.
    A 'not_maximal_at' verdict is always unconditional; its p is the
    least prime below the bound at which Dedekind's criterion fails.
    A 'maximal_up_to' verdict keeps the cofactor of the discriminant left
    after trial division.  A named tuple: ``bsw`` builds one per sample.
    """

    kind: str
    trial_bound: int
    p: int | None = None
    unconditional: bool = False
    cofactor: int | None = None


TRIAL_BLOCK = 64             # trial primes per gcd in maximality_scan
# cofactors per proof in bsw_experiment: one batch for the few thousand of a
# desk run, and a bounded list on a run of millions of samples
PROOF_BATCH = 4096


@lru_cache(maxsize=8)
def _trial_blocks(trial_bound: int) -> tuple:
    """``primes_up_to(trial_bound)`` in consecutive blocks of ``TRIAL_BLOCK``,
    each as (product of its primes, its primes); memoized per bound."""
    primes = primes_up_to(trial_bound)
    blocks = (tuple(primes[i:i + TRIAL_BLOCK])
              for i in range(0, len(primes), TRIAL_BLOCK))
    return tuple((prod(block), block) for block in blocks)


def maximality_scan(f: MonicPoly, trial_bound: int,
                    disc: int | None = None) -> MaximalityVerdict:
    """Trial-divide disc(f) by the primes <= trial_bound and run Dedekind
    where a prime square divides it (``_trial_verdict``), then prove the
    cofactor of a 'maximal_up_to' verdict prime or not: with
    trial_bound >= 2 it is odd, and ``ffield._is_prime_past_trial`` tests
    it, a proof below ``MR_DETERMINISTIC_BOUND``.
    """
    if trial_bound < 2:
        raise ValueError("need trial bound T >= 2")
    disc = discriminant(f) if disc is None else disc
    verdict = _trial_verdict(f, trial_bound, disc)
    if verdict.kind == "maximal_up_to" and not verdict.unconditional:
        c = verdict.cofactor
        return verdict._replace(
            unconditional=c < MR_DETERMINISTIC_BOUND and _is_prime_past_trial(c))
    return verdict


def _trial_verdict(f: MonicPoly, trial_bound: int, disc: int) -> MaximalityVerdict:
    """``maximality_scan`` up to the proof of its cofactor, for
    trial_bound >= 2 and disc = disc(f): a 'maximal_up_to' verdict is
    unconditional here only when the cofactor is 1.

    Trial division goes by blocks of ``TRIAL_BLOCK`` primes: one gcd g of
    the cofactor with the block's product; when g > 1 the block's primes
    are tried in order, each one that divides g is divided out of the
    cofactor and of g, and the block ends when g reaches 1.  It stops once
    the next block starts past the cofactor.
    """
    if disc == 0:
        return MaximalityVerdict("degenerate", trial_bound)
    c = abs(disc)
    for product, block in _trial_blocks(trial_bound):
        if block[0] > c:
            break
        g = gcd(c, product)
        if g == 1:
            continue
        for p in block:
            if g % p:
                continue
            g //= p
            c //= p
            power = 1
            while c % p == 0:
                c //= p
                power += 1
            if power >= 2 and not _dedekind_criterion(f, p, disc):
                return MaximalityVerdict("not_maximal_at", trial_bound, p=p,
                                         unconditional=True)
            if g == 1:
                break
    return MaximalityVerdict("maximal_up_to", trial_bound,
                             unconditional=c == 1, cofactor=c)


def _unproved(cofactors) -> int:
    """How many of the cofactors > 1 of 'maximal_up_to' verdicts
    ``maximality_scan`` leaves conditional: those at or past
    ``MR_DETERMINISTIC_BOUND``, and those that
    ``ffield._is_prime_past_trial_batch`` finds composite."""
    below = [c for c in cofactors if c < MR_DETERMINISTIC_BOUND]
    return len(cofactors) - sum(_is_prime_past_trial_batch(below))


# ----------------------------------------------------------------------
# Multi-fiber density experiment.

# rows per P^1 census batch in multi_fiber_experiment: enough that numpy's
# per-call cost in binary_census's Euclid is small against its gcds, and
# bounded, so that a run of 10^5 samples still takes one chunk per batch
CENSUS_BATCH_ROWS = 2 ** 10


def _batches(chunks, budget: int) -> list:
    """Consecutive sampling chunks (generator, size), grouped in order into
    batches of at least ``budget`` rows; only the last batch may have
    fewer, and a batch closes at the chunk that reaches the budget."""
    out, batch, rows = [], [], 0
    for chunk in chunks:
        batch.append(chunk)
        rows += chunk[1]
        if rows >= budget:
            out.append(batch)
            batch, rows = [], 0
    return out + [batch] if batch else out


def multi_fiber_experiment(d: int, B: int, prime_bound: int, r: int,
                           samples: int, seed: int, n: int = 1,
                           classification: str = "arithmetic"):
    """Sample integer sections in [-B, B]^h on P^n and classify every fiber.

    Measures the proportion of sections with no singular point of degree
    <= r on any fiber p <= prime_bound; the reference is
    ``global_zeta_inverse`` at the exponent of the reading
    ``classification``, and the sum of the fibers' tail bounds, read before
    any sample, as reference error.  ``fiberlab._tally`` runs one census per
    prime on the rows mod p^2: ``p1sections.binary_census`` (no point
    scan) on ``_batches`` of consecutive sampling chunks of at least
    ``CENSUS_BATCH_ROWS`` rows on P^1, ``FiberClassifier.census`` on each
    chunk on P^n, n > 1 (its (points, rows) candidate array grows with the
    rows).
    """
    if n < 1:
        raise ValueError("need a projective dimension n >= 1")
    if d < 0:
        raise ValueError("need a degree d >= 0")
    if samples < 1:
        raise ValueError("need at least one sample")
    # the least prime p with p^2 > 2B + 1, found before the sieve
    p = next(q for q in count(isqrt(max(2 * B + 1, 0)) + 1) if is_prime(q))
    if p <= prime_bound:
        raise ValueError(f"box [-{B},{B}] does not cover the residues mod {p}^2")
    primes = primes_up_to(prime_bound)
    h = comb(n + d, n)
    scheme = ProjectiveScheme(n, n)
    s = reading_exponent(scheme.m, classification)
    fibers = []
    for p in primes:            # each fiber checked before the next is built
        fib = scheme.fiber(p)
        if n > 1:
            fib.check_census(r)
        fib.check_truncation(s, r)
        fibers.append(fib)
    tables = {fib.p: fib.point_table(r) for fib in fibers}
    reference = global_zeta_inverse(tables, s, prime_bound, r, scheme.m)
    reference_error = reference.error_bound     # its digits checked before any sample
    batches = _batches(sampling.chunks(seed, samples),
                       CENSUS_BATCH_ROWS if n == 1 else 1)
    censuses = [FiberClassifier(fib, d, fib.closed_points_up_to(r)).census if n > 1
                else partial(binary_census, p=fib.p, r=r) for fib in fibers]
    *hits, singular, rescued = _tally(censuses, (
        [rows % (p * p) for p in primes]
        for rows in (np.concatenate([sampling.uniform_box(rng, size, h, B)
                                     for rng, size in batch]) for batch in batches)))
    reading = 0 if classification == "arithmetic" else 1
    return DensityEstimate(
        hits[reading], samples, seed, reference, reference_error,
        extras={"primes": primes, "d": d, "B": B, "r": r,
                "classification": classification,
                "singular_by_prime": {p: c[reading] for p, c in zip(primes, singular)},
                "rescued_points": rescued, "prng": sampling.PRNG_NAME})


# ----------------------------------------------------------------------
# The monic-polynomial (maximal order) experiment.


def _section_table(p: int, d: int, samples: int) -> bytearray | None:
    """The memo of ``bsw``'s geometric verdict at p for monic degree-d f:
    one byte per class f mod p^2 (0 unknown, 1 singular, 2 regular),
    indexed by the base-p^2 digits of its residues a_1 mod p^2 .. a_d mod
    p^2.  Built only when its C = p^(2d) classes are at most the n samples:
    then over a third of the lookups hit (1 - (1 - e^(-n/C)) C/n), while
    above it about n/(2C) do, too few to pay for the index.  None there."""
    size = (p * p) ** d
    return bytearray(size) if size <= samples else None


def bsw_experiment(d: int, R: int, trial_bound: int, samples: int, seed: int,
                   fiber_cap: int = 7):
    """Sample monic degree-d polynomials uniformly from the height ball
    H(f) <= R and measure the density of maximal orders.

    The verdict counts 'maximal_up_to(trial_bound)' outcomes (conditional
    and unconditional alike); the reference is the truncated Euler
    product prod_{p <= T} (1 - p^-2) for 1/zeta(2), the
    ``global_zeta_inverse`` of a point per prime at s = 2, with the 8/T
    prime-tail bound as reference error.  It is built, and its digit
    budget checked, before the first sample.  Each sample is also pushed
    through the geometric classifier on the fibers p <= fiber_cap and the
    two routes are required to agree exactly.  ``maximality_scan``'s
    trial step gives the verdict, and the cofactors of its 'maximal_up_to'
    verdicts are proved ``PROOF_BATCH`` at a time.  The cross-check runs
    Dedekind's criterion on every sample and prime with the exact
    discriminant.  Its geometric side, the report of
    ``binary_section_report``, reads only f mod p^2, so it is memoized per
    class (f mod p^2, p) in a ``_section_table`` at the primes with
    p^(2d) <= samples, and computed per sample at the others.
    Its loop stays outside ``fiberlab._tally``: its rows are height-ball
    tuples that can pass int64, its verdict is a per-sample discriminant
    scan, and its geometric side a raising cross-check, not a tally.
    """
    if d < 2:
        raise ValueError("need degree >= 2")
    if R < 1:
        raise ValueError("need a height bound R >= 1")
    if samples < 1:
        raise ValueError("need at least one sample")
    if trial_bound < 2:
        raise ValueError("need trial bound T >= 2")
    primes = primes_up_to(trial_bound)
    _check_digits([(p, 2) for p in primes])     # the denominator prod p^2, before any table
    reference = global_zeta_inverse({p: PointCountTable(p, (1,)) for p in primes},
                                    2, trial_bound, 1, 0)
    checks = [(p, p * p, _section_table(p, d, samples))
              for p in primes_up_to(min(fiber_cap, trial_bound))]
    bounds = [R ** i for i in range(1, d + 1)]
    hits = 0
    degenerate = 0
    not_maximal_at = {}
    conditional = 0
    pending = []                # cofactors > 1 awaiting their proof
    for rng, size in sampling.chunks(seed, samples):
        for a in sampling.uniform_height_ball(rng, size, bounds):
            f = MonicPoly(a)
            disc = discriminant(f)
            verdict = _trial_verdict(f, trial_bound, disc)
            if verdict.kind == "degenerate":
                degenerate += 1
                continue
            if verdict.kind == "not_maximal_at":
                not_maximal_at[verdict.p] = not_maximal_at.get(verdict.p, 0) + 1
            else:
                hits += 1
                if not verdict.unconditional:
                    pending.append(verdict.cofactor)
                    if len(pending) == PROOF_BATCH:
                        conditional += _unproved(pending)
                        pending.clear()
            hom = (1,) + f.a
            for p, p2, table in checks:     # primes, and disc != 0 past 'degenerate'
                if table is None:
                    geo_ok = binary_section_report(hom, p, d).arith_singular == 0
                else:
                    i = 0
                    for c in a:
                        i = i * p2 + c % p2
                    known = table[i]
                    if not known:
                        known = table[i] = 1 + (
                            binary_section_report(hom, p, d).arith_singular == 0)
                    geo_ok = known == 2
                if geo_ok != _dedekind_criterion(f, p, disc):
                    raise InternalCheckError(
                        f"Dedekind and the mod-p^2 classifier disagree at "
                        f"p={p} for {f}")
    conditional += _unproved(pending)
    return DensityEstimate(
        hits, samples, seed, reference, Fraction(8, trial_bound),
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
    hits = 0
    total = 0
    degenerate = 0
    for a1 in range(-R, R + 1):
        for a2 in range(-R * R, R * R + 1):
            total += 1
            verdict = maximality_scan(MonicPoly((a1, a2)), trial)
            if verdict.kind == "degenerate":
                degenerate += 1
            elif verdict.kind == "maximal_up_to":
                if not verdict.unconditional:
                    raise InternalCheckError("quadratic census verdict not certified")
                hits += 1
    return DensityEstimate(
        hits, total, extras={"R": R, "degenerate": degenerate,
                             "bias_vs_zeta2": hits / total - 0.6079271018540267})
