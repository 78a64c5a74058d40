"""Point-count tables, closed-point counts, truncated inverse zeta values
and the explicit convergence bounds they obey.

All truncation values are exact rationals; floating arithmetic appears
only inside the numeric inequality audit, which runs at a guard
precision well beyond the gap of each inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpf, log, exp, zeta as mp_zeta

from .ffield import is_prime


class InconsistentTable(Exception):
    """Point counts that cannot come from a scheme (Mobius inversion fails)."""


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


@dataclass(frozen=True)
class PointCountTable:
    """The vector (N_1, ..., N_emax) of #X(F_{p^e}) for one fiber."""

    p: int
    counts: tuple

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise InconsistentTable("negative point count")

    @property
    def e_max(self):
        return len(self.counts)

    def count(self, e: int) -> int:
        return self.counts[e - 1]


def closed_point_counts(table: PointCountTable) -> tuple:
    """Closed points by degree: a_e = (1/e) * sum_{f | e} mu(e/f) N_f.

    Rejects tables whose inversion is negative or non-integral, since no
    scheme can produce them.
    """
    a = []
    for e in range(1, table.e_max + 1):
        total = sum(mobius(e // f) * table.count(f) for f in _divisors(e))
        if total % e != 0 or total < 0:
            raise InconsistentTable(f"a_{e} = {total}/{e} is not a nonnegative integer")
        a.append(total // e)
    return tuple(a)


def reconstruct_counts(p: int, a: tuple) -> tuple:
    """Inverse of closed_point_counts: N_e = sum_{f | e} f * a_f."""
    return tuple(sum(f * a[f - 1] for f in _divisors(e)) for e in range(1, len(a) + 1))


def c0_estimate(table: PointCountTable, n: int) -> Fraction:
    """Smallest c with N_e <= c * p^{(n-1)e} on the observed range.

    n is the absolute dimension of the arithmetic model (fiber dimension
    n-1).  A lower estimate of any globally valid constant.
    """
    if n < 1:
        raise ValueError("absolute dimension must be >= 1")
    best = Fraction(0)
    for e in range(1, table.e_max + 1):
        best = max(best, Fraction(table.count(e), table.p ** ((n - 1) * e)))
    return best


def _reduced_fraction(num: int, p: int, exponent: int) -> Fraction:
    """num / p^exponent as a Fraction, skipping the gcd when num is a unit mod p.

    The divisibility check is linear in the size of num; the general
    Fraction constructor would run a full gcd against p^exponent.
    """
    if exponent == 0:
        return Fraction(num)
    if num % p == 0:           # not expected for our products; stay correct
        return Fraction(num, p ** exponent)
    try:
        return Fraction(num, p ** exponent, _normalize=False)
    except TypeError:          # future Pythons without the private switch
        return Fraction(num, p ** exponent)


@dataclass(frozen=True)
class ZetaTruncation:
    """A truncated local inverse zeta value with its tail bound."""

    p: int
    s: int
    r: int
    value: Fraction
    error_bound: Fraction
    a: tuple

    def as_report(self) -> dict:
        return {
            "p": self.p,
            "s": self.s,
            "r": self.r,
            "value_num": self.value.numerator,
            "value_den": self.value.denominator,
            "error_bound_num": self.error_bound.numerator,
            "error_bound_den": self.error_bound.denominator,
            "a_e": list(self.a),
        }


def truncation_exponent(a: tuple, s: int, r: int) -> int:
    """sum_{e <= r} s e a_e: the truncation's value has denominator p^this."""
    return s * sum(e * a[e - 1] for e in range(1, r + 1))


def local_zeta_inverse(table: PointCountTable, s: int, r: int,
                       fiber_dim: int) -> ZetaTruncation:
    """prod_{e <= r} (1 - p^{-se})^{a_e}, the degree-truncated local 1/zeta.

    Requires s >= fiber_dim + 1 (convergence of the full product).  The
    tail bound is 4*c0*p^{-delta*(r+1)} with delta = s - fiber_dim,
    where c0 is the observed count constant; at the arithmetic operating
    point s = fiber_dim + 2 this is the 4*c0*p^{-2(r+1)} bound.
    """
    if r > table.e_max:
        raise ValueError(f"truncation depth {r} exceeds table depth {table.e_max}")
    if r < 0:
        raise ValueError("truncation depth must be >= 0")
    delta = s - fiber_dim
    if delta < 1:
        raise ValueError(f"s = {s} is outside the convergence region for a "
                         f"{fiber_dim}-dimensional fiber")
    a = closed_point_counts(table)
    p = table.p
    # numerator and denominator stay coprime (p never divides p^{se} - 1),
    # so accumulate integers and skip Fraction's per-step renormalization,
    # whose gcd dominates everything at deep truncations
    num = 1
    for e in range(1, r + 1):
        num *= (p ** (s * e) - 1) ** a[e - 1]
    value = _reduced_fraction(num, p, truncation_exponent(a, s, r))
    c0 = c0_estimate(table, fiber_dim + 1)
    bound = 4 * c0 * Fraction(1, p ** (delta * (r + 1)))
    return ZetaTruncation(p, s, r, value, bound, a[:r])


@dataclass(frozen=True)
class GlobalZetaTruncation:
    """prod_{p <= R} of local truncations, with accumulated error bounds."""

    s: int
    prime_bound: int
    value: Fraction
    local_error: Fraction        # sum of the per-fiber truncation bounds
    tail_bound: Fraction | None  # 8*c0*value/R when s is in the integral range
    locals: tuple = field(repr=False, default=())

    @property
    def error_bound(self) -> Fraction:
        return self.local_error + (self.tail_bound or Fraction(0))


def global_zeta_inverse(tables: dict, s: int, prime_bound: int,
                        r_per_prime: dict | int, fiber_dim: int) -> GlobalZetaTruncation:
    """Product of local truncations over all primes p <= prime_bound.

    ``tables`` maps each prime to its PointCountTable and a dict
    ``r_per_prime`` each prime to its depth; a missing prime is an error,
    and so is prime_bound < 2, a product over no fibers.  The prime tail
    bound 8*c0*value/R applies only when s >= fiber_dim + 2, i.e. when
    the product over all primes converges; below that the product
    diverges to 0 and only the truncated value is meaningful.
    """
    if prime_bound < 2:
        raise ValueError(f"prime bound {prime_bound} leaves no fiber")
    primes = primes_up_to(prime_bound)
    locals_ = []
    value = Fraction(1)
    local_error = Fraction(0)
    c0_global = Fraction(0)
    for p in primes:
        if p not in tables:
            raise ValueError(f"missing point counts for the fiber at p = {p}")
        r = r_per_prime if isinstance(r_per_prime, int) else r_per_prime.get(p)
        if r is None:
            raise ValueError(f"missing truncation depth for the fiber at p = {p}")
        t = local_zeta_inverse(tables[p], s, r, fiber_dim)
        locals_.append(t)
        value *= t.value
        local_error += t.error_bound
        c0_global = max(c0_global, c0_estimate(tables[p], fiber_dim + 1))
    tail = None
    if s >= fiber_dim + 2:
        tail = 8 * c0_global * value / prime_bound
    return GlobalZetaTruncation(s, prime_bound, value, local_error, tail, tuple(locals_))


def primes_up_to(n: int) -> list:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = b"\x00" * len(range(p * p, n + 1, p))
    return [i for i, v in enumerate(sieve) if v]


# ----------------------------------------------------------------------
# Closed-form tables for the desk-scale reference fibers.


def projective_counts(p: int, m: int, e_max: int) -> PointCountTable:
    """#P^m(F_{p^e}) = 1 + q + ... + q^m."""
    return PointCountTable(p, tuple(
        sum(p ** (i * e) for i in range(m + 1)) for e in range(1, e_max + 1)))


def affine_counts(p: int, m: int, e_max: int) -> PointCountTable:
    """#A^m(F_{p^e}) = q^m."""
    return PointCountTable(p, tuple(p ** (m * e) for e in range(1, e_max + 1)))


def projective_zeta_inverse_exact(p: int, m: int, s: int) -> Fraction:
    """1/zeta of P^m over F_p: prod_{i <= m} (1 - p^{i-s})."""
    value = Fraction(1)
    for i in range(m + 1):
        value *= 1 - Fraction(p ** i, p ** s)
    return value


def affine_zeta_inverse_exact(p: int, m: int, s: int) -> Fraction:
    """1/zeta of A^m over F_p: 1 - p^{m-s}."""
    return 1 - Fraction(p ** m, p ** s)


# ----------------------------------------------------------------------
# Numeric audit of the convergence bounds.


@dataclass
class BoundReport:
    checks: int = 0
    violations: list = field(default_factory=list)

    def record(self, ok: bool, label: str, where):
        self.checks += 1
        if not ok:
            self.violations.append({"check": label, "at": where})

    @property
    def ok(self):
        return not self.violations

    def as_report(self) -> dict:
        return {"checks": self.checks, "violations": self.violations,
                "ok": self.ok}


def verify_section_bounds(p_list, e_max: int, r_max: int,
                          fiber_dims=(1, 2)) -> BoundReport:
    """Audit the convergence inequalities on a finite grid.

    Checks, for each prime p in p_list and each projective fiber P^m with
    m in fiber_dims, s = m + 2 (the arithmetic operating point):

    * -log(1 - p^{-e}) < 2 p^{-e} for e <= e_max;
    * 0 < log zeta_{P^m/F_p}(s) <= 4 c0 p^{-2};
    * |truncation(r) - exact 1/zeta| <= 4 c0 p^{-2(r+1)} for r <= r_max,
      evaluated through the logarithm so that closed-point multiplicities
      in the billions stay cheap;
    * |prod_{p <= R} 1/zeta_p - 1/zeta_global| < 8 c0 / (R zeta_global)
      for 5 <= R <= 50, using the Riemann zeta closed form
      for the P^m model over the integers.

    The working precision of 160 bits is far beyond the gap of every
    inequality on the grid (the tightest gaps sit around 2^-80, so 80
    guard bits are left).  Violations are report content, not exceptions;
    an empty p_list or one with a non-prime entry is a ValueError.
    """
    if not p_list or not all(is_prime(p) for p in p_list):
        raise ValueError(f"p_list must be a nonempty list of primes, got {list(p_list)}")
    report = BoundReport()
    old_prec = mp.prec
    mp.prec = 160
    try:
        for p in p_list:
            for e in range(1, e_max + 1):
                lhs = -log(1 - mpf(p) ** (-e))
                rhs = 2 * mpf(p) ** (-e)
                report.record(lhs < rhs, "boundlog", {"p": p, "e": e})
        for m in fiber_dims:
            s = m + 2
            for p in p_list:
                table = projective_counts(p, m, max(e_max, r_max))
                a = closed_point_counts(table)
                c0 = c0_estimate(table, m + 1)
                c0_f = mpf(c0.numerator) / c0.denominator
                exact = projective_zeta_inverse_exact(p, m, s)
                exact_f = mpf(exact.numerator) / exact.denominator
                log_zeta = -log(exact_f)
                report.record(0 < log_zeta <= 4 * c0_f * mpf(p) ** (-2),
                              "boundXp", {"p": p, "m": m})
                log_trunc = mpf(0)
                for r in range(0, r_max + 1):
                    if r >= 1:
                        log_trunc += a[r - 1] * log(1 - mpf(p) ** (-s * r))
                    gap = abs(exp(log_trunc) - exact_f)
                    bound = 4 * c0_f * mpf(p) ** (-2 * (r + 1))
                    report.record(gap <= bound, "zetafinite",
                                  {"p": p, "m": m, "r": r})
            zeta_global = mpf(1)
            for i in range(m + 1):
                zeta_global *= mp_zeta(s - i)
            c0_glob = max(c0_estimate(projective_counts(p, m, 4), m + 1)
                          for p in p_list)
            for R in range(5, 51):
                prod = mpf(1)
                for p in primes_up_to(R):
                    v = projective_zeta_inverse_exact(p, m, s)
                    prod *= mpf(v.numerator) / v.denominator
                lhs = abs(prod - 1 / zeta_global)
                rhs = 8 * mpf(c0_glob.numerator) / c0_glob.denominator / (R * zeta_global)
                report.record(lhs < rhs, "zetaintegral", {"m": m, "R": R})
    finally:
        mp.prec = old_prec
    return report
