"""Point-count tables, closed-point counts, truncated inverse zeta values
and the explicit convergence bounds they obey.

One type, ``ZetaTruncation``, is every truncated product: over one fiber
(``local_zeta_inverse``) or over the fibers at the primes up to a bound
(``global_zeta_inverse``), with ``error_bound`` the sum of the local
tail bounds.

All truncation values are exact rationals; floating arithmetic appears
only inside the numeric inequality audit, which runs at a guard
precision well beyond the gap of each inequality.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, log10, prod

from .ffield import _prime_factors, is_prime

# every integer of a report has fewer decimal digits: reports print them
# through decimal, which ignores sys.set_int_max_str_digits
DIGIT_CAP = 2_000_000


def exact_context() -> decimal.Context:
    """A decimal context in which integer arithmetic is exact: unbounded
    precision and exponents, and any rounding raises Inexact instead of
    printing a wrong digit."""
    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                           Emin=decimal.MIN_EMIN,
                           traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                  decimal.Overflow, decimal.Inexact])


class InconsistentTable(Exception):
    """Point counts that cannot come from a scheme (some closed-point
    count a_e is negative or not an integer)."""


class BudgetExceeded(Exception):
    """A computation would overrun one of the desk-scale budgets."""


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


def closed_point_counts(table: PointCountTable) -> tuple:
    """Closed points by degree, from N_e = sum_{f | e} f a_f: each f a_f is
    added to the running sums of the multiples of f as soon as it is
    known, so a_e = (N_e - sum_{f | e, f < e} f a_f) / e, in
    O(e_max log e_max) additions.

    Rejects tables whose a_e is negative or non-integral, since no
    scheme can produce them.
    """
    below = [0] * (table.e_max + 1)
    a = []
    for e, n_e in enumerate(table.counts, 1):
        total = n_e - below[e]
        if total % e != 0 or total < 0:
            raise InconsistentTable(f"a_{e} = {total}/{e} is not a nonnegative integer")
        a.append(total // e)
        for multiple in range(2 * e, table.e_max + 1, e):
            below[multiple] += total
    return tuple(a)


def c0_estimate(table: PointCountTable, n: int) -> Fraction:
    """Smallest c with N_e <= c * p^{(n-1)e} on the observed range.

    n is the absolute dimension of the arithmetic model (fiber dimension
    n-1).  A lower estimate of any globally valid constant, except on a
    ``projective_counts`` table, where N_e / p^{(n-1)e} = sum_{j <= n-1}
    p^{-je} decreases in e and the e = 1 value is the proven constant.
    """
    if n < 1:
        raise ValueError("absolute dimension must be >= 1")
    return max((Fraction(n_e, table.p ** ((n - 1) * e))
                for e, n_e in enumerate(table.counts, 1)), default=Fraction(0))


def _coprime_fraction(num: int, den: int) -> Fraction:
    """num / den as a Fraction, for num and den known to be coprime: no gcd."""
    try:
        return Fraction(num, den, _normalize=False)
    except TypeError:          # future Pythons without the private switch
        return Fraction(num, den)


def _valuation(n: int, q: int) -> int:
    """The exponent of the prime q in the nonzero integer n."""
    k = 0
    while n % q == 0:
        n //= q
        k += 1
    return k


@dataclass(frozen=True)
class ZetaTruncation:
    """The product over distinct primes p of the degree-truncated local
    inverse zeta values prod_{e <= r} (1 - p^{-se})^{a_e}: over one fiber
    for ``local_zeta_inverse``, over the primes p <= prime_bound for
    ``global_zeta_inverse``.  It is kept as its inputs: a point table per
    prime, each table's counts a_e for e <= r, s, r, fiber_dim and the
    prime bound.

    The factor at p is num_p / p^x_p with num_p = prod_{e <= r}
    (p^{se} - 1)^{a_e} and x_p = sum_{e <= r} s e a_e
    (``truncation_exponent``), kept in this factored form: ``value`` forms
    the exact Fraction on first use, and ``decimal_digits`` multiplies its
    numerator and denominator from their factors in decimal.  Each table's
    count constant (``c0s``) is estimated when a bound is first read, and
    ``error_bound`` and ``tail_bound`` share it.
    """

    tables: tuple                # one PointCountTable per prime, at distinct primes
    a: tuple                     # each table's closed-point counts a_e, e <= r
    s: int
    r: int
    fiber_dim: int
    prime_bound: int

    @cached_property
    def powers(self) -> tuple:
        """The (p, x_p) of the denominator prod p^x_p, one per table."""
        return tuple((table.p, truncation_exponent(a, self.s, self.r))
                     for table, a in zip(self.tables, self.a))

    @cached_property
    def c0s(self) -> tuple:
        """The observed count constant of each table (``c0_estimate``)."""
        return tuple(c0_estimate(table, self.fiber_dim + 1) for table in self.tables)

    @cached_property
    def error_bound(self) -> Fraction:
        """sum_p 4*c0_p*p^{-delta*(r+1)} with delta = s - fiber_dim, the sum of
        the local tail bounds, its denominator checked before any power is
        formed.  Terms reduced over powers of distinct primes (``_tail_term``)
        sum, in pairs by cross-multiplication, to a reduced fraction: no gcd."""
        depth = (self.s - self.fiber_dim) * (self.r + 1)
        terms = [_tail_term(table.p, c0, depth) for table, c0 in zip(self.tables, self.c0s)]
        _check_digits([(p, x) for p, _, x in terms], "the error bound's denominator")
        return _coprime_fraction(*_balanced_product(
            ((num, p ** x) for p, num, x in terms),
            lambda f, g: (f[0] * g[1] + g[0] * f[1], f[1] * g[1])))

    @cached_property
    def tail_bound(self) -> Fraction | None:
        """8*c0*value/R, c0 the largest of the tables' and R the prime bound,
        for s in the integral range, else None: the bound of the primes past
        R for a product over every prime up to R (``global_zeta_inverse``)."""
        if self.s < self.fiber_dim + 2:
            return None
        return 8 * max(self.c0s) * self.value / self.prime_bound

    @cached_property
    def value(self) -> Fraction:
        return _product_value(self)

    def decimal_digits(self) -> tuple:
        """``value``'s numerator and denominator as exact integral Decimals."""
        return _decimal_digits(self)


def truncation_exponent(a: tuple, s: int, r: int) -> int:
    """sum_{e <= r} s e a_e: the truncation's value has denominator p^this."""
    return s * sum(e * a[e - 1] for e in range(1, r + 1))


def _tail_term(p: int, c0: Fraction, depth: int) -> tuple:
    """4*c0/p^depth, for c0 over a power of p, as (p, num, x) with num / p^x
    reduced, formed without p^depth."""
    num, x = 4 * c0.numerator, depth + _valuation(c0.denominator, p)
    if not num:
        return p, 0, 0
    j = min(_valuation(num, p), x)
    return p, num // p ** j, x - j


def _check_digits(exponents, what: str = "the truncation's denominator"):
    """Refuse ``what``, a product prod p^x of (p, x) pairs, of DIGIT_CAP digits
    or more.  An x past DIGIT_CAP / log10(p), compared exactly, passes alone:
    x * log10(p) would overflow a float for a long x.  The message names the
    first four powers and the last of a product over many primes."""
    if (any(x >= DIGIT_CAP / log10(p) for p, x in exponents)
            or sum(x * log10(p) for p, x in exponents) >= DIGIT_CAP):
        named = exponents if len(exponents) <= 8 else [*exponents[:4], exponents[-1]]
        powers = [f"{p}^{x}" for p, x in named]
        if len(named) < len(exponents):
            powers[4:4] = [f"... ({len(exponents) - 5} more)"]
        raise BudgetExceeded(f"{what} {' * '.join(powers)} has more than {DIGIT_CAP} digits")


def _check_convergence(s: int, fiber_dim: int):
    """Refuse an s outside the convergence region s >= fiber_dim + 1."""
    if s - fiber_dim < 1:
        raise ValueError(f"s = {s} is outside the convergence region for a "
                         f"{fiber_dim}-dimensional fiber")


def _truncated_product(tables, s: int, r: int, fiber_dim: int,
                       prime_bound: int) -> ZetaTruncation:
    """The truncation over the tables at depth r and exponent s, each table
    checked and passed through ``closed_point_counts`` in turn, and its
    denominator then through ``_check_digits``; its value and bounds are
    formed when read."""
    a = []
    for table in tables:
        if not 0 <= r <= table.e_max or table.e_max < 1:
            raise ValueError(f"need 0 <= r <= table depth and a table depth >= 1, "
                             f"got r = {r} on a table of depth {table.e_max} "
                             f"at p = {table.p}")
        _check_convergence(s, fiber_dim)
        a.append(closed_point_counts(table)[:r])
    t = ZetaTruncation(tuple(tables), tuple(a), s, r, fiber_dim, prime_bound)
    _check_digits(t.powers)
    return t


def local_zeta_inverse(table: PointCountTable, s: int, r: int,
                       fiber_dim: int) -> ZetaTruncation:
    """prod_{e <= r} (1 - p^{-se})^{a_e}, the degree-truncated local 1/zeta,
    with the prime bound p.

    Requires s >= fiber_dim + 1 (convergence of the full product).  The
    tail bound is 4*c0*p^{-delta*(r+1)} with delta = s - fiber_dim,
    where c0 is the observed count constant, so the table needs depth
    >= 1 even at r = 0; at the arithmetic operating point
    s = fiber_dim + 2 this is the 4*c0*p^{-2(r+1)} bound.  A value whose
    denominator has DIGIT_CAP or more digits is refused before the product.
    """
    return _truncated_product([table], s, r, fiber_dim, table.p)


def global_zeta_inverse(tables: dict, s: int, prime_bound: int, r: int,
                        fiber_dim: int) -> ZetaTruncation:
    """Product of the local truncations of depth r over the primes p <= prime_bound.

    ``tables`` maps each prime to its PointCountTable; a missing prime or
    a table of another prime is an error, and so is prime_bound < 2, a
    product over no fibers.  A product whose denominator has DIGIT_CAP or
    more digits is refused before the first local product.  Its
    ``error_bound`` is the sum of the local ones.  The prime tail bound
    8*c0*value/R applies only when s >= fiber_dim + 2, i.e. when the
    product over all primes converges; below that the product diverges
    to 0 and only the truncated value is meaningful.
    """
    if prime_bound < 2:
        raise ValueError(f"prime bound {prime_bound} leaves no fiber")
    primes = primes_up_to(prime_bound)
    for p in primes:
        if p not in tables or tables[p].p != p:
            raise ValueError(f"need the point counts of the fiber at p = {p}")
    return _truncated_product([tables[p] for p in primes], s, r, fiber_dim, prime_bound)


def _roots_of_unity(q: int, exponents) -> set:
    """The z in F_q with z^k = 1 for some k in exponents: the union of the
    subgroups of order g = gcd(k, q - 1) of the cyclic group F_q^*.  For
    g <= 2 that is {1} or {1, q - 1}; otherwise the powers of
    z = x^((q - 1) / g) for the first x = 1, 2, ... at which z has order
    exactly g, z^(g / l) != 1 for every prime l | g (a primitive root
    always does)."""
    roots = set()
    for g in {gcd(k, q - 1) for k in exponents}:
        if g <= 2:
            roots.update((1, q - 1)[:g])
            continue
        cofactors = [g // ell for ell in _prime_factors(g)]
        z = next(z for z in (pow(x, (q - 1) // g, q) for x in range(1, q))
                 if all(pow(z, c, q) != 1 for c in cofactors))
        power = 1
        for _ in range(g):
            roots.add(power)
            power = power * z % q
    return roots


def _shared_exponents(t: ZetaTruncation) -> list:
    """The exponent of each q shared by the numerator prod num_u and the
    denominator prod u^x_u of the truncation, a product over distinct
    primes u.  Each num_u = prod_{e <= r} (u^{se} - 1)^{a_e} is prime to
    u, so the exponent of q is the least of x_q and v_q(prod num_u).
    For u != q, q divides u^k - 1 exactly when u mod q is a k-th root of
    unity in F_q, one of gcd(k, q - 1); so for each such root z of the
    exponents k = se in play the walk visits only the primes u = z (mod q),
    sum_q (number of roots) * R / q steps for the largest prime R, and
    reads a valuation only off a factor that q divides.  The walk for q
    stops once the valuation reaches x_q, past which it only grows."""
    by_prime = {table.p: a for table, a in zip(t.tables, t.a)}
    present = bytearray(max(by_prime, default=0) + 1)
    for u in by_prime:
        present[u] = 1
    exponents = {t.s * e for a in t.a for e, a_e in enumerate(a, 1) if a_e}
    shared = []
    for q, x in t.powers:
        v = 0
        for dv in (a_e * _valuation(u ** (t.s * e) - 1, q)
                   for z in _roots_of_unity(q, exponents)
                   for u in compress(range(z, len(present), q), present[z::q])
                   for e, a_e in enumerate(by_prime[u], 1)
                   if a_e and pow(z, t.s * e, q) == 1):
            v += dv
            if v >= x:
                break
        shared.append(min(x, v))
    return shared


def _factors(t: ZetaTruncation) -> list:
    """The (p^{se} - 1, a_e) of the numerator prod (p^{se} - 1)^{a_e}."""
    return [(table.p ** (t.s * e) - 1, a_e)
            for table, a in zip(t.tables, t.a) for e, a_e in enumerate(a, 1)]


def _product_value(t: ZetaTruncation) -> Fraction:
    """The truncation's value, multiplied as integers from the factors,
    with one exact division by the ``_shared_exponents`` powers and no
    gcd: Fraction's product would renormalize at every factor, and that
    gcd dominates deep truncations."""
    num = 1
    for f, a_e in _factors(t):
        num *= f ** a_e
    shared = _shared_exponents(t)
    num //= prod(p ** k for (p, _), k in zip(t.powers, shared))
    return _coprime_fraction(num, prod(p ** (x - k) for (p, x), k in zip(t.powers, shared)))


def _decimal_digits(t: ZetaTruncation) -> tuple:
    """The numerator and denominator of ``_product_value`` as exact integral
    Decimals multiplied from the factors by libmpdec, whose products and
    str are subquadratic, without forming the int product.  The numerator
    is one square-and-multiply over the bits of all the a_e at once
    (Shamir's trick), half the work of one power per factor; in
    ``exact_context`` a remainder of its division by the shared powers
    raises Inexact instead of printing a wrong digit.  Every product of
    many factors is taken pairwise (``_balanced_product``)."""
    factors = _factors(t)
    shared = _shared_exponents(t)
    with decimal.localcontext(exact_context()):
        num = decimal.Decimal(1)
        for bit in reversed(range(max((a_e for _, a_e in factors), default=0).bit_length())):
            num = num * num * _balanced_product(
                decimal.Decimal(f) for f, a_e in factors if a_e >> bit & 1)
        num /= _balanced_product(decimal.Decimal(p) ** k
                                 for (p, _), k in zip(t.powers, shared))
        den = _balanced_product(decimal.Decimal(p) ** (x - k)
                                for (p, x), k in zip(t.powers, shared))
    return num, den


def _balanced_product(values, op=lambda a, b: a * b):
    """The values combined by ``op``, multiplied by default, in pairs, then
    pairs of pairs: the long products meet operands of equal length, where
    libmpdec's and int's are subquadratic, while a running product over n
    factors is quadratic in n.  No values give Decimal 1."""
    values = list(values) or [decimal.Decimal(1)]
    while len(values) > 1:
        values = [op(a, b) for a, b in zip(values[::2], values[1::2])] + values[len(values) & ~1:]
    return values[0]


def primes_up_to(n: int) -> list:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = b"\x00" * len(range(p * p, n + 1, p))
    return list(compress(range(n + 1), sieve))


# ----------------------------------------------------------------------
# Closed-form tables for the desk-scale reference fibers.


def projective_counts(p: int, m: int, e_max: int) -> PointCountTable:
    """#P^m(F_{p^e}) = 1 + q + ... + q^m."""
    return PointCountTable(p, tuple(
        sum(p ** (i * e) for i in range(m + 1)) for e in range(1, e_max + 1)))


def projective_zeta_inverse_exact(p: int, m: int, s: int) -> Fraction:
    """1/zeta of P^m over F_p: prod_{i <= m} (1 - p^{i-s})."""
    value = Fraction(1)
    for i in range(m + 1):
        value *= 1 - Fraction(p ** i, p ** s)
    return value


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

    c0 is estimated on the point table of depth max(e_max, r_max, 1).
    The working precision of 160 bits is far beyond the gap of every
    inequality on the grid (the tightest gaps sit around 2^-80, so 80
    guard bits are left).  Violations are report content, not exceptions;
    an empty p_list, one with a non-prime entry, or a negative depth is a
    ValueError.
    """
    if not p_list or not all(is_prime(p) for p in p_list):
        raise ValueError(f"p_list must be a nonempty list of primes, got {list(p_list)}")
    if e_max < 0 or r_max < 0:
        raise ValueError(f"depths must be nonnegative, got e_max={e_max}, r_max={r_max}")
    # imported here: the audit is the only user, and mpmath costs every
    # command line call a noticeable share of its start-up
    from mpmath import mp, mpf, log, exp, zeta as mp_zeta
    report = BoundReport()
    with mp.workprec(160):
        for p in p_list:
            for e in range(1, e_max + 1):
                lhs = -log(1 - mpf(p) ** (-e))
                rhs = 2 * mpf(p) ** (-e)
                report.record(lhs < rhs, "boundlog", {"p": p, "e": e})
        for m in fiber_dims:
            s = m + 2
            for p in p_list:
                table = projective_counts(p, m, max(e_max, r_max, 1))
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
    return report
