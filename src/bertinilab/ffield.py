"""Exact arithmetic in prime fields, extension fields and Galois rings.

Field elements are encoded as plain Python integers: the element
``c_0 + c_1*w + ... + c_{e-1}*w^{e-1}`` of GF(p^e) (``w`` the class of T
modulo the defining polynomial) is stored as the base-p integer
``c_0 + c_1*p + ... + c_{e-1}*p^{e-1}``.  Galois ring elements of
GR(p^2, e) are tuples ``(c_0, ..., c_{e-1})`` of digits in [0, p^2), the
coefficients of w^0 .. w^{e-1}.  Encodings are dense, hashable and
cheap to compare, which keeps exhaustive desk-scale scans fast.

Prime fields compute with Python integers mod p and are capped at 2^24
elements.  Extension fields are capped at 2^16 elements, and every
operation on them is a table lookup: exp/log tables for products,
Zech logarithms log(1 + g^k) for sums, and a Frobenius table.  A prime
field builds the same tables when a point scan first asks for its logs
(``GF.log_arrays``).  The digit encoding matters only when those tables
are built and at the Galois-ring boundary (lifts and reductions mod p).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache
from itertools import compress, product
from math import isqrt

import numpy as np

FIELD_SIZE_CAP = 1 << 24      # prime fields
TABLE_SIZE_CAP = 1 << 16      # extension fields, all with tables

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k for k <= 5, the least odd composite that is a strong pseudoprime to
# the first k of _MR_BASES (OEIS A014233): below psi_k those k bases are a
# proof, and below psi_5 they cost at most 5 modular powers.
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747)
# BPSW has no pseudoprime below 2^64 (Baillie, Fiori and Wagstaff, Math.
# Comp. 2021): from psi_5 there it is a proof for the price of about 5 powers.
_BPSW_BOUND = 1 << 64
# psi_12 (399165290221 * 798330580441; Sorenson and Webster, Math. Comp.
# 2017): below it all twelve bases are a proof.
MR_DETERMINISTIC_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Trial division by the bases 2..37, then the test that is cheapest
    in n's range and a proof there.

    Below psi_5 only the first k bases run, k the least index with
    n < psi_k; from psi_5 below 2^64, BPSW: a strong probable-prime test
    to base 2 and a strong Lucas test.  Deterministic for
    n < MR_DETERMINISTIC_BOUND = psi_12: at and above 2^64 all 12 bases
    run, a proof below psi_12, and above it a True is only a strong
    probable prime.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    return _is_prime_past_trial(n)


def _is_prime_past_trial(n: int) -> bool:
    """``is_prime`` past its trial division, for an odd n > 2: for a caller
    that has divided out 2.  Its tests need nothing more: psi_k and the
    BPSW bound count every odd composite, small prime factors or not, and
    the strong Lucas test, which needs n > 37, runs only from psi_5."""
    if n < _MR_PSI[-1]:
        bases = _MR_BASES[:bisect_right(_MR_PSI, n) + 1]
    elif n < _BPSW_BOUND:
        return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)
    else:
        bases = _MR_BASES
    return all(_strong_probable_prime(n, a) for a in bases)


def _is_prime_past_trial_batch(ns) -> list:
    """``_is_prime_past_trial`` of each n of ns, odd n > 2, in order.  The
    strong base-2 tests of the n in [psi_5, 2^63) run as one numpy pass
    (``_strong_base2_batch``), and only the n that pass it take the scalar
    strong Lucas test; every other n goes through ``_is_prime_past_trial``."""
    wide = [_MR_PSI[-1] <= n < 1 << 63 for n in ns]
    base2 = iter(_strong_base2_batch(list(compress(ns, wide))))
    return [(next(base2) and _strong_lucas_probable_prime(n)) if w
            else _is_prime_past_trial(n) for n, w in zip(ns, wide)]


def _strong_base2_batch(ns) -> list:
    """``_strong_probable_prime(n, 2)`` for each odd n, 2 < n < 2^63, of the
    list ns, in exact uint64 Montgomery arithmetic with R = 2^64.

    Products.  A 64x64-bit product's high word is formed from the 32-bit
    halves: with a = a1 2^32 + a0 and b = b1 2^32 + b0, every partial
    product a_i b_j is below 2^64, and mid = (a0 b0 >> 32) + lo32(a0 b1) +
    lo32(a1 b0) < 3 2^32, so the high word a1 b1 + (a0 b1 >> 32) +
    (a1 b0 >> 32) + (mid >> 32) is exact; the low word is the wrapping
    product.  No float takes part, and every constant is an np.uint64.

    Montgomery.  n' = -n^-1 mod 2^64 comes from Newton's iteration
    y <- y (2 - n y) started at y = n, which is n^-1 mod 2^3 for odd n;
    each step doubles the correct bits, 3 -> 96 in five.  For a, b < n the
    reduction of T = a b < n R is t = (T + m n) / R with m = T_lo n' mod R:
    T + m n = 0 mod R, so the low words T_lo + lo(m n) sum to 0 or to R,
    and to R exactly when T_lo != 0, which is the carry into the high
    words.  t < (n^2 + R n) / R < 2n < 2^64 because n < 2^63, so one
    conditional subtraction of n gives a b R^-1 mod n.

    The test.  1 is R mod n = ((2^64 - 1) mod n + 1) mod n in Montgomery
    form, and -1 is n minus that.  Multiplying by the base 2 is a doubling,
    x + x < 2n < 2^64, then a conditional subtraction.  d = (n - 1) / 2^s
    differs per n, so the ladder walks the bits of the longest d from the
    top: each n squares, and doubles where its own bit is set; below its
    top bit an n squares 1 to 1.  x = 2^d then passes at 1 or -1, and the
    s - 1 squarings after it, masked by each n's own s, pass at -1.
    """
    if not ns:
        return []
    zero, one, two, half = np.uint64(0), np.uint64(1), np.uint64(2), np.uint64(32)
    low = np.uint64(0xFFFFFFFF)
    n = np.array(ns, dtype=np.uint64)
    n0, n1 = n & low, n >> half

    def high(a0, a1, b0, b1):
        """The high word of (a1 2^32 + a0)(b1 2^32 + b0), from the halves."""
        cross0, cross1 = a0 * b1, a1 * b0
        mid = (a0 * b0 >> half) + (cross0 & low) + (cross1 & low)
        return a1 * b1 + (cross0 >> half) + (cross1 >> half) + (mid >> half)

    y = n.copy()
    for _ in range(5):
        y *= two - n * y
    n_neg_inv = zero - y

    def reduce(t):
        """t mod n for t < 2n: t - n wraps past t when t < n."""
        return np.minimum(t, t - n)

    def square(x):
        x0, x1 = x & low, x >> half
        t_lo = x * x
        m = t_lo * n_neg_inv
        return reduce(high(x0, x1, x0, x1) + high(m & low, m >> half, n0, n1)
                      + (t_lo != zero))

    mont_one = (np.uint64(0xFFFFFFFFFFFFFFFF) % n + one) % n
    minus_one = n - mont_one
    d, s = n - one, np.zeros_like(n)
    for k in (32, 16, 8, 4, 2, 1):      # s = the trailing zeros of n - 1
        k = np.uint64(k)
        even = (d & ((one << k) - one)) == 0
        d = np.where(even, d >> k, d)
        s += even * k
    x = mont_one
    for k in range(int(d.max()).bit_length() - 1, -1, -1):
        x = square(x)
        x = reduce(x + x * ((d >> np.uint64(k)) & one))
    passed = (x == mont_one) | (x == minus_one)
    for j in range(1, int(s.max())):
        x = square(x)
        passed |= (x == minus_one) & (s > np.uint64(j))
    return passed.tolist()


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a for an odd n > a."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for an odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters, for an odd n > 37.

    D is the first of 5, -7, 9, -11, ... with (D / n) = -1 (none exists
    when n is a square, so squares are rejected first), P = 1 and
    Q = (1 - D) / 4.  With n + 1 = d 2^s, d odd, n passes when U_d = 0 or
    V_{d 2^r} = 0 mod n for some r < s.  The ladder keeps (V_k, V_{k+1}, Q^k)
    through the bits of d, by V_2k = V_k^2 - 2Q^k and
    V_{2k+1} = V_k V_{k+1} - Q^k, and reads U_d off D U_d = 2V_{d+1} - V_d.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False                 # 1 < |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    v, w, qk = 2, 1, 1                   # V_0, V_1, Q^0
    for bit in bin(d)[2:]:
        if bit == "1":
            v, w = (v * w - qk) % n, (w * w - 2 * qk * Q) % n
            qk = qk * qk * Q % n
        else:
            v, w = (v * v - 2 * qk) % n, (v * w - qk) % n
            qk = qk * qk % n
    if v == 0 or (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


# ----------------------------------------------------------------------
# Dense polynomials over Z/m, little-endian coefficient lists.

def poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_sub(a, b, m):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return poly_trim(out)


def poly_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % m
    return poly_trim(out)


def poly_divmod(a, b, m, quotient=True):
    """Quotient and remainder of a by b over Z/m; lc(b) must be a unit.

    The remainder comes back reduced mod m and trimmed.  Each step pops
    the leading term, which the step cancels by construction, so only
    b's lower terms are subtracted.  With ``quotient=False`` no quotient
    is built and None stands in its place.
    """
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv_lead = pow(b[-1], -1, m)
    rem = [c % m for c in a]
    db = len(b) - 1
    low = b[:-1]
    quo = [0] * max(0, len(rem) - db) if quotient else None
    while len(rem) > db:
        c = rem.pop() * inv_lead % m
        if c:
            k = len(rem) - db
            for i, cb in enumerate(low, k):
                rem[i] = (rem[i] - c * cb) % m
            if quotient:
                quo[k] = c
    return (poly_trim(quo) if quotient else None), poly_trim(rem)


def poly_mod(a, b, m):
    """Remainder of a by b over Z/m, without building the quotient."""
    return poly_divmod(a, b, m, quotient=False)[1]


def poly_gcd(a, b, p):
    """Monic gcd over the field Z/p of any integer list a and a list b
    reduced mod p and trimmed; a fresh list, [] when both are zero.

    A nonzero constant b gives 1 at once.  Otherwise the first remainder
    is ``poly_mod(a, b, p)``, which reduces and trims a, and one
    remainder loop follows on lists the loop owns, with no quotient and
    no copy per step.  Each division takes one inverse of the divisor's
    leading coefficient and negates and scales the divisor's lower terms
    by it once; it then eliminates the dividend from the top in place,
    one popped term at a time, and trims the remainder before the swap.
    """
    if not b:
        a = poly_trim([c % p for c in a])
    elif len(b) == 1:
        return [1]
    else:
        a, b = list(b), poly_mod(a, b, p)
    while b:
        db = len(b) - 1
        if not db:
            return [1]
        inv = p - pow(b[-1], -1, p)
        low = [c * inv % p for c in b[:-1]]
        while len(a) > db:
            c = a.pop()
            if c:
                k = len(a) - db
                for cb in low:
                    a[k] = (a[k] + c * cb) % p
                    k += 1
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def poly_powmod(base, k, mod, p):
    result = [1]
    base = poly_mod(base, mod, p)
    while k:
        if k & 1:
            result = poly_mod(poly_mul(result, base, p), mod, p)
        base = poly_mod(poly_mul(base, base, p), mod, p)
        k >>= 1
    return result


def poly_derivative(a, m):
    return poly_trim([i * c % m for i, c in enumerate(a)][1:])


def _check_field_size(p: int, e: int):
    """Refuse GF(p^e) beyond its cap: FIELD_SIZE_CAP for e = 1, else TABLE_SIZE_CAP."""
    cap = FIELD_SIZE_CAP if e == 1 else TABLE_SIZE_CAP
    if p ** e > cap:
        raise ValueError(f"field size {p}^{e} exceeds the 2^{cap.bit_length() - 1} cap")


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def poly_is_irreducible(f, p) -> bool:
    """Rabin irreducibility test for a monic polynomial over Z/p."""
    e = len(f) - 1
    if e <= 1:
        return e == 1       # below, x must already be reduced mod f
    x = [0, 1]
    xq = poly_powmod(x, p ** e, f, p)
    if poly_sub(xq, x, p):
        return False
    for ell in _prime_factors(e):
        xr = poly_powmod(x, p ** (e // ell), f, p)
        if len(poly_gcd(poly_sub(xr, x, p), f, p)) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def find_irreducible(p: int, e: int) -> tuple:
    """Smallest monic irreducible of degree e over Z/p.

    Smallest in lexicographic order on the coefficient tuple
    (c_0, ..., c_{e-1}), constant term first.  Deterministic, so field
    constructions are reproducible across runs.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError("degree must be >= 1")
    _check_field_size(p, e)
    if e == 1:
        return (0, 1)
    # c_0 = 0 is skipped: T divides those, so none is irreducible for e >= 2
    for tup in product(range(1, p), *[range(p)] * (e - 1)):
        f = list(tup) + [1]
        if poly_is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


# ----------------------------------------------------------------------


class GF:
    """The finite field GF(p^e), elements encoded as ints in [0, p^e)."""

    def __init__(self, p: int, e: int = 1):
        # validates p, e and the size cap
        self.modulus = find_irreducible(p, e)
        self.p = p
        self.e = e
        self.q = p ** e
        if e > 1:
            self._build_tables()

    # -- encoding helpers

    def encode(self, coeffs) -> int:
        x = 0
        for c in reversed(list(coeffs)):
            x = x * self.p + (c % self.p)
        return x

    def decode(self, x: int) -> list:
        p, out = self.p, []
        for _ in range(self.e):
            out.append(x % p)
            x //= p
        return out

    def _build_tables(self):
        p, q = self.p, self.q
        modulus = list(self.modulus)
        # a multiplicative generator, by order testing: g = 1 in F_2
        factors = _prime_factors(q - 1)
        g = next(c for c in range(1, q)
                 if all(poly_powmod(self.decode(c), (q - 1) // f, modulus, p) != [1]
                        for f in factors))
        # x -> g*x is F_p-linear on the digits.  Row i of its matrix holds the
        # digits of g*T^i: T times row i - 1, reduced by the monic modulus
        rows = [self.decode(g)]
        for _ in range(self.e - 1):
            top = rows[-1][-1]
            rows.append([(c - top * m) % p for c, m in zip([0] + rows[-1][:-1], modulus)])
        # int32 throughout: a digit sum is below e (p - 1)^2 < 2^31 for q <= 2^16
        rows = np.array(rows, dtype=np.int32)
        places = np.array([p ** i for i in range(self.e)], dtype=np.int32)
        step = (self.digit_array() @ rows % p @ places).tolist()
        # exp holds two periods, so mul and add index it without a reduction,
        # then q - 1 zeros, where the Zech entry of 1 + (-1) = 0 points
        exp = [0] * (3 * (q - 1))
        log = [0] * q
        acc = 1
        for k in range(q - 1):
            exp[k] = acc
            exp[k + q - 1] = acc
            log[acc] = k
            acc = step[acc]
        # Zech logarithms, zech[k] = log(1 + g^k): adding 1 changes only the
        # constant digit, and 1 + x = 0 exactly when x = p - 1
        zech = [log[x - x % p + (x + 1) % p] if x != p - 1 else 2 * (q - 1)
                for x in exp[:q - 1]]
        self._exp, self._log, self._zech = exp, log, zech
        self._log_neg_one = log[p - 1]      # 0 in characteristic 2
        # x^p = g^(p log x)
        self._frob = [0] + [exp[log[x] * p % (q - 1)] for x in range(1, q)]

    # -- arithmetic: integers mod p for e = 1, table lookups otherwise

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        # a + b = a (1 + b/a)
        la = self._log[a]
        return self._exp[la + self._zech[(self._log[b] - la) % (self.q - 1)]]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        if a == 0:
            return 0
        return self._exp[self._log[a] + self._log_neg_one]

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        if self.e == 1:
            return pow(a, k, self.p)
        if a == 0:
            return 0 if k else 1
        return self._exp[self._log[a] * k % (self.q - 1)]

    def frobenius(self, a: int) -> int:
        """The field automorphism x -> x^p."""
        if self.e == 1:
            return a
        return self._frob[a]

    def log_arrays(self):
        """(log, zech) as numpy arrays, for sums of products in the log
        domain: log[x] for x != 0, and zech[k] = log(1 + g^k) for k < q - 1,
        with the sentinel 2(q - 1) where 1 + g^k = 0, then a last entry
        zech[q - 1] = 0 for adding a zero term (1 + 0 = 1).  A prime field
        builds its tables here, on first use."""
        if not hasattr(self, "_zech"):
            self._build_tables()
        return np.array(self._log), np.array(self._zech + [0])

    def digit_array(self):
        """The q x e int32 array whose row x holds the base-p digits of x."""
        return (np.arange(self.q, dtype=np.int32)[:, None]
                // self.p ** np.arange(self.e, dtype=np.int32) % self.p)

    def __repr__(self):
        return f"GF({self.p}^{self.e})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))


class GaloisRing:
    """The Galois ring GR(p^2, e) over ``field`` = GF(p^e):
    (Z/p^2)[T] / (lift of the field's modulus).

    Elements are tuples of e digits in [0, p^2).  An element is a unit
    exactly when its digit-wise reduction mod p is nonzero in GF(p^e).
    """

    def __init__(self, field: GF):
        p, e = field.p, field.e
        if p ** (2 * e) > FIELD_SIZE_CAP:
            raise ValueError(f"ring size {p}^{2 * e} exceeds the 2^24 cap")
        self.field = field
        self.p = p
        self.e = e
        self.p2 = p2 = p * p
        self.modulus = tuple(c % p2 for c in field.modulus)
        # _fold[k]: the digits of T^(e + k) mod the lifted modulus, k <= e - 2,
        # where a schoolbook product's top coefficients fold down.  T^e is
        # minus the modulus below its leading 1, and T^(e+k+1) = T * T^(e+k)
        top = [-c % p2 for c in self.modulus[:e]]
        fold = []
        for _ in range(e - 1):
            fold.append(tuple(top))
            carry = top[-1]
            top = [(c + carry * t) % p2 for c, t in zip([0] + top[:-1], fold[0])]
        self._fold = fold

    @cached_property
    def _power_table(self):
        """Row i * e + j: the digits of T^(i+j), for ``mul_arrays``; built on
        first use, since the ring of ``lifted_point`` (one per classified
        point) never needs it."""
        e = self.e
        powers = np.eye(e, dtype=np.int64).tolist() + [list(f) for f in self._fold]
        return np.array([powers[i + j] for i in range(e) for j in range(e)],
                        dtype=np.int64)

    def zero(self):
        return (0,) * self.e

    def one(self):
        return (1,) + (0,) * (self.e - 1)

    def from_int(self, c: int):
        return (c % self.p2,) + (0,) * (self.e - 1)

    def lift(self, x: int):
        """Coefficient-wise lift of a field element, digits kept in [0, p)."""
        return tuple(self.field.decode(x))

    def add(self, a, b):
        return tuple((x + y) % self.p2 for x, y in zip(a, b))

    def mul(self, a, b):
        e = self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    prod[k] += x * y
        out = prod[:e]
        for c, row in zip(prod[e:], self._fold):
            if c:
                for i, f in enumerate(row):
                    out[i] += c * f
        return tuple(c % self.p2 for c in out)

    def mul_arrays(self, a, b):
        """Products of int64 digit arrays of ring elements, shape (..., e).

        The outer product of the digits is reduced mod p^2 before it meets
        the table of T^(i+j), so every int64 sum stays below e^2 p^4,
        which the ring cap p^(2e) <= 2^24 keeps far from 2^63.
        """
        outer = a[..., :, None] * b[..., None, :] % self.p2
        flat = outer.reshape(outer.shape[:-2] + (self.e * self.e,))
        return flat @ self._power_table % self.p2

    def mul_int(self, a, c: int):
        return tuple(x * c % self.p2 for x in a)

    def pow(self, a, k: int):
        acc = self.one()
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            k >>= 1
        return acc

    def divisible_by_p(self, a) -> bool:
        return all(c % self.p == 0 for c in a)

    def divide_by_p(self, a) -> int:
        """(1/p) * a as an element of the residue field; a must be in p*GR."""
        if not self.divisible_by_p(a):
            raise ValueError("element is not divisible by p")
        return self.field.encode(c // self.p for c in a)

    def __repr__(self):
        return f"GR({self.p}^2, {self.e})"


# ----------------------------------------------------------------------
# Linear algebra: Gauss-Jordan over a field, image sizes over Z/p^2.


def row_reduce(rows, ncols: int, field: GF):
    """Reduced row echelon form of a matrix over a finite field.

    Returns (pivot_rows, pivot_cols): the nonzero rows of the reduced
    form, each with a 1 at its pivot column and zeros in every other
    pivot column, and the pivot columns in increasing order.  The
    reduced form is unique, so callers may read solutions and kernel
    vectors straight off it.  The input is not modified.
    """
    rows = [list(r) for r in rows]
    pivot_cols = []
    rank = 0
    for col in range(ncols):
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, c) for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [field.sub(c, field.mul(factor, d))
                           for c, d in zip(rows[i], rows[rank])]
        pivot_cols.append(col)
        rank += 1
    return rows[:rank], pivot_cols


def matrix_rank(rows, field: GF) -> int:
    """Rank of a matrix with entries encoded in the given field."""
    rows = list(rows)
    if not rows:
        return 0
    return len(row_reduce(rows, len(rows[0]), field)[1])


def solve_linear(rows, rhs, ncols: int, field: GF):
    """(x, kernel) from one row reduction of the augmented matrix
    [rows | rhs] over a finite field: x one solution of rows * x = rhs,
    its free coordinates 0, or None when the system is inconsistent (the
    right-hand side column holds a pivot); kernel a basis of the kernel of
    rows, one vector per non-pivot column (that coordinate 1, the other
    free ones 0)."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivot_rows, pivot_cols = row_reduce(aug, ncols + 1, field)
    x = None
    if pivot_cols[-1:] == [ncols]:
        # the last row of the reduced form reads 0 = 1; the others are
        # the reduced form of rows
        pivot_rows, pivot_cols = pivot_rows[:-1], pivot_cols[:-1]
    else:
        x = [0] * ncols
        for row, col in zip(pivot_rows, pivot_cols):
            x[col] = row[-1]
    kernel = []
    for fc in range(ncols):
        if fc not in pivot_cols:
            v = [0] * ncols
            v[fc] = 1
            for row, pc in zip(pivot_rows, pivot_cols):
                v[pc] = field.neg(row[fc])
            kernel.append(v)
    return x, kernel


def image_size_mod_p2(rows, ncols: int, p: int) -> int:
    """Size of the image of x -> Mx over Z/p^2, from two ranks over F_p.

    Let K be a kernel basis of Mbar = M mod p, digits in [0, p); then
    M K = p C mod p^2.  A vector x0 + p x1 solves Mx = 0 exactly when
    x0 = K a mod p with C a in the image of Mbar, so
    |im M| = p^(rank Mbar + rank [Mbar | C]), both ranks over F_p.
    """
    field = GF(p)
    p2 = p * p
    reduced = [[c % p for c in r] for r in rows]
    kernel = solve_linear(reduced, [0] * len(rows), ncols, field)[1]
    augmented = [red + [sum(c * v for c, v in zip(r, vec)) % p2 // p
                        for vec in kernel]
                 for r, red in zip(rows, reduced)]
    return p ** (ncols - len(kernel) + matrix_rank(augmented, field))
