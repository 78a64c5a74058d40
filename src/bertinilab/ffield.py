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
Zech logarithms log(1 + g^k) for sums, and a Frobenius table.  The
digit encoding matters only when those tables are built and at the
Galois-ring boundary (lifts and reductions mod p).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

FIELD_SIZE_CAP = 1 << 24      # prime fields
TABLE_SIZE_CAP = 1 << 16      # extension fields, all with tables

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12, the least strong pseudoprime to all of _MR_BASES
# (399165290221 * 798330580441).
MR_DETERMINISTIC_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..37.

    Deterministic for n < MR_DETERMINISTIC_BOUND; above it a True is only
    a strong probable prime.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


def poly_divmod(a, b, m):
    """Quotient and remainder of a by b over Z/m; lc(b) must be a unit."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv_lead = pow(b[-1], -1, m)
    rem = list(a)
    db = len(b) - 1
    quo = [0] * max(0, len(rem) - db)
    while len(rem) - 1 >= db and rem:
        c = rem[-1] * inv_lead % m
        k = len(rem) - 1 - db
        quo[k] = c
        for i, cb in enumerate(b):
            rem[i + k] = (rem[i + k] - c * cb) % m
        poly_trim(rem)
    return poly_trim(quo), rem


def poly_mod(a, b, m):
    return poly_divmod(a, b, m)[1]


def poly_gcd(a, b, p):
    """Monic gcd over the field Z/p."""
    a, b = list(a), list(b)
    while b:
        a, b = b, poly_mod(a, b, p)
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
        # a multiplicative generator, by order testing
        factors = _prime_factors(q - 1)
        g = next(c for c in range(2, q)
                 if all(poly_powmod(self.decode(c), (q - 1) // f, modulus, p) != [1]
                        for f in factors))
        # x -> g*x is F_p-linear on the digits.  Row i of its matrix holds the
        # digits of g*T^i: T times row i - 1, reduced by the monic modulus
        rows = [self.decode(g)]
        for _ in range(self.e - 1):
            top = rows[-1][-1]
            rows.append([(c - top * m) % p for c, m in zip([0] + rows[-1][:-1], modulus)])
        places = [p ** i for i in range(self.e)]
        digits = np.arange(q)[:, None] // places % p
        step = (digits @ rows % p @ places).tolist()
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
        self._frob = [self.pow(x, p) for x in range(q)]

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

    def __repr__(self):
        return f"GF({self.p}^{self.e})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))


class GaloisRing:
    """The Galois ring GR(p^2, e) = (Z/p^2)[T] / (lift of the GF(p^e) modulus).

    Elements are tuples of e digits in [0, p^2).  An element is a unit
    exactly when its digit-wise reduction mod p is nonzero in GF(p^e).
    """

    def __init__(self, p: int, e: int = 1, field: GF | None = None):
        self.field = field if field is not None else GF(p, e)
        if (self.field.p, self.field.e) != (p, e):
            raise ValueError("field does not match (p, e)")
        if p ** (2 * e) > FIELD_SIZE_CAP:
            raise ValueError(f"ring size {p}^{2 * e} exceeds the 2^24 cap")
        self.p = p
        self.e = e
        self.p2 = p * p
        self.modulus = tuple(c % self.p2 for c in self.field.modulus)

    def zero(self):
        return (0,) * self.e

    def one(self):
        return (1,) + (0,) * (self.e - 1)

    def from_int(self, c: int):
        return (c % self.p2,) + (0,) * (self.e - 1)

    def lift(self, x: int):
        """Coefficient-wise lift of a field element, digits kept in [0, p)."""
        return tuple(self.field.decode(x))

    def reduce_mod_p(self, a) -> int:
        return self.field.encode(c % self.p for c in a)

    def add(self, a, b):
        return tuple((x + y) % self.p2 for x, y in zip(a, b))

    def mul(self, a, b):
        prod = poly_mul(list(a), list(b), self.p2)
        rem = poly_mod(prod, list(self.modulus), self.p2)
        rem += [0] * (self.e - len(rem))
        return tuple(rem)

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


def kernel_basis(rows, ncols: int, field: GF):
    """Basis of the kernel of a matrix over a finite field, one vector per
    non-pivot column (that coordinate 1, the other free ones 0)."""
    pivot_rows, pivot_cols = row_reduce(rows, ncols, field)
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(pivot_rows, pivot_cols):
            v[pc] = field.neg(row[fc])
        basis.append(v)
    return basis


def solve_linear(rows, rhs, ncols: int, field: GF):
    """One solution of rows * x = rhs over a finite field, free coordinates 0.

    Raises ValueError when the system is inconsistent, i.e. when the
    right-hand side column of the augmented matrix holds a pivot.
    """
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivot_rows, pivot_cols = row_reduce(aug, ncols + 1, field)
    if ncols in pivot_cols:
        raise ValueError("inconsistent linear system")
    x = [0] * ncols
    for row, col in zip(pivot_rows, pivot_cols):
        x[col] = row[-1]
    return x


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
    kernel = kernel_basis(reduced, ncols, field)
    augmented = [red + [sum(c * v for c, v in zip(r, vec)) % p2 // p
                        for vec in kernel]
                 for r, red in zip(rows, reduced)]
    return p ** (ncols - len(kernel) + matrix_rank(augmented, field))
