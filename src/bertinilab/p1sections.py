"""Fast classification of binary-form sections on fibers of the projective line.

A closed point of P^1 over F_p is either the point at infinity [1:0] or
corresponds to a monic irreducible polynomial g over F_p (the minimal
polynomial of its affine coordinate).  For a section sigma mod p^2 with
affine chart polynomial f:

* the fiber divisor is singular at the g-point iff g^2 divides the
  reduction of f mod p (equivalently g divides gcd(fbar, fbar'));
* writing f = A*g~ + R over Z/p^2 (g~ a lift of g), such a point is
  arithmetically singular iff R vanishes mod p^2 at the point, i.e.
  g divides R/p over F_p.

For each repeated factor h_k (the product of the degree-k points where
fbar is singular) the mod-p^2 test reads R = f mod h_k over Z/p^2 as one
dot product of f with each of h_k's reduction rows (row j holds
coefficient j of t^i mod h_k for every exponent i of the row), then
q = R/p mod p.  All of h_k's points are arithmetically singular when
q = 0, none when q is a nonzero constant, and otherwise those of
gcd(q, h_k).

Grouping the repeated irreducible factors by degree (distinct-degree
splitting of the radical) answers "is any point of degree <= r singular"
with gcd computations only, never factoring into individual points; the
counts deg/k per degree k recover the number of affected points.  This
is what makes 10^5-sample experiments over several fibers cheap.  As
``binary_census``, a census of one report per row, it serves ``multi-fiber``
on P^1 through ``fiberlab._tally``; the ``bsw`` cross-check calls the
report itself, and exhaustive counts run through ``FiberClassifier``.

The squarefree step w = gcd(fbar, fbar') is the sieve condition of
Poonen's Bertini theorem over finite fields, and the report reads only
w off the mod-p side of a row.  ``binary_census`` takes w for a whole
batch from one numpy Euclid (``_repeated_parts``) over the batch's
reductions fbar, and hands each row its w; a report called without w
(the ``bsw`` cross-check, rows of one coefficient) takes it from
``ffield.poly_gcd`` on its own fbar.  Either way the same report body
follows.  Rows are integer sequences, residues mod p^2 or any integers.

The mod-p factor structure repeats from row to row, so it is memoized in
two bounded least-recently-used caches: the distinct-degree split of the
radical of a repeated part w (gcd(fbar, fbar'), or tau mod p when
sigma = p*tau), with each h_k's reduction rows for rows of n = d + 1
coefficients, keyed on (w, p, r, n); and, for reports without w, w
itself, keyed on (fbar, p).  Each holds at most ``CACHE_SIZE`` entries.
``radical_fp`` is not cached itself: it runs behind the split memo here
and behind ``arithlab._dedekind_split``, a memo of its own.  The dot
products of each row, which read f mod p^2, are not cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import mul

import numpy as np

from .ffield import (poly_derivative, poly_divmod, poly_gcd, poly_mul,
                     poly_powmod, poly_sub, poly_trim)
from .zetas import closed_point_counts, projective_counts

# entries in each memo of this module and in arithlab's Dedekind memos
CACHE_SIZE = 2048


def radical_fp(f, p: int) -> list:
    """Product of the distinct monic irreducible factors of f over F_p."""
    f = poly_trim([c % p for c in f])
    if len(f) <= 1:
        return [1]
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    deriv = poly_derivative(f, p)
    if not deriv:
        # f = z(x^p); p-th roots of coefficients over F_p are themselves
        return radical_fp(f[::p], p)
    g = poly_gcd(f, deriv, p)
    if len(g) == 1:
        return f                         # squarefree: its own radical
    sep = poly_divmod(f, g, p)[0]
    rest = f
    g = poly_gcd(rest, sep, p)
    while len(g) > 1:
        rest = poly_divmod(rest, g, p)[0]
        g = poly_gcd(rest, sep, p)
    if len(rest) > 1:
        # rest is a p-th power holding the factors with multiplicity p | e
        return poly_mul(sep, radical_fp(rest[::p], p), p)
    return sep


def distinct_degree_split(v, p: int, r: int):
    """[(k, product of the degree-k irreducible factors)] for k <= r.

    v must be monic and squarefree over F_p.  Standard split by gcd with
    x^{p^k} - x.  At step k every factor left has degree >= k, so once
    deg v < 2k what is left is one irreducible factor of degree deg v,
    kept when deg v <= r, and the split stops.
    """
    out = []
    v = list(v)
    t = [0, 1]
    for k in range(1, r + 1):
        dv = len(v) - 1
        if dv < 2 * k:
            if k <= dv <= r:
                out.append((dv, v))
            break
        t = poly_powmod(t, p, v, p)      # which first reduces t by this v
        hk = poly_gcd(v, poly_sub(t, [0, 1], p), p)
        if len(hk) > 1:
            out.append((k, hk))
            v = poly_divmod(v, hk, p)[0]
    return out


@lru_cache(maxsize=CACHE_SIZE)
def _radical_split(w: tuple, p: int, r: int, n: int) -> tuple:
    """distinct_degree_split(radical_fp(w, p), p, r) as tuples (k, h_k,
    rows), memoized on (w, p, r, n).  ``rows`` reduces a row of n
    coefficients mod h_k over Z/p^2: row j, column i is coefficient j of
    t^i mod h_k, so row j's dot product with f (from the constant term up)
    is coefficient j of f mod h_k.  Columns i < deg h_k are unit vectors,
    and each later one is t times the one before, reduced by h_k, which is
    monic with digits in [0, p)."""
    p2 = p * p
    out = []
    for k, hk in distinct_degree_split(radical_fp(w, p), p, r):
        dh = len(hk) - 1
        cols = [[int(i == j) for j in range(dh)] for i in range(dh)]
        for _ in range(dh, n):
            top = cols[-1][-1]
            cols.append([(a - top * h) % p2 for a, h in zip([0] + cols[-1][:-1], hk)])
        out.append((k, tuple(hk), tuple(zip(*cols))))
    return tuple(out)


def _top_aligned(x: np.ndarray, width: int, dtype) -> tuple:
    """Each row of x moved left past its leading zeros into ``width``
    columns of ``dtype``, returned transposed (column i of every row is
    one contiguous row), and the number of its columns left in play (0 for
    a zero row)."""
    rows, n = x.shape
    nonzero = x != 0
    lead = nonzero.argmax(axis=1)
    padded = np.zeros((rows, n + width), dtype)
    padded[:, :n] = x
    aligned = np.take_along_axis(padded, lead[:, None] + np.arange(width), axis=1)
    return np.ascontiguousarray(aligned.T), np.where(nonzero.any(axis=1), n - lead, 0)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, by floor division: numpy divides by a scalar
    several times faster than it takes the remainder."""
    x -= x // p * p
    return x


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p - 2) mod p elementwise: the inverse of each nonzero x."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = _reduce(out * x, p)
        x = _reduce(x * x, p)
        e >>= 1
    return out


def _repeated_parts(fbar: np.ndarray, p: int) -> list:
    """w = gcd(f, f') over F_p for each row f of ``fbar`` (residues mod p,
    top coefficient first, at least two columns), monic, or f itself when
    f' = 0, () for the zero row: one Euclid over all rows at once, each w
    a tuple from the constant term up, as ``_repeated_part`` gives it.

    Each row holds its dividend A and divisor B top-aligned, leading
    coefficient in column 0, with la and lb columns in play; B's leading
    coefficient b0 is never 0.  A step of every row is A <- b0*A - a0*B,
    which drops A's leading term with no shift when a0 != 0 and la >= lb,
    and only scales A when a0 = 0; A then moves one column left.  Before
    it, a row whose A leads with a nonzero coefficient (or is zero) but has
    fewer columns than B swaps A and B (by xor, in place), and a row whose
    B is zero is done: w = A, and lb = -1 keeps it from swapping or being
    done again while the step zeroes its A.  Every value stays within
    (p - 1)^2 of 0, so the arithmetic is int16 while (p - 1)^2 < 2^15 and
    int64 past that."""
    if (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"the batch Euclid needs (p - 1)^2 < 2^63, not p = {p}")
    rows, n = fbar.shape
    dtype = np.int16 if (p - 1) ** 2 < 2 ** 15 else np.int64
    fbar = fbar.astype(dtype)
    weights = (np.arange(n - 1, 0, -1) % p).astype(dtype)
    A, la = _top_aligned(fbar, n, dtype)
    B, lb = _top_aligned(_reduce(fbar[:, :-1] * weights, p), n, dtype)
    euclid = lb > 0                      # rows whose w is made monic
    w, lw = np.empty_like(A), np.empty_like(la)
    left = rows
    while True:
        swap = (la < lb) & ((A[0] != 0) | (la == 0))
        mask = -swap.astype(dtype)                # all ones where swapping
        flip = (A ^ B) & mask
        A ^= flip
        B ^= flip
        flip = (la ^ lb) & mask
        la ^= flip
        lb ^= flip
        done = np.flatnonzero(lb == 0)
        if done.size:
            w[:, done], lw[done] = A[:, done], la[done]
            lb[done] = -1
            left -= done.size
            if not left:
                break
        a0 = A[0].copy()
        A *= B[0]
        A -= a0 * B
        A[:-1] = _reduce(A[1:], p)
        A[-1] = 0
        la -= 1
    # most rows are squarefree, with w = (1,): only the others are read out
    other = np.flatnonzero(~euclid | (lw != 1))
    w, monic = w.T[other], euclid[other]
    w[monic] = _reduce(w[monic] * _inverses(w[monic, :1], p), p)
    parts = [(1,)] * rows
    for i, c, k in zip(other.tolist(), w.tolist(), lw[other].tolist()):
        parts[i] = tuple(reversed(c[:k]))
    return parts


@lru_cache(maxsize=CACHE_SIZE)
def _repeated_part(fbar: tuple, p: int) -> tuple:
    """w = gcd(fbar, fbar') for fbar reduced mod p and trimmed, from the
    constant term up: monic, or fbar itself when fbar' = 0 (so () for the
    zero polynomial), as ``_repeated_parts`` gives it.  Memoized on
    (fbar, p)."""
    deriv = poly_derivative(fbar, p)
    return fbar if not deriv else tuple(poly_gcd(fbar, deriv, p))


@lru_cache(maxsize=CACHE_SIZE)
def _p1_closed_point_count(p: int, r: int) -> int:
    a = closed_point_counts(projective_counts(p, 1, r))
    return sum(a[:r])


@dataclass(slots=True)
class FiberReport:
    """Point-level summary of one section on one fiber, degrees <= r."""

    fiber_singular: int      # points where the reduced divisor is singular
    arith_singular: int      # points singular in the mod-p^2 sense

    @property
    def rescued(self):
        return self.fiber_singular - self.arith_singular


def binary_section_report(coeffs, p: int, r: int, w: tuple | None = None) -> FiberReport:
    """Classify a binary-form section of degree d = len(coeffs) - 1 (integer
    or mod-p^2 coefficients, from X^d down) on the fiber at p, over all
    closed points of degree <= r.  ``w``, when given, is the repeated part
    of fbar as ``_repeated_parts`` computes it (``binary_census`` passes
    one per row), and no fbar is built; without it the report takes w
    from ``_repeated_part``.  Either way the split of w comes from
    ``_radical_split``."""
    d = len(coeffs) - 1
    if d < 0:
        raise ValueError("a binary form needs at least one coefficient")
    if r < 1:
        return FiberReport(0, 0)
    p2 = p * p
    if w is None:
        # chart Y = 1, in t = X/Y
        w = _repeated_part(tuple(poly_trim([c % p for c in reversed(coeffs)])), p)
    fiber_ct = 0
    arith_ct = 0

    if not w:
        # sigma = p * tau: every point of the fiber is on the reduced divisor
        fiber_ct = _p1_closed_point_count(p, r)
        tbar = poly_trim([c % p2 // p for c in reversed(coeffs)])
        if not tbar:
            return FiberReport(fiber_ct, fiber_ct)   # the zero section
        # arithmetically singular exactly where tau vanishes
        if len(tbar) > 1:
            for k, hk, _ in _radical_split(tuple(tbar), p, r, d + 1):
                arith_ct += (len(hk) - 1) // k
        if len(tbar) <= d:
            arith_ct += 1        # the point at infinity: tau has no X^d term
        return FiberReport(fiber_ct, arith_ct)

    # affine points: repeated irreducible factors of fbar
    if len(w) > 1:
        f = coeffs[::-1]
        for k, hk, rows in _radical_split(w, p, r, d + 1):
            dh = len(hk) - 1
            fiber_ct += dh // k
            # f mod hk over Z/p^2, one dot product per coefficient; it is
            # 0 mod p, since hk divides fbar, and q is its quotient by p
            q = poly_trim([sum(map(mul, row, f)) % p2 // p for row in rows])
            # hk's points where q = rem/p vanishes: all, none, or gcd(q, hk)'s
            if not q:
                arith_ct += dh // k
            elif len(q) > 1:
                arith_ct += (len(poly_gcd(hk, q, p)) - 1) // k
    # the point at infinity, reverse chart u = Y/X at u = 0: X^d and X^(d-1)Y
    # vanish mod p (at d < 2 they would make fbar zero)
    if d >= 2 and coeffs[0] % p == coeffs[1] % p == 0:
        fiber_ct += 1
        if coeffs[0] % p2 == 0:
            arith_ct += 1
    return FiberReport(fiber_ct, arith_ct)


def binary_census(rows, p: int, r: int):
    """``FiberClassifier.census`` on P^1 at p by the gcd path, degrees <= r,
    on an integer array of rows of coefficients mod p^2 (residues, not
    reduced again).  The squarefree gcds of the batch come from one
    ``_repeated_parts`` Euclid over all its reductions fbar; then each row,
    as a list of ints, gets its own ``binary_section_report`` with its w.
    Rows of one coefficient have no Euclid: their reports take w
    themselves."""
    ws = ([None] * len(rows) if r < 1 or rows.shape[1] < 2 or not len(rows)
          else _repeated_parts(rows % p, p))
    reports = list(map(binary_section_report, rows.tolist(), repeat(p), repeat(r), ws))
    return (np.array([rep.arith_singular for rep in reports], dtype=bool),
            np.array([rep.fiber_singular for rep in reports], dtype=bool),
            sum(rep.rescued for rep in reports))
