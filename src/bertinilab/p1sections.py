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
fbar is singular) the mod-p^2 test is one remainder pass: f mod h_k over
Z/p^2, which needs no inverse since h_k is monic, then q = R/p mod p.
All of h_k's points are arithmetically singular when q = 0, none when q
is a nonzero constant, and otherwise those of gcd(q, h_k).

Grouping the repeated irreducible factors by degree (distinct-degree
splitting of the radical) answers "is any point of degree <= r singular"
with gcd computations only, never factoring into individual points; the
counts deg/k per degree k recover the number of affected points.  This
is what makes 10^5-sample experiments over several fibers cheap.  As
``binary_census``, a census of one report per row, it serves ``multi-fiber``
on P^1 through ``fiberlab._tally``; the ``bsw`` cross-check calls the
report itself, and exhaustive counts run through ``FiberClassifier``.

The mod-p factor structure repeats from row to row, so it is memoized in
two bounded least-recently-used caches: the distinct-degree split of the
radical of a repeated part w (gcd(fbar, fbar'), or tau mod p when
sigma = p*tau), keyed on (w, p, r); and, in front of it, the whole
repeated-part step of a row (derivative, squarefree gcd and split), keyed
on (fbar, p, r).  Each holds at most ``CACHE_SIZE`` entries.  The radical
runs only behind them and is not cached itself; nor is the mod-p^2 test
of each row, which reads f mod p^2.

Rows from ``binary_census`` at p <= 13 are ``bytes``, one coefficient mod
p^2 per byte (the cut ``_packs``: a residue mod p^2 fits a byte, and so
does a slot of the packed Euclid, which starts below p and gains at most
(p - 1)^2 per elimination).  Their fbar stays bytes, top coefficient
first, and keys the repeated-part memo; its squarefree gcd runs on one
integer per polynomial, one coefficient per byte slot
(``_packed_repeated_part``): an elimination is one multiply-add of the
whole scaled divisor, a reduction of every slot one ``translate``.
Integer rows key on a tuple and run ``ffield.poly_gcd``; both give the
same w, so the radical's memo is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

import numpy as np

from .ffield import (poly_derivative, poly_divmod, poly_gcd, poly_mod,
                     poly_mul, poly_powmod, poly_sub, poly_trim)
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
    sep = poly_divmod(f, poly_gcd(f, deriv, p), p)[0]
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

    v must be squarefree.  Standard split by gcd with x^{p^k} - x.
    """
    out = []
    v = list(v)
    t = [0, 1]
    for k in range(1, r + 1):
        if len(v) - 1 < k:
            break
        t = poly_powmod(t, p, v, p)
        hk = poly_gcd(v, poly_sub(t, [0, 1], p), p)
        if len(hk) > 1:
            out.append((k, hk))
            v = poly_divmod(v, hk, p)[0]
            t = poly_mod(t, v, p) if len(v) > 1 else [0]
    return out


@lru_cache(maxsize=CACHE_SIZE)
def _radical_split(w: tuple, p: int, r: int) -> tuple:
    """distinct_degree_split(radical_fp(w, p), p, r), memoized, as tuples."""
    return tuple((k, tuple(hk)) for k, hk in distinct_degree_split(radical_fp(w, p), p, r))


def _packs(p: int) -> bool:
    """Whether rows and the squarefree Euclid at p run on bytes, one
    coefficient per byte.  A row residue mod p^2 must fit a byte, and so
    must a slot of the Euclid for at least one elimination: it starts below
    p and an elimination adds at most (p - 1)^2, so p(p - 1) <= 255.  The
    first bound holds exactly for the primes p <= 13, where p(p - 1) <=
    156, so it is the only one tested."""
    return p * p <= 256


@lru_cache(maxsize=16)
def _byte_tables(p: int) -> tuple:
    """The tables of the packed Euclid at p, built on first use: the
    translate table b -> b mod p; for each leading coefficient c, the
    tables b -> b/c and b -> -b/c mod p (read on bytes below p); the
    derivative weights i mod p, a whole number of periods at least 256
    long; and the eliminations a slot below p takes before it may pass 255."""
    inv = [0] + [pow(c, -1, p) for c in range(1, p)]
    return (bytes(b % p for b in range(256)),
            [bytes(b * m % p for b in range(256)) for m in inv],
            [bytes(-b * m % p for b in range(256)) for m in inv],
            bytes(range(p)) * (256 // p + 1),
            (256 - p) // (p - 1) ** 2)


def _packed_repeated_part(fbar: bytes, p: int) -> tuple:
    """gcd(fbar, fbar') over F_p, monic, or fbar itself when fbar' = 0, as
    a tuple from the constant term up; fbar is nonconstant bytes of
    residues mod p from the top coefficient down, and p ``_packs``.

    Euclid on an integer x holding the dividend from the top coefficient
    down, one per byte, in the low slots first.  An elimination pops the top
    slot (c = x mod 256, read mod p), shifts x down a slot and adds c*L, L
    the divisor's lower coefficients scaled by -lc^-1 mod p.  Slots start
    below p and gain at most (p - 1)^2 per elimination, so they are reduced
    (bytes, translate, int) after every ``period`` eliminations and at the
    end of each division, and no slot ever carries into the next."""
    mod_p, monic, eliminate, weights, period = _byte_tables(p)
    n = len(fbar)
    if n > len(weights):
        weights *= -(-n // len(weights))
    a, b = fbar, bytes(map(mul, fbar, weights[n - 1::-1])).translate(mod_p)[:-1].lstrip(b"\0")
    if not b:
        return tuple(fbar[::-1])
    db = len(b) - 1
    while db > 0:
        low = int.from_bytes(b[1:].translate(eliminate[b[0]]), "little")
        x = int.from_bytes(a, "little")
        fresh = period
        for _ in range(n - db):
            c = (x & 255) % p
            x >>= 8
            if c:
                if not fresh:
                    x = int.from_bytes(x.to_bytes(n, "little").translate(mod_p), "little")
                    fresh = period
                x += c * low
                fresh -= 1
        a, b = b, x.to_bytes(db, "little").translate(mod_p).lstrip(b"\0")
        n, db = db + 1, len(b) - 1
    return (1,) if b else tuple(a.translate(monic[a[0]])[::-1])


@lru_cache(maxsize=CACHE_SIZE)
def _repeated_split(fbar: tuple | bytes, p: int, r: int) -> tuple:
    """The split of the repeated part of fbar (nonconstant, reduced mod p):
    ``_radical_split`` of w = gcd(fbar, fbar'), or of fbar itself when
    fbar' = 0; () when fbar is squarefree.  Memoized on (fbar, p, r); a
    bytes fbar runs the packed Euclid, a tuple ``poly_gcd``."""
    if isinstance(fbar, bytes):
        w = _packed_repeated_part(fbar, p)
    else:
        deriv = poly_derivative(fbar, p)
        w = fbar if not deriv else tuple(poly_gcd(fbar, deriv, p))
    return _radical_split(w, p, r) if len(w) > 1 else ()


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


def binary_section_report(coeffs, p: int, r: int) -> FiberReport:
    """Classify a binary-form section of degree d = len(coeffs) - 1 (integer
    or mod-p^2 coefficients, from X^d down) on the fiber at p, over all
    closed points of degree <= r.  ``coeffs`` may be ``bytes``, one
    coefficient per byte, where p ``_packs``; its report is that of the
    same integers, and its squarefree gcd runs on the packed slots."""
    d = len(coeffs) - 1
    if d < 0:
        raise ValueError("a binary form needs at least one coefficient")
    if r < 1:
        return FiberReport(0, 0)
    p2 = p * p
    # chart Y = 1, in t = X/Y
    if isinstance(coeffs, bytes):
        if not _packs(p):
            raise ValueError(f"byte rows do not pack at p = {p}")
        fbar = coeffs.translate(_byte_tables(p)[0]).lstrip(b"\0")
    else:
        fbar = tuple(poly_trim([c % p for c in reversed(coeffs)]))
    fiber_ct = 0
    arith_ct = 0

    if not fbar:
        # sigma = p * tau: every point of the fiber is on the reduced divisor
        fiber_ct = _p1_closed_point_count(p, r)
        tbar = poly_trim([c % p2 // p for c in reversed(coeffs)])
        if not tbar:
            return FiberReport(fiber_ct, fiber_ct)   # the zero section
        # arithmetically singular exactly where tau vanishes
        if len(tbar) > 1:
            for k, hk in _radical_split(tuple(tbar), p, r):
                arith_ct += (len(hk) - 1) // k
        if len(tbar) <= d:
            arith_ct += 1        # the point at infinity: tau has no X^d term
        return FiberReport(fiber_ct, arith_ct)

    # affine points: repeated irreducible factors of fbar
    if len(fbar) > 1:
        for k, hk in _repeated_split(fbar, p, r):
            dh = len(hk) - 1
            fiber_ct += dh // k
            # f mod hk over Z/p^2 in one pass: hk is monic with digits in
            # [0, p), so no inverse is taken and only the popped coefficient
            # is reduced; rem is 0 mod p, since hk divides fbar
            rem = list(reversed(coeffs))
            low = hk[:-1]
            while len(rem) > dh:
                c = rem.pop() % p2
                if c:
                    for i, h in enumerate(low, len(rem) - dh):
                        rem[i] -= c * h
            q = poly_trim([c % p2 // p for c in rem])
            # hk's points where q = rem/p vanishes: all, none, or gcd(q, hk)'s
            if not q:
                arith_ct += dh // k
            elif len(q) > 1:
                arith_ct += (len(poly_gcd(hk, q, p)) - 1) // k
    # the point at infinity, reverse chart u = Y/X at u = 0: X^d and X^(d-1)Y
    # vanish mod p
    if len(fbar) < d:
        fiber_ct += 1
        if coeffs[0] % p2 == 0:
            arith_ct += 1
    return FiberReport(fiber_ct, arith_ct)


def binary_census(rows, p: int, r: int):
    """``FiberClassifier.census`` on P^1 at p by the gcd path, degrees <= r:
    one ``binary_section_report`` per row of coefficients mod p^2 (residues,
    not reduced again).  Where p ``_packs`` each row goes in as a slice of
    one ``bytes`` buffer of the whole batch, one coefficient per byte."""
    if _packs(p):
        h = rows.shape[1]
        buf = rows.astype(np.uint8).tobytes()
        rows = [buf[i:i + h] for i in range(0, len(buf), h)]
    else:
        rows = rows.tolist()
    reports = [binary_section_report(row, p, r) for row in rows]
    return (np.array([rep.arith_singular for rep in reports], dtype=bool),
            np.array([rep.fiber_singular for rep in reports], dtype=bool),
            sum(rep.rescued for rep in reports))
