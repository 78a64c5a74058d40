"""Field, Galois-ring and linear-algebra core."""

import hashlib
import itertools
import random
from math import gcd, isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bertinilab import ffield, zetas
from bertinilab.ffield import (GF, MR_DETERMINISTIC_BOUND, GaloisRing,
                               find_irreducible, is_prime,
                               image_size_mod_p2, matrix_rank,
                               poly_divmod, poly_gcd, poly_is_irreducible,
                               poly_mod, poly_mul, poly_trim, row_reduce,
                               solve_linear)


def brute_force_irreducible(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    e = len(f) - 1
    for k in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            g = list(tail) + [1]
            if not poly_mod(list(f), g, p):
                return False
    return e >= 1


def test_find_irreducible_examples():
    assert find_irreducible(2, 1) == (0, 1)        # T
    assert find_irreducible(2, 2) == (1, 1, 1)     # T^2 + T + 1
    assert find_irreducible(5, 1) == (0, 1)


def test_find_irreducible_is_smallest_and_irreducible():
    for p, e in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        f = find_irreducible(p, e)
        assert brute_force_irreducible(f, p)
        # itertools.product emits coefficient tuples in lexicographic order
        for tail in itertools.product(range(p), repeat=e):
            if tail == f[:-1]:
                break
            assert not brute_force_irreducible(list(tail) + [1], p), (tail, f)


def test_find_irreducible_rejects_bad_input():
    with pytest.raises(ValueError):
        find_irreducible(4, 2)
    with pytest.raises(ValueError):
        find_irreducible(2, 0)
    with pytest.raises(ValueError):
        find_irreducible(2, 30)     # 2^30 over the size cap


def test_rabin_test_agrees_with_brute_force():
    rng = random.Random(0)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        e = rng.randint(2, 4)
        f = [rng.randrange(p) for _ in range(e)] + [1]
        assert poly_is_irreducible(f, p) == brute_force_irreducible(f, p)


@pytest.mark.parametrize("p, max_degree", [(2, 6), (3, 4), (5, 3)])
def test_rabin_test_matches_sympy_exhaustively(p, max_degree):
    t = sympy.symbols("t")
    for e in range(1, max_degree + 1):
        for tail in itertools.product(range(p), repeat=e):
            f = list(tail) + [1]
            expected = sympy.Poly(list(reversed(f)), t, modulus=p).is_irreducible
            assert poly_is_irreducible(f, p) == expected, (f, p)


def test_frobenius_examples():
    F4 = GF(2, 2)
    assert F4.frobenius(0) == 0
    assert F4.frobenius(1) == 1
    T = F4.encode([0, 1])
    # direct squaring: T^2 = T + 1 modulo T^2 + T + 1
    assert F4.frobenius(T) == F4.encode([1, 1])
    assert F4.mul(T, T) == F4.encode([1, 1])


@pytest.mark.parametrize("p,e", [(2, 4), (2, 16), (3, 4), (3, 8), (5, 6),
                                 (7, 5), (13, 4), (251, 2)])
def test_power_q_is_identity_exhaustive(p, e):
    field = GF(p, e)
    assert field.q <= 1 << 16
    for x in range(field.q):
        acc = x
        for _ in range(e):
            acc = field.frobenius(acc)
        assert acc == x


@pytest.mark.parametrize("p, e", [(2, 4), (3, 5), (251, 2)])
def test_frobenius_table_is_the_pth_power(p, e):
    """frobenius(x) against x^p by square-and-multiply through mul, for
    every element."""
    field = GF(p, e)
    for x in range(field.q):
        acc, base, k = 1, x, p
        while k:
            if k & 1:
                acc = field.mul(acc, base)
            base = field.mul(base, base)
            k >>= 1
        assert field.frobenius(x) == acc == field.pow(x, p), x


def test_frobenius_is_ring_homomorphism():
    rng = random.Random(1)
    for p, e in [(2, 5), (3, 3), (5, 3), (7, 2)]:
        field = GF(p, e)
        for _ in range(200):
            x = rng.randrange(field.q)
            y = rng.randrange(field.q)
            assert field.frobenius(field.add(x, y)) == \
                field.add(field.frobenius(x), field.frobenius(y))
            assert field.frobenius(field.mul(x, y)) == \
                field.mul(field.frobenius(x), field.frobenius(y))


def test_field_axioms_random():
    rng = random.Random(2)
    for p, e in [(2, 6), (3, 4), (5, 3), (11, 2), (2, 16)]:
        field = GF(p, e)
        for _ in range(100):
            x, y, z = (rng.randrange(field.q) for _ in range(3))
            assert field.mul(x, field.add(y, z)) == \
                field.add(field.mul(x, y), field.mul(x, z))
            if x:
                assert field.mul(x, field.inv(x)) == 1
        assert len(field._log) == field.q       # every extension field has tables
    # so none may pass 2^16 elements
    for p, e in [(2, 17), (3, 11)]:
        with pytest.raises(ValueError):
            GF(p, e)
    assert GF(16777213).q == 16777213      # prime fields keep the 2^24 cap


@pytest.mark.parametrize("p, e", [(7, 1), (3, 2)])
def test_inverse_and_negative_powers(p, e):
    """inv(0), and so every negative power of 0, is a ZeroDivisionError;
    pow(x, -k) is the k-th power of the inverse."""
    field = GF(p, e)
    for k in (1, 2, 5):
        with pytest.raises(ZeroDivisionError):
            field.pow(0, -k)
        for x in range(1, field.q):
            assert field.pow(x, -k) == field.pow(field.inv(x), k)
            assert field.mul(field.pow(x, -k), field.pow(x, k)) == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def _digitwise(field, a, b, sign):
    """a + sign*b computed digit by digit on the base-p encodings."""
    return field.encode(x + sign * y for x, y in zip(field.decode(a), field.decode(b)))


def _check_against_digits(field, pairs):
    """add, sub and neg digit by digit; mul as polynomials mod the modulus,
    which pins the tables to the defining polynomial, not just to the axioms."""
    modulus = list(field.modulus)
    for a, b in pairs:
        assert field.add(a, b) == _digitwise(field, a, b, 1), (field, a, b)
        assert field.sub(a, b) == _digitwise(field, a, b, -1), (field, a, b)
        assert field.neg(b) == _digitwise(field, 0, b, -1), (field, b)
        product = poly_mod(poly_mul(field.decode(a), field.decode(b), field.p),
                           modulus, field.p)
        assert field.mul(a, b) == field.encode(product), (field, a, b)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                                 (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3),
                                 (7, 2), (11, 2), (13, 2)])
def test_table_addition_matches_digits_exhaustive(p, e):
    """Table add, sub, neg and mul against digit and polynomial arithmetic,
    every pair."""
    field = GF(p, e)
    _check_against_digits(field, itertools.product(range(field.q), repeat=2))
    assert field.add(1, p - 1) == 0 and field.neg(1) == p - 1


@pytest.mark.parametrize("p,e", [(2, 16), (3, 10), (251, 2)])
def test_table_addition_matches_digits_random(p, e):
    field = GF(p, e)
    rng = random.Random(p * 100 + e)
    pairs = [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(10 ** 4)]
    _check_against_digits(field, pairs)
    assert field.add(1, p - 1) == 0 and field.neg(1) == p - 1
    # a + (-a) = 0 lands on the marked Zech entry for every a
    for a, _ in pairs[:1000]:
        assert field.add(a, field.neg(a)) == 0


@pytest.mark.parametrize("p,e,digest", [
    (2, 16, "0d403d6f59d53740179f993a42716d92a97af040a6e85d7dd890032226a11c1f"),
    (3, 10, "d3ebcf9d3113fa7089e0098e0b2f0ac99a11db415d8fb9a090ea4c568b4a8c41"),
    (251, 2, "c2873e8f7ef89197862dae35f761e1356ececbd07dc15f03ad40e032b7078f72"),
])
def test_tables_are_pinned(p, e, digest):
    """SHA-256 of the exp/log/Zech/Frobenius tables, as the int64 step map
    built them; the int32 digit array must build the same tables."""
    field = GF(p, e)
    assert field.digit_array().dtype == np.int32
    tables = (field._exp, field._log, field._zech, field._frob, field._log_neg_one)
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prime_field_log_arrays_match_integers(p):
    """A prime field builds its tables when a scan first reads its logs:
    g^log[x] = x, and zech[k] is the log of 1 + g^k mod p, the sentinel
    2(p - 1) where 1 + g^k = 1 + (p - 1) = 0, then 0 for adding a zero
    term; every sum of nonzero elements read through them is a + b mod p.
    In F_2 the generator is g = 1."""
    log, zech = GF(p).log_arrays()
    assert len(log) == p and len(zech) == p and zech[p - 1] == 0
    g = next(x for x in range(1, p) if log[x] == 1 % (p - 1))
    assert sorted(pow(g, k, p) for k in range(p - 1)) == list(range(1, p))
    for x in range(1, p):
        assert pow(g, int(log[x]), p) == x
    for k in range(p - 1):
        one_plus = (1 + pow(g, k, p)) % p
        if one_plus:
            assert zech[k] < p - 1 and pow(g, int(zech[k]), p) == one_plus, k
        else:
            assert zech[k] == 2 * (p - 1) and pow(g, k, p) == p - 1
    for a, b in itertools.product(range(1, p), repeat=2):
        shift = zech[(log[b] - log[a]) % (p - 1)]
        assert (a + b) % p == (0 if shift == 2 * (p - 1)
                               else pow(g, int(log[a] + shift), p))


@pytest.mark.parametrize("p,e", [(2, 4), (2, 8), (3, 3), (5, 2), (7, 2)])
def test_galois_ring_units_exhaustive(p, e):
    """a is a unit exactly when a mod p is nonzero: then a^((q-1)p) = 1,
    and otherwise a lies in p*GR, so a^2 = 0."""
    ring = GaloisRing(GF(p, e))
    assert p ** (2 * e) <= 1 << 16
    elements = list(itertools.product(range(p * p), repeat=e))
    units = [a for a in elements if any(c % p for c in a)]
    assert len(units) == p ** (2 * e) - p ** e
    unit_order = (p ** e - 1) * p
    rng = random.Random(p ** e)
    for a in rng.sample(elements, 200):
        expected = ring.one() if any(c % p for c in a) else ring.zero()
        assert ring.pow(a, unit_order) == expected, a


@pytest.mark.parametrize("p,e", [(2, 1), (2, 3), (3, 5), (5, 2), (7, 3)])
def test_galois_ring_mul_matches_polynomial_remainder(p, e):
    """The fixed-degree product (schoolbook, then the folded powers
    T^e .. T^(2e-2)) and its batched numpy form against the remainder of
    the polynomial product by the lifted modulus, on random elements."""
    ring = GaloisRing(GF(p, e))
    rng = random.Random(100 * p + e)
    pairs = [tuple(tuple(rng.randrange(p * p) for _ in range(e)) for _ in "ab")
             for _ in range(300)]
    expected = []
    for a, b in pairs:
        rem = poly_mod(poly_mul(list(a), list(b), p * p), list(ring.modulus), p * p)
        expected.append(tuple(rem + [0] * (e - len(rem))))
    assert [ring.mul(a, b) for a, b in pairs] == expected
    batch = np.array(pairs, dtype=np.int64)
    assert [tuple(c) for c in ring.mul_arrays(batch[:, 0], batch[:, 1]).tolist()] == \
        expected


def test_galois_ring_reduction_and_lift():
    ring = GaloisRing(GF(3, 2))
    field = ring.field

    def reduce_mod_p(a):
        return field.encode(c % 3 for c in a)

    for x in range(field.q):
        assert reduce_mod_p(ring.lift(x)) == x
    # reduction is a ring homomorphism
    rng = random.Random(3)
    for _ in range(200):
        a = tuple(rng.randrange(9) for _ in range(2))
        b = tuple(rng.randrange(9) for _ in range(2))
        assert reduce_mod_p(ring.mul(a, b)) == field.mul(reduce_mod_p(a), reduce_mod_p(b))


def test_divide_by_p():
    ring = GaloisRing(GF(2, 2))
    two = ring.from_int(2)
    assert ring.divisible_by_p(two)
    assert ring.divide_by_p(two) == 1
    with pytest.raises(ValueError):
        ring.divide_by_p(ring.one())


def test_matrix_rank_examples():
    F2 = GF(2)
    assert matrix_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], F2) == 3
    assert matrix_rank([[0] * 5, [0] * 5], F2) == 0
    assert matrix_rank([[1, 1], [1, 1]], F2) == 1


def test_matrix_rank_extension_field():
    F4 = GF(2, 2)
    T = F4.encode([0, 1])
    assert matrix_rank([[T, 1], [F4.mul(T, T), T]], F4) == 1
    assert matrix_rank([[T, 1], [1, T]], F4) == 2


def _mat_vec(M, v, F):
    out = []
    for row in M:
        acc = 0
        for a, x in zip(row, v):
            acc = F.add(acc, F.mul(a, x))
        out.append(acc)
    return out


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_row_reduce_engine_against_brute_force(p, e):
    """matrix_rank and solve_linear, its solution and kernel basis, against
    enumeration of F^ncols."""
    F = GF(p, e)
    rng = random.Random(100 * p + e)
    for _ in range(40):
        nrows = rng.randint(0, 4)
        ncols = rng.randint(1, 3)
        M = [[rng.randrange(F.q) for _ in range(ncols)] for _ in range(nrows)]
        zero = [0] * nrows
        basis = solve_linear(M, zero, ncols, F)[1]
        assert all(_mat_vec(M, v, F) == zero for v in basis)
        vectors = list(itertools.product(range(F.q), repeat=ncols))
        images = [_mat_vec(M, v, F) for v in vectors]
        assert sum(img == zero for img in images) == F.q ** len(basis)
        if nrows:
            assert len(basis) == ncols - matrix_rank(M, F)
        # a reachable right-hand side is solved exactly, free coordinates 0,
        # with the kernel of the zero one
        rhs = rng.choice(images)
        x, kernel = solve_linear(M, rhs, ncols, F)
        assert _mat_vec(M, x, F) == rhs and kernel == basis
        free = sorted(set(range(ncols)) - set(row_reduce(M, ncols, F)[1]))
        assert [x[j] for j in free] == [0] * len(free)
        assert [[v[j] for j in free] for v in basis] == \
            [[int(i == k) for i in range(len(free))] for k in range(len(free))]
        # an unreachable one has no solution, and still that kernel
        missing = [b for b in itertools.product(range(F.q), repeat=nrows)
                   if list(b) not in images]
        if missing:
            assert solve_linear(M, list(rng.choice(missing)), ncols, F) == (None, basis)


def test_kernel_size_examples():
    """|im M| * |ker M| = p^(2h) over Z/p^2, kernels counted by hand."""
    cases = [
        ([[0]], 1, 2, 4),
        ([[2]], 1, 2, 2),                   # solutions {0, 2}
        # unit entries pin the coordinates completely: 2 is invertible mod 9
        ([[1, 0], [0, 2]], 2, 3, 1),
        # the p-divisible pivot analogue over Z/9
        ([[1, 0], [0, 3]], 2, 3, 3),
        # mostly p-divisible: the kernel vector (1, 1) of M mod 2 carries
        # C = (1, 1), outside the image of M mod 2; solutions y in {0, 2}, x = -y
        ([[1, 1], [0, 2]], 2, 2, 2),
        # p = 5 with M = 0 mod 5: the carry C = (1 2; 0 1) has rank 2
        ([[5, 10], [0, 5]], 2, 5, 25),
    ]
    for M, h, p, kernel in cases:
        assert image_size_mod_p2(M, h, p) * kernel == p ** (2 * h), (M, p)


def _brute_kernel(M, h, p2):
    return sum(1 for v in itertools.product(range(p2), repeat=h)
               if all(sum(a * b for a, b in zip(row, v)) % p2 == 0 for row in M))


def test_kernel_size_against_brute_force():
    rng = random.Random(4)
    cases = 0
    while cases < 1000:
        p = rng.choice([2, 3])
        p2 = p * p
        k = rng.randint(1, 3)
        h = rng.randint(1, 3)
        M = [[rng.randrange(p2) for _ in range(h)] for _ in range(k)]
        assert image_size_mod_p2(M, h, p) * _brute_kernel(M, h, p2) == p2 ** h, (M, p)
        cases += 1
    # rows mostly divisible by p, where the carry C decides the count, and
    # p = 5 (two columns, so 625 vectors per brute-force count)
    rng = random.Random(41)
    for p, max_h, count in ((2, 3, 300), (3, 3, 300), (5, 2, 300)):
        p2 = p * p
        for _ in range(count):
            k = rng.randint(1, 3)
            h = rng.randint(1, max_h)
            M = [[rng.randrange(p2) if rng.random() < 0.2 else p * rng.randrange(p)
                  for _ in range(h)] for _ in range(k)]
            assert image_size_mod_p2(M, h, p) * _brute_kernel(M, h, p2) == \
                p2 ** h, (M, p)


def test_is_prime():
    assert [n for n in range(60) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    # the bound is psi_12, a composite that passes every base: below it
    # is_prime is a proof, at and above it only a probable-prime test
    assert MR_DETERMINISTIC_BOUND == 399165290221 * 798330580441
    assert is_prime(MR_DETERMINISTIC_BOUND)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, s))


def _all_bases_prime(n):
    """The 12-base test: trial division by the bases, then every base."""
    if n < 2:
        return False
    if any(n % a == 0 for a in ffield._MR_BASES):
        return n in ffield._MR_BASES
    return all(_strong_probable_prime(n, a) for a in ffield._MR_BASES)


def test_is_prime_matches_sympy_below_2e5():
    assert [n for n in range(200000) if is_prime(n)] == list(sympy.primerange(200000))


# psi_k for k = 1..12 (OEIS A014233; Sorenson and Webster, Math. Comp. 2017
# for k = 12).  is_prime reads psi_1..psi_5; from psi_5 it runs BPSW instead
# of the tiers psi_6..psi_11, which stay here to show what BPSW replaces.
_PSI = ffield._MR_PSI + (3474749660383, 341550071728321, 341550071728321,
                         3825123056546413051, 3825123056546413051,
                         3825123056546413051, 318665857834031151167461)
_PSI_5 = ffield._MR_PSI[-1]


def test_mr_psi_table():
    """psi_k is an odd composite, a strong pseudoprime to the first k bases
    (so psi_k - 1 is the most the tier proves), and is_prime rejects it
    below 2^64: through one more base below psi_5, through BPSW from psi_5."""
    assert len(_PSI) == len(ffield._MR_BASES) == 12
    assert len(ffield._MR_PSI) == 5 and _PSI_5 == 2152302898747
    assert _PSI[6] == _PSI[7] and _PSI[8] == _PSI[9] == _PSI[10]
    assert _PSI[-1] == MR_DETERMINISTIC_BOUND
    assert list(_PSI) == sorted(_PSI)
    assert _PSI[10] < ffield._BPSW_BOUND == 2 ** 64 < _PSI[11]
    for k, n in enumerate(_PSI, start=1):
        assert n % 2 and not sympy.isprime(n), k
        assert all(_strong_probable_prime(n, a) for a in ffield._MR_BASES[:k]), k
    for k, n in enumerate(_PSI[:11], start=1):
        assert not is_prime(n), k


# the strong Lucas pseudoprimes below 60,000 for Selfridge's parameters
# (OEIS A217255)
_STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569,
                              25199, 40309, 58519)


def test_strong_lucas_test_pins_the_ladder():
    """The private strong Lucas test accepts every odd prime from 41 and,
    below 60,000, exactly the ten known strong Lucas pseudoprimes besides;
    is_prime rejects those, since none is a base-2 strong pseudoprime."""
    lucas = ffield._strong_lucas_probable_prime
    accepted = [n for n in range(41, 60000, 2) if lucas(n)]
    assert [n for n in accepted if not sympy.isprime(n)] == \
        list(_STRONG_LUCAS_PSEUDOPRIMES)
    assert set(sympy.primerange(41, 60000)) <= set(accepted)
    for n in _STRONG_LUCAS_PSEUDOPRIMES:
        assert lucas(n) and not is_prime(n), n


def test_is_prime_rejects_pseudoprimes_and_prime_squares():
    """Base-2 strong pseudoprimes, the psi_k below 2^64 and squares of
    primes in every range.  No D has (D / n) = -1 for a square n, so the
    Lucas test must reject squares before its search for D; 1093^2 and
    3511^2 (the Wieferich primes squared) are base-2 strong pseudoprimes."""
    for n in (2047, 3277, 4033, 4681, 8321, 1093 ** 2, 3511 ** 2):
        assert _strong_probable_prime(n, 2) and not is_prime(n), n
    for n in _PSI[:11]:
        assert not is_prime(n), n
    for p in (41, 1093, 3511, 65521, sympy.nextprime(isqrt(_PSI_5)),
              sympy.prevprime(2 ** 32), sympy.nextprime(2 ** 32)):
        assert not ffield._strong_lucas_probable_prime(p * p), p
        assert not is_prime(p * p), p


def test_is_prime_matches_sympy_around_the_range_edges():
    """Every n in a window around psi_5 and around 2^64, where is_prime
    switches from the base tiers to BPSW and from BPSW to all twelve bases,
    and the primes on both sides of each edge."""
    for edge in (_PSI_5, 2 ** 64):
        for n in range(edge - 1500, edge + 1500):
            assert is_prime(n) == sympy.isprime(n), n
        below, above = [edge], [edge]
        for _ in range(10):
            below.append(sympy.prevprime(below[-1]))
            above.append(sympy.nextprime(above[-1]))
        assert all(is_prime(q) for q in below[1:] + above[1:])


def test_lucas_test_never_runs_below_psi_5(monkeypatch):
    """Below psi_5 is_prime runs at most five bases and never the Lucas
    test; global_zeta_inverse checks every prime up to its bound with
    is_prime, so that check stays a handful of powers per prime.  From
    psi_5 below 2^64 a prime costs one Lucas test, and from 2^64 none."""
    calls = []
    lucas = ffield._strong_lucas_probable_prime
    monkeypatch.setattr(ffield, "_strong_lucas_probable_prime",
                        lambda n: calls.append(n) or lucas(n))
    assert sum(map(is_prime, range(10 ** 5))) == 9592
    assert not any(is_prime(n) for n in _PSI[:4])
    for n in range(_PSI_5 - 2000, _PSI_5):
        is_prime(n)
    zetas.global_zeta_inverse(
        {p: zetas.PointCountTable(p, (1,)) for p in zetas.primes_up_to(10 ** 4)},
        2, 10 ** 4, 1, 0)
    assert calls == []
    q = sympy.nextprime(_PSI_5)
    assert is_prime(q) and calls == [q]
    assert is_prime(sympy.nextprime(2 ** 64)) and calls == [q]


_PSI_NEIGHBOURS = st.one_of(
    st.tuples(st.sampled_from(_PSI + (2 ** 64,)), st.integers(-2000, 2000))
    .map(lambda t: t[0] + t[1]),
    st.integers(11, 80).flatmap(lambda b: st.integers(2 ** (b - 1), 2 ** b - 1)))


@settings(max_examples=400, deadline=None)
@given(_PSI_NEIGHBOURS)
def test_is_prime_near_psi_bounds_and_at_random_sizes(n):
    """The ranged test returns what all 12 bases return, which is the truth
    below psi_12."""
    assert is_prime(n) == _all_bases_prime(n)
    if n < MR_DETERMINISTIC_BOUND:
        assert is_prime(n) == sympy.isprime(n)


def test_poly_mul_mod_consistency():
    """Division against its definition: a = q*b + r mod m with deg r < deg b,
    over Z/p and Z/p^2, for untrimmed dividends and deg a < deg b too."""
    rng = random.Random(5)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7])
        m = rng.choice([p, p * p])
        a = [rng.randrange(-m, 2 * m) for _ in range(rng.randint(0, 9))]
        a += [0] * rng.randint(0, 2)                       # trailing zeros
        lead = rng.choice([u for u in range(1, m) if u % p])
        b = [rng.randrange(m) for _ in range(rng.randint(0, 5))] + [lead]
        q, r = poly_divmod(a, b, m)
        assert len(r) < len(b) and (not r or r[-1] != 0)
        assert all(0 <= c < m for c in q + r)
        terms = itertools.zip_longest(a, poly_mul(q, b, m), r, fillvalue=0)
        assert all((x - y - z) % m == 0 for x, y, z in terms), (a, b, m)
        assert poly_mod(a, b, m) == r
        assert poly_divmod(a, b, m, quotient=False) == (None, r)
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1, 2, 3], [], 5)


def test_poly_gcd_against_sympy():
    """The monic gcd over F_p against sympy's, for random pairs with zero,
    constants, non-monic operands and planted common factors, and for a
    first operand given unreduced and untrimmed; the inputs are left as
    they were."""
    x = sympy.symbols("x")
    rng = random.Random(41)

    def rand_poly(p, deg):                 # deg -1 gives the zero polynomial
        return poly_trim([rng.randrange(p) for _ in range(deg + 1)])

    def oracle(a, b, p):
        pa, pb = (sympy.Poly(sum(c * x ** i for i, c in enumerate(f)), x, modulus=p)
                  for f in (a, b))
        g = poly_trim([int(c) % p for c in reversed(pa.gcd(pb).all_coeffs())])
        return [c * pow(g[-1], -1, p) % p for c in g] if g else []

    kinds = dict(zero=0, constant=0, non_monic=0, planted=0)
    for i in range(800):
        p = rng.choice([2, 3, 5, 7, 11])
        a, b = rand_poly(p, rng.randint(-1, 8)), rand_poly(p, rng.randint(-1, 8))
        if i % 3 == 0:
            common = rand_poly(p, rng.randint(1, 4))
            a, b = poly_mul(a, common, p), poly_mul(b, common, p)
            kinds["planted"] += len(common) > 1 and bool(a) and bool(b)
        kinds["zero"] += not a or not b
        kinds["constant"] += len(a) == 1 or len(b) == 1
        kinds["non_monic"] += any(len(f) > 1 and f[-1] != 1 for f in (a, b))
        a_in = list(a)
        if i % 4 == 1:
            a_in = [c + p * rng.randint(-2, 2) for c in a] + [p] * rng.randint(0, 2)
        before = (list(a_in), list(b))
        got = poly_gcd(tuple(a_in) if i % 2 else a_in, b, p)
        assert got == oracle(a, b, p), (a_in, b, p)
        assert (a_in, b) == before
        if got:
            assert got[-1] == 1 and got is not a_in and got is not b
    assert min(kinds.values()) >= 20, kinds


def test_primality_past_trial_division_matches_sympy_at_the_edges():
    """The entry of is_prime past its trial division, which maximality_scan
    calls on its odd cofactor, agrees with sympy on every odd n from 3 to
    20,000, small prime factors or not, and on every n coprime to 2..37
    within 2,000 of 41 and of each edge of is_prime's ranges (psi_1..psi_5,
    2^64, psi_12), where it also agrees with is_prime itself.  The one
    exception is psi_12, a strong pseudoprime to all twelve bases, which
    both accept: from there on a True is only a probable prime."""
    past_trial = ffield._is_prime_past_trial
    for n in range(3, 20000, 2):
        assert past_trial(n) == sympy.isprime(n), n
    small = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37
    edges = ffield._MR_PSI + (ffield._BPSW_BOUND, MR_DETERMINISTIC_BOUND)
    checked = primes = 0
    for edge in (41,) + edges:
        for n in range(max(41, edge - 2000), edge + 2000):
            if gcd(n, small) != 1:
                continue
            expected = sympy.isprime(n) or n == MR_DETERMINISTIC_BOUND
            assert past_trial(n) == is_prime(n) == expected, n
            checked += 1
            primes += expected
    assert past_trial(MR_DETERMINISTIC_BOUND) and not sympy.isprime(MR_DETERMINISTIC_BOUND)
    assert checked > 3000 and 0 < primes < checked


def test_batched_base2_test_matches_the_scalar_one():
    """The numpy Montgomery pass gives _strong_probable_prime(n, 2) on the
    base-2 strong pseudoprimes 2047 .. 3511^2, on every psi_k below 2^63,
    on n - 1 = k 2^s for s up to 62 (the longest run of masked
    squarings), on the odd n within 400 of 2^63, primes and composites,
    and on 10^4 random odd n, all in one batch of mixed sizes."""
    rng = random.Random(63)
    top = 2 ** 63
    pseudoprimes = [2047, 3277, 4033, 4681, 8321, 1093 ** 2, 3511 ** 2]
    ns = pseudoprimes + [n for n in _PSI if n < top]
    ns += [(k << s) + 1 for s in range(1, 63) for k in (1, 3, 5, 7) if k << s < top]
    ns += list(range(top - 399, top, 2))
    ns += [rng.randrange(3, 2 ** rng.randint(2, 63), 2) for _ in range(10 ** 4)]
    expected = [ffield._strong_probable_prime(n, 2) for n in ns]
    assert ffield._strong_base2_batch(ns) == expected
    assert expected == [_strong_probable_prime(n, 2) for n in ns]
    assert all(expected[:len(pseudoprimes)])
    near_top = [sympy.isprime(n) for n in range(top - 399, top, 2)]
    assert any(near_top) and not all(near_top)
    assert 0 < sum(expected) < len(ns)
    assert ffield._strong_base2_batch([]) == []
