"""Field, Galois-ring and linear-algebra core."""

import itertools
import random

import pytest
import sympy

from bertinilab.ffield import (GF, MR_DETERMINISTIC_BOUND, GaloisRing,
                               find_irreducible, is_prime,
                               image_size_mod_p2, kernel_basis, matrix_rank,
                               poly_is_irreducible, poly_mul, poly_mod,
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


@pytest.mark.parametrize("p,e", [(2, 4), (2, 8), (3, 3), (5, 2), (7, 2)])
def test_galois_ring_units_exhaustive(p, e):
    """a is a unit exactly when a mod p is nonzero: then a^((q-1)p) = 1,
    and otherwise a lies in p*GR, so a^2 = 0."""
    ring = GaloisRing(p, e)
    assert p ** (2 * e) <= 1 << 16
    elements = list(itertools.product(range(p * p), repeat=e))
    units = [a for a in elements if ring.reduce_mod_p(a) != 0]
    assert len(units) == p ** (2 * e) - p ** e
    unit_order = (p ** e - 1) * p
    rng = random.Random(p ** e)
    for a in rng.sample(elements, 200):
        expected = ring.one() if ring.reduce_mod_p(a) != 0 else ring.zero()
        assert ring.pow(a, unit_order) == expected, a


def test_galois_ring_reduction_and_lift():
    ring = GaloisRing(3, 2)
    field = ring.field
    for x in range(field.q):
        assert ring.reduce_mod_p(ring.lift(x)) == x
    # reduction is a ring homomorphism
    rng = random.Random(3)
    for _ in range(200):
        a = tuple(rng.randrange(9) for _ in range(2))
        b = tuple(rng.randrange(9) for _ in range(2))
        assert ring.reduce_mod_p(ring.mul(a, b)) == \
            field.mul(ring.reduce_mod_p(a), ring.reduce_mod_p(b))


def test_divide_by_p():
    ring = GaloisRing(2, 2)
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
    """kernel_basis, matrix_rank and solve_linear against enumeration of F^ncols."""
    F = GF(p, e)
    rng = random.Random(100 * p + e)
    for _ in range(40):
        nrows = rng.randint(0, 4)
        ncols = rng.randint(1, 3)
        M = [[rng.randrange(F.q) for _ in range(ncols)] for _ in range(nrows)]
        basis = kernel_basis(M, ncols, F)
        zero = [0] * nrows
        assert all(_mat_vec(M, v, F) == zero for v in basis)
        vectors = list(itertools.product(range(F.q), repeat=ncols))
        images = [_mat_vec(M, v, F) for v in vectors]
        assert sum(img == zero for img in images) == F.q ** len(basis)
        if nrows:
            assert len(basis) == ncols - matrix_rank(M, F)
        # a reachable right-hand side is solved exactly
        rhs = rng.choice(images)
        assert _mat_vec(M, solve_linear(M, rhs, ncols, F), F) == rhs
        # an unreachable one is refused
        missing = [b for b in itertools.product(range(F.q), repeat=nrows)
                   if list(b) not in images]
        if missing:
            with pytest.raises(ValueError):
                solve_linear(M, list(rng.choice(missing)), ncols, F)


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


def test_poly_mul_mod_consistency():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        a = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
        b = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
        m = [rng.randrange(p) for _ in range(3)] + [1]
        prod = poly_mul(a, b, p)
        assert poly_mod(prod, m, p) == poly_mod(poly_mod(prod, m, p), m, p)
