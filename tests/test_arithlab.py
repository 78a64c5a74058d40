"""Discriminants, Dedekind maximality, box experiments."""

import random
from fractions import Fraction
from math import log10, prod

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import Poly
from sympy.polys.numberfields.basis import round_two

from bertinilab import arithlab, ffield, sampling
from bertinilab.arithlab import (InternalCheckError, MaximalityVerdict,
                                 MonicPoly, bareiss_determinant, bsw_experiment,
                                 dedekind_p_maximal, discriminant,
                                 equidistribution_audit, maximality_scan,
                                 multi_fiber_experiment,
                                 quadratic_field_census, sylvester_matrix)
from bertinilab.ffield import MR_DETERMINISTIC_BOUND
from bertinilab.p1sections import binary_section_report
from bertinilab.zetas import DIGIT_CAP, BudgetExceeded, primes_up_to

x = sympy.symbols("x")


def to_expr(f: MonicPoly):
    d = f.degree
    return x ** d + sum(c * x ** (d - i) for i, c in enumerate(f.a, start=1))


# ----------------------------------------------------------------------
# Discriminants.


def test_discriminant_examples():
    assert discriminant(MonicPoly((-1, -1))) == 5      # x^2 - x - 1
    assert discriminant(MonicPoly((0, -5))) == 20      # x^2 - 5
    assert discriminant(MonicPoly((0, 0))) == 0        # x^2


def test_discriminant_against_sympy():
    rng = random.Random(30)
    for _ in range(120):
        d = rng.randint(2, 6)
        f = MonicPoly(tuple(rng.randint(-40, 40) for _ in range(d)))
        assert discriminant(f) == sympy.discriminant(to_expr(f), x)


def _sylvester_discriminant(f: MonicPoly) -> int:
    """(-1)^{d(d-1)/2} Res(f, f') through Bareiss, the fallback of
    ``discriminant`` in degrees other than 2 and 3."""
    d = f.degree
    f_desc = [1] + list(f.a)
    res = bareiss_determinant(sylvester_matrix(f_desc, [(d - i) * c for i, c in
                                                        enumerate(f_desc[:d])]))
    return -res if (d * (d - 1) // 2) % 2 else res


def test_discriminant_degenerate_cases():
    """Degree 1 needs no special case (the 1x1 Sylvester matrix is [1]), and
    a repeated root runs Bareiss out of pivots: disc(x^3) = 0 and
    disc(x^3 - 3x + 2) = disc((x - 1)^2 (x + 2)) = 0, in closed form too."""
    for a in (5, -3, 0):
        assert discriminant(MonicPoly((a,))) == 1
    for f in (MonicPoly((0, 0, 0)), MonicPoly((0, -3, 2))):
        assert discriminant(f) == _sylvester_discriminant(f) == \
            sympy.discriminant(to_expr(f), x) == 0
    assert str(MonicPoly((0, -3, 2))) == "x^3 - 3*x + 2"


_COEFFICIENTS = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6),
                          st.integers(-2 ** 70, 2 ** 70))


@settings(max_examples=300, deadline=None)
@given(st.lists(_COEFFICIENTS, min_size=2, max_size=3), st.integers(-2 ** 66, 2 ** 66),
       st.integers(-50, 50))
def test_closed_form_discriminants_match_bareiss(a, r, s):
    """The closed forms of degrees 2 and 3 against Bareiss on the Sylvester
    matrix: coefficients zero, small, and past 2^63, plus polynomials with
    a repeated root r, (x - r)^2 and (x - r)^2 (x - s), of discriminant 0."""
    repeated = (MonicPoly((-2 * r, r * r)),
                MonicPoly((-2 * r - s, r * r + 2 * r * s, -r * r * s)))
    for f in (MonicPoly(tuple(a)),) + repeated:
        assert discriminant(f) == _sylvester_discriminant(f), f
    assert [discriminant(f) for f in repeated] == [0, 0]


def test_bareiss_determinant():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(M) == int(sympy.Matrix(M).det())
    assert bareiss_determinant([]) == 1        # the empty product


# ----------------------------------------------------------------------
# Dedekind's criterion.


def test_dedekind_examples():
    assert dedekind_p_maximal(MonicPoly((0, -5)), 2) is False   # index 2 in Z[phi]
    assert dedekind_p_maximal(MonicPoly((-1, -1)), 2) is True
    assert dedekind_p_maximal(MonicPoly((-1, -1)), 5) is True   # disc 5 squarefree
    assert dedekind_p_maximal(MonicPoly((0, 1)), 2) is True     # Z[i] is maximal
    with pytest.raises(ValueError):
        dedekind_p_maximal(MonicPoly((0, 0)), 2)
    with pytest.raises(ValueError):
        dedekind_p_maximal(MonicPoly((0, 1)), 4)


def test_squarefree_disc_shortcut():
    rng = random.Random(32)
    for _ in range(200):
        d = rng.randint(2, 4)
        f = MonicPoly(tuple(rng.randint(-30, 30) for _ in range(d)))
        disc = discriminant(f)
        if disc == 0:
            continue
        for p in (2, 3, 5, 7):
            if disc % (p * p) != 0:
                assert dedekind_p_maximal(f, p, disc=disc)


def test_dedekind_against_number_field_oracle():
    """disc(f) = index^2 * disc(K): p-maximal iff p does not divide the index."""
    rng = random.Random(33)
    checked = 0
    while checked < 150:
        d = rng.randint(2, 3)
        f = MonicPoly(tuple(rng.randint(-20, 20) for _ in range(d)))
        disc = discriminant(f)
        if disc == 0:
            continue
        P = Poly(to_expr(f), x)
        if not P.is_irreducible:
            continue
        _, dk = round_two(P)
        index_sq = disc // int(dk)
        for p in (2, 3, 5, 7):
            assert dedekind_p_maximal(f, p, disc=disc) == (index_sq % p != 0), \
                (f.a, p)
            checked += 1


def test_maximality_scan():
    v = maximality_scan(MonicPoly((0, -5)), 10)
    assert v.kind == "not_maximal_at" and v.p == 2
    v2 = maximality_scan(MonicPoly((-1, -1)), 10)
    assert v2.kind == "maximal_up_to" and v2.unconditional
    assert maximality_scan(MonicPoly((0, 0)), 10).kind == "degenerate"
    # a prime square above the trial bound leaves the verdict conditional:
    # disc(x^2 - x - 254520) = 1 + 4*254520 = 1009^2
    f = MonicPoly((-1, -254520))
    v3 = maximality_scan(f, 10)
    assert v3.kind == "maximal_up_to" and not v3.unconditional
    # raising the bound past 1009 resolves it: the order is not maximal there
    v4 = maximality_scan(f, 1100)
    assert v4.kind == "not_maximal_at" and v4.p == 1009
    # below T = 2 the cofactor could be even, outside the primality entry
    with pytest.raises(ValueError, match="T >= 2"):
        maximality_scan(f, 1)


def test_maximality_scan_prime_cofactor_bound():
    """A prime cofactor makes the verdict unconditional only where the
    Miller-Rabin bases are a proof of primality."""
    f = MonicPoly((-1, -1))        # only read when a prime square divides disc
    below = sympy.prevprime(MR_DETERMINISTIC_BOUND)
    above = sympy.nextprime(MR_DETERMINISTIC_BOUND)
    v = maximality_scan(f, 100, disc=below)
    assert v.kind == "maximal_up_to" and v.unconditional
    v = maximality_scan(f, 100, disc=above)
    assert v.kind == "maximal_up_to" and not v.unconditional
    # the bound itself is a composite that every base passes
    v = maximality_scan(f, 100, disc=MR_DETERMINISTIC_BOUND)
    assert v.kind == "maximal_up_to" and not v.unconditional


def test_dedekind_verdicts_do_not_depend_on_cache_state():
    """Cubics and quartics with p^2 | disc at p in {2, 3, 5, 7}, each with a
    partner f + p^2 g: every verdict computed with a cold memo equals the
    same verdict with the memos warmed by all the others, and partners
    share an entry.  The split of f mod p into radical and cofactor has a
    memo of its own, shared by the f with one f mod p."""
    rng = random.Random(36)
    cases = []
    while len(cases) < 300:
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(3, 4)
        f = MonicPoly(tuple(rng.randint(-40, 40) for _ in range(d)))
        g = MonicPoly(tuple(c + p * p * rng.randint(-3, 3) for c in f.a))
        discs = [discriminant(f), discriminant(g)]
        if 0 in discs or discs[0] % (p * p):
            continue
        assert discs[1] % (p * p) == 0
        cases += [(f, p, discs[0]), (g, p, discs[1])]
    cold = []
    for f, p, disc in cases:
        arithlab._dedekind_mod_p2.cache_clear()
        arithlab._dedekind_split.cache_clear()
        cold.append(dedekind_p_maximal(f, p, disc=disc))
    for f, p, disc in cases:
        dedekind_p_maximal(f, p, disc=disc)
    hits = arithlab._dedekind_mod_p2.cache_info().hits
    warm = [dedekind_p_maximal(f, p, disc=disc) for f, p, disc in cases]
    assert warm == cold
    assert cold[0::2] == cold[1::2]
    assert hits >= len(cases) // 2
    assert 0 < sum(cold) < len(cold)
    assert arithlab._dedekind_split.cache_info().hits > 0
    for memo in (arithlab._dedekind_mod_p2, arithlab._dedekind_split):
        assert 0 < memo.cache_info().maxsize < 10 ** 5


def _plain_scan(f, trial_bound, disc):
    """maximality_scan as one loop over the primes <= trial_bound."""
    c = abs(disc)
    for p in primes_up_to(trial_bound):
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
    unconditional = c == 1 or (c < MR_DETERMINISTIC_BOUND and sympy.isprime(c))
    return MaximalityVerdict("maximal_up_to", trial_bound,
                             unconditional=unconditional, cofactor=c)


# the edges of is_prime's ranges: psi_5, where BPSW takes over from the
# psi_k tiers; 2^64, where all twelve bases take over; and psi_12, above
# which a True is only a strong probable prime
_PRIME_EDGES = (2152302898747, 2 ** 64, MR_DETERMINISTIC_BOUND)


def _edge_cofactors():
    """Primes and composites with no factor <= 37 just below and just
    above each edge; the edge psi_12 itself is one of them."""
    out = []
    for edge in _PRIME_EDGES:
        out += [sympy.prevprime(edge), sympy.nextprime(edge),
                sympy.nextprime(edge // 41) * 41, sympy.prevprime(edge // 43 + 1) * 43]
        out += [edge] if edge % 2 else []
    return out


def test_blocked_trial_division_matches_the_prime_loop():
    """Same verdicts as the plain loop for real discriminants of cubics and
    for chosen ones: negative, +-1, below T, a prime power in the last
    block, T prime, bounds around the block size and around 37, below
    which the cofactor keeps small odd primes, and cofactors on both sides
    of each edge of is_prime's ranges."""
    rng = random.Random(37)
    cases = []
    trial_bounds = [2, 10, 36, 37, 38, 1000]
    for _ in range(300):
        f = MonicPoly(tuple(rng.randint(-10 ** i, 10 ** i) for i in range(1, 4)))
        disc = discriminant(f)
        if disc:
            cases.append((f, rng.choice(trial_bounds), disc))
    f = MonicPoly((-1, -1))
    primes = primes_up_to(1000)
    # 991 and 997 sit in the last block at T = 1000, past the first one
    assert primes[-2:] == [991, 997] and len(primes) > arithlab.TRIAL_BLOCK
    chosen = [1, -1, 12, -12, 4 * 9 * 25, -(2 ** 10), 997, -997,
              997 ** 2, -3 * 997 ** 3, 2 * 991 ** 2 * 997 ** 2,
              997 ** 2 * 1009, 1009 ** 2, 2 ** 3 * 1000003,
              MR_DETERMINISTIC_BOUND, -sympy.prevprime(MR_DETERMINISTIC_BOUND)]
    for n in _edge_cofactors():
        chosen += [n, -n, 2 * 3 * 37 * n, -(37 ** 2) * 41 * n]
    bounds = trial_bounds + [3, 97, 997, 1009,
                             primes_up_to(10 ** 4)[arithlab.TRIAL_BLOCK - 1],
                             primes_up_to(10 ** 4)[arithlab.TRIAL_BLOCK]]
    cases += [(f, T, disc) for disc in chosen for T in bounds]
    for f, T, disc in cases:
        assert maximality_scan(f, T, disc=disc) == _plain_scan(f, T, disc), (f, T, disc)
    kinds = {maximality_scan(f, T, disc=disc).kind for f, T, disc in cases}
    assert kinds == {"maximal_up_to", "not_maximal_at"}
    verdicts = {maximality_scan(f, T, disc=n).unconditional
                for n in _edge_cofactors() for T in (36, 37, 38)}
    assert verdicts == {True, False}


def test_batched_proof_matches_the_scalar_one_at_the_edges():
    """The batched proof bsw runs gives _is_prime_past_trial's answer on
    every edge cofactor: below psi_5 and from 2^63 one by one, in
    [psi_5, 2^63) through the numpy base-2 pass."""
    ns = _edge_cofactors()
    assert any(ffield._MR_PSI[-1] <= n < 2 ** 63 for n in ns)
    assert ffield._is_prime_past_trial_batch(ns) == \
        [ffield._is_prime_past_trial(n) for n in ns]


def test_geometric_oracle_equivalence():
    """Dedekind at p iff no arithmetically singular point on the fiber at p."""
    rng = random.Random(34)
    done = 0
    while done < 250:
        f = MonicPoly(tuple(rng.randint(-50, 50) for _ in range(3)))
        disc = discriminant(f)
        if disc == 0:
            continue
        hom = (1,) + f.a
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            geo = binary_section_report(hom, p, 3).arith_singular == 0
            assert dedekind_p_maximal(f, p, disc=disc) == geo, (f.a, p)
        done += 1


# ----------------------------------------------------------------------
# Equidistribution of boxes.


def test_equidistribution_examples():
    assert equidistribution_audit(1, 7, 5).ratio == 1
    aud = equidistribution_audit(1, 8, 5)
    assert (aud.min_count, aud.max_count, aud.ratio) == (3, 4, Fraction(4, 3))
    assert equidistribution_audit(3, 8, 5).ratio == Fraction(64, 27)
    narrow = equidistribution_audit(2, 1, 7)
    assert not narrow.covered and narrow.ratio is None
    with pytest.raises(ValueError):
        equidistribution_audit(0, 5, 5)


def test_equidistribution_closed_form_vs_exhaustive():
    for h in (1, 2, 3):
        for B in range(1, 13):
            for N in range(2, 8):
                aud = equidistribution_audit(h, B, N)
                grid = np.stack(np.meshgrid(
                    *[np.arange(-B, B + 1) % N] * h), axis=-1).reshape(-1, h)
                codes = np.ravel_multi_index(grid.T, (N,) * h)
                counts = np.bincount(codes, minlength=N ** h)
                assert counts.min() == aud.min_count
                assert counts.max() == aud.max_count
                assert aud.exact == (counts.min() == counts.max())
                if aud.ratio is not None:       # built without a gcd: reduced
                    reduced = Fraction(aud.max_count, aud.min_count)
                    assert (aud.ratio.numerator, aud.ratio.denominator) == \
                        (reduced.numerator, reduced.denominator)


def test_equidistribution_digit_cap():
    """A class count of DIGIT_CAP or more digits is refused before any power
    is formed; 2^6643856 (2,000,000 digits, the most the cap admits) runs."""
    h = 6643856
    assert h * log10(2) < DIGIT_CAP <= (h + 1) * log10(2)
    aud = equidistribution_audit(h, 1, 2)           # 2B + 1 = 3 = 1 * 2 + 1
    assert aud.max_count == 1 << h and aud.min_count == 1
    assert (aud.ratio.numerator, aud.ratio.denominator) == (1 << h, 1)
    with pytest.raises(BudgetExceeded, match="2000000 digits"):
        equidistribution_audit(h + 1, 1, 2)
    with pytest.raises(BudgetExceeded):
        equidistribution_audit(2 * 10 ** 6, 100, 3)       # 67^h: 3.65e6 digits


# ----------------------------------------------------------------------
# Experiments.


def test_bsw_small_run_and_determinism():
    est = bsw_experiment(3, 100, 100, 2500, seed=77)
    assert est.total == 2500
    assert abs(est.value - float(est.reference_value)) <= \
        est.ci_halfwidth + float(est.reference_error) + 0.03
    est2 = bsw_experiment(3, 100, 100, 2500, seed=77)
    assert est.value == est2.value
    with pytest.raises(ValueError):
        bsw_experiment(1, 100, 100, 100, seed=0)
    with pytest.raises(ValueError):
        bsw_experiment(3, 100, 100, 0, seed=0)


def test_bsw_counts_degenerate_samples():
    """With R = 1 the only monic quadratic of discriminant 0 is x^2, so the
    degenerate count is the number of sampled rows (0, 0), and every sample
    is a hit, degenerate or not maximal at one prime."""
    samples = 900
    est = bsw_experiment(2, 1, 10, samples, seed=4)
    squares = sum(row == (0, 0) for rng, size in sampling.chunks(4, samples)
                  for row in sampling.uniform_height_ball(rng, size, [1, 1]))
    assert est.extras["degenerate"] == squares == 101
    hits = round(est.value * samples)
    assert hits + squares + sum(est.extras["not_maximal_at"].values()) == samples


# Recorded before the closed-form discriminants and BPSW replaced Bareiss and
# the psi_6..psi_11 tiers: hits, conditional verdicts and the least prime of
# each non-maximal verdict, for a few hundred samples per seed.
_BSW_PINS = {
    (3, 1000, 1000, 0): (165, 112, {2: 82, 3: 29, 5: 8, 7: 8, 11: 1, 13: 3,
                                    19: 1, 29: 1, 47: 1, 113: 1}),
    (3, 1000, 1000, 7): (188, 115, {2: 69, 3: 31, 5: 5, 7: 3, 13: 1, 17: 1,
                                    29: 1, 31: 1}),
    (4, 50, 500, 0): (195, 137, {2: 63, 3: 25, 5: 8, 7: 2, 13: 3, 17: 1, 23: 1,
                                 29: 1, 37: 1}),
    (4, 50, 500, 7): (181, 123, {2: 87, 3: 18, 5: 6, 7: 4, 13: 1, 19: 1, 31: 2}),
}


@pytest.mark.parametrize("config", sorted(_BSW_PINS))
def test_bsw_results_are_pinned(config):
    """bsw's verdicts at --d 3 --R 1000 --T 1000 (the cubic closed form) and
    --d 4 --R 50 --T 500 (the Bareiss fallback), 300 samples; both send
    cofactors to each of is_prime's three ranges."""
    d, R, T, seed = config
    est = bsw_experiment(d, R, T, 300, seed=seed)
    hits, conditional, not_maximal_at = _BSW_PINS[config]
    assert est.value == hits / 300
    assert est.extras["conditional_verdicts"] == conditional
    assert est.extras["not_maximal_at"] == not_maximal_at
    assert est.extras["degenerate"] == 0


def test_bsw_pins_hold_in_batches_of_seven(monkeypatch):
    """With PROOF_BATCH = 7 every pinned run proves its cofactors in many
    batches of at most seven and keeps its pinned results."""
    monkeypatch.setattr(arithlab, "PROOF_BATCH", 7)
    batch = arithlab._is_prime_past_trial_batch
    sizes = []

    def spy(ns):
        sizes.append(len(ns))
        return batch(ns)

    monkeypatch.setattr(arithlab, "_is_prime_past_trial_batch", spy)
    for (d, R, T, seed), (hits, conditional, not_maximal_at) in _BSW_PINS.items():
        sizes.clear()
        est = bsw_experiment(d, R, T, 300, seed=seed)
        assert (est.value, est.extras["conditional_verdicts"],
                est.extras["not_maximal_at"]) == (hits / 300, conditional, not_maximal_at)
        assert len(sizes) > 10 and max(sizes) <= 7


def _count_section_reports(monkeypatch):
    """Count bsw's calls of binary_section_report, per prime."""
    real = arithlab.binary_section_report
    calls = {}

    def spy(coeffs, p, r):
        calls[p] = calls.get(p, 0) + 1
        return real(coeffs, p, r)

    monkeypatch.setattr(arithlab, "binary_section_report", spy)
    return calls


def test_bsw_section_tables_only_where_classes_recur(monkeypatch):
    """A table of p^(2d) bytes is built at p only when p^(2d) <= samples.
    At --d 3 with 4,000 samples that is p = 2 and 3 (64 and 729 bytes),
    not p = 5 or 7 (15,625 and 117,649 classes).  At d = 4 with 300
    samples only p = 2 (256 bytes) gets one, so the engine runs on every
    sample at p = 3, 5 and 7, and the pinned verdicts of (4, 50, 500,
    seed 7) still hold."""
    assert [len(arithlab._section_table(p, 3, 4000)) for p in (2, 3)] == [64, 729]
    assert arithlab._section_table(5, 3, 4000) is None
    assert arithlab._section_table(7, 3, 4000) is None
    assert len(arithlab._section_table(5, 3, 15625)) == 15625
    assert arithlab._section_table(5, 3, 15624) is None
    calls = _count_section_reports(monkeypatch)
    est = bsw_experiment(4, 50, 500, 300, seed=7)
    hits, conditional, not_maximal_at = _BSW_PINS[(4, 50, 500, 7)]
    assert (est.value, est.extras["conditional_verdicts"],
            est.extras["not_maximal_at"]) == (hits / 300, conditional, not_maximal_at)
    assert calls[3] == calls[5] == calls[7] == 300 and calls[2] <= 256


def test_bsw_memo_cold_warm_and_off_agree(monkeypatch):
    """The same run with its own tables (p = 2 only), with cold tables at
    every prime, with those tables kept warm from the cold run, and with no
    tables at all gives the same report.  The cold run calls the engine
    once per class (f mod p^2, p) met, the warm run never, and the run
    without tables once per sample and prime."""
    args = (3, 30, 100, 600)
    calls = _count_section_reports(monkeypatch)
    own = bsw_experiment(*args, seed=3).as_report()
    assert calls[3] == calls[5] == calls[7] == 600 > calls[2]
    calls.clear()
    kept = {}
    monkeypatch.setattr(arithlab, "_section_table",
                        lambda p, d, n: kept.setdefault((p, d), bytearray((p * p) ** d)))
    cold = bsw_experiment(*args, seed=3).as_report()
    cold_calls = dict(calls)
    calls.clear()
    warm = bsw_experiment(*args, seed=3).as_report()
    assert not calls
    monkeypatch.setattr(arithlab, "_section_table", lambda p, d, n: None)
    off = bsw_experiment(*args, seed=3).as_report()
    assert own == cold == warm == off
    samples = [a for rng, size in sampling.chunks(3, 600)
               for a in sampling.uniform_height_ball(rng, size, [30, 900, 27000])]
    assert cold["degenerate"] == 0
    assert calls == {p: 600 for p in (2, 3, 5, 7)}
    assert cold_calls == {p: len({tuple(c % (p * p) for c in a) for a in samples})
                          for p in (2, 3, 5, 7)}
    assert cold_calls[2] == 64 and cold_calls[7] < 600


def test_bsw_cross_check_runs_on_every_sample(monkeypatch):
    """The geometric verdict of a class (f mod p^2, p) is memoized, but
    Dedekind still runs on every sample: flipping its answer on only the
    second sample of one recurring class, with p^2 not dividing disc so
    that maximality_scan never asks about it, raises InternalCheckError.
    The class is taken at a prime with a table, where that second sample
    is a memo hit: p = 2 here, the only one with p^6 <= 200."""
    args = (3, 10, 100, 200)
    seen = []
    real = arithlab._dedekind_criterion

    def record(f, p, disc):
        seen.append((p, tuple(c % (p * p) for c in f.a), disc % (p * p) == 0))
        return real(f, p, disc)

    monkeypatch.setattr(arithlab, "_dedekind_criterion", record)
    bsw_experiment(*args, seed=5)
    assert [p for p in (2, 3, 5, 7) if arithlab._section_table(p, 3, 200)] == [2]
    target = next(key for key in seen
                  if key[0] == 2 and not key[2] and seen.count(key) >= 2)
    occurrences = 0

    def flip_second(f, p, disc):
        nonlocal occurrences
        verdict = real(f, p, disc)
        if (p, tuple(c % (p * p) for c in f.a), disc % (p * p) == 0) == target:
            occurrences += 1
            return verdict != (occurrences == 2)
        return verdict

    monkeypatch.setattr(arithlab, "_dedekind_criterion", flip_second)
    with pytest.raises(InternalCheckError, match=f"p={target[0]}"):
        bsw_experiment(*args, seed=5)
    assert occurrences == 2


def test_euler_product_reference():
    """bsw's reference is the Euler product prod_{p <= T} (1 - p^-2), which
    the zeta engine builds over a point per prime at s = 2, with the 8/T
    prime-tail bound as its error."""
    est = bsw_experiment(3, 10, 1000, 1, seed=0)
    assert abs(float(est.reference_value) - 0.608004) < 1e-6
    assert est.reference_error == Fraction(8, 1000)
    for T in (2, 3, 1000):
        primes = primes_up_to(T)
        value = Fraction(prod(p * p - 1 for p in primes), prod(p * p for p in primes))
        assert bsw_experiment(2, 10, T, 1, seed=0).reference_value == value


def test_multi_fiber_matches_single_fiber_mc(p1):
    from bertinilab.fiberlab import fiber_density_mc
    mf = multi_fiber_experiment(6, 2000, 2, 3, 4000, seed=55)
    mc = fiber_density_mc(p1, 2, 6, 3, 4000, seed=55)
    tol = 3 * ((mf.value * (1 - mf.value) / 4000) ** 0.5
               + (mc.value * (1 - mc.value) / 4000) ** 0.5)
    assert abs(mf.value - mc.value) <= tol


def test_multi_fiber_preconditions():
    with pytest.raises(ValueError):
        multi_fiber_experiment(6, 10, 7, 3, 500, seed=0)    # box misses mod 49
    with pytest.raises(ValueError):
        multi_fiber_experiment(6, 2000, 2, 3, 0, seed=0)


def test_multi_fiber_determinism_and_reference():
    a = multi_fiber_experiment(8, 10 ** 4, 3, 3, 3000, seed=42)
    b = multi_fiber_experiment(8, 10 ** 4, 3, 3, 3000, seed=42)
    assert a.value == b.value
    assert a.extras["singular_by_prime"] == b.extras["singular_by_prime"]
    assert abs(a.value - float(a.reference_value)) <= \
        a.ci_halfwidth + float(a.reference_error) + 0.02


def test_multi_fiber_reports_once_per_row_and_prime(monkeypatch):
    """The P^1 path classifies every (sample, prime) pair with its own
    ``binary_section_report`` call: no skipping or prefilter.  The
    squarefree gcds may come from one Euclid over the batch."""
    from bertinilab import p1sections
    calls = []

    def counting(coeffs, p, r, w=None):
        calls.append(p)
        return binary_section_report(coeffs, p, r, w)
    monkeypatch.setattr(p1sections, "binary_section_report", counting)
    samples = 300
    est = multi_fiber_experiment(8, 10 ** 4, 7, 4, samples, seed=5, n=1)
    assert est.extras["primes"] == [2, 3, 5, 7]
    assert len(calls) == samples * len(est.extras["primes"])
    assert {p: calls.count(p) for p in (2, 3, 5, 7)} == dict.fromkeys((2, 3, 5, 7), samples)


@pytest.mark.parametrize("samples", [300, 5000, 100000])
def test_multi_fiber_census_batches_are_bounded(monkeypatch, samples):
    """multi-fiber hands its P^1 censuses consecutive sampling chunks in
    batches of at least ``CENSUS_BATCH_ROWS`` rows, the last batch (or a
    smaller run, whole) excepted, and never a chunk more than it takes to
    reach that budget; so a run of 10^5 samples has one chunk per batch."""
    sizes = []
    real = arithlab.binary_census

    def recording(rows, p, r):
        sizes.append(len(rows))
        return real(rows, p, r)
    monkeypatch.setattr(arithlab, "binary_census", recording)
    multi_fiber_experiment(8, 10 ** 4, 2, 1, samples, seed=5)
    budget = arithlab.CENSUS_BATCH_ROWS
    chunk = -(-samples // sampling.NUM_CHUNKS)
    assert sum(sizes) == samples
    assert all(size >= budget for size in sizes[:-1])
    assert max(sizes) < budget + chunk
    if samples < budget:
        assert sizes == [samples]
    if chunk >= budget:
        assert len(sizes) == sampling.NUM_CHUNKS


def test_multi_fiber_census_on_p2_takes_one_chunk_at_a_time(monkeypatch):
    """On P^n, n > 1, ``FiberClassifier.census`` holds a (points, rows)
    array, so multi-fiber hands it one sampling chunk per call."""
    from bertinilab.fiberlab import FiberClassifier
    sizes = []
    real = FiberClassifier.census

    def recording(self, rows):
        sizes.append(len(rows))
        return real(self, rows)
    monkeypatch.setattr(FiberClassifier, "census", recording)
    samples = 300
    multi_fiber_experiment(2, 100, 2, 1, samples, seed=5, n=2)
    chunk = -(-samples // sampling.NUM_CHUNKS)
    assert sum(sizes) == samples
    assert len(sizes) == sampling.NUM_CHUNKS and max(sizes) == chunk


@pytest.mark.parametrize("n, d, prime_bound, r", [
    pytest.param(1, 8, 7, 5, id="7-5"),
    pytest.param(1, 8, 2, 14, id="2-14"),
    pytest.param(2, 2, 3, 2, id="n2-3-2"),
])
def test_multi_fiber_p1_reference_is_closed_form(monkeypatch, n, d, prime_bound, r):
    """On P^n the reference is the product of the projective_counts
    truncations.  On P^1 it takes no point scan, even where a scan of
    F_{p^r}-points would pass the budget; the census on P^2 scans for
    its points."""
    from bertinilab.projgeom import SchemeFiber
    from bertinilab.zetas import local_zeta_inverse, primes_up_to, projective_counts

    def no_scan(self, e=1):
        raise AssertionError("rational_points called on P^1")
    if n == 1:
        monkeypatch.setattr(SchemeFiber, "rational_points", no_scan)
    for reading, s in (("arithmetic", n + 2), ("fiber", n + 1)):
        est = multi_fiber_experiment(d, 10 ** 4, prime_bound, r, 64, seed=3,
                                     n=n, classification=reading)
        refs = [local_zeta_inverse(projective_counts(p, n, r), s, r, n)
                for p in primes_up_to(prime_bound)]
        value = Fraction(1)
        for t in refs:
            value *= t.value
        assert est.reference_value == value
        assert est.reference_error == sum(t.error_bound for t in refs)


def test_multi_fiber_generic_engine_matches_fast_path():
    """The two P^1 engines agree on every tally in both readings: the
    FiberClassifier censuses, run through fiberlab._tally on the same seed
    and rows, give multi-fiber's gcd-path mean, singular_by_prime and
    rescued_points.  The gcd path takes each row's w from one batch
    Euclid at d >= 1, up to p = 17 in (4, 17, 2); (1, 5, 3) runs that
    Euclid on two columns, and (0, 7, 2) rows of one column, which have
    no batch w, so each report takes its own.  At d < 2 the gcd path
    skips its test at infinity, where the census still tests the point."""
    from bertinilab.fiberlab import FiberClassifier, _tally
    from bertinilab.projgeom import ProjectiveScheme
    scheme = ProjectiveScheme(1, 1)
    samples, B, seed = 1000, 3000, 91
    for d, prime_bound, r in ((5, 3, 2), (8, 7, 4), (4, 5, 4), (6, 2, 6),
                              (6, 13, 3), (4, 17, 2), (1, 5, 3), (0, 7, 2)):
        primes = primes_up_to(prime_bound)
        censuses = [FiberClassifier(fib, d, fib.closed_points_up_to(r)).census
                    for fib in map(scheme.fiber, primes)]
        *hits, singular, rescued = _tally(censuses, (
            [rows % (p * p) for p in primes]
            for rows in (sampling.uniform_box(rng, size, d + 1, B)
                         for rng, size in sampling.chunks(seed, samples))))
        assert rescued > 0
        # at d = 1 the readings agree: p*tau is arithmetically singular at
        # the rational zero of tau, and the zero section everywhere
        assert hits[0] > hits[1] if d != 1 else hits[0] == hits[1]
        for reading, classification in enumerate(("arithmetic", "fiber")):
            fast = multi_fiber_experiment(d, B, prime_bound, r, samples, seed=seed,
                                          n=1, classification=classification)
            assert fast.value == hits[reading] / samples
            assert fast.extras["singular_by_prime"] == \
                {p: counts[reading] for p, counts in zip(primes, singular)}
            assert fast.extras["rescued_points"] == rescued


@pytest.mark.parametrize("classification", ["arithmetic", "fiber"])
def test_multi_fiber_p2_matches_pointwise_classifier(p2, classification):
    """n > 1 runs FiberClassifier.census; check it row by row against
    classify_point_detail at every rational point of P^2 mod 2 and 3."""
    from bertinilab.fiberlab import classify_point_detail
    from bertinilab.projgeom import HomogeneousForm
    est = multi_fiber_experiment(2, 50, 3, 1, 300, seed=17, n=2,
                                 classification=classification)
    points = {p: (p2.fiber(p), p2.fiber(p).closed_points_up_to(1)) for p in (2, 3)}
    singular_by_prime = {2: 0, 3: 0}
    rescued = 0
    hits = 0
    for rng, size in sampling.chunks(17, 300):
        for row in sampling.uniform_box(rng, size, 6, 50).tolist():
            good = True
            for p, (fib, pts) in points.items():
                sec = HomogeneousForm(2, 2, tuple(row))
                verdicts = [classify_point_detail(sec, x, fib) for x in pts]
                rescued += sum(f == "SingularPoint" and a != "SingularPoint"
                               for a, f in verdicts)
                index = 0 if classification == "arithmetic" else 1
                if any(v[index] == "SingularPoint" for v in verdicts):
                    singular_by_prime[p] += 1
                    good = False
            hits += good
    assert est.extras["singular_by_prime"] == singular_by_prime
    assert est.extras["rescued_points"] == rescued
    assert est.value == hits / 300
    assert min(singular_by_prime.values()) > 0 and rescued > 0


def test_quadratic_census_smoke():
    est = quadratic_field_census(6)
    assert est.total == 13 * 73
    assert (est.value, est.extras["degenerate"]) == (Fraction(573, 949), 7)
    assert 0.5 < float(est.value) < 0.75
