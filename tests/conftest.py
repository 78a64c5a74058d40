import sys
from pathlib import Path

import pytest

from bertinilab.projgeom import (ClosedPoint, HomogeneousForm, ProjectiveScheme,
                                 load_scheme, parse_form)

SCHEMES = Path(__file__).resolve().parent.parent / "schemes"


@pytest.fixture
def unlimited_int_digits():
    """No int digit limit during the test: its oracles print long ints with
    plain str."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def p1():
    return ProjectiveScheme(1, 1, name="P1")


@pytest.fixture(scope="session")
def p2():
    return ProjectiveScheme(2, 2, name="P2")


@pytest.fixture(scope="session")
def conic():
    return ProjectiveScheme(2, 1, [parse_form("X^2+Y^2+Z^2", 2)],
                            name="sum-of-squares conic")


@pytest.fixture(scope="session")
def elliptic():
    """Y^2 Z = X^3 + X Z^2 + Z^3, smooth away from its bad primes 2 and 31."""
    return load_scheme(SCHEMES / "elliptic_a1_b1.json")


def _relabelings(fiber, x):
    """Every reading of the closed point x of ``fiber`` at one of its
    conjugates and in one of its charts, as (fiber', x', move).

    For each conjugate x.orbit[k] as the representative (the orbit
    rotated to start there) and each nonzero coordinate c of it, a
    permutation of the coordinates brings c to the front; it relabels the
    scheme's defining forms (fiber'), the renormalized orbit (x', whose
    chart is 0), and any form on P^n through ``move``.  The first reading
    is x itself in its own chart."""
    fld, n = x.field, fiber.n
    for k in range(x.degree):
        orbit = x.orbit[k:] + x.orbit[:k]
        for c in [i for i, v in enumerate(orbit[0]) if v]:
            order = [c] + [j for j in range(n + 1) if j != c]   # new X_i is old X_order[i]

            def move(form, order=order):
                return HomogeneousForm.from_monomials(
                    n, form.d, [(tuple(exps[j] for j in order), coeff)
                                for exps, coeff in zip(form.basis, form.coeffs)])

            def renormalized(pt, order=order):
                inv = fld.inv(pt[order[0]])
                return tuple(fld.mul(inv, pt[j]) for j in order)

            scheme = ProjectiveScheme(n, fiber.m, [move(f) for f in fiber.forms],
                                      name=f"{fiber.scheme.name} relabeled")
            moved = tuple(renormalized(pt) for pt in orbit)
            yield scheme.fiber(fiber.p), ClosedPoint(fld, moved[0], moved), move


@pytest.fixture(scope="session")
def relabelings():
    """The point readings of ``_relabelings``: the tests of chart,
    conjugate and lift independence feed them to the classifiers."""
    return _relabelings
