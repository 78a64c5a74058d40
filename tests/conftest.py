import sys
from pathlib import Path

import pytest

from bertinilab.projgeom import ProjectiveScheme, load_scheme, parse_form

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
