"""Homogeneous forms on P^n, projective schemes, point enumeration and
Jacobian smoothness tests over finite fields.

Conventions fixed here and used by every file format and experiment:

* coefficient vectors are indexed by ``monomial_basis(n, d)``, the
  graded-lex order on exponent vectors with X_0 > ... > X_n;
* projective points are normalized so that the first nonzero coordinate
  equals 1 (the Frobenius then preserves normalized representatives);
* smoothness is always tested in an affine chart, with the value of the
  form checked separately from its partials, so the characteristic-p
  degeneracy of the Euler relation can never hide a zero of the form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb

from .ffield import (FIELD_SIZE_CAP, GF, GaloisRing, is_prime, kernel_basis,
                     matrix_rank)
from .zetas import PointCountTable, projective_counts

POINT_SCAN_BUDGET = 10 ** 8


class BudgetExceeded(Exception):
    """An enumeration would overrun the desk-scale scan budget."""


def monomial_basis(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of degree d in n+1 variables, graded-lex, X_0 highest."""
    return list(_basis(n, d))


@lru_cache(maxsize=None)
def _basis(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), d, n + 1)
    return tuple(out)


@dataclass(frozen=True)
class HomogeneousForm:
    """A degree-d form on P^n with coefficients in Z or Z/modulus."""

    n: int
    d: int
    coeffs: tuple
    modulus: int | None = None  # None means integer coefficients

    def __post_init__(self):
        expected = comb(self.n + self.d, self.n)
        if len(self.coeffs) != expected:
            raise ValueError(f"need {expected} coefficients, got {len(self.coeffs)}")
        if self.modulus is not None:
            object.__setattr__(
                self, "coeffs", tuple(c % self.modulus for c in self.coeffs))

    @staticmethod
    def zero(n, d, modulus=None):
        return HomogeneousForm(n, d, (0,) * comb(n + d, n), modulus)

    @staticmethod
    def from_monomials(n, d, terms, modulus=None):
        """Build a form from (exponent-vector, coefficient) pairs."""
        basis = _basis(n, d)
        index = {exps: i for i, exps in enumerate(basis)}
        coeffs = [0] * len(basis)
        for exps, c in terms:
            exps = tuple(exps)
            if exps not in index:
                raise ValueError(f"exponent vector {exps} is not degree {d} on P^{n}")
            coeffs[index[exps]] += c
        return HomogeneousForm(n, d, tuple(coeffs), modulus)

    @property
    def basis(self):
        return _basis(self.n, self.d)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def reduce(self, modulus: int) -> "HomogeneousForm":
        """Coefficient-wise reduction; refines an existing modulus only."""
        if self.modulus is not None and self.modulus % modulus != 0:
            raise ValueError(f"cannot reduce mod {modulus} from mod {self.modulus}")
        return HomogeneousForm(self.n, self.d, self.coeffs, modulus)

    def partial(self, i: int) -> "HomogeneousForm":
        """Formal partial derivative with respect to X_i, degree drops by one."""
        if not 0 <= i <= self.n:
            raise ValueError("variable index out of range")
        if self.d == 0:
            return HomogeneousForm.zero(self.n, 0, self.modulus)
        terms = []
        for exps, c in zip(self.basis, self.coeffs):
            if exps[i] > 0:
                lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                terms.append((lowered, c * exps[i]))
        return HomogeneousForm.from_monomials(self.n, self.d - 1, terms, self.modulus)

    # -- evaluation over the supported coordinate rings

    def eval_int(self, point, modulus=None):
        """Evaluate at integer coordinates, optionally modulo ``modulus``."""
        self._check_point_len(point)
        m = modulus if modulus is not None else self.modulus
        acc = 0
        for exps, c in zip(self.basis, self.coeffs):
            if c == 0:
                continue
            term = c
            for x, e in zip(point, exps):
                if e:
                    term *= x ** e
            acc += term
        return acc % m if m is not None else acc

    def eval_gf(self, field: GF, point):
        """Evaluate at coordinates encoded in GF(p^e); coefficients embed mod p."""
        self._check_point_len(point)
        self._check_char(field.p)
        acc = 0
        for exps, c in zip(self.basis, self.coeffs):
            cp = c % field.p
            if cp == 0:
                continue
            term = cp
            for x, e in zip(point, exps):
                if e:
                    term = field.mul(term, field.pow(x, e))
            acc = field.add(acc, term)
        return acc

    def eval_gr(self, ring: GaloisRing, point):
        """Evaluate at Galois-ring coordinates; coefficients embed mod p^2."""
        self._check_point_len(point)
        if self.modulus is not None and self.modulus % ring.p2 != 0:
            raise ValueError("coefficients do not embed into GR(p^2, e)")
        acc = ring.zero()
        for exps, c in zip(self.basis, self.coeffs):
            cc = c % ring.p2
            if cc == 0:
                continue
            term = ring.from_int(cc)
            for x, e in zip(point, exps):
                if e:
                    term = ring.mul(term, ring.pow(x, e))
            acc = ring.add(acc, term)
        return acc

    def _check_point_len(self, point):
        if len(point) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} coordinates")

    def _check_char(self, p):
        if self.modulus is not None and self.modulus % p != 0:
            raise ValueError(f"coefficients mod {self.modulus} do not embed mod {p}")

    def to_string(self, names=None):
        names = names or default_variable_names(self.n)
        text = ""
        for exps, c in zip(self.basis, self.coeffs):
            if c == 0:
                continue
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(exps) if e > 0]
            body = "*".join(factors)
            mag = abs(c)
            if not factors:
                term = str(mag)
            elif mag == 1:
                term = body
            else:
                term = f"{mag}*{body}"
            sign = "-" if c < 0 else "+"
            text += f" {sign} {term}" if text else (f"-{term}" if c < 0 else term)
        return text or "0"


def default_variable_names(n: int) -> list[str]:
    if n <= 3:
        return ["X", "Y", "Z", "W"][: n + 1]
    return [f"X{i}" for i in range(n + 1)]


@dataclass(frozen=True)
class ClosedPoint:
    """A Frobenius orbit on a fiber; ``rep`` is the canonical representative."""

    p: int
    degree: int
    field: GF
    rep: tuple          # normalized: first nonzero coordinate is 1
    orbit: tuple        # all Frobenius conjugates, normalized

    def __post_init__(self):
        if len(self.orbit) != self.degree:
            raise ValueError("orbit size must equal the degree")

    def chart(self) -> int:
        return next(i for i, c in enumerate(self.rep) if c != 0)


class ProjectiveScheme:
    """A subscheme of P^n cut by integer forms, with declared fiber dimension m.

    The dimension m is user-declared and validated by the smoothness
    scans, not computed; X = P^n is the empty list of defining forms.
    """

    def __init__(self, n: int, m: int, defining_forms=(), name: str = ""):
        if not 0 <= m <= n:
            raise ValueError("need 0 <= m <= n")
        self.n = n
        self.m = m
        self.defining_forms = tuple(defining_forms)
        self.name = name or (f"P{n}" if not defining_forms else f"X in P{n}")
        for f in self.defining_forms:
            if f.n != n:
                raise ValueError("defining forms must live on the same P^n")
            if f.modulus is not None:
                raise ValueError("defining forms must have integer coefficients")

    def fiber(self, p: int) -> "SchemeFiber":
        return SchemeFiber(self, p)

    def __repr__(self):
        return f"ProjectiveScheme({self.name}, n={self.n}, m={self.m})"


class SchemeFiber:
    """The reduction of a projective scheme modulo a prime p."""

    def __init__(self, scheme: ProjectiveScheme, p: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.scheme = scheme
        self.p = p
        self.n = scheme.n
        self.m = scheme.m
        self.forms = tuple(f.reduce(p) for f in scheme.defining_forms)
        self._fields = {}
        self._points_cache = {}

    def extension(self, e: int) -> GF:
        if e not in self._fields:
            self._fields[e] = GF(self.p, e)
        return self._fields[e]

    # -- enumeration and its size check

    def scan_fits(self, r: int) -> bool:
        """Whether the chart scans of X(F_{p^e}) for every e <= r fit
        POINT_SCAN_BUDGET: the largest, at e = r, is sized q^(n+1), q = p^r.

        For n >= 1 this keeps every scanned field at <= 10^4 elements.
        """
        return self.p ** (r * (self.n + 1)) <= POINT_SCAN_BUDGET

    def _check_scan(self, r: int):
        if not self.scan_fits(r):
            raise BudgetExceeded(f"scan of ~{self.p ** r}^{self.n + 1} tuples refused")

    def check_census(self, r: int):
        """Refuse a census at the points of degree <= r whose largest lift
        ring GR(p^2, r) passes FIELD_SIZE_CAP (p^(2r) <= 2^24) or whose
        point scan fails ``scan_fits(r)``.

        Census callers run it before their reference and before enumerating
        any point, so the refusal is a budget (exit 3) that costs nothing;
        GaloisRing keeps its ValueError for direct callers.
        """
        if self.p ** (2 * r) > FIELD_SIZE_CAP:
            raise BudgetExceeded(f"ring size {self.p}^{2 * r} exceeds the "
                                 f"2^{FIELD_SIZE_CAP.bit_length() - 1} cap")
        self._check_scan(r)

    def table_fits(self, e_max: int) -> bool:
        """Whether ``point_table(e_max)`` passes the scan check (P^n scans nothing)."""
        return not self.forms or self.scan_fits(e_max)

    def point_table(self, e_max: int) -> PointCountTable:
        """#X(F_{p^e}) for e <= e_max: the closed form on P^n, scans otherwise."""
        if not self.forms:
            return projective_counts(self.p, self.n, e_max)
        self._check_scan(e_max)
        return PointCountTable(self.p, tuple(len(self.rational_points(e))
                                             for e in range(1, e_max + 1)))

    def rational_points(self, e: int = 1) -> list[tuple]:
        """All normalized points of X(F_{p^e}), by brute-force chart scan."""
        if e in self._points_cache:
            return self._points_cache[e]
        self._check_scan(e)
        field = self.extension(e)
        points = []
        for lead in range(self.n + 1):
            prefix = (0,) * lead + (1,)
            for tail in product(range(field.q), repeat=self.n - lead):
                pt = prefix + tail
                if all(f.eval_gf(field, pt) == 0 for f in self.forms):
                    points.append(pt)
        self._points_cache[e] = points
        return points

    def closed_points_up_to(self, r: int) -> list[ClosedPoint]:
        """Every closed point of degree <= r, each Frobenius orbit once."""
        self._check_scan(r)
        out = []
        for e in range(1, r + 1):
            field = self.extension(e)
            seen = set()
            for pt in self.rational_points(e):
                if pt in seen:
                    continue
                orbit = [pt]
                cur = tuple(field.frobenius(c) for c in pt)
                while cur != pt:
                    orbit.append(cur)
                    cur = tuple(field.frobenius(c) for c in cur)
                for conj in orbit:
                    seen.add(conj)
                if len(orbit) == e:
                    rep = min(orbit)
                    k = orbit.index(rep)
                    orbit = orbit[k:] + orbit[:k]
                    out.append(ClosedPoint(self.p, e, field, rep, tuple(orbit)))
        return out

    # -- smoothness

    def _scaled_coords(self, field: GF, coords, chart: int):
        if coords[chart] == 0:
            raise ValueError("chart coordinate vanishes at the point")
        inv = field.inv(coords[chart])
        return tuple(field.mul(inv, c) for c in coords)

    def jacobian_rows(self, forms, field: GF, coords, chart: int):
        """Rows of partials (all variables except the chart one) at the point."""
        cols = [j for j in range(self.n + 1) if j != chart]
        rows = []
        for f in forms:
            rows.append([f.partial(j).eval_gf(field, coords) for j in cols])
        return rows

    def tangent_basis(self, x: ClosedPoint):
        """A basis of the tangent space of the fiber at x, in chart coordinates."""
        chart = x.chart()
        coords = self._scaled_coords(x.field, x.rep, chart)
        rows = self.jacobian_rows(self.forms, x.field, coords, chart)
        basis = kernel_basis(rows, self.n, x.field)
        if len(basis) != self.m:
            raise ValueError(f"fiber of {self.scheme.name} mod {self.p} is singular "
                             f"at {x.rep}; declared dimension {self.m}")
        return basis

    def validate_smooth(self, r: int = 1) -> int:
        """Check the Jacobian rank n - m at every closed point of degree <= r.

        Returns the number of points checked; raises if the declared
        dimension is wrong anywhere on the scanned range.
        """
        points = self.closed_points_up_to(r)
        for x in points:
            self.tangent_basis(x)       # raises unless the kernel has dimension m
        return len(points)

    def divisor_smooth_at(self, sigma: HomogeneousForm, x: ClosedPoint,
                          chart: int | None = None, conjugate: int = 0) -> str:
        """Classify the divisor of sigma (a form mod p) at the closed point x.

        Returns one of 'NotOnDivisor', 'SmoothPoint', 'SingularPoint'.
        """
        field = x.field
        coords = x.orbit[conjugate]
        if sigma.eval_gf(field, coords) != 0:
            return "NotOnDivisor"
        chart = (next(i for i, c in enumerate(coords) if c != 0)
                 if chart is None else chart)
        coords = self._scaled_coords(field, coords, chart)
        rows = self.jacobian_rows(self.forms, field, coords, chart)
        if matrix_rank(rows, field) != self.n - self.m:
            raise ValueError(f"fiber is singular at {x.rep}; smoothness test refused")
        rows.extend(self.jacobian_rows([sigma], field, coords, chart))
        full = matrix_rank(rows, field)
        return "SmoothPoint" if full == self.n - self.m + 1 else "SingularPoint"

    def __repr__(self):
        return f"{self.scheme.name} mod {self.p}"


# ----------------------------------------------------------------------
# Scheme description files and the form-string grammar.


def scheme_to_dict(scheme: ProjectiveScheme, p: int | None = None) -> dict:
    doc = {
        "name": scheme.name,
        "n": scheme.n,
        "m": scheme.m,
        "defining_forms": [
            [[list(e), c] for e, c in zip(f.basis, f.coeffs) if c != 0]
            for f in scheme.defining_forms
        ],
    }
    if p is not None:
        doc["p"] = p
    return doc


def scheme_from_dict(doc: dict):
    n = doc["n"]
    m = doc["m"]
    forms = []
    for terms in doc.get("defining_forms", []):
        degs = {sum(e) for e, _ in terms}
        if len(degs) != 1:
            raise ValueError("a defining form must be homogeneous")
        forms.append(HomogeneousForm.from_monomials(n, degs.pop(),
                                                    [(tuple(e), c) for e, c in terms]))
    scheme = ProjectiveScheme(n, m, forms, name=doc.get("name", ""))
    return scheme, doc.get("p")


def load_scheme(path):
    with open(path, encoding="utf-8") as fh:
        return scheme_from_dict(json.load(fh))


def save_scheme(path, scheme: ProjectiveScheme, p: int | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scheme_to_dict(scheme, p), fh, indent=2)
        fh.write("\n")


def parse_form(text: str, n: int, modulus: int | None = None) -> HomogeneousForm:
    """Parse a human-readable form such as ``X^2+5*Y^2-Z^2`` on P^n.

    Grammar: sum of terms, each term a '*'-separated product of an
    optional integer coefficient and powers ``VAR^k``; juxtaposition is
    not multiplication.  Variables are X0..Xn, or X,Y,Z,W when n <= 3.
    """
    names = {name: i for i, name in enumerate(default_variable_names(n))}
    names.update({f"X{i}": i for i in range(n + 1)})
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "")

    def take(kind):
        nonlocal pos
        tok = peek()
        if tok[0] != kind:
            raise ValueError(f"expected {kind}, found {tok[1]!r} in {text!r}")
        pos += 1
        return tok[1]

    def parse_factor():
        kind, val = peek()
        if kind == "int":
            take("int")
            return int(val), [0] * (n + 1)
        if kind == "name":
            take("name")
            if val not in names:
                raise ValueError(f"unknown variable {val!r} on P^{n}")
            exps = [0] * (n + 1)
            power = 1
            if peek()[0] == "caret":
                take("caret")
                power = int(take("int"))
            exps[names[val]] = power
            return 1, exps
        raise ValueError(f"unexpected token {val!r} in {text!r}")

    def parse_term():
        coeff, exps = parse_factor()
        while peek()[0] == "star":
            take("star")
            c2, e2 = parse_factor()
            coeff *= c2
            exps = [a + b for a, b in zip(exps, e2)]
        return coeff, tuple(exps)

    terms = []
    sign = 1
    if peek()[0] in ("plus", "minus"):
        sign = -1 if take(peek()[0]) == "-" else 1
    coeff, exps = parse_term()
    terms.append((exps, sign * coeff))
    while peek()[0] in ("plus", "minus"):
        sign = -1 if take(peek()[0]) == "-" else 1
        coeff, exps = parse_term()
        terms.append((exps, sign * coeff))
    if peek()[0] != "end":
        raise ValueError(f"trailing input in {text!r}")

    degrees = {sum(e) for e, c in terms if c != 0}
    if len(degrees) > 1:
        raise ValueError(f"{text!r} is not homogeneous (degrees {sorted(degrees)})")
    d = degrees.pop() if degrees else 0
    return HomogeneousForm.from_monomials(n, d, terms, modulus)


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            out.append(("name", text[i:j]))
            i = j
        elif ch == "+":
            out.append(("plus", "+"))
            i += 1
        elif ch in "-−":
            out.append(("minus", "-"))
            i += 1
        elif ch == "*":
            out.append(("star", "*"))
            i += 1
        elif ch == "^":
            out.append(("caret", "^"))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r}")
    return out


def rational_closed_point(fiber: SchemeFiber, coords) -> ClosedPoint:
    """The degree-1 closed point of the fiber with the given integer coordinates."""
    field = fiber.extension(1)
    reduced = tuple(c % fiber.p for c in coords)
    lead = next((i for i, c in enumerate(reduced) if c), None)
    if lead is None:
        raise ValueError("the zero tuple is not a projective point")
    inv = pow(reduced[lead], -1, fiber.p)
    rep = tuple(c * inv % fiber.p for c in reduced)
    for f in fiber.forms:
        if f.eval_gf(field, rep) != 0:
            raise ValueError(f"point {coords} does not lie on {fiber}")
    return ClosedPoint(fiber.p, 1, field, rep, (rep,))


def parse_point(text: str, n: int):
    """Parse a projective point such as ``[0:1:0]`` into integer coordinates."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [s.strip() for s in body.split(":")]
    if len(parts) != n + 1:
        raise ValueError(f"expected {n + 1} coordinates in {text!r}")
    return tuple(int(s) for s in parts)
