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
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, log10

import numpy as np

from .ffield import (FIELD_SIZE_CAP, GF, GaloisRing, is_prime, matrix_rank,
                     solve_linear)
from .zetas import (DIGIT_CAP, BudgetExceeded, PointCountTable, _check_convergence,
                    projective_counts)

POINT_SCAN_BUDGET = 10 ** 8
# coordinate tuples per batch of a point scan
SCAN_BLOCK = 1 << 11
# the verdicts of divisor_smooth_at
NOT_ON_DIVISOR = "NotOnDivisor"
SMOOTH = "SmoothPoint"
SINGULAR = "SingularPoint"


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
    """A degree-d form on P^n with integer coefficients.

    A form is a section over Z; each evaluator reads it on the fiber it
    works over, reducing the coefficients mod p (``eval_gf``) or mod p^2
    (``eval_gr``) as it goes.
    """

    n: int
    d: int
    coeffs: tuple

    def __post_init__(self):
        expected = comb(self.n + self.d, self.n)
        if len(self.coeffs) != expected:
            raise ValueError(f"need {expected} coefficients, got {len(self.coeffs)}")

    @staticmethod
    def from_monomials(n, d, terms):
        """Build a form from (exponent-vector, coefficient) pairs."""
        basis = _basis(n, d)
        index = {exps: i for i, exps in enumerate(basis)}
        coeffs = [0] * len(basis)
        for exps, c in terms:
            exps = tuple(exps)
            if exps not in index:
                raise ValueError(f"exponent vector {exps} is not degree {d} on P^{n}")
            coeffs[index[exps]] += c
        return HomogeneousForm(n, d, tuple(coeffs))

    @property
    def basis(self):
        return _basis(self.n, self.d)

    def partial(self, i: int) -> "HomogeneousForm":
        """Formal partial derivative with respect to X_i, degree drops by one."""
        if not 0 <= i <= self.n:
            raise ValueError("variable index out of range")
        if self.d == 0:
            return HomogeneousForm(self.n, 0, (0,))
        terms = []
        for exps, c in zip(self.basis, self.coeffs):
            if exps[i] > 0:
                lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                terms.append((lowered, c * exps[i]))
        return HomogeneousForm.from_monomials(self.n, self.d - 1, terms)

    # -- evaluation over the supported coordinate rings

    def eval_gf(self, field: GF, point):
        """Evaluate at coordinates encoded in GF(p^e); coefficients embed mod p."""
        self._check_point_len(point)
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


def default_variable_names(n: int) -> list[str]:
    if n <= 3:
        return ["X", "Y", "Z", "W"][: n + 1]
    return [f"X{i}" for i in range(n + 1)]


@dataclass(frozen=True)
class ClosedPoint:
    """A Frobenius orbit on a fiber; ``rep`` is the canonical representative."""

    field: GF
    rep: tuple          # normalized: first nonzero coordinate is 1
    orbit: tuple        # all Frobenius conjugates, normalized

    @property
    def degree(self) -> int:
        return len(self.orbit)

    def chart(self) -> int:
        """The index of the first nonzero coordinate of rep, which is 1."""
        return self.rep.index(1)


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
        self.forms = scheme.defining_forms
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

    def check_truncation(self, s: int, r: int):
        """Refuse, before its point table exists, a truncation at depth r and
        exponent s that the truncation would refuse once it did: r < 0 and
        s <= m (the truncation's ValueError) on every fiber, and on P^n a
        denominator that ``zetas._check_digits`` refuses.  Its exponent
        s sum_{e <= r} e a_e is at least s N_r >= s p^(rn), and this bound
        passes the cap alone after a few factors p, so a deep r costs
        nothing and the message names p, s and r, not the exponent.
        """
        if r < 0:
            raise ValueError(f"need r >= 0, got r = {r}")
        _check_convergence(s, self.m)
        if self.forms or r < 1:
            return
        cap, bound = DIGIT_CAP / log10(self.p), s
        for _ in range(r * self.n):
            if bound >= cap:
                break
            bound *= self.p
        if bound >= cap:
            raise BudgetExceeded(f"the truncation at p = {self.p}, s = {s}, r = {r} "
                                 f"has a denominator of more than {DIGIT_CAP} digits")

    def table_fits(self, e_max: int) -> bool:
        """Whether ``point_table(e_max)`` passes the scan check (P^n scans nothing)."""
        return not self.forms or self.scan_fits(e_max)

    def point_table(self, e_max: int) -> PointCountTable:
        """#X(F_{p^e}) for e <= max(e_max, 1): the closed form on P^n, scans
        otherwise.  The depth is at least 1 because every tail bound reads
        its c0 off N_1, also at truncation depth 0."""
        e_max = max(e_max, 1)
        if not self.forms:
            return projective_counts(self.p, self.n, e_max)
        self._check_scan(e_max)
        return PointCountTable(self.p, tuple(len(self.rational_points(e))
                                             for e in range(1, e_max + 1)))

    def rational_points(self, e: int = 1) -> list[tuple]:
        """All normalized points of X(F_{p^e}), by brute-force chart scan.

        The scan runs the charts X_0 = 1, then X_0 = 0, X_1 = 1, and so on,
        each tail in lexicographic order, and tests SCAN_BLOCK tuples at a
        time with ``_vanishing``.
        """
        if e in self._points_cache:
            return self._points_cache[e]
        self._check_scan(e)
        field = self.extension(e)
        vanishing = _vanishing(field, self.forms)
        q = field.q
        points = []
        for lead in range(self.n + 1):
            k = self.n - lead
            places = q ** np.arange(k - 1, -1, -1)
            for start in range(0, q ** k, SCAN_BLOCK):
                tails = np.arange(start, min(start + SCAN_BLOCK, q ** k))
                block = np.zeros((tails.size, self.n + 1), dtype=np.int64)
                block[:, lead] = 1
                block[:, lead + 1:] = tails[:, None] // places % q
                points += map(tuple, block[vanishing(block)].tolist())
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
                    out.append(ClosedPoint(field, rep, tuple(orbit)))
        return out

    # -- smoothness

    @cached_property
    def _partials(self):
        """The partials of the defining forms, read mod p by ``eval_gf``:
        [i][j] is dF_i/dX_j."""
        return tuple(tuple(f.partial(j) for j in range(self.n + 1)) for f in self.forms)

    def jacobian_rows(self, x: ClosedPoint, forms=None):
        """Rows of partials at x.rep (all variables except the chart one,
        ``x.chart()``), one row per form of ``forms``; None means the
        defining forms, whose partials the fiber computes once."""
        chart = x.chart()
        cols = [j for j in range(self.n + 1) if j != chart]
        if forms is None:
            partials = [[row[j] for j in cols] for row in self._partials]
        else:
            partials = [[f.partial(j) for j in cols] for f in forms]
        return [[g.eval_gf(x.field, x.rep) for g in row] for row in partials]

    def tangent_space(self, x: ClosedPoint, rhs):
        """One solve of the Jacobian system J v = rhs at x, J the rows of the
        defining forms in the chart ``x.chart()``, where x.rep already has
        coordinate 1: (step, basis), a solution v with its free coordinates
        0 (the Newton step when rhs holds -g(x^)/p at the digit lift x^ of
        x.rep) and a basis of the kernel of J, the tangent space of the
        fiber, each in all n + 1 coordinates with 0 at the chart.  Refused
        where the kernel is not m-dimensional, then where J v = rhs has no
        solution."""
        step, basis = solve_linear(self.jacobian_rows(x), rhs, self.n, x.field)
        if len(basis) != self.m:
            raise ValueError(f"fiber of {self.scheme.name} mod {self.p} is singular "
                             f"at {x.rep}; declared dimension {self.m}")
        if step is None:
            raise ValueError(f"{self.scheme.name} has no point mod {self.p}^2 "
                             f"over {x.rep}")
        chart = x.chart()
        for v in (step, *basis):
            v.insert(chart, 0)
        return step, basis

    def validate_smooth(self, r: int = 1) -> int:
        """Check the Jacobian rank n - m at every closed point of degree <= r.

        Returns the number of points checked; raises if the declared
        dimension is wrong anywhere on the scanned range.
        """
        points = self.closed_points_up_to(r)
        for x in points:
            self.tangent_space(x, [0] * len(self.forms))  # refuses singular points
        return len(points)

    def divisor_smooth_at(self, sigma: HomogeneousForm, x: ClosedPoint) -> str:
        """Classify the divisor of sigma's reduction mod p at the closed point x,
        read at x.rep in the chart ``x.chart()``.

        Returns one of NOT_ON_DIVISOR, SMOOTH, SINGULAR.
        """
        if sigma.eval_gf(x.field, x.rep) != 0:
            return NOT_ON_DIVISOR
        rows = self.jacobian_rows(x)
        if matrix_rank(rows, x.field) != self.n - self.m:
            raise ValueError(f"fiber is singular at {x.rep}; smoothness test refused")
        rows.extend(self.jacobian_rows(x, [sigma]))
        return SMOOTH if matrix_rank(rows, x.field) == self.n - self.m + 1 else SINGULAR

    def __repr__(self):
        return f"{self.scheme.name} mod {self.p}"


def _vanishing(field: GF, forms):
    """A function that takes an int64 array of coordinate tuples over
    ``field`` (one per row) and says at which rows every form vanishes.

    Each form is evaluated at every row at once, in the log domain of the
    field, F_p included.  A term is its log, the log of its coefficient
    plus the weighted logs of its coordinates, and a flag for a coordinate
    0 raised to a positive power.  The terms are added with the field's
    Zech logarithms (``GF.log_arrays``), log(a + b) = log a + Z(log b -
    log a) where Z(k) = log(1 + g^k): a zero term reads the last entry
    Z = 0 (1 + 0 = 1), a zero sum takes the next term as it is, and the
    sentinel Z = 2(q - 1), where 1 + g^k = 0, makes the sum zero.
    """
    p, q1 = field.p, field.q - 1
    log, zech = field.log_arrays()
    terms = [[(exps, c % p) for exps, c in zip(f.basis, f.coeffs) if c % p]
             for f in forms]

    def test(block):
        ok = np.ones(len(block), dtype=bool)
        logs = log[block]
        zero = block == 0
        for form in terms:
            # the sum so far: its log (unreduced) and whether it is zero
            total, vanishes = 0, np.ones(len(block), dtype=bool)
            for exps, c in form:
                used = [i for i, a in enumerate(exps) if a]
                term = sum((exps[i] * logs[:, i] for i in used),
                           np.full(len(block), log[c]))
                off = zero[:, used].any(axis=1)
                step = (term - total) % q1
                step[off] = q1
                shift = zech[step]
                total = np.where(vanishes, term, total + shift)
                vanishes = np.where(vanishes, off, shift == 2 * q1)
            ok &= vanishes
        return ok

    return test


# ----------------------------------------------------------------------
# Scheme description files and the form-string grammar.


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_term(term, n: int) -> bool:
    """Whether term is [n + 1 nonnegative int exponents, an int coefficient]."""
    return (isinstance(term, list) and len(term) == 2 and isinstance(term[0], list)
            and len(term[0]) == n + 1 and all(_is_int(a) and a >= 0 for a in term[0])
            and _is_int(term[1]))


def scheme_from_dict(doc: dict) -> ProjectiveScheme:
    if not isinstance(doc, dict):
        raise ValueError("a scheme document must be a JSON object")
    n, m = doc["n"], doc["m"]
    defining_forms = doc.get("defining_forms", [])
    if not (_is_int(n) and _is_int(m) and isinstance(defining_forms, list) and all(
            isinstance(terms, list) and all(_is_term(t, n) for t in terms)
            for terms in defining_forms)):
        raise ValueError("a scheme needs integer n and m and forms of [exponents, "
                         "coefficient] terms: n + 1 nonnegative ints and an int")
    forms = []
    for terms in defining_forms:
        degs = {sum(e) for e, _ in terms}
        if len(degs) != 1:
            raise ValueError("a defining form must be homogeneous")
        forms.append(HomogeneousForm.from_monomials(n, degs.pop(),
                                                    [(tuple(e), c) for e, c in terms]))
    return ProjectiveScheme(n, m, forms, name=doc.get("name", ""))


def load_scheme(path) -> ProjectiveScheme:
    with open(path, encoding="utf-8") as fh:
        return scheme_from_dict(json.load(fh))


def parse_form(text: str, n: int) -> HomogeneousForm:
    """Parse a human-readable form such as ``X^2+5*Y^2-Z^2`` on P^n.

    Grammar: an optional leading sign, then terms joined by ``+``, ``-``
    or ``−`` (U+2212); each term is a ``*``-separated product of
    unsigned integers and powers ``VAR`` or ``VAR^k``, and its integers
    multiply into the coefficient.  Whitespace may separate tokens but
    never joins them: juxtaposition is not multiplication.  Variables are
    X0..Xn, or X,Y,Z,W when n <= 3.
    """
    factor = r"\s*(?:(\d+)|([^\W\d_][^\W_]*)(?:\s*\^\s*(\d+))?)\s*"
    term = rf"{factor}(?:\*{factor})*"
    if not re.fullmatch(rf"\s*[-+−]?{term}(?:[-+−]{term})*", text):
        raise ValueError(f"{text!r} is not a signed sum of '*'-products of "
                         "integers and powers VAR^k")
    names = {name: i for i, name in enumerate(default_variable_names(n))}
    names.update({f"X{i}": i for i in range(n + 1)})
    terms = []
    # stripped, so that leading whitespace cannot read as a term of its own
    for sign, body in re.findall(r"([-+−]?)([^-+−]+)", text.strip()):
        coeff = -1 if sign in ("-", "−") else 1
        exps = [0] * (n + 1)
        for part in body.split("*"):
            number, name, power = re.fullmatch(factor, part).groups()
            if number:
                coeff *= int(number)
            elif name in names:
                exps[names[name]] += int(power or 1)
            else:
                raise ValueError(f"unknown variable {name!r} on P^{n}")
        terms.append((tuple(exps), coeff))

    degrees = {sum(e) for e, c in terms if c != 0}
    if len(degrees) > 1:
        raise ValueError(f"{text!r} is not homogeneous (degrees {sorted(degrees)})")
    d = degrees.pop() if degrees else 0
    return HomogeneousForm.from_monomials(n, d, terms)


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
    return ClosedPoint(field, rep, (rep,))


def parse_point(text: str, n: int):
    """Parse a projective point such as ``[0:1:0]`` into integer coordinates."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [s.strip() for s in body.split(":")]
    if len(parts) != n + 1:
        raise ValueError(f"expected {n + 1} coordinates in {text!r}")
    return tuple(int(s) for s in parts)
