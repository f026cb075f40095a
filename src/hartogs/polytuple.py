"""Positive regular polynomial tuples and their admissibility classification.

A polynomial is a term map ``dict[MultiIndex, Fraction]`` with strictly
positive rational coefficients (zero terms are never stored).  A tuple
``P = (P_1, ..., P_n)`` is valid when no component has a constant term and
each ``P_j`` carries a strictly positive coefficient ``a_j`` on ``z_j``.
All arithmetic is exact.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import ConstantTerm, MalformedInput, MissingLinearTerm, NegativeCoefficient

MultiIndex = tuple[int, ...]
TermMap = dict[MultiIndex, Fraction]
UnivariatePoly = dict[int, Fraction]


# --- multi-index helpers ------------------------------------------------------

def unit_index(n: int, j: int) -> MultiIndex:
    """Unit multi-index with a single 1 in slot j (0-based)."""
    e = [0] * n
    e[j] = 1
    return tuple(e)


def tail_index(n: int, j: int) -> MultiIndex:
    """Multi-index with ones in slots j..n-1, the increment of z_j multiplication."""
    return tuple(0 if k < j else 1 for k in range(n))


def add_index(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def sub_index(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Componentwise difference; entries may go negative."""
    return tuple(x - y for x, y in zip(a, b))


def index_leq(a: MultiIndex, b: MultiIndex) -> bool:
    return all(x <= y for x, y in zip(a, b))


def is_nonnegative(a: MultiIndex) -> bool:
    return all(x >= 0 for x in a)


def total_degree(a: MultiIndex) -> int:
    return sum(a)


def box(bounds: MultiIndex) -> Iterator[MultiIndex]:
    """All multi-indices 0 <= alpha <= bounds in row-major order."""
    return itertools.product(*(range(b + 1) for b in bounds))


def box_size(bounds: MultiIndex) -> int:
    return math.prod(b + 1 for b in bounds)


def _strides(bounds: MultiIndex) -> tuple[int, ...]:
    """Row-major strides of box(bounds): alpha + e_j sits strides[j] after alpha."""
    return tuple(math.prod(b + 1 for b in bounds[j + 1:]) for j in range(len(bounds)))


def _offset(alpha: MultiIndex, bounds: MultiIndex) -> int:
    """Row-major position of alpha in box(bounds); linear in alpha, so that
    alpha - gamma sits _offset(gamma, bounds) before alpha."""
    off = 0
    for a, b in zip(alpha, bounds):
        off = off * (b + 1) + a
    return off


# --- polynomial helpers -------------------------------------------------------

def poly_eval(p: Mapping[MultiIndex, Fraction], point: Iterable[complex]) -> complex:
    """Evaluate a term map at a point (complex, float, or Fraction entries)."""
    pt = tuple(point)
    total = 0
    for alpha, coeff in p.items():
        mono = 1
        for z, k in zip(pt, alpha):
            if k:
                mono *= z ** k
        total += coeff * mono if isinstance(mono, Fraction) else float(coeff) * mono
    return total


def poly_eval_exact(p: Mapping[MultiIndex, Fraction], point: Iterable[Fraction]) -> Fraction:
    """Evaluate a term map at a rational point, exactly."""
    pt = tuple(Fraction(z) for z in point)
    total = Fraction(0)
    for alpha, coeff in p.items():
        mono = Fraction(1)
        for z, k in zip(pt, alpha):
            if k:
                mono *= z ** k
        total += coeff * mono
    return total


def normalize_terms(terms: Mapping[MultiIndex, Fraction]) -> TermMap:
    """Canonical term map: accumulate duplicates, drop zero coefficients."""
    out: TermMap = {}
    for alpha, coeff in terms.items():
        alpha = tuple(alpha)
        c = out[alpha] + coeff if alpha in out else coeff
        if c:
            out[alpha] = c
        else:
            out.pop(alpha, None)
    return out


# --- rationals in documents ---------------------------------------------------

def parse_rational(value: object, where: str = "coeff") -> Fraction:
    """Parse "p/q" or "p" (string or int).  Floats are rejected: they lose exactness."""
    if isinstance(value, bool) or isinstance(value, float):
        raise MalformedInput(f"{where}: rational must be an integer or 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"{where}: cannot parse rational {value!r}: {exc}") from None
    raise MalformedInput(f"{where}: rational must be an integer or 'p/q' string, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# --- the tuple itself ---------------------------------------------------------

@dataclass(frozen=True)
class PolyTuple:
    """n polynomials with positive rational coefficients, no constant terms,
    and a strictly positive linear self-coefficient a_j on z_j in P_j.

    Immutable after construction; the term maps must not be mutated.
    """

    n: int
    polys: tuple[TermMap, ...]

    def linear_coefficient(self, j: int) -> Fraction:
        """a_j, the coefficient of z_j in P_j (0-based j)."""
        return self.polys[j][unit_index(self.n, j)]

    @property
    def linear_coefficients(self) -> tuple[Fraction, ...]:
        return tuple(self.linear_coefficient(j) for j in range(self.n))

    def degree(self, j: int) -> int:
        return max(total_degree(alpha) for alpha in self.polys[j])


def from_polys(polys: Iterable[Mapping[MultiIndex, Fraction]]) -> PolyTuple:
    """Build and validate a tuple from raw term maps (duplicates summed, zeros dropped)."""
    return _validated(tuple(normalize_terms({alpha: Fraction(c) for alpha, c in p.items()})
                            for p in polys))


def hartogs_tuple(n: int, a: Fraction | int = 0) -> PolyTuple:
    """The tuple with components z_j + a*(z_1*...*z_n); a=0 gives the Hartogs triangle."""
    a = Fraction(a)
    if a < 0:
        raise NegativeCoefficient(f"hartogs parameter a must be nonnegative, got {a}")
    polys = []
    ones = (1,) * n
    for j in range(n):
        terms: TermMap = {unit_index(n, j): Fraction(1)}
        if a:
            terms[ones] = terms.get(ones, Fraction(0)) + a
        polys.append(normalize_terms(terms))
    return _validated(tuple(polys))


def scaled_tuple(radii: Iterable[Fraction]) -> PolyTuple:
    """The tuple with components z_j / r_j^2, whose triangle has polyradii r."""
    rs = [Fraction(r) for r in radii]
    n = len(rs)
    return _validated(tuple({unit_index(n, j): 1 / (rs[j] * rs[j])} for j in range(n)))


def _validated(polys: tuple[TermMap, ...]) -> PolyTuple:
    n = len(polys)
    if n < 1:
        raise MalformedInput("tuple must have at least one component")
    zero = (0,) * n
    for j, p in enumerate(polys):
        for alpha, coeff in p.items():
            if len(alpha) != n or not is_nonnegative(alpha):
                raise MalformedInput(f"polys[{j}]: bad exponent {alpha}")
            if coeff < 0:
                raise NegativeCoefficient(f"polys[{j}] term {alpha}: coefficient {coeff} < 0")
        if p.get(zero):
            raise ConstantTerm(f"polys[{j}]: constant term {p[zero]} present")
        if p.get(unit_index(n, j), Fraction(0)) <= 0:
            raise MissingLinearTerm(f"polys[{j}]: linear self-coefficient a_{j + 1} absent or zero")
    return PolyTuple(n=n, polys=polys)


# --- parse / serialize --------------------------------------------------------

def parse_and_validate(document: str | Mapping) -> PolyTuple:
    """Parse the JSON document ``{"n": ..., "polys": [{"terms": [...]}, ...]}``.

    Errors in a single term carry its path; the checks on whole components
    (such as a missing linear self-coefficient) are those of ``from_polys``.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"not valid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise MalformedInput("document must be a JSON object")
    n = document.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MalformedInput(f"'n' must be a positive integer, got {n!r}")
    polys_doc = document.get("polys")
    if not isinstance(polys_doc, list) or len(polys_doc) != n:
        raise MalformedInput(f"'polys' must be a list of {n} polynomials")

    polys: list[TermMap] = []
    for j, poly_doc in enumerate(polys_doc):
        where = f"polys[{j}]"
        if not isinstance(poly_doc, Mapping) or not isinstance(poly_doc.get("terms"), list):
            raise MalformedInput(f"{where}: expected an object with a 'terms' list")
        terms: TermMap = {}
        for t, term in enumerate(poly_doc["terms"]):
            twhere = f"{where}.terms[{t}]"
            if not isinstance(term, Mapping):
                raise MalformedInput(f"{twhere}: expected an object")
            alpha = term.get("alpha")
            if (not isinstance(alpha, list) or len(alpha) != n
                    or not all(isinstance(e, int) and not isinstance(e, bool) for e in alpha)):
                raise MalformedInput(f"{twhere}.alpha: expected a list of {n} integers")
            if any(e < 0 for e in alpha):
                raise MalformedInput(f"{twhere}.alpha: negative exponent in {alpha}")
            coeff = parse_rational(term.get("coeff"), where=f"{twhere}.coeff")
            if coeff < 0:
                raise NegativeCoefficient(f"{twhere}: coefficient {coeff} < 0")
            key = tuple(alpha)
            if sum(key) == 0 and coeff != 0:
                raise ConstantTerm(f"{twhere}: constant term {coeff} not allowed")
            terms[key] = terms[key] + coeff if key in terms else coeff
        polys.append(terms)
    return from_polys(polys)


def serialize(P: PolyTuple) -> dict:
    """Canonical JSON-ready document; parse_and_validate(serialize(P)) == P."""
    return {
        "n": P.n,
        "polys": [
            {"terms": [{"alpha": list(alpha), "coeff": format_rational(c)}
                       for alpha, c in sorted(p.items())]}
            for p in P.polys
        ],
    }


# --- admissibility ------------------------------------------------------------

@dataclass(frozen=True)
class Admissibility:
    """Cross-term classification of a tuple.

    degree is the largest d >= 1 such that every mixed term of every P_j has
    total degree > d, 0 when some mixed term is linear, and None when there
    are no mixed terms at all (the tuple then qualifies for every d).
    """

    degree: int | None
    admissible: bool

    @property
    def all_degrees(self) -> bool:
        return self.degree is None

    def at_least(self, d: int) -> bool:
        return self.degree is None or self.degree >= d


def is_pure_term(alpha: MultiIndex, j: int) -> bool:
    """True when alpha is a (possibly zero) multiple of the j-th unit index."""
    return all(e == 0 for k, e in enumerate(alpha) if k != j)


def admissibility_degree(P: PolyTuple) -> Admissibility:
    """Classify P: mixed terms are monomials of P_j that are not pure powers of z_j."""
    min_cross: int | None = None
    for j, p in enumerate(P.polys):
        for alpha in p:
            if not is_pure_term(alpha, j):
                deg = total_degree(alpha)
                if min_cross is None or deg < min_cross:
                    min_cross = deg
    if min_cross is None:
        return Admissibility(degree=None, admissible=True)
    return Admissibility(degree=min_cross - 1, admissible=False)


def tilde_restrictions(P: PolyTuple) -> list[UnivariatePoly]:
    """Restrict each P_j to its own axis: keep exactly the pure-z_j terms."""
    out: list[UnivariatePoly] = []
    for j, p in enumerate(P.polys):
        out.append({total_degree(alpha): coeff for alpha, coeff in p.items()
                    if is_pure_term(alpha, j)})
    return out


def univariate_eval(p: Mapping[int, Fraction], t: float) -> float:
    return sum(float(c) * t ** k for k, c in p.items())
