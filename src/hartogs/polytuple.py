"""Positive regular polynomial tuples and their admissibility classification.

A polynomial is a term map ``dict[MultiIndex, Fraction]`` with strictly
positive rational coefficients (zero terms are never stored).  A tuple
``P = (P_1, ..., P_n)`` is valid when no component has a constant term and
each ``P_j`` carries a strictly positive coefficient ``a_j`` on ``z_j``;
``PolyTuple`` checks this when it is constructed, so every ``PolyTuple`` is
valid.  ``parse_and_validate`` reads a tuple document in one pass: each term
is checked once as it is read, each coefficient is built once, and a term's
location is put into text only for its error message.  ``poly_eval`` and
``geometry._eval_terms`` evaluate in floats, and ``poly_mul`` is the one product
of term maps; all else is exact, and ``_to_float`` is the one way to a float.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstantTerm, MalformedInput, MissingLinearTerm, NegativeCoefficient, ResultTooLarge

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


def _box_walk(bounds: MultiIndex, strides: Sequence[int], start: int = 0) -> list[int]:
    """Offsets of the cells of box(bounds), in row-major order, in a flat table
    with these strides whose cell for the origin sits at start; empty when a
    bound is negative."""
    offsets = [start]
    for b, stride in zip(bounds, strides):
        offsets = [off + a * stride for off in offsets for a in range(b + 1)]
    return offsets


def _offset(alpha: MultiIndex, bounds: MultiIndex) -> int:
    """Row-major position of alpha in box(bounds); linear in alpha, so that
    alpha - gamma sits _offset(gamma, bounds) before alpha."""
    off = 0
    for a, b in zip(alpha, bounds):
        off = off * (b + 1) + a
    return off


# --- polynomial helpers -------------------------------------------------------

def poly_eval(p: Mapping[MultiIndex, Fraction], point: Iterable[complex]) -> complex:
    """Evaluate a term map in floats at a point of float or complex entries."""
    pt = tuple(point)
    total = 0
    for alpha, coeff in p.items():
        mono = 1
        for z, k in zip(pt, alpha):
            if k:
                mono *= z ** k
        total += _to_float(coeff, "a coefficient") * mono
    return total


def poly_mul(a: Mapping[MultiIndex, Fraction], b: Mapping[MultiIndex, Fraction]) -> TermMap:
    """Product of two term maps; exponents may be negative (Laurent monomials).
    The products are accumulated first and the zero terms dropped at the end."""
    out: TermMap = {}
    for ga, va in a.items():
        for gb, vb in b.items():
            mono = add_index(ga, gb)
            out[mono] = out[mono] + va * vb if mono in out else va * vb
    return {mono: c for mono, c in out.items() if c}


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

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(value: object, where: str = "coeff") -> Fraction:
    """Parse an int, or a "p" or "p/q" string of decimal digits.  Floats are
    rejected because they lose exactness, and so are the other string forms
    Fraction accepts (decimals, exponents, underscores)."""
    try:
        return _rational(value)
    except MalformedInput as exc:
        raise MalformedInput(f"{where}: {exc}") from None


def _rational(value: object) -> Fraction:
    """parse_rational without the location in its error message."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str) and (match := _RATIONAL.fullmatch(value.strip())):
        p, q = match.groups()
        try:  # int() and Fraction(p, 0) raise as Fraction("p/q") does
            return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
        except (ValueError, ZeroDivisionError) as exc:  # more digits than int() reads, or q = 0
            raise MalformedInput(f"cannot parse rational {value!r:.80}: {exc}") from None
    raise MalformedInput(f"rational must be an integer or 'p/q' string, got {value!r:.80}")


def format_rational(value: Fraction | int, denominator: int = 1) -> str:
    """value / denominator in lowest terms, as "p" or "p/q"."""
    num, den = value.numerator, value.denominator
    if denominator != 1:
        den *= denominator
        g = math.gcd(num, den)
        num, den = num // g, den // g
    try:
        if den == 1:
            return str(num)
        return f"{num}/{den}"
    except ValueError:  # Python's limit on int-to-string conversion
        raise _too_large() from None


def format_rationals(nums: Iterable[int], dens: Iterable[int] | None = None) -> list[str]:
    """format_rational(num, den) over a column of numerators and one of
    denominators, reduced by one gcd map and two floordiv maps; the ints of
    nums themselves when dens is None."""
    try:
        if dens is None:
            return list(map(str, nums))
        nums, dens = list(nums), list(dens)
        gcds = list(map(math.gcd, nums, dens))
        return [f"{p}/{q}" if q != 1 else str(p)
                for p, q in zip(map(operator.floordiv, nums, gcds), map(operator.floordiv, dens, gcds))]
    except ValueError:  # Python's limit on int-to-string conversion
        raise _too_large() from None


def _too_large() -> ResultTooLarge:
    return ResultTooLarge(f"an exact value has more than {sys.get_int_max_str_digits()} digits, "
                          "the limit of Python's int-to-string conversion")


def _to_float(value: Fraction | int, what: str, denominator: int = 1) -> float:
    """float(value / denominator), or MalformedInput when no float stands for
    it: it is beyond the float range, or nonzero and rounds to 0.0.  With a
    denominator, value is an int and the int true division rounds correctly,
    as float() of the Fraction does."""
    try:
        if (x := float(value) if denominator == 1 else value / denominator) or not value:
            return x
    except OverflowError:
        pass
    raise MalformedInput(f"{what} has no float value")


# --- the tuple itself ---------------------------------------------------------

@dataclass(frozen=True)
class PolyTuple:
    """n polynomials with positive rational coefficients, no constant terms,
    and a strictly positive linear self-coefficient a_j on z_j in P_j.

    Validated at construction, so every PolyTuple is valid; immutable after
    that, and the term maps must not be mutated.
    """

    polys: tuple[TermMap, ...]

    def __post_init__(self):
        n = len(self.polys)
        if n < 1:
            raise MalformedInput("tuple must have at least one component")
        zero = (0,) * n
        for j, p in enumerate(self.polys):
            for alpha, coeff in p.items():
                if type(coeff) not in (int, Fraction):
                    raise MalformedInput(f"polys[{j}] term {alpha}: {coeff!r} is not an int or a Fraction")
                if len(alpha) != n or min(alpha) < 0:
                    raise MalformedInput(f"polys[{j}]: bad exponent {alpha}")
                if coeff.numerator < 0:
                    raise NegativeCoefficient(f"polys[{j}] term {alpha}: coefficient {coeff} < 0")
            if p.get(zero):
                raise ConstantTerm(f"polys[{j}]: constant term {p[zero]} present")
            if not p.get(unit_index(n, j)):  # the coefficients of p are >= 0
                raise MissingLinearTerm(f"polys[{j}]: linear self-coefficient a_{j + 1} absent or zero")

    @property
    def n(self) -> int:
        return len(self.polys)

    def linear_coefficient(self, j: int) -> Fraction:
        """a_j, the coefficient of z_j in P_j (0-based j)."""
        return self.polys[j][unit_index(self.n, j)]

    @property
    def linear_coefficients(self) -> tuple[Fraction, ...]:
        return tuple(self.linear_coefficient(j) for j in range(self.n))


def from_polys(polys: Iterable[Mapping[MultiIndex, Fraction]]) -> PolyTuple:
    """Build and validate a tuple from raw term maps (duplicates summed, zeros dropped)."""
    return PolyTuple(tuple(normalize_terms({alpha: Fraction(c) for alpha, c in p.items()})
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
        polys.append(terms)
    return PolyTuple(tuple(polys))


# --- parse / serialize --------------------------------------------------------

def parse_and_validate(document: str | Mapping) -> PolyTuple:
    """Parse the JSON document ``{"n": ..., "polys": [{"terms": [...]}, ...]}``.

    One pass over the terms: each is checked once, and an error in a term
    carries its path.  Duplicate terms are summed and zero terms dropped, as
    ``from_polys`` does.  The checks on whole components (such as a missing
    linear self-coefficient) are those of ``PolyTuple``, after every term.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"not valid JSON: {exc}") from None
    if type(document) is not dict and not isinstance(document, Mapping):
        raise MalformedInput("document must be a JSON object")
    n = document.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MalformedInput(f"'n' must be a positive integer, got {n!r}")
    polys_doc = document.get("polys")
    if not isinstance(polys_doc, list) or len(polys_doc) != n:
        raise MalformedInput(f"'polys' must be a list of {n} polynomials")

    polys: list[TermMap] = []
    for j, poly_doc in enumerate(polys_doc):
        if ((type(poly_doc) is not dict and not isinstance(poly_doc, Mapping))
                or not isinstance(terms_doc := poly_doc.get("terms"), list)):
            raise MalformedInput(f"polys[{j}]: expected an object with a 'terms' list")
        terms: TermMap = {}
        zeros = False
        for t, term in enumerate(terms_doc):
            if type(term) is not dict and not isinstance(term, Mapping):
                raise MalformedInput(f"polys[{j}].terms[{t}]: expected an object")
            alpha = term.get("alpha")
            if not (isinstance(alpha, list) and len(alpha) == n
                    and all(type(e) is int or isinstance(e, int) and not isinstance(e, bool) for e in alpha)):
                raise MalformedInput(f"polys[{j}].terms[{t}].alpha: expected a list of {n} integers")
            if min(alpha) < 0:
                raise MalformedInput(f"polys[{j}].terms[{t}].alpha: negative exponent in {alpha}")
            try:
                coeff = _rational(term.get("coeff"))
            except MalformedInput as exc:
                raise MalformedInput(f"polys[{j}].terms[{t}].coeff: {exc}") from None
            if (num := coeff.numerator) < 0:
                raise NegativeCoefficient(f"polys[{j}].terms[{t}]: coefficient {coeff} < 0")
            key = tuple(alpha)
            if not num:
                zeros = True
            elif not any(key):
                raise ConstantTerm(f"polys[{j}].terms[{t}]: constant term {coeff} not allowed")
            if key in terms:
                terms[key] += coeff
            else:
                terms[key] = coeff
        # A zero term keeps its monomial's place, as from_polys does, and then drops
        # out unless another term of that monomial follows: coefficients are >= 0.
        polys.append({key: c for key, c in terms.items() if c} if zeros else terms)
    return PolyTuple(tuple(polys))


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
    are no mixed terms at all (the tuple is then admissible and qualifies for
    every d).
    """

    degree: int | None

    @property
    def admissible(self) -> bool:
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
        return Admissibility(degree=None)
    return Admissibility(degree=min_cross - 1)


def tilde_restrictions(P: PolyTuple) -> list[UnivariatePoly]:
    """Restrict each P_j to its own axis: keep exactly the pure-z_j terms."""
    out: list[UnivariatePoly] = []
    for j, p in enumerate(P.polys):
        out.append({total_degree(alpha): coeff for alpha, coeff in p.items()
                    if is_pure_term(alpha, j)})
    return out

