"""The triangle biholomorphism, membership predicates, and polydisc radii.

The change of variables sends z to (z_1/z_2, ..., z_{n-1}/z_n, z_n); its
inverse is the polynomial map w -> (w_1*...*w_n, w_2*...*w_n, ..., w_n).
Membership tests work with squared moduli in real arithmetic and use strict
inequalities: the domains are open, boundary points are outside.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import MalformedInput, WrongDimension, ZeroCoordinate
from .polytuple import PolyTuple, _to_float, poly_eval, tilde_restrictions

Point = tuple[complex, ...]


def forward(p: Sequence[complex]) -> Point:
    """Quotient coordinates (z_1/z_2, ..., z_{n-1}/z_n, z_n); tail entries must be nonzero."""
    p = tuple(complex(z) for z in p)
    n = len(p)
    for j in range(1, n):
        if p[j] == 0:
            raise ZeroCoordinate(f"coordinate {j + 1} is zero; quotient map undefined")
    return tuple(p[j] / p[j + 1] for j in range(n - 1)) + (p[n - 1],)


def _squared_quotient_moduli(p: Sequence[complex]) -> list[float] | None:
    """|phi(p)_j|^2 for all j, or None when some tail coordinate vanishes."""
    mods = [abs(complex(z)) ** 2 for z in p]
    n = len(mods)
    if any(mods[j] == 0 for j in range(1, n)):
        return None
    return [mods[j] / mods[j + 1] for j in range(n - 1)] + [mods[n - 1]]


def triangle_contains(P: PolyTuple, p: Sequence[complex]) -> bool:
    """Strict membership of p in the triangle of P (tail coordinates nonzero)."""
    if len(p) != P.n:
        raise WrongDimension(f"point {tuple(p)} must have {P.n} coordinates")
    try:
        u = _squared_quotient_moduli(p)
        return u is not None and all(poly_eval(poly, u) < 1.0 for poly in P.polys)
    except OverflowError:  # a modulus or a power of one beyond the float range: p is far outside
        return False


def _eval_terms(terms: list[tuple[int, float]], t: float) -> float:
    """sum of c t^k over the float terms (k, c) in order, as poly_eval sums a term map."""
    total = 0.0
    for k, c in terms:
        total += c * t ** k
    return total


def polydisc_radii(P: PolyTuple) -> list[float]:
    """Radii r_j with r_j^2 the unique positive root of (restriction of P_j)(t) = 1.

    The restriction has nonnegative coefficients and a positive linear one a_j, so
    it is increasing on [0, oo), and bisection in floats narrows the root down to
    two adjacent floats, at any scale of the root, below the bracket
    max(1, min over the terms c t^k of c^(-1/k)).  There one term reaches 1 and
    none exceeds it, so evaluating the restriction there cannot overflow; the
    bracket is doubled only while rounding leaves the value below 1.  The
    restriction is converted to float terms (k, c) once and evaluated with the
    float operations of poly_eval.  A coefficient, or that bracket, beyond the
    float range raises MalformedInput.
    """
    radii = []
    for j, g in enumerate(tilde_restrictions(P)):
        a_j = _to_float(P.linear_coefficient(j), f"the linear coefficient a_{j + 1}")
        terms = [(k, a_j if k == 1 else _to_float(c, "a coefficient")) for k, c in g.items()]
        hi = math.inf
        for k, c in terms:
            try:
                hi = min(hi, c ** (-1.0 / k))
            except OverflowError:  # c^(-1/k) for a subnormal c
                pass
        hi = max(1.0, hi)
        try:
            while _eval_terms(terms, hi) < 1.0:
                hi *= 2.0
        except OverflowError:  # a power of the point hi
            hi = math.inf
        if hi == math.inf:  # every c^(-1/k) overflowed: the bisection would not end
            raise MalformedInput(f"the bisection bracket for r_{j + 1}^2 is beyond the float range")
        lo, mid = 0.0, 0.5 * hi
        while lo < mid < hi:  # until lo and hi are adjacent floats
            if _eval_terms(terms, mid) < 1.0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * lo + 0.5 * hi  # as 0.5 * (lo + hi), where lo + hi does not overflow
        radii.append(math.sqrt(mid))
    return radii
