"""Exact coefficient tables for the expansions of 1/(1-Q)^k and their products.

Tables are dense row-major arrays of Fractions over a finite lattice box.
Two independent routes compute the same numbers:

* recursion  -- A_k(alpha) = A_{k-1}(alpha) + sum_gamma q_gamma A_k(alpha - gamma),
  well founded because Q has no constant term;
* oracle     -- truncated geometric-binomial series
  sum_l C(k+l-1, k-1) Q(z)^l, exact on the box once l exceeds the box's
  total degree.

The product table for an n-tuple comes from the same recursion: starting from
the indicator table, divide by (1-P_j) m_j times for each j.  For tuples whose
components each depend on their own variable only, it also factors into
univariate tables.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Mapping, Sequence

from .errors import ConstantTermPresent, NegativeCoefficient, WindowTooSmall
from .polytuple import (
    MultiIndex,
    PolyTuple,
    TermMap,
    _offset,
    admissibility_degree,
    box,
    box_size,
    format_rational,
    tilde_restrictions,
    total_degree,
)


@dataclass(frozen=True)
class CoeffTable:
    """Dense table alpha -> value on the box 0 <= alpha <= bounds.

    Lookups at indices with a negative entry return 0 (the expansion
    coefficients vanish off the nonnegative lattice); indices beyond the
    bounds raise WindowTooSmall.
    """

    bounds: MultiIndex
    values: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.bounds)

    def value(self, alpha: MultiIndex) -> Fraction:
        if any(a < 0 for a in alpha):
            return Fraction(0)
        if any(a > b for a, b in zip(alpha, self.bounds)):
            raise WindowTooSmall(f"alpha {alpha} outside table bounds {self.bounds}")
        return self.values[_offset(alpha, self.bounds)]

    def covers(self, bounds: MultiIndex) -> bool:
        return all(b <= mine for b, mine in zip(bounds, self.bounds))

    def to_csv(self, stream: IO[str]) -> None:
        """Columns alpha_1..alpha_n, value, with values as exact rationals."""
        writer = csv.writer(stream)
        writer.writerow([f"alpha_{j + 1}" for j in range(self.n)] + ["value"])
        for alpha in box(self.bounds):
            writer.writerow([*alpha, format_rational(self.value(alpha))])


def _check_expandable(q: Mapping[MultiIndex, Fraction]) -> None:
    for alpha, coeff in q.items():
        if coeff < 0:
            raise NegativeCoefficient(f"term {alpha}: coefficient {coeff} < 0")
        if total_degree(alpha) == 0 and coeff != 0:
            raise ConstantTermPresent("Q has a constant term; expansion of 1/(1-Q)^k is not formal")


def _indicator(bounds: MultiIndex) -> list[Fraction]:
    values = [Fraction(0)] * box_size(bounds)
    values[0] = Fraction(1)
    return values


def reciprocal_power_coeffs(
    q: Mapping[MultiIndex, Fraction],
    k: int,
    bounds: MultiIndex,
    mode: str = "recursion",
) -> CoeffTable:
    """Table of the expansion coefficients of 1/(1-Q)^k on the box.

    Q is a term map with nonnegative rational coefficients and no constant
    term.  mode "recursion" uses the k-step coefficient recursion; mode
    "oracle" sums the truncated binomial series of powers of Q.
    """
    if k < 0:
        raise ValueError(f"power k must be >= 0, got {k}")
    _check_expandable(q)
    if mode == "recursion":
        values = _divided(bounds, [(q, k)])
    elif mode == "oracle":
        values = _oracle_values(q, k, bounds)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return CoeffTable(bounds=tuple(bounds), values=tuple(values))


def _divided(bounds: MultiIndex,
             factors: Iterable[tuple[Mapping[MultiIndex, Fraction], int]]) -> list[Fraction]:
    """Coefficients of prod 1/(1-Q)^k over the pairs (Q, k) in factors, on the box.

    Starting from the indicator table, each division by (1-Q) solves
    new(alpha) = old(alpha) + sum_gamma q_gamma new(alpha - gamma) in place;
    row-major order finishes alpha - gamma before alpha because gamma != 0.
    The arithmetic runs in int on B(alpha) = d^|alpha| A(alpha), where d is the
    lcm of all coefficient denominators, so each q_gamma d^|gamma| is an integer.
    """
    factors = list(factors)
    d = math.lcm(*(c.denominator for q, _ in factors for c in q.values()))
    cells = list(box(bounds))
    table = [0] * len(cells)
    table[0] = 1
    for q, k in factors:
        # Offsets of alpha - gamma relative to alpha are constant shifts.
        shifts = [(tuple(g), c.numerator * (d ** total_degree(g) // c.denominator),
                   _offset(g, bounds))
                  for g, c in q.items() if c]
        for _ in range(k):
            for off, alpha in enumerate(cells):
                val = table[off]
                for gamma, coeff, shift in shifts:
                    if all(a >= g for a, g in zip(alpha, gamma)):
                        val += coeff * table[off - shift]
                table[off] = val
    if d == 1:
        return [Fraction(b) for b in table]
    # Convert in place, so that the int table is freed as the Fractions appear.
    for off, alpha in enumerate(cells):
        table[off] = Fraction(table[off], d ** sum(alpha))
    return table


def _truncated_mul(a: TermMap, b: Mapping[MultiIndex, Fraction], bounds: MultiIndex) -> TermMap:
    out: TermMap = {}
    for ga, va in a.items():
        for gb, vb in b.items():
            mono = tuple(x + y for x, y in zip(ga, gb))
            if all(m <= bound for m, bound in zip(mono, bounds)):
                out[mono] = out.get(mono, Fraction(0)) + va * vb
    return {m: v for m, v in out.items() if v}


def _oracle_values(q: Mapping[MultiIndex, Fraction], k: int, bounds: MultiIndex) -> list[Fraction]:
    values = _indicator(bounds)
    if k == 0:
        return values
    power: TermMap = {tuple(0 for _ in bounds): Fraction(1)}
    # Q has no constant term, so Q^l only reaches total degree >= l; beyond the
    # box's total degree nothing can land inside it.
    for l in range(1, sum(bounds) + 1):
        power = _truncated_mul(power, q, bounds)
        if not power:
            break
        c = math.comb(k + l - 1, k - 1)
        for mono, v in power.items():
            values[_offset(mono, bounds)] += c * v
    return values


def univariate_coeffs(p: Mapping[int, Fraction], k: int, kmax: int, mode: str = "recursion") -> list[Fraction]:
    """Coefficients of 1/(1-p(t))^k up to degree kmax, for univariate p."""
    q = {(e,): Fraction(c) for e, c in p.items()}
    table = reciprocal_power_coeffs(q, k, (kmax,), mode=mode)
    return [table.value((l,)) for l in range(kmax + 1)]


def _axis_tables(P: PolyTuple, m: Sequence[int], kmax: Sequence[int]) -> list[list[Fraction]]:
    """Univariate tables of 1/(1-P_j restricted to its axis)^m_j up to degree kmax[j], per j."""
    return [univariate_coeffs(t, mj, k) for t, mj, k in zip(tilde_restrictions(P), m, kmax)]


def coeff_function(
    P: PolyTuple,
    m: Sequence[int],
    bounds: MultiIndex,
    method: str = "auto",
) -> CoeffTable:
    """Table of the coefficient function of the pair (P, m) on the box.

    method "convolution" (the general route) divides the indicator table by
    (1-P_j) m_j times for each j; "product" multiplies the univariate
    restriction tables componentwise and is valid exactly when every P_j
    depends on z_j alone; "auto" picks the product route in that case.
    """
    m = tuple(m)
    if len(m) != P.n or any(mj < 1 for mj in m):
        raise ValueError(f"m must be {P.n} integers >= 1, got {m}")
    if len(bounds) != P.n or any(b < 0 for b in bounds):
        raise ValueError(f"bounds must be {P.n} nonnegative integers, got {bounds}")
    admissible = admissibility_degree(P).admissible
    if method == "auto":
        method = "product" if admissible else "convolution"
    if method == "product":
        if not admissible:
            raise ValueError("product method requires each P_j to depend on z_j alone")
        axis = _axis_tables(P, m, bounds)
        values = [math.prod((axis[j][alpha[j]] for j in range(P.n)), start=Fraction(1))
                  for alpha in box(bounds)]
        return CoeffTable(bounds=tuple(bounds), values=tuple(values))
    if method != "convolution":
        raise ValueError(f"unknown method {method!r}")
    for q in P.polys:
        _check_expandable(q)
    return CoeffTable(bounds=tuple(bounds), values=tuple(_divided(bounds, zip(P.polys, m))))


def hartogs_coeff_closed(m: Sequence[int], alpha: MultiIndex) -> Fraction:
    """Closed form for the Hartogs tuple: product of binomials C(alpha_j+m_j-1, m_j-1)."""
    if any(mj < 1 for mj in m):
        raise ValueError(f"m entries must be >= 1, got {tuple(m)}")
    if any(a < 0 for a in alpha):
        return Fraction(0)
    return Fraction(math.prod(math.comb(a + mj - 1, mj - 1) for a, mj in zip(alpha, m)))
