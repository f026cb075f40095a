"""Exact coefficient tables for the expansions of 1/(1-Q)^k and their products.

Tables are dense row-major arrays over a finite lattice box.
Two independent routes compute the same numbers:

* recursion  -- A_k(alpha) = A_{k-1}(alpha) + sum_gamma q_gamma A_k(alpha - gamma),
  well founded because Q has no constant term;
* oracle     -- truncated geometric-binomial series
  sum_l C(k+l-1, k-1) Q(z)^l, exact on the box once l exceeds the box's
  total degree.

The product table for an n-tuple comes from the same recursion: starting from
the indicator table, divide by (1-P_j) m_j times for each j.  The division
drops the terms that cannot reach the box and runs on a table padded at the
front of each axis by the largest remaining exponent on that axis; the padded
cells stay zero, so a read of alpha - gamma off the lattice finds 0 and the
inner loop has no bounds test.  That padded list is the table every reader
gets: a CoeffTable holds it with its per-axis pad, and a reader reaches a
cell only through the table's offset rule.  This is the one route of
coeff_function, for every tuple.  For tuples whose components each depend on
their own variable only, the table also factors into univariate axis tables;
consumers that need only a few cells of such a table read the axis tables
instead.

The division kernel works in int: it yields the scaled table
B(alpha) = d^|alpha| A(alpha) and the common denominator d.  A CoeffTable
holds that scaled form and reduces a cell to a Fraction only when a consumer
asks for one: values and coeffs reduce the columns of the cells B(alpha)
and their scales d^|alpha| at once (coeffs by one gcd map and two floordiv
maps), and the kernel series divides them into floats.  The oracle route
builds the same table with pad 0, the compact layout.  The axis tables have
one builder, _axis_scaled, and stay scaled integers: their consumers
compare them, take logs, divide neighbouring cells or put their reciprocals
over one denominator.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstantTerm, NegativeCoefficient, WindowTooSmall
from .polytuple import (
    MultiIndex,
    PolyTuple,
    TermMap,
    _box_walk,
    _offset,
    _strides,
    add_index,
    box,
    box_size,
    index_leq,
    poly_mul,
    tilde_restrictions,
    total_degree,
)


@dataclass(frozen=True)
class CoeffTable:
    """Dense table alpha -> A(alpha) on the box 0 <= alpha <= bounds.

    Held scaled: B lists B(alpha) = d^|alpha| A(alpha) in int over the common
    denominator d, row-major over the box padded at the front of axis i by
    pad[i] zero cells.  Cell alpha sits at offset(alpha) = origin +
    sum_i alpha_i strides[i], and walk gives the offsets of a sub-box; a
    reader reaches a cell only through these, so a read up to pad[i] steps
    below the lattice on axis i finds 0, and pad = (0, ..., 0) is the compact
    layout.  values, the cells as reduced Fractions in row-major order, is
    built on first use; value(alpha) reduces one cell.  Lookups at indices
    with a negative entry return 0 (the expansion coefficients vanish off the
    nonnegative lattice); indices beyond the bounds raise WindowTooSmall.
    """

    bounds: MultiIndex
    B: list[int]
    d: int
    pad: MultiIndex

    @functools.cached_property
    def strides(self) -> tuple[int, ...]:
        return _strides(add_index(self.bounds, self.pad))

    @functools.cached_property
    def origin(self) -> int:
        """The offset of the cell 0."""
        return sum(p * s for p, s in zip(self.pad, self.strides))

    def offset(self, alpha: MultiIndex) -> int:
        """Offset of the cell alpha in B; linear in alpha, so alpha + gamma sits
        offset(gamma) - origin after alpha."""
        return self.origin + sum(a * s for a, s in zip(alpha, self.strides))

    def walk(self, bounds: MultiIndex, lo: MultiIndex | None = None) -> list[int]:
        """Offsets in B of the cells lo + beta, 0 <= beta <= bounds, in
        row-major order; lo is the cell 0 when not given."""
        return _box_walk(bounds, self.strides, self.origin if lo is None else self.offset(lo))

    @functools.cached_property
    def scales(self) -> tuple[int, ...]:
        """d^k for k = 0..|bounds|: A(alpha) = B[offset(alpha)] / scales[|alpha|]."""
        return tuple(self.d ** k for k in range(sum(self.bounds) + 1))

    def columns(self, bounds: MultiIndex) -> tuple[Iterator[int], Iterator[int] | None]:
        """The cells B(alpha) of the sub-box 0 <= alpha <= bounds in row-major order, and
        their scales d^|alpha| (the unit strides walk the box as |alpha|), None when d = 1."""
        cells, ones = map(self.B.__getitem__, self.walk(bounds)), (1,) * len(bounds)
        return cells, None if self.d == 1 else map(self.scales.__getitem__, _box_walk(bounds, ones))

    @functools.cached_property
    def values(self) -> tuple[Fraction, ...]:
        return _reduced(self)

    def value(self, alpha: MultiIndex) -> Fraction:
        if len(alpha) != len(self.bounds):
            raise ValueError(f"alpha {alpha} must have {len(self.bounds)} entries")
        if any(a < 0 for a in alpha):
            return Fraction(0)
        if any(a > b for a, b in zip(alpha, self.bounds)):
            raise WindowTooSmall(f"alpha {alpha} outside table bounds {self.bounds}")
        return Fraction(self.B[self.offset(alpha)], self.scales[sum(alpha)])


def _check_expandable(q: Mapping[MultiIndex, Fraction]) -> None:
    for alpha, coeff in q.items():
        if coeff < 0:
            raise NegativeCoefficient(f"term {alpha}: coefficient {coeff} < 0")
        if total_degree(alpha) == 0 and coeff != 0:
            raise ConstantTerm("Q has a constant term; expansion of 1/(1-Q)^k is not formal")


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
    bounds = tuple(bounds)
    if mode == "recursion":
        return _divided(bounds, [(q, k)])
    if mode == "oracle":
        d = math.lcm(*(c.denominator for _, c in _reachable(q, bounds)))
        return CoeffTable(bounds, _scaled(bounds, _oracle_values(q, k, bounds), d), d, (0,) * len(bounds))
    raise ValueError(f"unknown mode {mode!r}")


def _reachable(q: Mapping[MultiIndex, Fraction], bounds: MultiIndex) -> list[tuple[MultiIndex, Fraction]]:
    """The nonzero terms of q with no exponent beyond the bound on its axis:
    the others never reach the box."""
    return [(g, c) for g, c in q.items() if c and all(x <= b for x, b in zip(g, bounds))]


def _divided(bounds: MultiIndex,
             factors: Iterable[tuple[Mapping[MultiIndex, Fraction], int]]) -> CoeffTable:
    """Scaled coefficients of prod 1/(1-Q)^k over the pairs (Q, k) in factors, on the box.

    Returns the table it fills: B(alpha) = d^|alpha| A(alpha) in int, where A
    is the coefficient table and d the lcm of all coefficient denominators,
    so each q_gamma d^|gamma| is an integer.  Starting from the indicator
    table, each division by (1-Q) solves
    new(alpha) = old(alpha) + sum_gamma q_gamma new(alpha - gamma) in place;
    row-major order finishes alpha - gamma before alpha because gamma != 0.

    Terms with an exponent beyond the bound on some axis never reach the box
    and are dropped first.  The table is then padded at the front of each axis
    by the largest remaining exponent on that axis, so the padded box is at
    most 2^n times the box.  Padded cells stay zero, so every read of
    alpha - gamma lands inside the padded box, on a zero cell when alpha - gamma
    leaves the lattice, and the inner loop needs no bounds test.

    The loop over a factor's terms is unrolled by their number after the drop:
    one or two terms update a cell in one statement, three or more run the
    generic loop, and a factor with none leaves the table as it is.
    """
    factors = [(_reachable(q, bounds), k) for q, k in factors]
    d = math.lcm(*(c.denominator for terms, _ in factors for _, c in terms))
    pad = tuple(max((g[j] for terms, _ in factors for g, _ in terms), default=0)
                for j in range(len(bounds)))
    table = CoeffTable(bounds, [0] * box_size(add_index(bounds, pad)), d, pad)
    B, offsets = table.B, table.walk(bounds)
    B[table.origin] = 1
    for terms, k in factors:
        # Offsets of alpha - gamma relative to alpha are constant shifts.
        shifts = [(c.numerator * (d ** total_degree(g) // c.denominator), table.offset(g) - table.origin)
                  for g, c in terms]
        # One or two terms, the tuples z_j + a z_1...z_n, c_j z_j, z_j + c z_j^2
        # and their axis tables, take one statement per cell; no term, no pass.
        if len(shifts) == 1:
            (c1, s1), = shifts
            for _ in range(k):
                for off in offsets:
                    B[off] += c1 * B[off - s1]
        elif len(shifts) == 2:
            (c1, s1), (c2, s2) = shifts
            for _ in range(k):
                for off in offsets:
                    B[off] += c1 * B[off - s1] + c2 * B[off - s2]
        elif shifts:
            for _ in range(k):
                for off in offsets:
                    val = B[off]
                    for coeff, shift in shifts:
                        val += coeff * B[off - shift]
                    B[off] = val
    return table


def _reduced(table: CoeffTable) -> tuple[Fraction, ...]:
    """A(alpha) = B(alpha) / d^|alpha| as Fractions over the table, which CoeffTable.values builds once."""
    cells, scales = table.columns(table.bounds)
    return tuple(map(Fraction, cells) if scales is None else map(Fraction, cells, scales))


def _scaled(bounds: MultiIndex, values: list[Fraction], d: int) -> list[int]:
    """B(alpha) = d^|alpha| A(alpha) over the box; each must be an integer,
    since d is the lcm of the denominators of the terms that reach the box."""
    scaled = []
    for alpha, value in zip(box(bounds), values):
        b = value * d ** sum(alpha)
        if b.denominator != 1:
            raise AssertionError(f"A{alpha} = {value} times d^|alpha| = {d}^{sum(alpha)} is not an integer")
        scaled.append(b.numerator)
    return scaled


def _oracle_values(q: Mapping[MultiIndex, Fraction], k: int, bounds: MultiIndex) -> list[Fraction]:
    values = _indicator(bounds)
    if k == 0:
        return values
    power: TermMap = {tuple(0 for _ in bounds): Fraction(1)}
    # Q has no constant term, so Q^l only reaches total degree >= l; beyond the
    # box's total degree nothing can land inside it.
    for l in range(1, sum(bounds) + 1):
        power = {mono: v for mono, v in poly_mul(power, q).items() if index_leq(mono, bounds)}
        if not power:
            break
        c = math.comb(k + l - 1, k - 1)
        for mono, v in power.items():
            values[_offset(mono, bounds)] += c * v
    return values


def _axis_scaled(P: PolyTuple, m: Sequence[int], j: int, kmax: int) -> tuple[list[int], int]:
    """Scaled axis table of 1/(1-P_j restricted to its axis)^m_j up to degree kmax.

    Returns (B, d) with B[k] = d^k A_j(k) in int, never reduced to Fractions:
    the one builder of axis tables.  Every B[k] is positive, because the
    linear coefficient of the restriction is.
    """
    q = {(e,): Fraction(c) for e, c in tilde_restrictions(P)[j].items()}
    table = _divided((kmax,), [(q, m[j])])
    return table.B[table.origin:], table.d


def _check_m(P: PolyTuple, m: Sequence[int]) -> tuple[int, ...]:
    m = tuple(m)
    if len(m) != P.n or any(mj < 1 for mj in m):
        raise ValueError(f"m must be {P.n} integers >= 1, got {m}")
    return m


def coeff_function(P: PolyTuple, m: Sequence[int], bounds: MultiIndex) -> CoeffTable:
    """Table of the coefficient function of the pair (P, m) on the box.

    The indicator table is divided by (1-P_j) m_j times for each j, for every
    tuple, admissible or not.
    """
    m = _check_m(P, m)
    if len(bounds) != P.n or any(b < 0 for b in bounds):
        raise ValueError(f"bounds must be {P.n} nonnegative integers, got {bounds}")
    return _divided(tuple(bounds), zip(P.polys, m))


def hartogs_coeff_closed(m: Sequence[int], alpha: MultiIndex) -> Fraction:
    """Closed form for the Hartogs tuple: product of binomials C(alpha_j+m_j-1, m_j-1)."""
    if any(mj < 1 for mj in m):
        raise ValueError(f"m entries must be >= 1, got {tuple(m)}")
    if len(alpha) != len(m):
        raise ValueError(f"alpha {tuple(alpha)} and m {tuple(m)} must have the same length")
    if any(a < 0 for a in alpha):
        return Fraction(0)
    return Fraction(math.prod(math.comb(a + mj - 1, mj - 1) for a, mj in zip(alpha, m)))
