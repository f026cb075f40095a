"""Truncated realizations of the multiplication tuple and its multishift.

Multiplication by z_j moves the basis cell alpha to alpha + (0..0,1,..,1)
(ones from slot j on) with weight sqrt(A(alpha)/A(alpha + increment)); the
single-step shifts use the unit increment instead, and multiplication
factors exactly into the product of the single steps.  All weights are
carried as exact rational squares; floats appear only at matrix assembly.

Truncation semantics: an operator column whose image leaves the window is
zeroed and flagged, and every assertion quantifies over interior cells only,
so the checked identities are free of truncation artifacts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .coeff import CoeffTable, _axis_tables, coeff_function, univariate_coeffs
from .errors import (
    CoeffTableTooSmall,
    EmptyWindow,
    NotAdmissible,
    NotNAdmissible,
    WrongDimension,
)
from .polytuple import (
    MultiIndex,
    PolyTuple,
    _offset,
    add_index,
    admissibility_degree,
    box,
    index_leq,
    is_nonnegative,
    sub_index,
    tail_index,
    tilde_restrictions,
    unit_index,
)


@dataclass(frozen=True)
class LatticeWindow:
    """Finite lattice box with a stable row-major enumeration of its cells."""

    bounds: MultiIndex
    cells: tuple[MultiIndex, ...]

    @property
    def size(self) -> int:
        return len(self.cells)

    def offset(self, alpha: MultiIndex) -> int:
        return _offset(alpha, self.bounds)

    def interior(self, alpha: MultiIndex, increment: MultiIndex) -> bool:
        """True when alpha + increment stays inside the window."""
        return index_leq(add_index(alpha, increment), self.bounds)


def build_window(bounds: MultiIndex) -> LatticeWindow:
    bounds = tuple(bounds)
    if len(bounds) == 0 or any(b < 0 for b in bounds):
        raise EmptyWindow(f"bounds {bounds} do not describe a nonempty box")
    return LatticeWindow(bounds=bounds, cells=tuple(box(bounds)))


class OpResult(NamedTuple):
    """Image cell of a basis vector, the weight, and whether truncation hit."""

    cell: MultiIndex | None
    weight: float
    truncated: bool


class WeightTable:
    """Multiplication, shift, and adjoint weights over a window.

    The coefficient table must cover the window plus a one-step margin so
    that every weight at an interior-or-boundary cell is available.
    """

    def __init__(self, P: PolyTuple, m: Sequence[int], window: LatticeWindow,
                 table: CoeffTable | None = None, method: str = "auto"):
        self.P = P
        self.m = tuple(m)
        self.window = window
        margin = tuple(b + 1 for b in window.bounds)
        if table is None:
            table = coeff_function(P, m, margin, method=method)
        elif not table.covers(margin):
            raise CoeffTableTooSmall(
                f"table bounds {table.bounds} do not cover window plus margin {margin}")
        self.table = table
        n = P.n
        self._tails = [tail_index(n, j) for j in range(n)]
        self._units = [unit_index(n, j) for j in range(n)]

    # -- exact squared weights ------------------------------------------------

    def mult_weight_sq(self, j: int, alpha: MultiIndex) -> Fraction:
        return self.table.value(alpha) / self.table.value(add_index(alpha, self._tails[j]))

    def shift_weight_sq(self, j: int, alpha: MultiIndex) -> Fraction:
        return self.table.value(alpha) / self.table.value(add_index(alpha, self._units[j]))

    def adjoint_weight_sq(self, j: int, alpha: MultiIndex) -> Fraction:
        beta = sub_index(alpha, self._tails[j])
        if not is_nonnegative(beta):
            return Fraction(0)
        return self.table.value(beta) / self.table.value(alpha)

    # -- actions on basis cells -----------------------------------------------

    def apply_mult(self, j: int, alpha: MultiIndex) -> OpResult:
        beta = add_index(alpha, self._tails[j])
        if not index_leq(beta, self.window.bounds):
            return OpResult(None, 0.0, True)
        return OpResult(beta, math.sqrt(float(self.mult_weight_sq(j, alpha))), False)

    def apply_shift(self, j: int, alpha: MultiIndex) -> OpResult:
        beta = add_index(alpha, self._units[j])
        if not index_leq(beta, self.window.bounds):
            return OpResult(None, 0.0, True)
        return OpResult(beta, math.sqrt(float(self.shift_weight_sq(j, alpha))), False)

    def apply_adjoint(self, j: int, alpha: MultiIndex) -> OpResult:
        beta = sub_index(alpha, self._tails[j])
        if not is_nonnegative(beta):
            return OpResult(None, 0.0, False)
        return OpResult(beta, math.sqrt(float(self.adjoint_weight_sq(j, alpha))), False)

    # -- matrices over the window enumeration ----------------------------------

    def _matrix(self, action, j: int) -> np.ndarray:
        size = self.window.size
        out = np.zeros((size, size))
        for col, alpha in enumerate(self.window.cells):
            cell, weight, _truncated = action(j, alpha)
            if cell is not None:
                out[self.window.offset(cell), col] = weight
        return out

    def mult_matrix(self, j: int) -> np.ndarray:
        return self._matrix(self.apply_mult, j)

    def adjoint_matrix(self, j: int) -> np.ndarray:
        return self._matrix(self.apply_adjoint, j)

    def truncated_norm(self, j: int) -> float:
        """Norm of the truncated multiplication matrix: the columns are
        orthogonal, so this is the largest interior weight (exact comparison)."""
        best = Fraction(0)
        for alpha in self.window.cells:
            if self.window.interior(alpha, self._tails[j]):
                best = max(best, self.mult_weight_sq(j, alpha))
        return math.sqrt(float(best))


def op_weights(P: PolyTuple, m: Sequence[int], window: LatticeWindow,
               table: CoeffTable | None = None, method: str = "auto") -> WeightTable:
    """Build the weight table for (P, m) over the window."""
    return WeightTable(P, m, window, table=table, method=method)


# --- norm bounds ---------------------------------------------------------------

@dataclass(frozen=True)
class NormBounds:
    upper: float
    upper_sq: Fraction
    lower: float | None
    lower_sq: Fraction | None
    exact: bool  # True when the lower and upper bounds coincide


def norm_bounds(P: PolyTuple, m: Sequence[int], j: int, require_lower: bool = False) -> NormBounds:
    """Norm bounds for multiplication by z_j (0-based j).

    The upper bound 1/sqrt(prod_{l>=j} a_l) always holds; the lower bound
    1/sqrt(prod_{l>=j} m_l a_l) needs the tuple to be n-admissible, and the
    two coincide (the norm is exact) when the relevant m_l are all 1.
    """
    m = tuple(m)
    upper_sq = Fraction(1) / math.prod(P.linear_coefficients[j:], start=Fraction(1))
    n_admissible = admissibility_degree(P).at_least(P.n)
    if require_lower and not n_admissible:
        raise NotNAdmissible("lower norm bound requires an n-admissible tuple")
    lower_sq = None
    if n_admissible:
        lower_sq = upper_sq / math.prod(m[j:], start=Fraction(1))
    return NormBounds(
        upper=math.sqrt(float(upper_sq)),
        upper_sq=upper_sq,
        lower=None if lower_sq is None else math.sqrt(float(lower_sq)),
        lower_sq=lower_sq,
        exact=lower_sq == upper_sq,
    )


# --- commutation and factorization probes ---------------------------------------

@dataclass
class CommutationProbe:
    factorization_exact: bool
    noncommuting_witness: MultiIndex | None
    polydisc_all_zero: bool
    cells_checked: int

    @property
    def ok(self) -> bool:
        return (self.factorization_exact and self.noncommuting_witness is not None
                and self.polydisc_all_zero)


def factorization_and_commutation_probe(P: PolyTuple, m: Sequence[int], window: LatticeWindow,
                                        table: CoeffTable | None = None) -> CommutationProbe:
    """Exact checks of the shift factorization and the commuting dichotomy.

    Verifies the telescoping identity between multiplication and shift
    weights on interior cells, exhibits a cell where the cross commutator
    of the adjoint of z_{n-1} with z_n is nonzero, and checks that the
    polydisc counterpart commutators vanish identically.  Coefficients of
    the compositions are square roots of rationals, so equality and
    vanishing are decided exactly on the squares.  A coefficient table of
    (P, m) covering the window plus a one-step margin may be passed as
    table; otherwise one is built.
    """
    n = P.n
    if n < 2:
        raise WrongDimension("commutation probe needs at least two variables")
    wt = WeightTable(P, m, window, table=table)
    e_last = unit_index(n, n - 1)
    tail_prev = tail_index(n, n - 2)

    factorization_exact = True
    cells_checked = 0
    for j in range(n):
        tail = tail_index(n, j)
        for alpha in window.cells:
            if not window.interior(alpha, tail):
                continue
            cells_checked += 1
            acc = Fraction(1)
            cur = alpha
            for k in range(n - 1, j - 1, -1):
                acc *= wt.shift_weight_sq(k, cur)
                cur = add_index(cur, unit_index(n, k))
            if acc != wt.mult_weight_sq(j, alpha):
                factorization_exact = False

    witness = None
    for alpha in window.cells:
        if not window.interior(alpha, e_last):
            continue
        sq_a = Fraction(0)
        up = add_index(alpha, e_last)
        if is_nonnegative(sub_index(up, tail_prev)):
            sq_a = wt.shift_weight_sq(n - 1, alpha) * wt.adjoint_weight_sq(n - 2, up)
        sq_b = Fraction(0)
        down = sub_index(alpha, tail_prev)
        if is_nonnegative(down):
            sq_b = wt.adjoint_weight_sq(n - 2, alpha) * wt.shift_weight_sq(n - 1, down)
        if sq_a != sq_b:
            witness = alpha
            break

    polydisc_all_zero = _polydisc_commutators_zero(P, m, window)
    return CommutationProbe(
        factorization_exact=factorization_exact,
        noncommuting_witness=witness,
        polydisc_all_zero=polydisc_all_zero,
        cells_checked=cells_checked,
    )


class PolydiscOps:
    """Single-variable shift weights of the polydisc counterpart space.

    The k-th multiplication acts on the axis table of the restriction of P_k
    alone; cells and weights are composed exactly like the triangle operators
    so that cross-commutator comparisons go through real index arithmetic.
    """

    def __init__(self, P: PolyTuple, m: Sequence[int], reach: MultiIndex):
        self.n = P.n
        self.reach = tuple(reach)
        self.axis = _axis_tables(P, m, [r + 1 for r in reach])

    def shift_weight_sq(self, k: int, alpha: MultiIndex) -> Fraction:
        return self.axis[k][alpha[k]] / self.axis[k][alpha[k] + 1]

    def apply_mult(self, k: int, alpha: MultiIndex) -> tuple[MultiIndex, Fraction]:
        return add_index(alpha, unit_index(self.n, k)), self.shift_weight_sq(k, alpha)

    def apply_adjoint(self, k: int, alpha: MultiIndex) -> tuple[MultiIndex | None, Fraction]:
        if alpha[k] == 0:
            return None, Fraction(0)
        beta = sub_index(alpha, unit_index(self.n, k))
        return beta, self.axis[k][beta[k]] / self.axis[k][alpha[k]]


def _polydisc_commutators_zero(P: PolyTuple, m: Sequence[int], window: LatticeWindow) -> bool:
    ops = PolydiscOps(P, m, window.bounds)
    n = P.n
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            for alpha in window.cells:
                if not window.interior(alpha, unit_index(n, j)):
                    continue
                up, mult_sq = ops.apply_mult(j, alpha)
                cell_a, adj_sq = ops.apply_adjoint(k, up)
                sq_a = mult_sq * adj_sq if cell_a is not None else Fraction(0)
                cell_a = cell_a if sq_a else None
                down, adj_first_sq = ops.apply_adjoint(k, alpha)
                if down is not None:
                    cell_b, mult_after_sq = ops.apply_mult(j, down)
                    sq_b = adj_first_sq * mult_after_sq
                else:
                    cell_b, sq_b = None, Fraction(0)
                cell_b = cell_b if sq_b else None
                if cell_a != cell_b or sq_a != sq_b:
                    return False
    return True


# --- hyponormality diagonal -----------------------------------------------------

def hyponormality_diagonal(P: PolyTuple, m: Sequence[int], j: int, window: LatticeWindow,
                           table: CoeffTable | None = None) -> dict[MultiIndex, Fraction]:
    """Diagonal of the self-commutator of multiplication by z_j, exactly.

    Entry at alpha is A(alpha)/A(alpha+step) - A(alpha-step)/A(alpha) with
    step the tail increment of z_j; the operator is separately hyponormal on
    the window iff every entry is nonnegative.  A coefficient table of (P, m)
    covering the window plus a one-step margin may be passed as table, so
    that the diagonals of all j share one; otherwise one is built.
    """
    wt = WeightTable(P, m, window, table=table)
    return {alpha: wt.mult_weight_sq(j, alpha) - wt.adjoint_weight_sq(j, alpha)
            for alpha in window.cells}


# --- determinant operator diagonal and trace -------------------------------------

@dataclass
class DetTraceReport:
    ratios_1: list[Fraction]
    ratios_2: list[Fraction]
    increasing: tuple[bool, bool]
    positive: bool
    diagonal: dict[MultiIndex, Fraction]
    partial_trace: Fraction
    limit_trace: float


def det_commutator_and_trace(P: PolyTuple, m: Sequence[int], K: int,
                             diag_bounds: MultiIndex | None = None) -> DetTraceReport:
    """Diagonal and trace of the determinant operator for a 2-variable tuple.

    Requires each P_j to depend on z_j alone.  The determinant operator is
    diagonal with entries built from the axis ratio sequences a_j(k); it is
    positive iff both sequences are nondecreasing, and the partial trace over
    the box [0,K]^2 telescopes to a_1(K) * a_2(K)^2.  The trace itself is the
    limit (lim a_1) * (lim a_2)^2 and is not computed: the ``limit_trace`` field
    is float(a_1(K)) * float(a_2(K))^2, the partial trace again in floats (equal
    to it up to rounding), not an extrapolation.
    """
    if P.n != 2:
        raise WrongDimension(f"determinant operator needs n = 2, got n = {P.n}")
    if not admissibility_degree(P).admissible:
        raise NotAdmissible("determinant trace formulas need each P_j to depend on z_j alone")
    if K < 1:
        raise ValueError("K must be >= 1")
    axis1, axis2 = _axis_tables(P, m, (K + 1, K + 1))
    a1 = [axis1[k] / axis1[k + 1] for k in range(K + 1)]
    a2 = [axis2[k] / axis2[k + 1] for k in range(K + 1)]
    inc1 = all(a1[k + 1] >= a1[k] for k in range(K))
    inc2 = all(a2[k + 1] >= a2[k] for k in range(K))

    if diag_bounds is None:
        diag_bounds = (min(K, 6), min(K, 6))
    if any(b > K for b in diag_bounds):
        raise ValueError(f"diagonal bounds {diag_bounds} exceed the truncation K={K}")
    diagonal: dict[MultiIndex, Fraction] = {}
    for alpha in box(diag_bounds):
        d1 = a1[alpha[0]] - (a1[alpha[0] - 1] if alpha[0] else Fraction(0))
        prev2 = a2[alpha[1] - 1] ** 2 if alpha[1] else Fraction(0)
        diagonal[alpha] = d1 * (a2[alpha[1]] ** 2 - prev2)

    partial = a1[K] * a2[K] ** 2
    return DetTraceReport(
        ratios_1=a1,
        ratios_2=a2,
        increasing=(inc1, inc2),
        positive=inc1 and inc2,
        diagonal=diagonal,
        partial_trace=partial,
        limit_trace=float(a1[K]) * float(a2[K]) ** 2,
    )


def det_diagonal_sum(report: DetTraceReport, K: int) -> Fraction:
    """Brute-force partial trace: sum the diagonal entries over the box [0,K]^2."""
    a1, a2 = report.ratios_1, report.ratios_2
    total = Fraction(0)
    for i in range(K + 1):
        d1 = a1[i] - (a1[i - 1] if i else Fraction(0))
        for j in range(K + 1):
            prev2 = a2[j - 1] ** 2 if j else Fraction(0)
            total += d1 * (a2[j] ** 2 - prev2)
    return total


# --- spectral radius approximants -------------------------------------------------

@dataclass
class SpectralRadiusReport:
    approximants: list[float]
    estimate: float
    norm_bound: float


def _log_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def spectral_radius_estimate(P: PolyTuple, m: Sequence[int], j: int,
                             K: int, N: int) -> SpectralRadiusReport:
    """Finite approximants of the polydisc spectral radius of the j-th factor.

    The radius is the large-n limit of sup_k (A(k)/A(k+n))^(1/(2n)) over the
    axis table of the restriction of P_j; approximants are reported for
    n = 1..N with the supremum over k = 0..K, without extrapolation.
    """
    if not admissibility_degree(P).admissible:
        raise NotAdmissible("spectral radius formula needs each P_j to depend on z_j alone")
    axis = univariate_coeffs(tilde_restrictions(P)[j], m[j], K + N)
    logs = [_log_fraction(v) for v in axis]
    approximants = []
    for nn in range(1, N + 1):
        best = max(logs[k] - logs[k + nn] for k in range(K + 1))
        approximants.append(math.exp(best / (2 * nn)))
    return SpectralRadiusReport(
        approximants=approximants,
        estimate=approximants[-1],
        norm_bound=1.0 / math.sqrt(float(P.linear_coefficient(j))),
    )


# --- polydisc intertwining ---------------------------------------------------------

@dataclass
class IntertwiningReport:
    ok: bool
    cells_checked: int
    mismatches: list[tuple[int, MultiIndex]]


def polydisc_intertwining_check(P: PolyTuple, m: Sequence[int],
                                window: LatticeWindow) -> IntertwiningReport:
    """Exact basis-level check that multiplication by z_j intertwines with the
    product of the polydisc single shifts from slot j on.

    The triangle weights are computed through the general route, chained
    division by (1-P_j) over the whole box (never the componentwise product),
    so the identity genuinely cross-checks the factorization of the
    coefficient function for admissible tuples.
    """
    if not admissibility_degree(P).admissible:
        raise NotAdmissible("intertwining needs each P_j to depend on z_j alone")
    wt = WeightTable(P, m, window, method="convolution")
    ops = PolydiscOps(P, m, window.bounds)
    n = P.n
    mismatches: list[tuple[int, MultiIndex]] = []
    checked = 0
    for j in range(n):
        tail = tail_index(n, j)
        for alpha in window.cells:
            if not window.interior(alpha, tail):
                continue
            checked += 1
            rhs = Fraction(1)
            cur = alpha
            for k in range(n - 1, j - 1, -1):
                cur, sq = ops.apply_mult(k, cur)
                rhs *= sq
            if wt.mult_weight_sq(j, alpha) != rhs or cur != add_index(alpha, tail):
                mismatches.append((j, alpha))
    return IntertwiningReport(ok=not mismatches, cells_checked=checked,
                              mismatches=mismatches[:16])


# --- circularity --------------------------------------------------------------------

def circularity_check(P: PolyTuple, m: Sequence[int], window: LatticeWindow,
                      theta: Sequence[float], table: CoeffTable | None = None) -> float:
    """Max entrywise deviation of the conjugated tuple from the rotated tuple.

    The diagonal phase operator uses the quotient-transformed angles; the
    conjugation shifts the phase of each multiplication weight by exactly
    theta_j, so the deviation is pure floating-point noise.  A coefficient
    table of (P, m) covering the window plus a one-step margin may be passed
    as table, so that many trials share one; otherwise one is built.
    """
    n = P.n
    theta = list(theta)
    if len(theta) != n:
        raise ValueError(f"theta must have {n} entries")
    tilde = [theta[j] - theta[j + 1] for j in range(n - 1)] + [theta[n - 1]]
    wt = WeightTable(P, m, window, table=table)

    def phase(alpha: MultiIndex) -> complex:
        return cmath.exp(-1j * sum(t * a for t, a in zip(tilde, alpha)))

    deviation = 0.0
    for j in range(n):
        tail = tail_index(n, j)
        rotation = cmath.exp(1j * theta[j])
        for alpha in window.cells:
            if not window.interior(alpha, tail):
                continue
            beta = add_index(alpha, tail)
            w = math.sqrt(float(wt.mult_weight_sq(j, alpha)))
            conjugated = phase(alpha) * phase(beta).conjugate() * w
            deviation = max(deviation, abs(conjugated - rotation * w))
    return deviation
