"""Truncated realizations of the multiplication tuple and its multishift.

Multiplication by z_j moves the basis cell alpha to alpha + (0..0,1,..,1)
(ones from slot j on) with weight sqrt(A(alpha)/A(alpha + increment)); the
single-step shifts use the unit increment instead, and multiplication
factors exactly into the product of the single steps.  All weights are
carried as exact rational squares; floats appear only at matrix assembly.

Every exact weight over a window is a quotient of one coefficient table and
is divided out once, when the weight table is built.  Truncation semantics:
an operator column whose image leaves the window is zeroed, and every
assertion quantifies over interior cells only, so the checked identities are
free of truncation artifacts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .coeff import _axis_scaled, _check_m, coeff_function
from .errors import EmptyWindow, NotAdmissible, WindowTooSmall, WrongDimension
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


class WeightTable:
    """Exact squared multiplication and shift weights over a window.

    mult_sq[j][alpha] = A(alpha)/A(alpha + tail_j) and shift_sq[j][alpha] =
    A(alpha)/A(alpha + e_j) are computed once, for every window cell, from the
    coefficient table of (P, m) over the window plus a one-step margin.  The
    adjoint weight at alpha is the multiplication weight at alpha - tail_j.
    """

    def __init__(self, P: PolyTuple, m: Sequence[int], window: LatticeWindow):
        self.P = P
        self.m = tuple(m)
        self.window = window
        table = coeff_function(P, m, tuple(b + 1 for b in window.bounds))
        n = P.n
        self._tails = [tail_index(n, j) for j in range(n)]
        values, bounds = table.values, table.bounds
        offsets = [_offset(alpha, bounds) for alpha in window.cells]

        def ratios(step: MultiIndex) -> dict[MultiIndex, Fraction]:
            shift = _offset(step, bounds)
            return {alpha: values[off] / values[off + shift] for alpha, off in zip(window.cells, offsets)}

        self.mult_sq = [ratios(tail) for tail in self._tails]
        self.shift_sq = [ratios(unit_index(n, j)) for j in range(n)]

    def mult_weight_sq(self, j: int, alpha: MultiIndex) -> Fraction:
        return self.mult_sq[j][alpha]

    def shift_weight_sq(self, j: int, alpha: MultiIndex) -> Fraction:
        return self.shift_sq[j][alpha]

    def adjoint_weight_sq(self, j: int, alpha: MultiIndex) -> Fraction:
        return self.mult_sq[j].get(sub_index(alpha, self._tails[j]), Fraction(0))

    def mult_matrix(self, j: int) -> np.ndarray:
        """Truncated matrix of multiplication by z_j over the window enumeration;
        a column whose image leaves the window is zero.  Its transpose is the
        adjoint matrix, entry for entry."""
        window, tail = self.window, self._tails[j]
        out = np.zeros((window.size, window.size))
        for col, alpha in enumerate(window.cells):
            if window.interior(alpha, tail):
                out[window.offset(add_index(alpha, tail)), col] = math.sqrt(float(self.mult_sq[j][alpha]))
        return out


def op_weights(P: PolyTuple, m: Sequence[int], window: LatticeWindow) -> WeightTable:
    """Build the weight table for (P, m) over the window."""
    return WeightTable(P, m, window)


def _weights_over(P: PolyTuple, m: Sequence[int], window: LatticeWindow,
                  weights: WeightTable | None) -> WeightTable:
    """The weights passed in, once they are known to be those of (P, m) and to
    cover the window, or a new table."""
    if weights is None:
        return WeightTable(P, m, window)
    if weights.P != P or weights.m != tuple(m):
        raise ValueError("weights were built for another polynomial tuple or multiplicity")
    if not index_leq(window.bounds, weights.window.bounds):
        raise WindowTooSmall(f"weights over {weights.window.bounds} do not cover window {window.bounds}")
    return weights


# --- norm bounds ---------------------------------------------------------------

@dataclass(frozen=True)
class NormBounds:
    upper: float
    upper_sq: Fraction
    lower: float | None
    lower_sq: Fraction | None
    exact: bool  # True when the lower and upper bounds coincide


def norm_bounds(P: PolyTuple, m: Sequence[int], j: int) -> NormBounds:
    """Norm bounds for multiplication by z_j (0-based j).

    The upper bound 1/sqrt(prod_{l>=j} a_l) always holds; the lower bound
    1/sqrt(prod_{l>=j} m_l a_l) needs the tuple to be n-admissible, and is
    None when it is not.  The two coincide (the norm is exact) when the
    relevant m_l are all 1.
    """
    m = _check_m(P, m)
    if not 0 <= j < P.n:
        raise ValueError(f"j must be in [0, {P.n}), got {j}")
    upper_sq = Fraction(1) / math.prod(P.linear_coefficients[j:], start=Fraction(1))
    lower_sq = None
    if admissibility_degree(P).at_least(P.n):
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
                                        weights: WeightTable | None = None) -> CommutationProbe:
    """Exact checks of the shift factorization and the commuting dichotomy.

    Verifies the telescoping identity between multiplication and shift
    weights on interior cells, exhibits a cell where the cross commutator
    of the adjoint of z_{n-1} with z_n is nonzero, and checks that the
    polydisc counterpart commutators vanish identically.  Coefficients of
    the compositions are square roots of rationals, so equality and
    vanishing are decided exactly on the squares.  A weight table of (P, m)
    covering the window may be passed as weights; otherwise one is built.
    """
    n = P.n
    if n < 2:
        raise WrongDimension("commutation probe needs at least two variables")
    wt = _weights_over(P, m, window, weights)
    e_last = unit_index(n, n - 1)
    tail_prev = tail_index(n, n - 2)
    cells_checked, mismatches = _telescoping_mismatches(wt, window, wt.shift_weight_sq)

    witness = None
    for alpha in window.cells:
        if not window.interior(alpha, e_last):
            continue
        sq_a = wt.shift_weight_sq(n - 1, alpha) * wt.adjoint_weight_sq(n - 2, add_index(alpha, e_last))
        sq_b = Fraction(0)
        down = sub_index(alpha, tail_prev)
        if is_nonnegative(down):
            sq_b = wt.adjoint_weight_sq(n - 2, alpha) * wt.shift_weight_sq(n - 1, down)
        if sq_a != sq_b:
            witness = alpha
            break

    polydisc_all_zero = _polydisc_commutators_zero(P, m, window)
    return CommutationProbe(
        factorization_exact=not mismatches,
        noncommuting_witness=witness,
        polydisc_all_zero=polydisc_all_zero,
        cells_checked=cells_checked,
    )


def _telescoping_mismatches(wt: WeightTable, window: LatticeWindow,
                            step_sq: Callable[[int, MultiIndex], Fraction],
                            ) -> tuple[int, list[tuple[int, MultiIndex]]]:
    """The telescoping scan: over the interior cells alpha of each tail_j,
    compare the product of the single-step squares step_sq(k, cur) along
    alpha -> alpha + tail_j, k from n - 1 down to j, with the squared
    multiplication weight at alpha.  Returns the cells checked and the
    mismatching (j, alpha) in scan order."""
    n = wt.P.n
    mismatches = []
    checked = 0
    for j in range(n):
        tail = tail_index(n, j)
        for alpha in window.cells:
            if not window.interior(alpha, tail):
                continue
            checked += 1
            acc = Fraction(1)
            cur = alpha
            for k in range(n - 1, j - 1, -1):
                acc *= step_sq(k, cur)
                cur = add_index(cur, unit_index(n, k))
            if acc != wt.mult_weight_sq(j, alpha):
                mismatches.append((j, alpha))
    return checked, mismatches


def _scaled_ratios(scaled: list[int], d: int, ks) -> dict[int, Fraction]:
    """a(k) = A(k)/A(k+1) = d B(k)/B(k+1) over the scaled axis table, for k in ks."""
    return {k: Fraction(d * scaled[k], scaled[k + 1]) for k in ks}


def _axis_ratios(P: PolyTuple, m: Sequence[int], reach: MultiIndex) -> list[dict[int, Fraction]]:
    """Squared single-shift weights of the polydisc counterpart space.

    Entry [k][i], i <= reach[k], is A_k(i)/A_k(i + 1), divided out of the
    scaled axis table of the restriction of P_k alone: the weight of
    multiplication by z_k at any cell whose k-th entry is i.
    """
    return [_scaled_ratios(*_axis_scaled(P, m, k, r + 1), range(r + 1))
            for k, r in enumerate(reach)]


def _polydisc_commutators_zero(P: PolyTuple, m: Sequence[int], window: LatticeWindow) -> bool:
    """Whether every cross commutator of a polydisc shift with the adjoint of
    another vanishes on the interior cells: both orders reach the same cell
    with the same exact squared weight."""
    ratios = _axis_ratios(P, m, window.bounds)
    n = P.n
    for j in range(n):
        e_j = unit_index(n, j)
        for k in range(n):
            if j == k:
                continue
            e_k = unit_index(n, k)
            for alpha in window.cells:
                if not window.interior(alpha, e_j):
                    continue
                up = add_index(alpha, e_j)  # the adjoint of z_k after z_j
                cell_a, sq_a = None, Fraction(0)
                if up[k]:
                    cell_a, sq_a = sub_index(up, e_k), ratios[j][alpha[j]] * ratios[k][up[k] - 1]
                cell_b, sq_b = None, Fraction(0)  # z_j after the adjoint of z_k
                if alpha[k]:
                    down = sub_index(alpha, e_k)
                    cell_b, sq_b = add_index(down, e_j), ratios[k][alpha[k] - 1] * ratios[j][down[j]]
                if cell_a != cell_b or sq_a != sq_b:
                    return False
    return True


# --- hyponormality diagonal -----------------------------------------------------

def hyponormality_diagonal(P: PolyTuple, m: Sequence[int], j: int, window: LatticeWindow,
                           weights: WeightTable | None = None) -> dict[MultiIndex, Fraction]:
    """Diagonal of the self-commutator of multiplication by z_j, exactly.

    Entry at alpha is A(alpha)/A(alpha+step) - A(alpha-step)/A(alpha) with
    step the tail increment of z_j; the operator is separately hyponormal on
    the window iff every entry is nonnegative.  A weight table of (P, m)
    covering the window may be passed as weights, so that the diagonals of
    all j share one; otherwise one is built.
    """
    if not 0 <= j < P.n:
        raise ValueError(f"j must be in [0, {P.n}), got {j}")
    wt = _weights_over(P, m, window, weights)
    return {alpha: wt.mult_weight_sq(j, alpha) - wt.adjoint_weight_sq(j, alpha)
            for alpha in window.cells}


# --- determinant operator diagonal and trace -------------------------------------

@dataclass
class DetTraceReport:
    """axes holds the scaled axis tables (B_j, d_j) with B_j(k) = d_j^k A_j(k)
    for k = 0..K+1; the exact ratio sequences ratios_1 and ratios_2, a_j(k)
    for k = 0..K, are divided out of them only when first read."""

    increasing: tuple[bool, bool]
    positive: bool
    diagonal: dict[MultiIndex, Fraction]
    partial_trace: Fraction
    limit_trace: float
    axes: tuple[tuple[list[int], int], tuple[list[int], int]] = field(repr=False, compare=False)

    @cached_property
    def ratios_1(self) -> list[Fraction]:
        scaled, d = self.axes[0]
        return list(_scaled_ratios(scaled, d, range(len(scaled) - 1)).values())

    @cached_property
    def ratios_2(self) -> list[Fraction]:
        scaled, d = self.axes[1]
        return list(_scaled_ratios(scaled, d, range(len(scaled) - 1)).values())


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

    The axis tables stay scaled integers B_j(k) = d_j^k A_j(k), never reduced
    to Fractions: a_j(k) = d_j B_j(k)/B_j(k+1), so a_j(k) <= a_j(k+1) exactly
    when B_j(k+1)^2 >= B_j(k) B_j(k+2), and a_j(k) itself is divided out only
    for the diagonal (k <= max(diag_bounds)) and for k = K.
    """
    if P.n != 2:
        raise WrongDimension(f"determinant operator needs n = 2, got n = {P.n}")
    m = _check_m(P, m)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if diag_bounds is None:
        diag_bounds = (min(K, 6), min(K, 6))
    diag_bounds = tuple(diag_bounds)
    if len(diag_bounds) != 2 or any(not 0 <= b <= K for b in diag_bounds):
        raise ValueError(f"diagonal bounds must be 2 integers in [0, K={K}], got {diag_bounds}")
    if not admissibility_degree(P).admissible:
        raise NotAdmissible("determinant trace formulas need each P_j to depend on z_j alone")
    axes = (_axis_scaled(P, m, 0, K + 1), _axis_scaled(P, m, 1, K + 1))
    increasing = tuple(all(B[k + 1] * B[k + 1] >= B[k] * B[k + 2] for k in range(K))
                       for B, _ in axes)
    a1, a2 = (_scaled_ratios(B, d, [*range(max(diag_bounds) + 1), K]) for B, d in axes)

    diagonal: dict[MultiIndex, Fraction] = {}
    for alpha in box(diag_bounds):
        d1 = a1[alpha[0]] - (a1[alpha[0] - 1] if alpha[0] else Fraction(0))
        prev2 = a2[alpha[1] - 1] ** 2 if alpha[1] else Fraction(0)
        diagonal[alpha] = d1 * (a2[alpha[1]] ** 2 - prev2)

    partial = a1[K] * a2[K] ** 2
    return DetTraceReport(
        increasing=increasing,
        positive=all(increasing),
        diagonal=diagonal,
        partial_trace=partial,
        limit_trace=float(a1[K]) * float(a2[K]) ** 2,
        axes=axes,
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


def spectral_radius_estimate(P: PolyTuple, m: Sequence[int], j: int,
                             K: int, N: int) -> SpectralRadiusReport:
    """Finite approximants of the polydisc spectral radius of the j-th factor.

    The radius is the large-n limit of sup_k (A(k)/A(k+n))^(1/(2n)) over the
    axis table of the restriction of P_j; approximants are reported for
    n = 1..N with the supremum over k = 0..K, without extrapolation.  The
    table stays scaled, B(k) = d^k A(k) in int, and log A(k) is taken as
    log B(k) - k log d; the suprema for all n run as K + 1 elementwise maxima
    over slices of length N.
    """
    m = _check_m(P, m)
    if not 0 <= j < P.n:
        raise ValueError(f"j must be in [0, {P.n}), got {j}")
    if K < 0 or N < 1:
        raise ValueError(f"need K >= 0 and N >= 1, got K={K}, N={N}")
    if not admissibility_degree(P).admissible:
        raise NotAdmissible("spectral radius formula needs each P_j to depend on z_j alone")
    scaled, d = _axis_scaled(P, m, j, K + N)
    log_d = math.log(d)
    logs = np.array([math.log(b) - k * log_d for k, b in enumerate(scaled)])
    best = logs[0] - logs[1:N + 1]
    step = np.empty(N)
    for k in range(1, K + 1):
        np.subtract(logs[k], logs[k + 1:k + N + 1], out=step)
        np.maximum(best, step, out=best)
    approximants = [math.exp(b / (2 * nn)) for nn, b in enumerate(best.tolist(), start=1)]
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

    The triangle weights come from the one coefficient route, chained
    division by (1-P_j) over the whole box, and the single shifts from the
    univariate axis tables (_axis_ratios), so the identity genuinely
    cross-checks the factorization of the coefficient function for admissible
    tuples.  The scan is that of the factorization probe, with the polydisc
    single shifts in place of the triangle ones.
    """
    if not admissibility_degree(P).admissible:
        raise NotAdmissible("intertwining needs each P_j to depend on z_j alone")
    ratios = _axis_ratios(P, m, window.bounds)
    checked, mismatches = _telescoping_mismatches(WeightTable(P, m, window), window,
                                                  lambda k, cur: ratios[k][cur[k]])
    return IntertwiningReport(ok=not mismatches, cells_checked=checked,
                              mismatches=mismatches[:16])


# --- circularity --------------------------------------------------------------------

def circularity_check(P: PolyTuple, m: Sequence[int], window: LatticeWindow,
                      theta: Sequence[float], weights: WeightTable | None = None) -> float:
    """Max entrywise deviation of the conjugated tuple from the rotated tuple.

    The diagonal phase operator uses the quotient-transformed angles; the
    conjugation shifts the phase of each multiplication weight by exactly
    theta_j, so the deviation is pure floating-point noise.  A weight table
    of (P, m) covering the window may be passed as weights, so that many
    trials share one; otherwise one is built.
    """
    n = P.n
    theta = list(theta)
    if len(theta) != n:
        raise ValueError(f"theta must have {n} entries")
    tilde = [theta[j] - theta[j + 1] for j in range(n - 1)] + [theta[n - 1]]
    wt = _weights_over(P, m, window, weights)

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
