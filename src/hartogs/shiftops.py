"""Truncated realizations of the multiplication tuple and its multishift.

Multiplication by z_j moves the basis cell alpha to alpha + (0..0,1,..,1)
(ones from slot j on) with weight sqrt(A(alpha)/A(alpha + increment)); the
single-step shifts use the unit increment instead, and multiplication
factors exactly into the product of the single steps.  Every squared weight
is one integer quotient of the scaled coefficient table B(alpha) =
d^|alpha| A(alpha) over the window and a one-step margin: the padded list
that coeff_function fills, whose per-axis pad holds at least one zero cell,
and a cell is reached only through that table's offset rule, from one walk
over the table's one window.  One reader, WeightTable.quotients, gives
every weight view those quotients as two int columns over a walk.  The
probes decide the factorization on the offset rule of the views, and each
commutator identity once, on integer cross-products of B read at fixed
offsets, where the zero pad stands for a cell off the lattice.  A report
divides the columns into floats by ``polytuple._to_float`` or formats them,
and a ``Fraction`` is made only where a caller asks for an exact value, as
``mult_sq``/``shift_sq`` do.
Truncation semantics: an operator column whose image leaves the window is
zeroed, and every assertion quantifies over interior cells only, so the
checked identities are free of truncation artifacts.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .coeff import _axis_scaled, _check_m, coeff_function
from .errors import EmptyWindow, MalformedInput, NotAdmissible, WrongDimension
from .polytuple import (
    MultiIndex,
    PolyTuple,
    _to_float,
    admissibility_degree,
    box,
    is_pure_term,
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


def build_window(bounds: MultiIndex) -> LatticeWindow:
    bounds = tuple(bounds)
    if len(bounds) == 0 or any(b < 0 for b in bounds):
        raise EmptyWindow(f"bounds {bounds} do not describe a nonempty box")
    return LatticeWindow(bounds=bounds, cells=tuple(box(bounds)))


class WeightTable:
    """Exact squared multiplication and shift weights over one window.

    B is the scaled coefficient table B(alpha) = d^|alpha| A(alpha) of (P, m)
    over its window plus a one-step margin: the list coeff_function fills,
    read through that table's offset rule (walk, _strides).  Every P_j has
    the term z_j and the table's bounds are >= 1, so its pad holds at least
    one zero cell at the front of each axis, and a read one step below the
    lattice, on any set of axes, finds 0: no scan tests bounds or builds an
    index tuple.  Every squared weight at a window cell is one integer
    quotient of B.  With |tail_j| = n - j:
      mult_sq[j][alpha]  = A(alpha)/A(alpha + tail_j) = d^(n-j) B(alpha) / B(alpha + tail_j),
      shift_sq[j][alpha] = A(alpha)/A(alpha + e_j) = d B(alpha) / B(alpha + e_j).
    mult_steps[j] and shift_steps[j] are the (step, scale) of these quotients;
    quotients reads their int columns over a walk for every weight view.  The dicts
    mult_sq and shift_sq, built on first use, are the only exact views: one
    Fraction per weight.
    """

    def __init__(self, P: PolyTuple, m: Sequence[int], window: LatticeWindow):
        self.P = P
        self.window = window
        self._table = table = coeff_function(P, m, tuple(b + 1 for b in window.bounds))
        n = P.n
        self.d, self.B, self._strides = table.d, table.B, table.strides
        self._tails = [tail_index(n, j) for j in range(n)]
        # alpha + tail_j sits mult_steps[j][0] cells after alpha in B, and alpha + e_j _strides[j].
        self.mult_steps = [(self._step(tail), table.d ** (n - j)) for j, tail in enumerate(self._tails)]
        self.shift_steps = [(stride, table.d) for stride in table.strides]

    def walk(self, increment: MultiIndex | None = None) -> list[int]:
        """Offsets in B of the cells alpha of the window (with alpha + increment
        in it), in row-major order."""
        bounds = self.window.bounds
        return self._table.walk(bounds if increment is None else [b - i for b, i in zip(bounds, increment)])

    def _step(self, increment: MultiIndex) -> int:
        """alpha + increment sits this many cells after alpha in B."""
        return self._table.offset(increment) - self._table.origin

    def _cell(self, off: int) -> MultiIndex:
        t = self._table
        return tuple(off // s % (b + p + 1) - p for s, b, p in zip(t.strides, t.bounds, t.pad))

    def quotients(self, walk: Sequence[int], step: int, scale: int) -> tuple[list[int], list[int]]:
        """The int columns scale B(alpha) and B(alpha + step) over the offsets
        of the cells alpha in walk: their quotients, cell by cell, are the
        squared weights of the view (step, scale)."""
        B = self.B
        return [scale * B[off] for off in walk], [B[off + step] for off in walk]

    def _squares(self, steps) -> list[dict[MultiIndex, Fraction]]:
        walk = self.walk()
        return [dict(zip(self.window.cells, map(Fraction, *self.quotients(walk, *view)))) for view in steps]

    @cached_property
    def mult_sq(self) -> list[dict[MultiIndex, Fraction]]:
        return self._squares(self.mult_steps)

    @cached_property
    def shift_sq(self) -> list[dict[MultiIndex, Fraction]]:
        return self._squares(self.shift_steps)


def op_weights(P: PolyTuple, m: Sequence[int], window: LatticeWindow) -> WeightTable:
    """Build the weight table for (P, m) over the window."""
    return WeightTable(P, m, window)


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
    upper = math.sqrt(_to_float(upper_sq, "the squared upper bound"))
    lower = None if lower_sq is None else math.sqrt(_to_float(lower_sq, "the squared lower bound"))
    return NormBounds(upper=upper, upper_sq=upper_sq, lower=lower, lower_sq=lower_sq,
                      exact=lower_sq == upper_sq)


# --- commutation and factorization probes ---------------------------------------

@dataclass
class CommutationProbe:
    factorization_exact: bool
    noncommuting_witness: MultiIndex | None
    polydisc_all_zero: bool
    cells_checked: int
    circularity_max_deviation: float

    @property
    def ok(self) -> bool:
        return (self.factorization_exact and self.noncommuting_witness is not None
                and self.polydisc_all_zero)


def factorization_and_commutation_probe(P: PolyTuple, m: Sequence[int], window: LatticeWindow,
                                        thetas: Sequence[Sequence[float]] = ()) -> CommutationProbe:
    """Exact checks of the shift factorization and the commuting dichotomy,
    and the circularity of the multiplication tuple, over one weight table.

    Verifies that multiplication by z_j factors into the single shifts along
    alpha -> alpha + tail_j, exhibits a cell where the cross commutator
    of the adjoint of z_{n-1} with z_n is nonzero, and checks that every
    cross commutator of a single shift with the adjoint of another vanishes
    for the polydisc counterpart: the tuple of the pure terms of each P_j,
    whose weight table is built whole, so a table that does not factor fails
    the check.  Coefficients of the compositions are square roots of
    rationals, so equality and vanishing are decided exactly on the squares,
    as integer cross-products of the scaled table.  The table of (P, m) also
    serves as the counterpart's table when each P_j depends on z_j alone.

    The single shift in z_k at a cell has square d B(cur)/B(cur + e_k), so
    along alpha -> alpha + tail_j, k from n - 1 down to j, each B between the
    ends cancels and the product is d^(n-j) B(alpha)/B(alpha + tail_j): the
    squared multiplication weight exactly when mult_steps[j] steps by the sum
    of the strides from j on and scales by d^(n-j).  factorization_exact
    decides that rule, which a per-cell scan of the cross-products only
    re-proves, since B is positive on the lattice; cells_checked counts the
    cells alpha with alpha + tail_j in the window that the rule covers.

    The polydisc verdict scans each pair j < k once: at alpha' = alpha + e_j - e_k the
    (k, j) scan tests B(alpha') B(alpha) = B(alpha - e_k) B(alpha + e_j), as the (j, k) scan
    does at alpha, and alpha -> alpha' maps the non-trivial cells of one scan (alpha_k >= 1,
    alpha + e_j in the window) onto the other's; elsewhere both sides read the zero pad.

    circularity_max_deviation is the largest entrywise deviation, over the
    angle tuples theta in thetas (each of n finite angles, else ValueError),
    of the tuple conjugated by the diagonal phase operator from the rotated
    tuple (e^{i theta_j} z_j), and 0.0 without angles.  The phase of alpha
    is exp(-i <tilde, alpha>) with tilde_j = theta_j - theta_{j+1} and
    tilde_n = theta_n; these quotient angles telescope over tail_j, so
    phase(alpha) conj(phase(alpha + tail_j)) = e^{i theta_j} at every cell,
    whatever the weights, and the deviation is float rounding only.  The
    field stays because acceptance criterion 8 and the benchmark's
    check_probes (perfbench/checks.py) read it.
    """
    n = P.n
    if n < 2:
        raise WrongDimension("commutation probe needs at least two variables")
    wt = WeightTable(P, m, window)
    walks = [wt.walk(tail) for tail in wt._tails]
    counterpart = PolyTuple(tuple({alpha: c for alpha, c in p.items() if is_pure_term(alpha, j)}
                                  for j, p in enumerate(P.polys)))
    polydisc = wt if counterpart == P else WeightTable(counterpart, m, window)
    return CommutationProbe(
        factorization_exact=all(view == (sum(wt._strides[j:]), wt.d ** (n - j))
                                for j, view in enumerate(wt.mult_steps)),
        noncommuting_witness=_commutator_witness(wt, unit_index(n, n - 1), tail_index(n, n - 2), walks[-1]),
        polydisc_all_zero=all(_commutator_witness(polydisc, unit_index(n, j), unit_index(n, k)) is None
                              for j, k in itertools.combinations(range(n), 2)),
        cells_checked=sum(map(len, walks)),
        circularity_max_deviation=_circularity_deviation(wt, thetas, walks),
    )


def _commutator_witness(wt: WeightTable, a: MultiIndex, b: MultiIndex,
                        walk: Sequence[int] | None = None) -> MultiIndex | None:
    """The first cell alpha of the window in row-major order, with alpha + a in the
    window, at which S_b* S_a and S_a S_b* differ, or None; walk, if given, is wt.walk(a).

    S_a moves alpha to alpha + a with squared weight d^|a| B(alpha)/B(alpha + a),
    and S_b* moves beta to beta - b with the squared weight of S_b at beta - b.
    Both orders reach gamma = alpha + a - b, and the products of their squares
    are d^(|a|+|b|) B(alpha) B(gamma) / B(alpha + a)^2 and
    d^(|a|+|b|) B(alpha - b)^2 / (B(alpha) B(gamma)).  B is positive on the
    lattice, so the orders differ exactly when
    B(alpha) B(gamma) != B(alpha - b) B(alpha + a).  An order that leaves the
    lattice reads the zero pad at gamma or at alpha - b, and has weight 0.
    """
    B, up, down = wt.B, wt._step(a), wt._step(b)
    for off in wt.walk(a) if walk is None else walk:
        if B[off] * B[off + up - down] != B[off - down] * B[off + up]:
            return wt._cell(off)
    return None


def _circularity_deviation(wt: WeightTable, thetas: Sequence[Sequence[float]],
                           walks: Sequence[Sequence[int]]) -> float:
    """The circularity scan: the largest |phase(alpha) conj(phase(alpha + tail_j)) w
    - e^{i theta_j} w| over the angle tuples theta and the cells alpha of the
    window with alpha + tail_j in it, w the float weight of z_j at alpha.  The
    weights zip with walks[j] = wt.walk(tail_j) and the phases fill one list at the
    offsets of wt.walk(); the weights are divided once, and only when there is an angle tuple."""
    n, thetas = wt.P.n, [list(theta) for theta in thetas]
    for theta in thetas:
        if len(theta) != n or not all(math.isfinite(t) for t in theta):
            raise ValueError(f"theta must have {n} finite entries, got {theta}")
    if not thetas:
        return 0.0
    floats, deviation = [], 0.0
    for walk, (step, scale) in zip(walks, wt.mult_steps):
        nums, dens = wt.quotients(walk, step, scale)
        weights = map(math.sqrt, map(_to_float, nums, itertools.repeat("a squared weight"), dens))
        floats.append([(off, off + step, w) for off, w in zip(walk, weights)])
    cells, phase = list(zip(wt.walk(), wt.window.cells)), [0j] * len(wt.B)
    for theta in thetas:
        tilde = [theta[j] - theta[j + 1] for j in range(n - 1)] + [theta[n - 1]]
        for off, alpha in cells:
            phase[off] = cmath.exp(-1j * sum(t * a for t, a in zip(tilde, alpha)))
        for j, weights_j in enumerate(floats):
            rotation = cmath.exp(1j * theta[j])
            for at, row, w in weights_j:
                conjugated = phase[at] * phase[row].conjugate() * w
                deviation = max(deviation, abs(conjugated - rotation * w))
    return deviation


def _scaled_ratios(scaled: list[int], d: int, ks) -> dict[int, Fraction]:
    """a(k) = A(k)/A(k+1) = d B(k)/B(k+1) over the scaled axis table, for k in ks."""
    return {k: Fraction(d * scaled[k], scaled[k + 1]) for k in ks}


# --- determinant operator diagonal and trace -------------------------------------

def _log_concave(B: list[int], K: int) -> bool:
    """B(k+1)^2 >= B(k) B(k+2) for k = 0..K-1, over positive ints, decided on the
    ratios r_k = B(k+1)/B(k) as floats.  The int true division rounds correctly
    and rounding is monotone, so r_k > r_{k+1} or r_k < r_{k+1} as floats holds
    exactly too; only a float tie is settled by the exact products, and a ratio
    beyond the float range (OverflowError) by the exact product scan."""
    try:
        ratios = map(operator.truediv, B[1:K + 2], B[:K + 1])
        for k, (r, s) in enumerate(itertools.pairwise(ratios)):
            if r < s or (r == s and B[k + 1] * B[k + 1] < B[k] * B[k + 2]):
                return False
        return True
    except OverflowError:
        return all(B[k + 1] * B[k + 1] >= B[k] * B[k + 2] for k in range(K))


@dataclass
class DetTraceReport:
    """axes holds the scaled axis tables (B_j, d_j) with B_j(k) = d_j^k A_j(k)
    for k = 0..K+1; ratios(j) divides the exact ratio sequence a_j(k),
    k = 0..K, out of axis j (0-based) when it is read."""

    increasing: tuple[bool, bool]
    positive: bool
    diagonal: dict[MultiIndex, Fraction]
    partial_trace: Fraction
    limit_trace: float
    axes: tuple[tuple[list[int], int], tuple[list[int], int]] = field(repr=False, compare=False)

    def ratios(self, j: int) -> list[Fraction]:
        scaled, d = self.axes[j]
        return list(_scaled_ratios(scaled, d, range(len(scaled) - 1)).values())


def det_commutator_and_trace(P: PolyTuple, m: Sequence[int], K: int) -> DetTraceReport:
    """Diagonal and trace of the determinant operator for a 2-variable tuple.

    Requires each P_j to depend on z_j alone.  The determinant operator is
    diagonal with entries built from the axis ratio sequences a_j(k); it is
    positive iff both sequences are nondecreasing, and the partial trace over
    the box [0,K]^2 telescopes to a_1(K) * a_2(K)^2.  The trace itself is the
    limit (lim a_1) * (lim a_2)^2 and is not computed: the ``limit_trace`` field
    is float(a_1(K)) * float(a_2(K))^2, the partial trace again in floats (equal
    to it up to rounding), not an extrapolation; an a_j(K) without a float
    value, or a product beyond the float range, raises MalformedInput.

    The axis tables stay scaled integers B_j(k) = d_j^k A_j(k), never reduced
    to Fractions: a_j(k) = d_j B_j(k)/B_j(k+1), so a_j(k) <= a_j(k+1) exactly
    when B_j(k+1)/B_j(k) >= B_j(k+2)/B_j(k+1), which ``_log_concave`` decides
    on the correctly rounded float ratios and, at a float tie, on the exact
    products.  a_j(k) itself is divided out only for the diagonal, over the
    corner [0, min(K, 6)]^2, where each entry is the product of one factor
    per axis, and for k = K.
    """
    if P.n != 2:
        raise WrongDimension(f"determinant operator needs n = 2, got n = {P.n}")
    m = _check_m(P, m)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not admissibility_degree(P).admissible:
        raise NotAdmissible("determinant trace formulas need each P_j to depend on z_j alone")
    axes = (_axis_scaled(P, m, 0, K + 1), _axis_scaled(P, m, 1, K + 1))
    increasing = tuple(_log_concave(B, K) for B, _ in axes)
    corner = min(K, 6)
    a1, a2 = (_scaled_ratios(B, d, [*range(corner + 1), K]) for B, d in axes)
    sq2 = [a2[j] ** 2 for j in range(corner + 1)]
    f1 = [a1[0], *(a1[i] - a1[i - 1] for i in range(1, corner + 1))]
    f2 = [sq2[0], *(sq2[j] - sq2[j - 1] for j in range(1, corner + 1))]
    diagonal = {alpha: f1[alpha[0]] * f2[alpha[1]] for alpha in box((corner, corner))}

    partial = a1[K] * a2[K] ** 2
    try:
        limit_trace = _to_float(a1[K], f"a_1({K})") * _to_float(a2[K], f"a_2({K})") ** 2
    except OverflowError:  # the float square
        limit_trace = math.inf
    if limit_trace == math.inf:  # or the float product
        raise MalformedInput(f"the float product a_1(K) a_2(K)^2 at K={K} is beyond the float range")
    return DetTraceReport(increasing=increasing, positive=all(increasing), diagonal=diagonal,
                          partial_trace=partial, limit_trace=limit_trace, axes=axes)


def det_diagonal_sum(report: DetTraceReport, K: int) -> Fraction:
    """Brute-force partial trace: sum the diagonal entries over the box [0,K]^2."""
    a1, a2 = report.ratios(0), report.ratios(1)
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
    log B(k) - k log d by one math.log map and one array operation; the
    suprema for all n run as K + 1 elementwise maxima over slices of length
    N, and the approximants are exp(sup / 2n) by one array division and one
    math.exp map, the IEEE operations of the per-element formulas.
    """
    import numpy as np
    m = _check_m(P, m)
    if not 0 <= j < P.n:
        raise ValueError(f"j must be in [0, {P.n}), got {j}")
    if K < 0 or N < 1:
        raise ValueError(f"need K >= 0 and N >= 1, got K={K}, N={N}")
    if not admissibility_degree(P).admissible:
        raise NotAdmissible("spectral radius formula needs each P_j to depend on z_j alone")
    norm_bound = 1.0 / math.sqrt(_to_float(P.linear_coefficient(j), f"the linear coefficient a_{j + 1}"))
    scaled, d = _axis_scaled(P, m, j, K + N)
    log_d = math.log(d)
    logs = np.fromiter(map(math.log, scaled), float, len(scaled)) - log_d * np.arange(len(scaled))
    best = logs[0] - logs[1:N + 1]
    step = np.empty(N)
    for k in range(1, K + 1):
        np.subtract(logs[k], logs[k + 1:k + N + 1], out=step)
        np.maximum(best, step, out=best)
    approximants = list(map(math.exp, (best / np.arange(2, 2 * N + 1, 2)).tolist()))
    return SpectralRadiusReport(approximants=approximants, estimate=approximants[-1], norm_bound=norm_bound)


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
    scaled univariate axis tables (_axis_scaled), so the identity genuinely
    cross-checks the factorization of the coefficient function for admissible
    tuples.  Along alpha -> alpha + tail_j the single shift in z_k reads
    d_k B_k(alpha_k) over B_k(alpha_k + 1), and the product over k >= j is
    compared with the squared multiplication weight at alpha as the integer
    cross-product; mismatches lists the first 16 failing (j, alpha) in scan
    order, j ascending and alpha row-major.
    """
    if not admissibility_degree(P).admissible:
        raise NotAdmissible("intertwining needs each P_j to depend on z_j alone")
    wt = WeightTable(P, m, window)
    axes = [_axis_scaled(P, m, k, r) for k, r in enumerate(window.bounds)]
    checked, mismatches = 0, []
    for j, (tail, view) in enumerate(zip(wt._tails, wt.mult_steps)):
        offsets = wt.walk(tail)
        checked += len(offsets)
        inside = [b - t for b, t in zip(window.bounds, tail)]
        for alpha, scaled, up in zip(box(inside), *wt.quotients(offsets, *view)):
            num = den = 1
            for (B_k, d_k), a in zip(axes[j:], alpha[j:]):
                num *= d_k * B_k[a]
                den *= B_k[a + 1]
            if num * up != scaled * den:
                mismatches.append((j, alpha))
    return IntertwiningReport(ok=not mismatches, cells_checked=checked, mismatches=mismatches[:16])
