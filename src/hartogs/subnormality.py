"""Finite-window Hausdorff-moment testing of the subnormality sequences.

Joint subnormality of the multiplication tuple is equivalent to every
shifted reciprocal-coefficient multisequence being a Hausdorff moment
multisequence.  The finite certificate checked here is Hausdorff's
finite-difference criterion (Hausdorff, Math. Z. 9, 1921), cut off at a given
order: all signed forward differences of the (scaled) sequence up to that
order are nonnegative.  It is decided exactly with forward-difference tables
in integers: the cells are put over one common denominator, and each order k
is one subtraction per cell from the table of k minus a unit step.  A PASS is
therefore reported as consistency up to that order, never as a proof; a FAIL
comes with the lexicographically first witness.

hartogs_certify checks every shift gamma <= gamma_bound from one set of
tables per job.  All its sequences read the same function f = 1/A: the
sequence of shift gamma is beta -> f(gamma + emb(beta)), with emb the running
sum, and a unit step of beta_j is a step of tail_j = (0,...,0,1,...,1) in
alpha.  So its order-k difference at beta is (Delta^k f)(gamma + emb(beta)),
where Delta_j f(alpha) = f(alpha) - f(alpha + tail_j), and one table of
Delta^k f over the box that every shift reaches serves all of them.
moment_sequence and complete_monotonicity_check remain the one-shift form and
the reference that this route is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Sequence

from .coeff import _axis_tables, _check_m, coeff_function
from .errors import WindowTooSmall
from .polytuple import (
    MultiIndex,
    PolyTuple,
    _offset,
    _strides,
    add_index,
    admissibility_degree,
    box,
    box_size,
    hartogs_tuple,
    total_degree,
)


@dataclass(frozen=True)
class MomentSequence:
    """Values beta -> s(beta) on the box beta <= window + margin.

    The verdict of a monotonicity check quantifies over beta <= window; the
    margin supplies the extra reach the differences need.  scale rescales the
    sequence to s(beta)/scale^|beta| before differencing, for sequences whose
    natural bound is scale^|beta| rather than 1.
    """

    n: int
    window: MultiIndex
    margin: int
    values: dict[MultiIndex, Fraction]
    scale: Fraction = Fraction(1)

    def value(self, beta: MultiIndex) -> Fraction:
        try:
            return self.values[beta]
        except KeyError:
            raise WindowTooSmall(f"beta {beta} not covered by the sequence window") from None


def embedded_shift(beta: MultiIndex) -> MultiIndex:
    """The lattice shift sum_j beta_j * (tail increment of z_j); entry k is
    the running sum beta_1 + ... + beta_{k+1}."""
    return tuple(itertools.accumulate(beta))


def moment_sequence(
    P: PolyTuple,
    m: Sequence[int],
    gamma: MultiIndex,
    window: MultiIndex | None = None,
    margin: int = 4,
    scale: Fraction | int = 1,
) -> MomentSequence:
    """The subnormality multisequence beta -> 1/A(gamma + embedded beta).

    A is the coefficient function of (P, m).  When each P_j depends on z_j
    alone, A factors into univariate axis tables and only the cells the
    sequence reads are multiplied; otherwise the cells are read from the
    general table over the box they span.
    """
    m = _check_m(P, m)
    window = (2,) * P.n if window is None else tuple(window)
    if len(gamma) != P.n or len(window) != P.n:
        raise ValueError(f"gamma and window must have {P.n} entries, got {tuple(gamma)} and {window}")
    if any(x < 0 for x in (*gamma, *window)):
        raise ValueError(f"gamma and window must be nonnegative, got {tuple(gamma)} and {window}")
    reach = tuple(w + margin for w in window)
    cells = {beta: add_index(gamma, embedded_shift(beta)) for beta in box(reach)}
    bounds = add_index(gamma, embedded_shift(reach))
    if admissibility_degree(P).admissible:
        axis = _axis_tables(P, m, bounds)
        nums = [[a.numerator for a in table] for table in axis]
        dens = [[a.denominator for a in table] for table in axis]
        values = {beta: Fraction(math.prod(map(getitem, dens, cell)), math.prod(map(getitem, nums, cell)))
                  for beta, cell in cells.items()}
    else:
        table = coeff_function(P, m, bounds)
        values = {beta: Fraction(1) / table.value(cell) for beta, cell in cells.items()}
    return MomentSequence(n=P.n, window=window, margin=margin,
                          values=values, scale=Fraction(scale))


def product_sequence(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Pointwise product; moment multisequences are closed under products."""
    if a.n != b.n or a.window != b.window or a.margin != b.margin:
        raise ValueError("sequences must share window and margin")
    return MomentSequence(
        n=a.n, window=a.window, margin=a.margin,
        values={beta: a.values[beta] * b.values[beta] for beta in a.values},
        scale=a.scale * b.scale,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    order: int
    window: MultiIndex
    witness: tuple[MultiIndex, MultiIndex] | None  # (beta, k) of the first failure
    checked: int

    @property
    def message(self) -> str:
        if self.passed:
            return f"consistent with Hausdorff moment up to order {self.order}"
        beta, k = self.witness
        return f"signed difference negative at beta={beta}, k={k}"


def complete_monotonicity_check(seq: MomentSequence, order: int) -> MonotonicityReport:
    """Check all signed differences of the scaled sequence up to total order.

    For every k with 1 <= |k| <= order and every beta <= window, the signed
    difference D_k(beta) = sum_{i <= k} (-1)^|i| C(k, i) s~(beta + i) must be
    >= 0.  All cells within reach (those whose excess over the window,
    sum_j max(beta_j - window_j, 0), is at most order) are read before the
    scan starts, so a missing one raises WindowTooSmall even when an earlier
    pair fails.  They are put over their common denominator L, so that
    D_0 = s~ * L is an integer table, and each D_k is built from D_{k - e_j},
    with j the last nonzero entry of k, as D_{k - e_j}(beta) -
    D_{k - e_j}(beta + e_j) on the beta of excess at most order - |k|.
    Witnesses are scanned in lexicographic (k, beta) order, right after each
    table is built, so failure reports are reproducible.
    """
    if order < 1:
        raise ValueError("difference order must be >= 1")
    if seq.margin < order:
        raise WindowTooSmall(
            f"sequence margin {seq.margin} cannot support differences of order {order}")
    window = seq.window
    reach = tuple(w + order for w in window)
    # cells are flat row-major positions in box(reach); beta + e_j sits strides[j] further on
    strides = _strides(reach)
    sn, sd = seq.scale.numerator, seq.scale.denominator
    over = [[max(b - w, 0) for b in range(r + 1)] for w, r in zip(window, reach)]
    excess, pairs = {}, {}
    for flat, (beta, e) in enumerate(zip(box(reach), map(sum, itertools.product(*over)))):
        if e <= order:
            value, d = seq.value(beta), total_degree(beta)
            excess[flat] = e
            pairs[flat] = (value.numerator * sd ** d, value.denominator * sn ** d)
    lcm = math.lcm(*(q for _, q in pairs.values()))
    levels = [[flat for flat, e in excess.items() if e <= r] for r in range(order)]
    inside = list(zip(levels[0], box(window)))
    tables = {(0,) * seq.n: {flat: p * (lcm // q) for flat, (p, q) in pairs.items()}}
    checked = 0
    for k in _signed_orders(seq.n, order):
        j = max(i for i, kj in enumerate(k) if kj)
        prev, step = tables[k[:j] + (k[j] - 1,) + k[j + 1:]], strides[j]
        diff = tables[k] = {flat: prev[flat] - prev[flat + step]
                            for flat in levels[order - total_degree(k)]}
        for flat, beta in inside:
            checked += 1
            if diff[flat] < 0:
                return MonotonicityReport(passed=False, order=order, window=window,
                                          witness=(beta, k), checked=checked)
    return MonotonicityReport(passed=True, order=order, window=window,
                              witness=None, checked=checked)


def _signed_orders(n: int, order: int):
    """Multi-indices k with 1 <= |k| <= order, in lexicographic order (box is row-major)."""
    return [k for k in box((order,) * n) if 1 <= total_degree(k) <= order]


@dataclass(frozen=True)
class CertifyReport:
    passed: bool
    order: int
    gamma_bound: MultiIndex
    window: MultiIndex
    failures: list[tuple[MultiIndex, tuple[MultiIndex, MultiIndex]]]
    gammas_checked: int


def hartogs_certify(m: Sequence[int], gamma_bound: MultiIndex, order: int = 4,
                    window: MultiIndex | None = None) -> CertifyReport:
    """Run the monotonicity check on the Hartogs-tuple sequences for every
    shift gamma <= gamma_bound.  All of them are genuine Hausdorff moment
    multisequences, so every finite-order check is expected to pass.

    The verdict and first witness of each shift are those of
    complete_monotonicity_check on its moment_sequence with margin = order,
    but one set of difference tables serves every shift (see the module
    docstring and _first_witnesses).  f = 1/A is put over one positive common
    denominator: A is a product of axis tables, so each axis is scaled by the
    lcm of its numerators and the integer axis tables are multiplied out in
    row-major order over the box alpha <= gamma_bound + emb(window) + order.
    Every cell a check reads, gamma + emb(beta + i) with beta <= window and
    |i| <= order, lies in that box, since entry j of emb(i) is at most |i|.
    """
    n = len(m)
    P0 = hartogs_tuple(n)
    m = _check_m(P0, m)
    gamma_bound = tuple(gamma_bound)
    window = (2,) * n if window is None else tuple(window)
    if len(gamma_bound) != n or len(window) != n:
        raise ValueError(f"gamma_bound and window must have {n} entries, got {gamma_bound} and {window}")
    if any(x < 0 for x in (*gamma_bound, *window)):
        raise ValueError(f"gamma_bound and window must be nonnegative, got {gamma_bound} and {window}")
    if order < 1:
        raise ValueError("difference order must be >= 1")
    bounds = tuple(g + e + order for g, e in zip(gamma_bound, embedded_shift(window)))
    values = [1]
    for axis in _axis_tables(P0, m, bounds):
        lcm = math.lcm(*(a.numerator for a in axis))
        scaled = [a.denominator * (lcm // a.numerator) for a in axis]
        values = [v * s for v in values for s in scaled]
    witnesses = _first_witnesses(values, bounds, gamma_bound, window, order)
    failures = [(gamma, witnesses[gamma]) for gamma in box(gamma_bound) if gamma in witnesses]
    return CertifyReport(passed=not failures, order=order, gamma_bound=gamma_bound,
                         window=window, failures=failures, gammas_checked=box_size(gamma_bound))


def _first_witnesses(values: list[int], bounds: MultiIndex, gamma_bound: MultiIndex,
                     window: MultiIndex, order: int) -> dict[MultiIndex, tuple[MultiIndex, MultiIndex]]:
    """First failing (beta, k), in lexicographic (k, beta) order, of every shift
    gamma <= gamma_bound whose sequence beta -> values(gamma + emb(beta)) fails.

    values is an integer table over box(bounds) in row-major order, with
    bounds >= gamma_bound + emb(window) + order, so that the box holds every
    cell gamma + emb(beta + i) with beta <= window and |i| <= order.
    D_0 = values, and D_k is built from D_{k - e_j}, with j the last nonzero
    entry of k, as D_{k - e_j}(x) - D_{k - e_j}(x + step_j) on flat offsets x,
    where step_j is the offset of tail_j.  Right after D_k is built, each
    shift that has not failed yet is scanned at the offsets
    _offset(gamma) + _offset(emb(beta)), beta <= window.

    Flat offsets wrap across rows near the far faces of the box, so some cells
    of the shortened lists hold garbage.  No scanned cell reads one: D_k at the
    offset of (gamma, beta) is the signed sum of values at the offsets of
    gamma + emb(beta + i), i <= k, and each such cell lies inside the box,
    where _offset is linear, so each offset is that cell's own.

    The tables built from D_p, |p| < order, are those of p + e_j with
    j >= last(p) (last(0) = 0), and the lexicographically last of them is
    p + e_last(p).  So D_p is freed right after D_{p + e_last(p)} is built,
    and a table of full order right after its scan.
    """
    n = len(bounds)
    strides = _strides(bounds)
    steps = [sum(strides[j:]) for j in range(n)]
    alive = {gamma: _offset(gamma, bounds) for gamma in box(gamma_bound)}
    offsets = [(beta, _offset(embedded_shift(beta), bounds)) for beta in box(window)]
    tables = {(0,) * n: values}
    witnesses = {}
    for k in _signed_orders(n, order):
        j = _last_axis(k)
        parent = k[:j] + (k[j] - 1,) + k[j + 1:]
        prev, step = tables[parent], steps[j]
        diff = tables[k] = [a - b for a, b in zip(prev, prev[step:])]
        if _last_axis(parent) == j:
            del tables[parent]
        for gamma, base in list(alive.items()):
            for beta, off in offsets:
                if diff[base + off] < 0:
                    witnesses[gamma] = (beta, k)
                    del alive[gamma]
                    break
        if total_degree(k) == order:
            del tables[k]
    return witnesses


def _last_axis(k: MultiIndex) -> int:
    """The last j with k_j != 0, and 0 for k = 0."""
    return max((j for j, kj in enumerate(k) if kj), default=0)


def synthetic_sequence(generator, n: int, window: MultiIndex, margin: int,
                       scale: Fraction | int = 1) -> MomentSequence:
    """Wrap a callable beta -> value as a MomentSequence (for counterexamples)."""
    reach = tuple(w + margin for w in window)
    values = {beta: Fraction(generator(beta)) for beta in box(reach)}
    return MomentSequence(n=n, window=tuple(window), margin=margin,
                          values=values, scale=Fraction(scale))
