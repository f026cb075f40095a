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

One difference engine, _first_witnesses, serves one shift and all shifts.
complete_monotonicity_check runs it on one sequence, over beta.
hartogs_certify runs it once per job on f = 1/A: the sequence of shift gamma
is beta -> f(gamma + emb(beta)), with emb the running sum, and a unit step of
beta_j is a step of tail_j = (0,...,0,1,...,1) in alpha.  So one table of
Delta^k f, with Delta_j f(alpha) = f(alpha) - f(alpha + tail_j), serves every
shift gamma <= gamma_bound.
"""

from __future__ import annotations

import functools
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

    def __post_init__(self):
        if len(self.window) != self.n or any(w < 0 for w in self.window):
            raise ValueError(f"window must have {self.n} nonnegative entries, got {self.window}")
        if self.margin < 0 or self.scale <= 0:
            raise ValueError(f"margin must be >= 0 and scale > 0, got {self.margin} and {self.scale}")

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
    >= 0.  All cells within reach (excess sum_j max(beta_j - window_j, 0) at
    most order) are read before the scan, so a missing one raises
    WindowTooSmall even when an earlier pair fails.  Over their common
    denominator L they give an integer table of s~ * L on box(window + order),
    with 0 at the cells beyond reach, which no difference reads.
    _first_witnesses scans it as one shift with unit steps; checked counts
    the (k, beta) pairs up to and including the witness.
    """
    if order < 1:
        raise ValueError("difference order must be >= 1")
    if seq.margin < order:
        raise WindowTooSmall(
            f"sequence margin {seq.margin} cannot support differences of order {order}")
    window = seq.window
    reach = tuple(w + order for w in window)
    sn, sd = seq.scale.numerator, seq.scale.denominator
    over = [[max(b - w, 0) for b in range(r + 1)] for w, r in zip(window, reach)]
    pairs = []
    for beta, e in zip(box(reach), map(sum, itertools.product(*over))):
        if e <= order:
            value, d = seq.value(beta), total_degree(beta)
            pairs.append((value.numerator * sd ** d, value.denominator * sn ** d))
        else:
            pairs.append((0, 1))
    lcm = math.lcm(*(q for _, q in pairs))
    values = [p * (lcm // q) for p, q in pairs]
    origin = (0,) * seq.n
    offsets = [(beta, _offset(beta, reach)) for beta in box(window)]
    witness = _first_witnesses(values, _strides(reach), {origin: 0}, offsets, order).get(origin)
    plan = _plan(seq.n, order)
    if witness is None:
        checked = len(plan) * len(offsets)
    else:
        beta, k = witness
        checked = [step[0] for step in plan].index(k) * len(offsets) + _offset(beta, window) + 1
    return MonotonicityReport(passed=witness is None, order=order, window=window,
                              witness=witness, checked=checked)


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
    from one call of _first_witnesses (see the module docstring).  f = 1/A is
    put over one positive common denominator: A is a product of axis tables,
    so each axis is scaled by the lcm of its numerators and the integer axis
    tables are multiplied out in row-major order over the box
    alpha <= gamma_bound + emb(window) + order.  Every cell a check reads,
    gamma + emb(beta + i) with beta <= window and |i| <= order, lies in that
    box, since entry j of emb(i) is at most |i|.
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
    strides = _strides(bounds)
    steps = [sum(strides[j:]) for j in range(n)]
    starts = {gamma: _offset(gamma, bounds) for gamma in box(gamma_bound)}
    offsets = [(beta, _offset(embedded_shift(beta), bounds)) for beta in box(window)]
    witnesses = _first_witnesses(values, steps, starts, offsets, order)
    failures = [(gamma, witnesses[gamma]) for gamma in starts if gamma in witnesses]
    return CertifyReport(passed=not failures, order=order, gamma_bound=gamma_bound,
                         window=window, failures=failures, gammas_checked=len(starts))


def _first_witnesses(values: list[int], steps: Sequence[int], starts: dict[MultiIndex, int],
                     offsets: list[tuple[MultiIndex, int]],
                     order: int) -> dict[MultiIndex, tuple[MultiIndex, MultiIndex]]:
    """First failing (beta, k), in lexicographic (k, beta) order, of every
    shift gamma in starts whose sequence fails.

    values is a flat integer table; beta of shift gamma sits at
    starts[gamma] + off for (beta, off) in offsets, and a unit step of beta_j
    is steps[j] further on.  D_0 = values, and D_k is built from its parent
    (see _plan) as D_{k - e_j}(x) - D_{k - e_j}(x + steps[j]) on flat offsets
    x.  Right after D_k is built, each shift that has not failed yet is
    scanned, until none is left.

    Flat offsets wrap across rows near the far faces of the table, so some
    cells of the shortened lists hold garbage.  No scanned cell reads one as
    long as every cell beta + i, |i| <= order, sits at its own offset.
    """
    tables = {(0,) * len(steps): values}
    alive = dict(starts)
    witnesses = {}
    for k, parent, j, free_parent, full in _plan(len(steps), order):
        prev, step = tables[parent], steps[j]
        diff = tables[k] = [a - b for a, b in zip(prev, prev[step:])]
        if free_parent:
            del tables[parent]
        for gamma, base in list(alive.items()):
            for beta, off in offsets:
                if diff[base + off] < 0:
                    witnesses[gamma] = (beta, k)
                    del alive[gamma]
                    break
        if not alive:
            break
        if full:
            del tables[k]
    return witnesses


@functools.cache
def _plan(n: int, order: int) -> tuple[tuple[MultiIndex, MultiIndex, int, bool, bool], ...]:
    """The steps (k, parent, j, free the parent?, full order?) of
    _first_witnesses: each k with 1 <= |k| <= order in lexicographic order,
    with j the last nonzero entry of k and parent = k - e_j.

    The tables built from D_p are those of p + e_j, j >= last(p) (last(0) = 0),
    and the last of them is p + e_last(p): the k with j = 0 or k_j >= 2.  So
    D_p is freed right after that k, and a table of full order after its scan.
    """
    plan = []
    for k in box((order,) * n):
        if 1 <= total_degree(k) <= order:
            j = max(i for i, ki in enumerate(k) if ki)
            parent = k[:j] + (k[j] - 1,) + k[j + 1:]
            plan.append((k, parent, j, j == 0 or k[j] >= 2, total_degree(k) == order))
    return tuple(plan)


def synthetic_sequence(generator, n: int, window: MultiIndex, margin: int,
                       scale: Fraction | int = 1) -> MomentSequence:
    """Wrap a callable beta -> value as a MomentSequence (for counterexamples)."""
    reach = tuple(w + margin for w in window)
    values = {beta: Fraction(generator(beta)) for beta in box(reach)}
    return MomentSequence(n=n, window=tuple(window), margin=margin,
                          values=values, scale=Fraction(scale))
