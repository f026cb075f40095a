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

One difference engine, _first_witnesses, has two callers.
complete_monotonicity_check runs it on one sequence, given as a callable,
over beta.  _shift_witnesses runs it once on f = 1/A for a box of shifts: the
sequence of shift gamma is beta -> f(gamma + emb(beta)), with emb the running
sum, and a unit step of beta_j is a step of tail_j = (0,...,0,1,...,1) in
alpha.  So one table of Delta^k f, with Delta_j f(alpha) = f(alpha) -
f(alpha + tail_j), serves every shift in the box: all gamma <= gamma_bound
for hartogs_certify, the one gamma for shift_check.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .coeff import _axis_scaled, _check_m, _divided
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
    sub_index,
    total_degree,
)


def embedded_shift(beta: MultiIndex) -> MultiIndex:
    """The lattice shift sum_j beta_j * (tail increment of z_j); entry k is
    the running sum beta_1 + ... + beta_{k+1}."""
    return tuple(itertools.accumulate(beta))


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    order: int
    window: MultiIndex
    witness: tuple[MultiIndex, MultiIndex] | None  # (beta, k) of the first failure
    checked: int


def complete_monotonicity_check(s: Callable[[MultiIndex], Fraction | int], window: MultiIndex,
                                order: int) -> MonotonicityReport:
    """Check all signed differences of the sequence s up to total order.

    s maps beta to an int or Fraction; a caller folds a scale or a product
    into it, so a sequence t whose natural bound is scale^|beta| is passed as
    beta -> t(beta)/scale^|beta|.  For every k with 1 <= |k| <= order and
    every beta <= window, the signed difference
    D_k(beta) = sum_{i <= k} (-1)^|i| C(k, i) s(beta + i) must be >= 0.  s is
    read once at every cell within reach (excess sum_j max(beta_j - window_j,
    0) at most order) before the scan, so a read that raises does so even when
    an earlier pair fails.  Over their common denominator L the cells give an
    integer table of s * L on box(window + order), with 0 at the cells beyond
    reach, which no difference reads.  _first_witnesses scans it as one shift
    with unit steps; checked counts the (k, beta) pairs up to and including
    the witness.
    """
    window = tuple(window)
    if any(w < 0 for w in window):
        raise ValueError(f"window must be nonnegative, got {window}")
    if order < 1:
        raise ValueError("difference order must be >= 1")
    reach = tuple(w + order for w in window)
    over = [[max(b - w, 0) for b in range(r + 1)] for w, r in zip(window, reach)]
    pairs = []
    for beta, e in zip(box(reach), map(sum, itertools.product(*over))):
        value = s(beta) if e <= order else 0
        pairs.append((value.numerator, value.denominator))
    values = _over_lcm(pairs)
    origin = (0,) * len(window)
    offsets = [(beta, _offset(beta, reach)) for beta in box(window)]
    witnesses = _first_witnesses(values, _strides(reach), {origin: 0}, offsets, order)
    return _report(window, order, witnesses.get(origin))


def shift_check(P: PolyTuple, m: Sequence[int], gamma: MultiIndex, window: MultiIndex | None = None,
                order: int = 4, scale: Fraction | int = 1) -> MonotonicityReport:
    """The monotonicity check of the shift gamma of (P, m): the sequence
    beta -> 1/(A(gamma + emb(beta)) scale^|beta|), with A the coefficient
    function of (P, m), for every beta <= window up to total order.

    The report is that of complete_monotonicity_check on this sequence; it
    comes from one integer table of 1/A on a box that holds every cell the
    check reads (see _shift_witnesses).
    """
    window = (2,) * P.n if window is None else tuple(window)
    gamma = tuple(gamma)
    witnesses = _shift_witnesses(P, m, gamma, gamma, window, order, scale)
    return _report(window, order, witnesses.get(gamma))


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

    The verdict and first witness of each shift are those of shift_check at
    that gamma, from one call of _first_witnesses over all shifts.
    """
    n = len(m)
    gamma_bound = tuple(gamma_bound)
    window = (2,) * n if window is None else tuple(window)
    witnesses = _shift_witnesses(hartogs_tuple(n), m, (0,) * n, gamma_bound, window, order, 1)
    failures = [(gamma, witnesses[gamma]) for gamma in box(gamma_bound) if gamma in witnesses]
    return CertifyReport(passed=not failures, order=order, gamma_bound=gamma_bound,
                         window=window, failures=failures, gammas_checked=box_size(gamma_bound))


def _shift_witnesses(P: PolyTuple, m: Sequence[int], lo: MultiIndex, hi: MultiIndex,
                     window: MultiIndex, order: int,
                     scale: Fraction | int) -> dict[MultiIndex, tuple[MultiIndex, MultiIndex]]:
    """First witness of every failing shift lo <= gamma <= hi of (P, m).

    The sequence of shift gamma is beta -> f(gamma + emb(beta)) with
    f(alpha) = 1/(A(alpha) scale^alpha_n), since |beta| = emb(beta)_n and the
    factor scale^gamma_n of a shift changes no sign.  Every cell a check reads,
    gamma + emb(beta + i) with beta <= window and |i| <= order, lies in the box
    lo <= alpha <= top = hi + emb(window) + order, since entry j of emb(i) is
    at most |i|.  f is put over one positive common denominator on that box.
    With scale = sn/sd, a scaled table B = d^|alpha| A gives
    f = d^|alpha| sd^alpha_n / (B sn^alpha_n).  For an admissible P, A is a
    product of axis tables A_j, and B_j(a) = d_j^a A_j(a) from _axis_scaled
    gives 1/A_j(a) = d_j^a / B_j(a), with the scale folded into the last
    axis; each axis is put over one denominator (_over_lcm) and the integer
    axes are multiplied out row-major.  Otherwise _divided gives B on the box
    from 0, its walk reads the cells of lo <= alpha <= top, and they are put
    over one denominator.
    """
    m = _check_m(P, m)
    n = P.n
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != n or len(hi) != n or len(window) != n:
        raise ValueError(f"shifts and window must have {n} entries, got {lo}, {hi} and {window}")
    if any(x < 0 for x in (*lo, *hi, *window)):
        raise ValueError(f"shifts and window must be nonnegative, got {lo}, {hi} and {window}")
    if order < 1:
        raise ValueError("difference order must be >= 1")
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    sn, sd = scale.numerator, scale.denominator
    top = tuple(h + e + order for h, e in zip(hi, embedded_shift(window)))
    ranges = [range(a, b + 1) for a, b in zip(lo, top)]
    shape = sub_index(top, lo)
    if admissibility_degree(P).admissible:
        values = [1]
        for j in range(n):
            B, d = _axis_scaled(P, m, j, top[j])
            num, den = (sn, sd) if j == n - 1 else (1, 1)
            axis = _over_lcm([((d * den) ** a, B[a] * num ** a) for a in ranges[j]])
            values = [v * x for v in values for x in axis]
    else:
        table = _divided(top, zip(P.polys, m))
        B, powers = table.B, [table.d ** k for k in range(sum(top) + 1)]
        cells = zip(itertools.product(*ranges), table.walk(shape, lo))
        if scale == 1:
            pairs = [(powers[sum(alpha)], B[off]) for alpha, off in cells]
        else:
            pairs = [(powers[sum(alpha)] * sd ** alpha[-1], B[off] * sn ** alpha[-1])
                     for alpha, off in cells]
        values = _over_lcm(pairs)
    strides = _strides(shape)
    steps = [sum(strides[j:]) for j in range(n)]
    starts = {add_index(lo, g): _offset(g, shape) for g in box(sub_index(hi, lo))}
    offsets = [(beta, _offset(embedded_shift(beta), shape)) for beta in box(window)]
    return _first_witnesses(values, steps, starts, offsets, order)


def _over_lcm(pairs: list[tuple[int, int]]) -> list[int]:
    """The fractions p/q of pairs (p, q), q > 0, over one positive common
    denominator L, the lcm of the q: the integers p * (L // q)."""
    lcm = math.lcm(*(q for _, q in pairs))
    return [p * (lcm // q) for p, q in pairs]


def _report(window: MultiIndex, order: int,
            witness: tuple[MultiIndex, MultiIndex] | None) -> MonotonicityReport:
    """The report of one sequence's scan; checked counts the (k, beta) pairs,
    in the lexicographic (k, beta) order of the scan, up to and including the
    witness."""
    plan, cells = _plan(len(window), order), box_size(window)
    if witness is None:
        checked = len(plan) * cells
    else:
        beta, k = witness
        checked = [step[0] for step in plan].index(k) * cells + _offset(beta, window) + 1
    return MonotonicityReport(passed=witness is None, order=order, window=window,
                              witness=witness, checked=checked)


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
