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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Sequence

from .coeff import _axis_tables, coeff_function
from .errors import NotAdmissible, WindowTooSmall
from .polytuple import (
    MultiIndex,
    PolyTuple,
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
    variant: str = "general",
    window: MultiIndex | None = None,
    margin: int = 4,
    scale: Fraction | int = 1,
) -> MomentSequence:
    """The subnormality multisequence beta -> 1/A(gamma + embedded beta).

    variant "general" reads the full coefficient table of (P, m); variant
    "admissible" uses the axis factorization, valid exactly when each P_j
    depends on z_j alone.
    """
    n = P.n
    if window is None:
        window = (2,) * n
    reach = tuple(w + margin for w in window)
    values: dict[MultiIndex, Fraction] = {}
    if variant == "admissible":
        if not admissibility_degree(P).admissible:
            raise NotAdmissible("admissible variant needs each P_j to depend on z_j alone")
        kmax = [gamma[j] + sum(reach[: j + 1]) for j in range(n)]
        axis = _axis_tables(P, m, kmax)
        nums = [[a.numerator for a in table] for table in axis]
        dens = [[a.denominator for a in table] for table in axis]
        for beta in box(reach):
            cell = add_index(gamma, embedded_shift(beta))
            values[beta] = Fraction(math.prod(map(getitem, dens, cell)),
                                    math.prod(map(getitem, nums, cell)))
    elif variant == "general":
        bounds = tuple(gamma[j] + sum(reach[: j + 1]) for j in range(n))
        table = coeff_function(P, m, bounds)
        for beta in box(reach):
            values[beta] = Fraction(1) / table.value(add_index(gamma, embedded_shift(beta)))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return MomentSequence(n=n, window=tuple(window), margin=margin,
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
    multisequences, so every finite-order check is expected to pass."""
    n = len(m)
    if window is None:
        window = (2,) * n
    P0 = hartogs_tuple(n)
    failures = []
    count = 0
    for gamma in box(gamma_bound):
        count += 1
        seq = moment_sequence(P0, m, gamma, variant="admissible",
                              window=window, margin=order)
        report = complete_monotonicity_check(seq, order)
        if not report.passed:
            failures.append((gamma, report.witness))
    return CertifyReport(passed=not failures, order=order,
                         gamma_bound=tuple(gamma_bound), window=tuple(window),
                         failures=failures, gammas_checked=count)


def synthetic_sequence(generator, n: int, window: MultiIndex, margin: int,
                       scale: Fraction | int = 1) -> MomentSequence:
    """Wrap a callable beta -> value as a MomentSequence (for counterexamples)."""
    reach = tuple(w + margin for w in window)
    values = {beta: Fraction(generator(beta)) for beta in box(reach)}
    return MomentSequence(n=n, window=tuple(window), margin=margin,
                          values=values, scale=Fraction(scale))
