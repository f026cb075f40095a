"""Reproducing kernel evaluation, basis functions, Gram tests, and norm checks
by radial disc quadrature.

The kernel of the pair (P, m) is

    K(z, w) = prod_{j>=2} 1/(z_j conj(w_j)) * prod_j (1 - P_j(u))^{-m_j},
    u = phi(z) diamond conj(phi(w)),

with orthonormal basis e_alpha(z) = sqrt(A(alpha)) phi(z)^alpha / (z_2...z_n).
The closed form is preferred; the truncated basis series exists to validate
the expansion and for kernels without a hand-simplified form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeff import CoeffTable, coeff_function, hartogs_coeff_closed
from .errors import InvalidMultiplicity, OutsideDomain, WindowTooSmall, ZeroCoordinate
from .geometry import forward, triangle_contains
from .polytuple import MultiIndex, PolyTuple, box, hartogs_tuple, poly_eval


@dataclass(frozen=True)
class KernelContext:
    """A tuple, multiplicities injected into the kernel, and a coefficient table
    large enough for the series truncations the caller intends to request."""

    P: PolyTuple
    m: tuple[int, ...]
    table: CoeffTable

    @property
    def bounds(self) -> MultiIndex:
        return self.table.bounds


def make_context(P: PolyTuple, m: Sequence[int], bounds: MultiIndex, method: str = "auto") -> KernelContext:
    if any(mj < 1 for mj in m):
        raise InvalidMultiplicity(f"m entries must be >= 1, got {tuple(m)}")
    return KernelContext(P=P, m=tuple(m), table=coeff_function(P, m, bounds, method=method))


def _hadamard_phi(z: Sequence[complex], w: Sequence[complex]) -> tuple[complex, ...]:
    pz, pw = forward(z), forward(w)
    return tuple(a * b.conjugate() for a, b in zip(pz, pw))


def kernel_eval(ctx: KernelContext, z: Sequence[complex], w: Sequence[complex]) -> complex:
    """Closed-form kernel value; both points must lie in the triangle."""
    for point in (z, w):
        if not triangle_contains(ctx.P, point):
            raise OutsideDomain(f"point {tuple(point)} outside the triangle")
    u = _hadamard_phi(z, w)
    value = 1 + 0j
    for j in range(1, ctx.P.n):
        value /= complex(z[j]) * complex(w[j]).conjugate()
    for j, poly in enumerate(ctx.P.polys):
        value /= (1 - poly_eval(poly, u)) ** ctx.m[j]
    return value


def kernel_series_eval(ctx: KernelContext, z: Sequence[complex], w: Sequence[complex], cutoff: int) -> complex:
    """Partial sum of the basis expansion over total degree <= cutoff."""
    for point in (z, w):
        if not triangle_contains(ctx.P, point):
            raise OutsideDomain(f"point {tuple(point)} outside the triangle")
    if any(cutoff > b for b in ctx.bounds):
        raise WindowTooSmall(f"cutoff {cutoff} exceeds table bounds {ctx.bounds}")
    u = _hadamard_phi(z, w)
    n = ctx.P.n
    powers = [[1 + 0j] for _ in range(n)]
    for j in range(n):
        for _ in range(cutoff):
            powers[j].append(powers[j][-1] * u[j])
    prefactor = 1 + 0j
    for j in range(1, n):
        prefactor /= complex(z[j]) * complex(w[j]).conjugate()
    total = 0j
    for alpha in (alpha for alpha in box((cutoff,) * n) if sum(alpha) <= cutoff):
        a = ctx.table.value(alpha)
        if a:
            total += float(a) * math.prod(powers[j][alpha[j]] for j in range(n))
    return prefactor * total


def basis_eval(ctx: KernelContext, alpha: MultiIndex, z: Sequence[complex]) -> complex:
    """e_alpha(z); defined wherever the tail coordinates are nonzero."""
    z = tuple(complex(c) for c in z)
    n = ctx.P.n
    for j in range(1, n):
        if z[j] == 0:
            raise ZeroCoordinate(f"coordinate {j + 1} is zero")
    phi = forward(z)
    value = math.sqrt(float(ctx.table.value(alpha))) + 0j
    for j in range(n):
        if alpha[j]:
            value *= phi[j] ** alpha[j]
    for j in range(1, n):
        value /= z[j]
    return value


def gram_psd_check(ctx: KernelContext, points: Sequence[Sequence[complex]]) -> float:
    """Minimum eigenvalue of the Gram matrix [K(z_i, z_j)] over the points."""
    k = len(points)
    gram = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            gram[i, j] = kernel_eval(ctx, points[i], points[j])
    gram = 0.5 * (gram + gram.conj().T)
    return float(np.linalg.eigvalsh(gram)[0])


# --- radial quadrature on the unit disc and the torus -------------------------

_HARDY_STEPS = 26  # the Hardy norm supremum runs over t = 1 - 2^-k, k = 1..26


@functools.cache
def gauss_legendre_01(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1], computed once
    per node count; the cached arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    u.flags.writeable = wu.flags.writeable = False
    return u, wu


def disc_integral(g, radial_nodes: int = 32) -> float:
    """Area integral over the unit disc of the radial integrand g(|w|^2).

    With u = r^2 the area element is du dtheta / 2, so the integral is
    pi * int_0^1 g(u) du, here by Gauss-Legendre on radial_nodes nodes: exact
    for polynomial g of degree < 2 * radial_nodes.  g maps numpy arrays to arrays.
    """
    u, wu = gauss_legendre_01(radial_nodes)
    return math.pi * float(np.sum(wu * g(u)))


def beta_integral_check(l: int, k: int, radial_nodes: int = 32) -> tuple[float, float]:
    """Disc integral of |w|^(2l) (1-|w|^2)^k: quadrature value and closed form."""
    if l < 0 or k < 0:
        raise ValueError("l and k must be nonnegative")
    numeric = disc_integral(lambda u: u ** l * (1.0 - u) ** k, radial_nodes=radial_nodes)
    closed = math.pi / ((k + 1) * math.comb(l + k + 1, k + 1))
    return numeric, closed


def hardy_norm_check(n: int, alpha: MultiIndex) -> float:
    """Hardy-type squared norm of e_alpha on the Hartogs triangle, m = 1.

    On the torus |z_j| = t^(n-j) every quotient coordinate has modulus t, so
    |e_alpha|^2 is constant there: its value at the real point (t^(n-j))_j
    times prod t_j^(2j-1) is the weighted torus integral.  The integrand is
    monotone in t for basis monomials, so the supremum over the grid t = 1 - 2^-k
    sits at the largest t, where t^(2|alpha|+n) is within the check tolerances of 1.
    """
    ctx = make_context(hartogs_tuple(n), (1,) * n, alpha)
    best = 0.0
    for k in range(1, _HARDY_STEPS + 1):
        t = 1.0 - 0.5 ** k
        value = abs(basis_eval(ctx, alpha, [t ** (n - j) for j in range(n)])) ** 2
        best = max(best, value * math.prod(t ** (2 * j + 1) for j in range(n)))
    return best


def bergman_norm_check(m: Sequence[int], alpha: MultiIndex, radial_nodes: int = 32) -> float:
    """Weighted Bergman squared norm of e_alpha on the Hartogs triangle.

    Requires every m_j >= 2.  The weighted volume integral over the triangle
    reduces, through the quotient change of variables, to a product of disc
    integrals of |w|^(2 alpha_j) (1-|w|^2)^(m_j - 2), each evaluated by
    quadrature; the normalization makes the expected value 1.
    """
    m = tuple(m)
    if any(mj < 2 for mj in m):
        raise InvalidMultiplicity(f"all m_j must be >= 2, got {m}")
    if len(alpha) != len(m):
        raise ValueError("alpha and m must have the same length")
    value = float(hartogs_coeff_closed(m, alpha))
    for mj, aj in zip(m, alpha):
        integral = disc_integral(lambda u: u ** aj * (1.0 - u) ** (mj - 2),
                                 radial_nodes=radial_nodes)
        value *= (mj - 1) / math.pi * integral
    return value
