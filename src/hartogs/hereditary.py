"""Hereditary functional calculus on small commuting matrix tuples.

A hereditary polynomial sum a_{alpha,beta} z^alpha conj(w)^beta is evaluated
on a commuting tuple T with adjoints on the left: sum a_{alpha,beta} T*^beta
T^alpha.  The reciprocal reproducing kernels of the one-parameter triangle
family clear their denominators into such polynomials when every
multiplicity except the last equals 1, and their evaluation reproduces the
defect recursion, which pins the left-adjoint convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DuplicatePoints,
    MalformedInput,
    NonCommuting,
    NotHereditaryPolynomial,
    PointOutsideDomain,
    WrongDimension,
)
from .geometry import triangle_contains
from .polytuple import MultiIndex, PolyTuple, hartogs_tuple, poly_mul


def _opnorm(a: np.ndarray) -> float:
    """The spectral norm, the largest singular value: the LAPACK call of
    np.linalg.norm(a, 2) without its axis-handling wrappers."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _finite(value, what: str):
    """value, or MalformedInput when an overflow left it (or an entry) not finite."""
    if not np.isfinite(value).all():
        raise MalformedInput(f"{what} overflows the float range")
    return value


@dataclass(frozen=True)
class MatrixTuple:
    """n commuting d x d complex matrices; commutation is enforced up to a
    relative tolerance at construction time."""

    matrices: tuple[np.ndarray, ...]
    tolerance: float = 1e-12
    norms: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        if not mats:
            raise WrongDimension("a matrix tuple needs at least one matrix")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise WrongDimension("all matrices must be square of equal size")
        norms = tuple(_opnorm(m) for m in mats)
        object.__setattr__(self, "norms", norms)
        if not np.isfinite(norms).all():
            raise MalformedInput("matrix norms overflow the float range")
        for j in range(len(mats)):
            for k in range(j + 1, len(mats)):
                with np.errstate(over="ignore", invalid="ignore"):
                    commutator = mats[j] @ mats[k] - mats[k] @ mats[j]
                if not np.isfinite(commutator).all():
                    raise MalformedInput(f"products of matrices {j} and {k} overflow the float range")
                gap = _opnorm(commutator)
                if gap > self.tolerance * max(1.0, norms[j] * norms[k]):
                    raise NonCommuting(
                        f"matrices {j} and {k} do not commute (residual {gap:.3e})")

    @property
    def n(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def max_norm(self) -> float:
        return max(self.norms)


def matrix_from_json(entries) -> np.ndarray:
    """Nested lists of [re, im] pairs -> complex matrix."""
    return np.array([[complex(e[0], e[1]) for e in row] for row in entries])


# --- hereditary polynomials -------------------------------------------------------

@dataclass(frozen=True)
class HereditaryPoly:
    """Finite map (alpha, beta) -> coefficient of z^alpha conj(w)^beta."""

    n: int
    terms: dict[tuple[MultiIndex, MultiIndex], complex]


def _detect_family(P: PolyTuple) -> Fraction:
    """Return the parameter a when P is the tuple z_j + a*(z_1...z_n), else raise."""
    if P.n < 2:
        raise NotHereditaryPolynomial("reciprocal kernel clearing is supported for n >= 2")
    a = P.polys[0].get((1,) * P.n, Fraction(0))
    if P != hartogs_tuple(P.n, a):
        raise NotHereditaryPolynomial(
            "reciprocal kernel clearing is supported for the one-parameter "
            "triangle family z_j + a*(z_1*...*z_n) only")
    return a


def reciprocal_kernel_polynomial(P: PolyTuple, m: Sequence[int]) -> HereditaryPoly:
    """Clear the reciprocal kernel of (P, m) into a hereditary polynomial.

    Supported family: P_j = z_j + a*(z_1*...*z_n) with a >= 0 and
    m_1 = ... = m_{n-1} = 1 (the last multiplicity is free).  In the paired
    variables x_j = z_j conj(w_j) the reciprocal kernel is

        (x_2...x_n) * prod_{j<n} (1 - x_j/x_{j+1} - a x_1)^{m_j}
                    * (1 - x_n - a x_1)^{m_n},

    and the single power of each x_{j+1} in the prefactor clears the single
    denominator of the j-th factor.  Residual negative exponents (any m_j >= 2
    before the last slot) are rejected.
    """
    a = _detect_family(P)
    n = P.n
    m = tuple(m)
    if len(m) != n or any(mj < 1 for mj in m):
        raise ValueError(f"m must be {n} integers >= 1, got {m}")

    def e(j: int, k: int | None = None) -> MultiIndex:
        out = [0] * n
        out[j] += 1
        if k is not None:
            out[k] -= 1
        return tuple(out)

    zero = (0,) * n
    poly = {tuple(1 if j else 0 for j in range(n)): Fraction(1)}
    for j in range(n):
        factor = {zero: Fraction(1), (e(j, j + 1) if j < n - 1 else e(j)): Fraction(-1)}
        if a:
            factor[e(0)] = -a
        for _ in range(m[j]):
            poly = poly_mul(poly, factor)

    negatives = [mono for mono in poly if any(x < 0 for x in mono)]
    if negatives:
        raise NotHereditaryPolynomial(
            f"residual negative exponents remain, e.g. {sorted(negatives)[0]}")
    terms = {(mono, mono): complex(c) for mono, c in poly.items()}
    return HereditaryPoly(n=n, terms=terms)


def hereditary_eval(p: HereditaryPoly, T: MatrixTuple) -> tuple[np.ndarray, float]:
    """Evaluate sum a_{alpha,beta} T*^beta T^alpha; adjoints act on the left.

    Returns the Hermitized matrix (X + X*)/2 and the norm of the discarded
    skew part, which is pure rounding noise for real-coefficient polynomials.
    """
    if p.n != T.n:
        raise WrongDimension(f"polynomial has {p.n} variables, tuple has {T.n}")
    d = T.dim
    out = np.zeros((d, d), dtype=complex)
    for (alpha, beta), coeff in p.terms.items():
        out += coeff * _tuple_power(T, beta).conj().T @ _tuple_power(T, alpha)
    asymmetry = _opnorm(out - out.conj().T) / 2.0
    return 0.5 * (out + out.conj().T), asymmetry


def _tuple_power(T: MatrixTuple, alpha: MultiIndex) -> np.ndarray:
    out = np.eye(T.dim, dtype=complex)
    for j, k in enumerate(alpha):
        if k:
            out = out @ np.linalg.matrix_power(T.matrices[j], k)
    return out


# --- defect recursion and classification -------------------------------------------

@dataclass(frozen=True)
class DefectReport:
    kind: str  # "isometry" | "contraction" | "neither"
    defect: np.ndarray
    min_eigenvalue: float
    defect_norm: float


def triangle_defect_classify(T: MatrixTuple, tol: float = 1e-10) -> DefectReport:
    """Classify a commuting tuple against the Hartogs triangle inequality.

    Builds the nested difference D of squared moduli down the coordinate
    chain and tests D - T_n* D T_n: zero (within tol, relative to the tuple
    norm) means isometry, positive semidefinite means contraction.
    """
    n = T.n
    if n < 2:
        raise WrongDimension("classification needs at least two matrices")
    mats = T.matrices
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = mats[n - 1].conj().T @ mats[n - 1] - mats[n - 2].conj().T @ mats[n - 2]
        dk = d1
        for k in range(2, n):
            upper = mats[n - k]
            lower = mats[n - k - 1]
            dk = upper.conj().T @ dk @ upper - lower.conj().T @ dk @ lower
        defect = dk - mats[n - 1].conj().T @ dk @ mats[n - 1]
        defect = _finite(0.5 * (defect + defect.conj().T), "the defect")
    norm = _finite(_opnorm(defect), "the defect norm")
    min_eig = _finite(float(np.linalg.eigvalsh(defect)[0]), "the defect spectrum")
    scale = max(1.0, T.max_norm)
    if norm <= tol * (scale * scale):  # scale ** 2 would raise OverflowError
        kind = "isometry"
    elif min_eig >= -tol * max(1.0, norm):
        kind = "contraction"
    else:
        kind = "neither"
    return DefectReport(kind=kind, defect=defect, min_eigenvalue=min_eig, defect_norm=norm)


def toral_lift(T: MatrixTuple) -> MatrixTuple:
    """Product coordinates of the tuple: (T_1...T_n, T_2...T_n, ..., T_n)."""
    mats = T.matrices
    out = []
    tail = np.eye(T.dim, dtype=complex)
    for j in range(T.n - 1, -1, -1):
        tail = mats[j] @ tail
        out.append(tail)
    return MatrixTuple(tuple(reversed(out)), tolerance=T.tolerance)


# --- ordering of squared moduli ------------------------------------------------------

@dataclass(frozen=True)
class OrderingReport:
    chain_holds: bool
    margins: tuple[float, ...]
    spectrum_checked: bool
    spectrum_in_triangle: bool | None


def ordering_check(T: MatrixTuple, tol: float = 1e-10) -> OrderingReport:
    """Check T_j*T_j <= T_{j+1}*T_{j+1} <= I along the tuple.

    The joint-spectrum hypothesis is verified only for tuples that are
    simultaneously diagonal or upper triangular as given (their joint
    eigenvalues are the aligned diagonal entries); otherwise it is reported
    as unverified rather than silently assumed.
    """
    mats = T.matrices
    n = T.n
    margins = []
    for j in range(n):
        with np.errstate(over="ignore", invalid="ignore"):
            upper = mats[j + 1].conj().T @ mats[j + 1] if j + 1 < n else np.eye(T.dim)
            diff = upper - mats[j].conj().T @ mats[j]
            diff = _finite(0.5 * (diff + diff.conj().T), f"difference {j + 1} of the chain")
        margins.append(_finite(float(np.linalg.eigvalsh(diff)[0]), f"margin {j + 1}"))
    chain_holds = all(mu >= -tol for mu in margins)

    if not all(_is_upper_triangular(m, tol, norm) for m, norm in zip(mats, T.norms)):
        return OrderingReport(chain_holds, tuple(margins), False, None)
    P0 = hartogs_tuple(n)
    inside = all(triangle_contains(P0, tuple(m[i, i] for m in mats)) for i in range(T.dim))
    return OrderingReport(chain_holds, tuple(margins), True, inside)


def _is_upper_triangular(m: np.ndarray, tol: float, norm: float) -> bool:
    """m is upper triangular up to tol relative to its spectral norm, norm."""
    scale = max(1.0, norm)
    return float(np.max(np.abs(np.tril(m, -1)))) <= tol * scale


# --- Pick certificate verification ----------------------------------------------------

def pick_verify(points: Sequence[Sequence[complex]], targets: Sequence[complex],
                a1: np.ndarray, a2: np.ndarray, tol: float = 1e-10) -> bool:
    """Verify a two-matrix Pick certificate on the Hartogs triangle.

    True iff both matrices are positive semidefinite and the certificate
    identity

        1 - conj(z_i) z_j = (conj(l2_i) l2_j - conj(l1_i) l1_j) a1_ij
                            + (1 - conj(l2_i) l2_j) a2_ij

    holds entrywise within tol.  Verification only; no certificate is solved
    for here.  A certificate whose norms, spectrum or identity terms overflow
    the float range raises MalformedInput.
    """
    pts = [tuple(complex(c) for c in p) for p in points]
    k = len(pts)
    if len(set(pts)) != k:
        raise DuplicatePoints("interpolation nodes must be pairwise distinct")
    P0 = hartogs_tuple(2)
    for p in pts:
        if len(p) != 2:
            raise WrongDimension("Pick nodes must be points of a 2-variable triangle")
        if not triangle_contains(P0, p):
            raise PointOutsideDomain(f"node {p} lies outside the Hartogs triangle")
    z = [complex(t) for t in targets]
    a1 = np.asarray(a1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    for a in (a1, a2):
        if a.shape != (k, k):
            raise WrongDimension(f"certificate matrices must be {k} x {k}")
        # Halving before the sum keeps the skew and Hermitian parts finite for
        # finite a; only the norms and the spectrum can still overflow.
        half, half_adjoint = 0.5 * a, 0.5 * a.conj().T
        with np.errstate(over="ignore", invalid="ignore"):
            norms = _finite([_opnorm(half - half_adjoint), _opnorm(a)], "a certificate norm")
            if norms[0] > 0.5 * tol * max(1.0, norms[1]):
                return False
            spectrum = _finite(np.linalg.eigvalsh(half + half_adjoint), "a certificate spectrum")
        if spectrum[0] < -tol:
            return False
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k):
            for j in range(k):
                lhs = 1.0 - z[i].conjugate() * z[j]
                cross2 = pts[i][1].conjugate() * pts[j][1]
                cross1 = pts[i][0].conjugate() * pts[j][0]
                rhs = _finite((cross2 - cross1) * a1[i, j] + (1.0 - cross2) * a2[i, j],
                              "the certificate identity")
                if abs(lhs - rhs) > tol:
                    return False
    return True
