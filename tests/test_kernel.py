import cmath
import itertools
import math
import random

import numpy as np
import pytest

from hartogs.coeff import hartogs_coeff_closed
from hartogs.errors import InvalidMultiplicity, OutsideDomain, ZeroCoordinate
from hartogs.kernel import (
    basis_eval,
    bergman_norm_check,
    beta_integral_check,
    disc_integral,
    gram_psd_check,
    hardy_norm_check,
    kernel_eval,
    kernel_series_eval,
    make_context,
)
from hartogs.geometry import triangle_contains
from hartogs.polytuple import box, hartogs_tuple, tail_index


def random_hartogs_points(count, seed, radius=0.9, P=None):
    P = P or hartogs_tuple(2)
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        r2 = rng.uniform(0.15, radius)
        r1 = r2 * rng.uniform(0.0, 0.95)
        z = (r1 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
             r2 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        if triangle_contains(P, z):
            points.append(z)
    return points


@pytest.fixture(scope="module")
def ctx0():
    return make_context(hartogs_tuple(2), (1, 1), (40, 40))


@pytest.fixture(scope="module")
def ctx1():
    return make_context(hartogs_tuple(2, 1), (1, 1), (40, 40))


def test_closed_form_value(ctx0, ctx1):
    z = (0.0, 0.5)
    assert kernel_eval(ctx0, z, z) == pytest.approx(16 / 3)
    # the mixed term vanishes at z_1 = 0, so the a = 1 kernel agrees
    assert kernel_eval(ctx1, z, z) == pytest.approx(16 / 3)


def test_kernel_hermitian_symmetry(ctx1):
    P1 = hartogs_tuple(2, 1)
    for z, w in zip(random_hartogs_points(6, 21, 0.7, P1), random_hartogs_points(6, 22, 0.7, P1)):
        assert kernel_eval(ctx1, z, w) == pytest.approx(kernel_eval(ctx1, w, z).conjugate())


def test_kernel_rejects_outside_points(ctx0):
    with pytest.raises(OutsideDomain):
        kernel_eval(ctx0, (0.5, 0.2), (0.0, 0.5))
    with pytest.raises(OutsideDomain):
        kernel_series_eval(ctx0, (0.0, 0.5), (0.2, 0.0), 5)


def test_series_cutoff_zero_is_prefactor(ctx0):
    z, w = (0.1, 0.5), (0.2, 0.4)
    expected = 1 / (z[1] * w[1])
    assert kernel_series_eval(ctx0, z, w, 0) == pytest.approx(expected)


def test_series_monotone_on_diagonal(ctx1):
    z = (0.3, 0.6)
    values = [kernel_series_eval(ctx1, z, z, c).real for c in range(0, 30, 3)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_series_converges_to_closed_form(ctx0):
    z, w = (0.2 + 0.1j, 0.5), (0.1, 0.45 - 0.2j)
    closed = kernel_eval(ctx0, z, w)
    series = kernel_series_eval(ctx0, z, w, 40)
    assert abs(series - closed) / abs(closed) < 1e-9


def test_basis_at_origin_index(ctx0):
    z = (0.2, 0.5)
    assert basis_eval(ctx0, (0, 0), z) == pytest.approx(1 / z[1])


def test_basis_monomial(ctx0):
    z = (0.2 + 0.1j, 0.5 - 0.3j)
    assert basis_eval(ctx0, (1, 0), z) == pytest.approx(z[0] / z[1] ** 2)


def test_basis_rejects_zero_tail(ctx0):
    with pytest.raises(ZeroCoordinate):
        basis_eval(ctx0, (1, 1), (0.3, 0.0))


def test_basis_phase_homogeneity(ctx1):
    rng = random.Random(4)
    z = (0.25, 0.6)
    for alpha in [(0, 0), (2, 1), (1, 3)]:
        base = basis_eval(ctx1, alpha, z)
        phases = [cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(2)]
        rotated = basis_eval(ctx1, alpha, tuple(p * c for p, c in zip(phases, z)))
        assert abs(rotated) == pytest.approx(abs(base), rel=1e-12)


def test_adjoint_eigen_relation_on_coefficients(ctx0):
    # multiplying the kernel coefficient by the shift weight reproduces the
    # conjugate coordinate: w_j-bar * conj(e_alpha(w)) at interior rows
    w = (0.2 + 0.2j, 0.6)
    n = 2
    for j in range(n):
        step = tail_index(n, j)
        for alpha in [(0, 0), (1, 2), (3, 1)]:
            up = tuple(a + s for a, s in zip(alpha, step))
            weight = math.sqrt(float(ctx0.table.value(alpha) / ctx0.table.value(up)))
            lhs = weight * basis_eval(ctx0, up, w).conjugate()
            rhs = complex(w[j]).conjugate() * basis_eval(ctx0, alpha, w).conjugate()
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_diagonal_lower_bound(ctx1):
    for z in random_hartogs_points(10, 31, 0.8, hartogs_tuple(2, 1)):
        value = kernel_eval(ctx1, z, z).real
        assert value >= 1 / abs(z[1]) ** 2 - 1e-10


def test_gram_single_point(ctx0):
    assert gram_psd_check(ctx0, [(0.1, 0.4)]) > 0


def test_gram_duplicate_point_singular(ctx0):
    points = [(0.1, 0.4), (0.1, 0.4)]
    assert abs(gram_psd_check(ctx0, points)) < 1e-9


def test_gram_random_points(ctx0):
    points = random_hartogs_points(12, 17)
    diag = max(kernel_eval(ctx0, p, p).real for p in points)
    assert gram_psd_check(ctx0, points) >= -1e-10 * diag


def test_beta_integral_small_cases():
    numeric, closed = beta_integral_check(0, 0)
    assert closed == pytest.approx(math.pi)
    assert numeric == pytest.approx(math.pi, abs=1e-10)
    for l, k, value in [(1, 0, math.pi / 2), (0, 1, math.pi / 2)]:
        numeric, closed = beta_integral_check(l, k)
        assert closed == pytest.approx(value)
        assert numeric == pytest.approx(value, abs=1e-10)


def test_disc_integral_area():
    assert disc_integral(lambda u: np.ones_like(u)) == pytest.approx(math.pi, abs=1e-12)


# References: the two-dimensional rules the radial sums replaced.  The disc
# rule sums each Gauss-Legendre ring u = r^2 over equally spaced angles; the
# Hardy rule sums |e_alpha|^2 over an equally spaced grid on each torus.

def _angular_disc_integral(f, radial_nodes=32, angular_nodes=32):
    x, w = np.polynomial.legendre.leggauss(radial_nodes)
    thetas = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    total = 0.0
    for ui, wi in zip(0.5 * (x + 1.0), 0.5 * w):
        r = math.sqrt(ui)
        total += wi * sum(f(r * cmath.exp(1j * t)) for t in thetas)
    return total * math.pi / angular_nodes


def _torus_hardy_norm(n, alpha, angular_nodes=8, kmax=26):
    ctx = make_context(hartogs_tuple(n), (1,) * n, alpha)
    thetas = [2.0 * math.pi * i / angular_nodes for i in range(angular_nodes)]
    best = 0.0
    for k in range(1, kmax + 1):
        t = 1.0 - 0.5 ** k
        tail = [t ** (n - j) for j in range(n)]
        total = 0.0
        for combo in itertools.product(thetas, repeat=n):
            z = tuple(tail[j] * cmath.exp(1j * combo[j]) for j in range(n))
            total += abs(basis_eval(ctx, alpha, z)) ** 2
        weight = math.prod(t ** (2 * j + 1) for j in range(n))
        best = max(best, total * weight / angular_nodes ** n)
    return best


def test_beta_integral_matches_angular_reference():
    for l, k in box((5, 5)):
        reference = _angular_disc_integral(lambda w: abs(w) ** (2 * l) * (1.0 - abs(w) ** 2) ** k)
        assert abs(beta_integral_check(l, k)[0] - reference) <= 1e-13


def test_bergman_norm_matches_angular_reference():
    for m in [(2, 2), (2, 3)]:
        for alpha in box((2, 2)):
            reference = float(hartogs_coeff_closed(m, alpha))
            for mj, aj in zip(m, alpha):
                integral = _angular_disc_integral(
                    lambda w: abs(w) ** (2 * aj) * (1.0 - abs(w) ** 2) ** (mj - 2))
                reference *= (mj - 1) / math.pi * integral
            assert abs(bergman_norm_check(m, alpha) - reference) <= 1e-13


def test_hardy_norm_matches_torus_reference():
    for alpha in [*box((2, 2)), (0, 0, 0), (1, 1, 1), (2, 0, 1)]:
        n = len(alpha)
        assert abs(hardy_norm_check(n, alpha) - _torus_hardy_norm(n, alpha)) <= 1e-13


def test_beta_integral_exact_up_to_gauss_degree():
    # N Gauss-Legendre nodes integrate u^l (1-u)^k exactly when l + k <= 2N - 1
    for nodes in (3, 32):
        for l in range(2 * nodes):
            for k in range(2 * nodes - l):
                numeric, closed = beta_integral_check(l, k, radial_nodes=nodes)
                assert abs(numeric - closed) <= 1e-14, (nodes, l, k)


def test_hardy_norm_basis():
    assert hardy_norm_check(2, (0, 0)) == pytest.approx(1.0, abs=1e-6)
    assert hardy_norm_check(2, (1, 2)) == pytest.approx(1.0, abs=1e-6)
    for n in (3, 4, 6):
        for alpha in [(0,) * n, (1,) * n]:
            assert hardy_norm_check(n, alpha) == pytest.approx(1.0, abs=1e-6)


def test_bergman_norm_basis():
    assert bergman_norm_check((2, 2), (0, 0)) == pytest.approx(1.0, abs=1e-3)
    assert bergman_norm_check((2, 2), (1, 1)) == pytest.approx(1.0, abs=1e-3)


def test_bergman_norm_requires_weights():
    with pytest.raises(InvalidMultiplicity):
        bergman_norm_check((1, 2), (0, 0))


def test_series_cutoff_needs_window(ctx0):
    from hartogs.errors import WindowTooSmall
    with pytest.raises(WindowTooSmall):
        kernel_series_eval(ctx0, (0.1, 0.5), (0.1, 0.5), 41)
