"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values are frozen from independent oracles computed inline
(classic recurrences, binomial products, brute-force summation, closed-form
integrals); tolerances are the stated ones.
"""

import cmath
import math
import random
from fractions import Fraction as F

import numpy as np

from hartogs.coeff import (
    coeff_function,
    hartogs_coeff_closed,
    reciprocal_power_coeffs,
)
from hartogs.hereditary import (
    MatrixTuple,
    hereditary_eval,
    pick_verify,
    reciprocal_kernel_polynomial,
    toral_lift,
    triangle_defect_classify,
)
from hartogs.kernel import (
    bergman_norm_check,
    beta_integral_check,
    gram_psd_check,
    hardy_norm_check,
    kernel_eval,
    kernel_series_eval,
    make_context,
)
from hartogs.geometry import polydisc_radii, triangle_contains
from hartogs.polytuple import box, from_polys, hartogs_tuple, unit_index
from hartogs.shiftops import (
    build_window,
    circularity_check,
    det_commutator_and_trace,
    det_diagonal_sum,
    factorization_and_commutation_probe,
    norm_bounds,
    op_weights,
    polydisc_intertwining_check,
    spectral_radius_estimate,
)
from hartogs.subnormality import complete_monotonicity_check, hartogs_certify

P0_2 = hartogs_tuple(2)
P1_2 = hartogs_tuple(2, 1)
FIB_TUPLE = from_polys([{(1, 0): F(1), (2, 0): F(1)}, {(0, 1): F(1)}])


def _report(num, ok, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)


def random_admissible_pair(rng):
    coeffs = [F(1), F(2), F(1, 2), F(1, 3), F(3), F(5, 4)]
    polys = []
    for j in range(2):
        terms = {unit_index(2, j): rng.choice(coeffs)}
        for deg in (2, 3):
            if rng.random() < 0.6:
                terms[tuple(deg if i == j else 0 for i in range(2))] = rng.choice(coeffs)
        polys.append(terms)
    return from_polys(polys)


def _hartogs_partial_trace(m, K):
    """a_1(K) * a_2(K)^2 for the Hartogs pair, from the binomial axis coefficients.

    The axis coefficients of (1 - t)^(-m) are C(k+m-1, m-1), so the ratios are
    a(k) = C(k+m-1, m-1) / C(k+m, m-1).
    """
    a1, a2 = (F(math.comb(K + mj - 1, mj - 1), math.comb(K + mj, mj - 1)) for mj in m)
    return a1 * a2 ** 2


def phi_preimage(w):
    # inverse quotient coordinates for n = 2
    return (w[0] * w[1], w[1])


def sample_phi_bounded_points(count, seed, P, mod_range=(0.1, 0.6)):
    """Points whose quotient coordinates have moduli within mod_range
    (in particular <= 0.7), lying in the triangle of P."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        mods = [rng.uniform(*mod_range) for _ in range(2)]
        w = tuple(m * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for m in mods)
        z = phi_preimage(w)
        if triangle_contains(P, z):
            points.append(z)
    return points


# --- criterion 1 -------------------------------------------------------------

def test_criterion_01_fibonacci_oracle():
    table = reciprocal_power_coeffs({(1,): F(1), (2,): F(1)}, 1, (30,))
    expected = [F(1), F(1)]
    while len(expected) <= 30:
        expected.append(expected[-1] + expected[-2])
    ok = [table.value((l,)) for l in range(31)] == expected
    _report(1, ok, "reciprocal power coefficients of t+t^2 vs classic recurrence")
    assert ok


# --- criterion 2 -------------------------------------------------------------

def test_criterion_02_recursion_equals_oracle():
    rng = random.Random(20260810)
    coeffs = [F(1), F(2), F(1, 2), F(1, 3), F(3), F(5, 2), F(1, 4)]
    trials = 0
    all_equal = True
    while trials < 50:
        n = trials % 3 + 1
        q = {}
        for _ in range(rng.randint(1, 4)):
            alpha = tuple(rng.randint(0, 3) for _ in range(n))
            if 0 < sum(alpha) <= 3:
                q[alpha] = rng.choice(coeffs)
        if not q:
            continue
        k = rng.randint(0, 3)
        bounds = (8,) * n
        rec = reciprocal_power_coeffs(q, k, bounds, mode="recursion")
        orc = reciprocal_power_coeffs(q, k, bounds, mode="oracle")
        all_equal = all_equal and rec.values == orc.values
        trials += 1
    _report(2, all_equal, f"{trials} random tuples, exact rational equality")
    assert all_equal


# --- criterion 3 -------------------------------------------------------------

def test_criterion_03_hartogs_closed_form():
    cases = [(1, (2,)), (1, (3,)), (2, (1, 2)), (2, (3, 3)), (3, (2, 3, 1)), (3, (3, 3, 3))]
    ok = True
    for n, m in cases:
        P = hartogs_tuple(n)
        bounds = (8,) * n
        table = coeff_function(P, m, bounds)
        # the axis product, from oracle tables of 1/(1-z_j)^m_j read along axis j
        axes = [reciprocal_power_coeffs(q, mj, bounds, mode="oracle") for q, mj in zip(P.polys, m)]
        for alpha in box(bounds):
            product = math.prod(axes[j].value(tuple(a if i == j else 0 for i, a in enumerate(alpha)))
                                for j in range(n))
            ok = ok and table.value(alpha) == product == hartogs_coeff_closed(m, alpha)
    _report(3, ok, "binomial product closed form, general route and oracle axis product")
    assert ok


# --- criterion 4 -------------------------------------------------------------

def test_criterion_04_kernel_series_convergence():
    worst = 0.0
    for P, seed in ((P0_2, 41), (P1_2, 42)):
        ctx = make_context(P, (1, 1), (60, 60))
        for z in sample_phi_bounded_points(10, seed, P):
            closed = kernel_eval(ctx, z, z)
            series = kernel_series_eval(ctx, z, z, 60)
            worst = max(worst, abs(series - closed) / abs(closed))
    ok = worst <= 1e-8
    _report(4, ok, f"worst relative error at cutoff 60 = {worst:.2e} (tol 1e-8)")
    assert ok


# --- criterion 5 -------------------------------------------------------------

def test_criterion_05_norm_bounds():
    window = build_window((5, 5))
    ok = True
    rng = random.Random(55)
    tuples = [(P0_2, (1, 1)), (P1_2, (1, 2)), (FIB_TUPLE, (2, 2)),
              (random_admissible_pair(rng), (2, 1))]
    for P, m in tuples:
        wt = op_weights(P, m, window)
        for j in range(2):
            bound_sq = norm_bounds(P, m, j).upper_sq
            for alpha in window.cells:
                ok = ok and wt.mult_sq[j][alpha] <= bound_sq
    wt = op_weights(P0_2, (1, 1), window)
    unit = all(wt.mult_sq[j][alpha] == 1
               for j in range(2) for alpha in window.cells)
    ok = ok and unit
    _report(5, ok, "exact weight bound, unit weights for the Hartogs pair")
    assert ok


# --- criterion 6 -------------------------------------------------------------

def test_criterion_06_det_trace():
    rep11 = det_commutator_and_trace(P0_2, (1, 1), 998)
    unit_ok = (rep11.diagonal[(0, 0)] == 1
               and all(v == 0 for a, v in rep11.diagonal.items() if a != (0, 0))
               and rep11.partial_trace == 1 and rep11.positive)

    rep22 = det_commutator_and_trace(P0_2, (2, 2), 998)
    ratio_ok = rep22.positive and rep22.ratios(0)[:3] == [F(1, 2), F(2, 3), F(3, 4)]
    # independent oracle at a brute-force-friendly truncation: the 2-D diagonal
    # sum telescopes to the reported partial trace exactly
    small = det_commutator_and_trace(P0_2, (2, 2), 60)
    oracle_ok = det_diagonal_sum(small, 60) == small.partial_trace

    # closed form: a_1(K) * a_2(K)^2 with a_j(k) = (k+1)/(k+2), i.e. (999/1000)^3
    closed_ok = rep22.partial_trace == _hartogs_partial_trace((2, 2), 998) == F(999, 1000) ** 3
    # rate: 1 - prod(1 - x_i) <= sum x_i with every x_i = 1/(K+2); the
    # matching lower bound 3x - 3x^2 rules out convergence that is too fast
    err = 1 - rep22.partial_trace
    x = F(1, 998 + 2)
    rate_ok = 3 * x - 3 * x ** 2 <= err <= 3 * x
    # the stated 1e-3 tolerance is first reached at K=2997, not before
    near = [abs(float(det_commutator_and_trace(P0_2, (2, 2), K).partial_trace) - 1.0)
            for K in (2996, 2997)]
    tol_ok = near[0] > 1e-3 >= near[1]

    ok = unit_ok and ratio_ok and oracle_ok and closed_ok and rate_ok and tol_ok
    _report(6, ok, f"partial trace at K=998 is 1 - {err} = 1 - {float(err):.6e} "
                   f"(rate bound 3/(K+2) = {float(3 * x):.6e}); "
                   f"1e-3 first reached at K=2997 ({near[1]:.6e})")
    assert unit_ok and ratio_ok and oracle_ok
    assert closed_ok
    assert rate_ok
    assert tol_ok


def test_criterion_06_supplement_trace_converges():
    rep = det_commutator_and_trace(P0_2, (2, 2), 2999)
    assert rep.positive
    assert rep.partial_trace == F(3000, 3001) ** 3
    assert abs(float(rep.partial_trace) - 1.0) <= 1e-3


# --- criterion 7 -------------------------------------------------------------

def test_criterion_07_doubly_commuting_dichotomy():
    window = build_window((4, 4))
    probe0 = factorization_and_commutation_probe(P0_2, (1, 1), window)
    hartogs_ok = (probe0.noncommuting_witness == (1, 0)
                  and probe0.polydisc_all_zero and probe0.factorization_exact)
    probe1 = factorization_and_commutation_probe(P1_2, (2, 1), window)
    generic_ok = (probe1.noncommuting_witness is not None
                  and probe1.polydisc_all_zero and probe1.factorization_exact)
    ok = hartogs_ok and generic_ok
    _report(7, ok, "triangle commutator nonzero, polydisc commutators zero, exact")
    assert ok


# --- criterion 8 -------------------------------------------------------------

def test_criterion_08_circularity():
    window = build_window((6, 6))
    rng = random.Random(88)
    worst = 0.0
    for _ in range(20):
        theta = [rng.uniform(0, 2 * math.pi) for _ in range(2)]
        worst = max(worst, circularity_check(P1_2, (1, 2), window, theta))
    ok = worst <= 1e-12
    _report(8, ok, f"max deviation over 20 angle draws = {worst:.2e} (tol 1e-12)")
    assert ok


# --- criterion 9 -------------------------------------------------------------

def test_criterion_09_intertwining():
    window = build_window((6, 6))
    rng = random.Random(99)
    ok = True
    for _ in range(10):
        P = random_admissible_pair(rng)
        m = (rng.randint(1, 3), rng.randint(1, 3))
        rep = polydisc_intertwining_check(P, m, window)
        ok = ok and rep.ok
    _report(9, ok, "10 random admissible pairs, exact weight identity")
    assert ok


# --- criterion 10 ------------------------------------------------------------

def test_criterion_10_spectral_radius():
    rep0 = spectral_radius_estimate(P0_2, (1, 1), 0, 10, 50)
    exact_ok = rep0.estimate == 1.0

    rep = spectral_radius_estimate(FIB_TUPLE, (1, 1), 0, 30, 2000)
    target = math.sqrt((math.sqrt(5) - 1) / 2)
    radius = polydisc_radii(FIB_TUPLE)[0]
    err_target = abs(rep.estimate - target)
    err_radius = abs(rep.estimate - radius)
    ok = exact_ok and err_target <= 1e-4 and err_radius <= 1e-4
    _report(10, ok, f"golden-ratio shift estimate off by {err_target:.2e} (tol 1e-4)")
    assert ok


# --- criterion 11 ------------------------------------------------------------

def test_criterion_11_subnormality():
    ok = True
    for m in [(3,), (2, 3), (3, 3, 3)]:
        n = len(m)
        rep = hartogs_certify(m, (3,) * n, order=4, window=(2,) * n)
        ok = ok and rep.passed
    bad_report = complete_monotonicity_check(lambda beta: 2 ** beta[0], (3,), 4)
    counter_ok = (not bad_report.passed) and bad_report.witness == ((0,), (1,))
    ok = ok and counter_ok
    _report(11, ok, "certificates pass to order 4; geometric growth fails at the unit step")
    assert ok


# --- criterion 12 ------------------------------------------------------------

def test_criterion_12_hereditary():
    lower_jordan = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    u = np.diag([cmath.exp(0.4j), cmath.exp(-1.2j)])
    configs = [
        MatrixTuple((lower_jordan, np.eye(2, dtype=complex))),
        MatrixTuple((np.diag([0.3, 0.8]), u)),
        MatrixTuple((np.zeros((2, 2), dtype=complex), u, u)),
        MatrixTuple((np.diag([0.5, 0.2]), np.diag([0.9, 0.4]) @ u, np.diag([0.9, 0.4]))),
    ]
    iso_ok = all(triangle_defect_classify(T).kind == "isometry"
                 and triangle_defect_classify(T).defect_norm <= 1e-12 for T in configs)

    rng = random.Random(12)
    lift_ok = True
    for _ in range(100):
        n = rng.choice([2, 3])
        d = rng.choice([1, 2, 3])
        mats = tuple(np.diag([rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                              for _ in range(d)]) for _ in range(n))
        lifted = toral_lift(MatrixTuple(mats))
        lift_ok = lift_ok and triangle_defect_classify(lifted).kind in ("contraction", "isometry")

    poly = reciprocal_kernel_polynomial(P0_2, (1, 1))
    agree_ok = True
    for _ in range(20):
        d = rng.choice([2, 3])
        s = np.array([[rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(d)]
                      for _ in range(d)])
        s *= 0.5 / max(1.0, np.linalg.norm(s, 2))
        t1 = rng.uniform(-0.5, 0.5) * np.eye(d) + rng.uniform(-0.5, 0.5) * s @ s
        t2 = rng.uniform(0.2, 0.9) * np.eye(d) + 0.3 * s
        T = MatrixTuple((t1, t2))
        value, _ = hereditary_eval(poly, T)
        agree_ok = agree_ok and np.max(np.abs(value - triangle_defect_classify(T).defect)) <= 1e-12

    ok = iso_ok and lift_ok and agree_ok
    _report(12, ok, "isometry configs, 100 lifted diagonal contractions, calculus vs defect")
    assert ok


# --- criterion 13 ------------------------------------------------------------

def test_criterion_13_quadrature():
    beta_ok = True
    for l in range(6):
        for k in range(6):
            numeric, closed = beta_integral_check(l, k)
            beta_ok = beta_ok and abs(numeric - closed) <= 1e-6
    hardy_ok = True
    for alpha in box((4, 4)):
        if sum(alpha) <= 4:
            hardy_ok = hardy_ok and abs(hardy_norm_check(2, alpha) - 1.0) <= 1e-6
    bergman_ok = True
    for alpha in box((3, 3)):
        if sum(alpha) <= 3:
            bergman_ok = bergman_ok and abs(bergman_norm_check((2, 2), alpha) - 1.0) <= 1e-3
    ok = beta_ok and hardy_ok and bergman_ok
    _report(13, ok, "disc integrals 1e-6, Hardy norms 1e-6, Bergman norms 1e-3")
    assert ok


# --- criterion 14 ------------------------------------------------------------

def test_criterion_14_gram_psd():
    rng = random.Random(14)
    points = []
    while len(points) < 20:
        r2 = rng.uniform(0.15, 0.9)
        r1 = r2 * rng.uniform(0.0, 0.95)
        z = (r1 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
             r2 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        if triangle_contains(P0_2, z):
            points.append(z)
    ok = True
    for m in [(1, 1), (2, 2)]:
        ctx = make_context(P0_2, m, (4, 4))
        diag = max(kernel_eval(ctx, p, p).real for p in points)
        min_eig = gram_psd_check(ctx, points)
        ok = ok and min_eig >= -1e-10 * diag
    _report(14, ok, "20-point Gram matrices positive semidefinite")
    assert ok


# --- criterion 15 ------------------------------------------------------------

def test_criterion_15_pick_verification():
    lam = [(0.0, 0.5)]
    results = (
        pick_verify(lam, [0.0], np.array([[0.0]]), np.array([[4 / 3]])),
        pick_verify(lam, [1.0], np.array([[0.0]]), np.array([[4 / 3]])),
        pick_verify(lam, [0.0], np.array([[-1.0]]), np.array([[5 / 3]])),
    )
    ok = results == (True, False, False)
    _report(15, ok, f"certificate verdicts {results} (expected (True, False, False))")
    assert ok
