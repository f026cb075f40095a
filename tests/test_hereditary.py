import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import hereditary
from hartogs.errors import (
    DuplicatePoints,
    MalformedInput,
    NonCommuting,
    NotHereditaryPolynomial,
    PointOutsideDomain,
)
from hartogs.hereditary import (
    MatrixTuple,
    _opnorm,
    hereditary_eval,
    matrix_from_json,
    ordering_check,
    pick_verify,
    reciprocal_kernel_polynomial,
    toral_lift,
    triangle_defect_classify,
)
from hartogs.polytuple import from_polys, hartogs_tuple

LOWER_JORDAN = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def random_commuting_pair(rng, d=3, scale=0.5):
    # polynomials in one matrix commute
    s = np.array([[rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(d)]
                  for _ in range(d)])
    s *= scale / max(1.0, np.linalg.norm(s, 2))
    c0, c1 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    t1 = c0 * np.eye(d) + c1 * s @ s
    t2 = np.eye(d) * rng.uniform(0.2, 0.9) + 0.3 * s
    return MatrixTuple((t1, t2))


def test_matrix_tuple_rejects_noncommuting():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[1, 0], [0, 2]], dtype=complex)
    with pytest.raises(NonCommuting):
        MatrixTuple((a, b))


def test_matrix_tuple_rejects_overflowing_entries():
    # finite entries whose commutator, or whose operator norm, leaves the float range
    big = np.array([[1e300]], dtype=complex)
    with pytest.raises(MalformedInput):
        MatrixTuple((big, big))
    with pytest.raises(MalformedInput):
        MatrixTuple((np.full((2, 2), 1e308, dtype=complex),))


def test_defect_and_ordering_reject_overflowing_products():
    # commutators stay finite, but the products T*T of the defect and the chain overflow
    def scalars(*xs):
        return MatrixTuple(tuple(np.array([[x]], dtype=complex) for x in xs))

    # T*T = a^2 * ones(3) is finite, but its eigenvalue 3a^2 is not
    row = np.zeros((3, 3), dtype=complex)
    row[0] = 0.894e154
    rank_one = MatrixTuple((row, np.zeros((3, 3), dtype=complex)))
    for T in (scalars(1e160, 1e140), scalars(1e80, 1e79, 1e78), toral_lift(scalars(1e100, 1e100)),
              rank_one):
        with pytest.raises(MalformedInput):
            triangle_defect_classify(T)
    for T in (scalars(1e160, 1e140), scalars(1e200), rank_one):
        with pytest.raises(MalformedInput):
            ordering_check(T)


def test_classify_with_squared_norm_beyond_float_range():
    # T*T = [[a^2, a^2], [a^2, a^2]] is finite, but ||T||^2 = 2a^2 is not
    a = 1e154
    T = np.array([[a, a], [0, 0]], dtype=complex)
    assert triangle_defect_classify(MatrixTuple((T, T))).kind == "isometry"


def test_reciprocal_polynomial_hartogs_pair():
    p = reciprocal_kernel_polynomial(hartogs_tuple(2), (1, 1))
    expected = {
        ((0, 1), (0, 1)): 1 + 0j,
        ((1, 0), (1, 0)): -1 + 0j,
        ((0, 2), (0, 2)): -1 + 0j,
        ((1, 1), (1, 1)): 1 + 0j,
    }
    assert p.terms == expected


def test_reciprocal_polynomial_a1_extra_terms():
    p = reciprocal_kernel_polynomial(hartogs_tuple(2, 1), (1, 1))
    expected = {
        ((0, 1), (0, 1)): 1 + 0j,
        ((1, 0), (1, 0)): -1 + 0j,
        ((0, 2), (0, 2)): -1 + 0j,
        ((1, 1), (1, 1)): -1 + 0j,
        ((2, 0), (2, 0)): 1 + 0j,
        ((1, 2), (1, 2)): 1 + 0j,
        ((2, 1), (2, 1)): 1 + 0j,
    }
    assert p.terms == expected


def test_reciprocal_polynomial_rejects_heavy_multiplicity():
    with pytest.raises(NotHereditaryPolynomial):
        reciprocal_kernel_polynomial(hartogs_tuple(2), (2, 1))


def test_reciprocal_polynomial_allows_last_multiplicity():
    p = reciprocal_kernel_polynomial(hartogs_tuple(2), (1, 3))
    assert all(all(x >= 0 for x in alpha) for alpha, _ in p.terms)


def test_reciprocal_polynomial_rejects_other_tuples():
    from fractions import Fraction as F
    P = from_polys([{(1, 0): F(1), (2, 0): F(1)}, {(0, 1): F(1)}])
    with pytest.raises(NotHereditaryPolynomial):
        reciprocal_kernel_polynomial(P, (1, 1))


@pytest.mark.parametrize("exponent", [-400, 400], ids=["tiny", "huge"])
def test_reciprocal_polynomial_coefficient_without_a_float_raises_malformed_input(exponent):
    # complex() of the exact coefficient read 10^-400 as 0j and raised OverflowError on 10^400.
    from fractions import Fraction as F
    with pytest.raises(MalformedInput, match="a cleared kernel coefficient has no float value"):
        reciprocal_kernel_polynomial(hartogs_tuple(2, F(10) ** exponent), (1, 1))


def test_hereditary_eval_jordan_cell():
    p = reciprocal_kernel_polynomial(hartogs_tuple(2), (1, 1))
    T = MatrixTuple((np.zeros((2, 2), dtype=complex), LOWER_JORDAN))
    value, asym = hereditary_eval(p, T)
    assert asym < 1e-14
    assert np.allclose(value, np.diag([1.0, 0.0]))
    rep = triangle_defect_classify(T)
    assert rep.kind == "contraction"


def test_hereditary_eval_isometry_when_last_is_identity():
    p = reciprocal_kernel_polynomial(hartogs_tuple(2), (1, 1))
    T = MatrixTuple((LOWER_JORDAN, np.eye(2, dtype=complex)))
    value, _ = hereditary_eval(p, T)
    assert np.allclose(value, 0.0)
    assert triangle_defect_classify(T).kind == "isometry"


def test_hereditary_eval_zero_polynomial():
    from hartogs.hereditary import HereditaryPoly
    T = MatrixTuple((np.diag([0.3]), np.diag([0.5])))
    value, asym = hereditary_eval(HereditaryPoly(2, {}), T)
    assert value.shape == (1, 1) and value[0, 0] == 0 and asym == 0


def test_eval_agrees_with_defect_recursion():
    p = reciprocal_kernel_polynomial(hartogs_tuple(2), (1, 1))
    rng = random.Random(42)
    for _ in range(15):
        T = random_commuting_pair(rng)
        value, _ = hereditary_eval(p, T)
        rep = triangle_defect_classify(T)
        assert np.max(np.abs(value - rep.defect)) < 1e-12


def test_defect_phase_invariance():
    rng = random.Random(7)
    for _ in range(10):
        T = random_commuting_pair(rng)
        theta = [rng.uniform(0, 2 * math.pi) for _ in range(2)]
        rotated = MatrixTuple(tuple(cmath.exp(1j * t) * m
                                    for t, m in zip(theta, T.matrices)))
        a = triangle_defect_classify(T).defect
        b = triangle_defect_classify(rotated).defect
        assert np.max(np.abs(a - b)) < 1e-12


def test_defect_scalar_contraction():
    T = MatrixTuple((np.diag([0.1]), np.diag([0.5])))
    rep = triangle_defect_classify(T)
    assert rep.kind == "contraction"
    # 0.25*0.24 <= 0.24 with slack
    assert rep.defect[0, 0] == pytest.approx(0.24 * 0.75)


def test_defect_three_variables_isometry():
    u = np.diag([cmath.exp(1j * 0.3), cmath.exp(-1j * 1.1)])
    T = MatrixTuple((np.zeros((2, 2), dtype=complex), u, u))
    rep = triangle_defect_classify(T)
    assert rep.kind == "isometry" and rep.defect_norm <= 1e-12


def test_diagonal_classification_matches_scalar_inequalities():
    # for diagonal tuples the defect diagonalizes over joint eigenvalues
    rng = random.Random(11)
    for _ in range(20):
        lam1 = rng.uniform(0, 1.2)
        lam2 = rng.uniform(0.05, 1.0)
        T = MatrixTuple((np.diag([lam1]), np.diag([lam2])))
        rep = triangle_defect_classify(T, tol=1e-12)
        d = lam2 ** 2 - lam1 ** 2
        scalar_defect = d * (1 - lam2 ** 2)
        assert rep.defect[0, 0] == pytest.approx(scalar_defect)
        if scalar_defect < -1e-9:
            assert rep.kind == "neither"


def test_toral_lift_products():
    T = MatrixTuple((np.diag([0.5]), np.diag([0.8])))
    lifted = toral_lift(T)
    assert lifted.matrices[0][0, 0] == pytest.approx(0.4)
    assert lifted.matrices[1][0, 0] == pytest.approx(0.8)
    assert triangle_defect_classify(lifted).kind in ("contraction", "isometry")


def test_toral_lift_identity_tuple():
    T = MatrixTuple((np.eye(3),) * 3)
    lifted = toral_lift(T)
    assert all(np.allclose(m, np.eye(3)) for m in lifted.matrices)
    assert triangle_defect_classify(lifted).kind == "isometry"


def test_toral_lift_random_diagonal_contractions():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.choice([2, 3])
        d = rng.choice([1, 2, 3])
        mats = tuple(np.diag([rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                              for _ in range(d)]) for _ in range(n))
        lifted = toral_lift(MatrixTuple(mats))
        assert triangle_defect_classify(lifted).kind in ("contraction", "isometry")


def test_ordering_check_examples():
    good = ordering_check(MatrixTuple((np.diag([0.1]), np.diag([0.5]))))
    assert good.chain_holds and good.spectrum_checked and good.spectrum_in_triangle
    bad = ordering_check(MatrixTuple((np.diag([0.5]), np.diag([0.1]))))
    assert not bad.chain_holds
    out = ordering_check(MatrixTuple((np.diag([0.5]), np.diag([1.0]))))
    assert out.spectrum_checked and not out.spectrum_in_triangle


def test_ordering_check_unverified_spectrum():
    s = np.array([[0.2, 0.1], [0.1, 0.2]], dtype=complex)
    T = MatrixTuple((s, np.eye(2, dtype=complex) * 0.9))
    rep = ordering_check(T)
    assert not rep.spectrum_checked and rep.spectrum_in_triangle is None


def test_ordering_check_scales_the_triangle_test_by_the_stored_norms(monkeypatch):
    # The strictly lower entry 2e-10 passes as 0 only against the norm 3 of
    # its matrix, which ordering_check reads off T.norms: no SVD runs again.
    m = np.array([[3.0, 0.0], [2e-10, 1.0]], dtype=complex)
    T = MatrixTuple((m,))
    assert T.norms[0] == _opnorm(m) > 2

    def refuse(m):
        raise AssertionError("a norm was computed again")

    monkeypatch.setattr(hereditary, "_opnorm", refuse)
    rep = ordering_check(T)
    assert rep.spectrum_checked and not rep.spectrum_in_triangle and not rep.chain_holds


def test_pick_verify_certificate_examples():
    lam = [(0.0, 0.5)]
    assert pick_verify(lam, [0.0], np.array([[0.0]]), np.array([[4 / 3]]))
    assert not pick_verify(lam, [1.0], np.array([[0.0]]), np.array([[4 / 3]]))
    assert not pick_verify(lam, [0.0], np.array([[-1.0]]), np.array([[5 / 3]]))


def test_pick_verify_rejects_bad_nodes():
    with pytest.raises(DuplicatePoints):
        pick_verify([(0.0, 0.5), (0.0, 0.5)], [0.0, 0.0],
                    np.zeros((2, 2)), np.eye(2))
    with pytest.raises(PointOutsideDomain):
        pick_verify([(0.7, 0.5)], [0.0], np.zeros((1, 1)), np.eye(1))


def test_pick_verify_two_point_certificate():
    # interpolate psi(z) = z_2 at two nodes: 1 - conj(w2) v2 = (1 - conj(w2) v2) * 1
    lam = [(0.0, 0.3), (0.1, 0.6)]
    targets = [0.3, 0.6]
    a1 = np.zeros((2, 2))
    a2 = np.ones((2, 2))
    assert pick_verify(lam, targets, a1, a2)


def test_matrix_from_json():
    m = matrix_from_json([[[0, 0], [1, -1]], [[2, 0], [0, 0]]])
    assert m[0, 1] == 1 - 1j and m[1, 0] == 2


def test_eval_agrees_with_defect_recursion_three_variables():
    p = reciprocal_kernel_polynomial(hartogs_tuple(3), (1, 1, 1))
    rng = random.Random(33)
    for _ in range(5):
        d = 3
        s = np.array([[rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1) for _ in range(d)]
                      for _ in range(d)])
        s *= 0.4 / max(1.0, np.linalg.norm(s, 2))
        T = MatrixTuple((0.3 * np.eye(d) + 0.2 * s @ s,
                         0.5 * np.eye(d) + 0.3 * s,
                         0.8 * np.eye(d) + 0.1 * s))
        value, _ = hereditary_eval(p, T)
        assert np.max(np.abs(value - triangle_defect_classify(T).defect)) < 1e-12


def test_reciprocal_polynomial_three_variable_family_clears():
    p = reciprocal_kernel_polynomial(hartogs_tuple(3, 1), (1, 1, 2))
    assert all(all(x >= 0 for x in alpha) for alpha, _ in p.terms)


def test_opnorm_is_the_two_norm_to_the_bit():
    rng = np.random.default_rng(7)
    matrices = [np.zeros((3, 3), dtype=complex), np.zeros((1, 1), dtype=complex)]
    for d in range(1, 7):
        for scale in (1.0, 1e150):
            for _ in range(5):
                matrices.append(scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    for a in matrices:
        assert _opnorm(a) == float(np.linalg.norm(a, 2))


def test_matrix_tuple_keeps_its_norms():
    rng = random.Random(3)
    T = random_commuting_pair(rng)
    assert T.norms == tuple(float(np.linalg.norm(m, 2)) for m in T.matrices)
    assert T.max_norm == max(T.norms)
    lifted = toral_lift(T)
    assert lifted.norms == tuple(_opnorm(m) for m in lifted.matrices)


def _polynomial_tuple(rng, n, d, scale):
    """n polynomials in one random d x d matrix of norm about scale: a commuting tuple."""
    s = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return [c0 * np.eye(d) + c1 * s + c2 * (s @ s) / scale for c0, c1, c2 in rng.uniform(-1, 1, (n, 3))]


def test_stacked_norms_are_the_opnorms_to_the_bit():
    rng = np.random.default_rng(11)
    for n, d in itertools.product(range(1, 4), range(1, 6)):
        for scale in (1e-150, 1.0, 1e150):
            for _ in range(8):
                T = MatrixTuple(tuple(_polynomial_tuple(rng, n, d, scale)), tolerance=1.0)
                assert T.norms == tuple(_opnorm(m) for m in T.matrices)


def _counting_opnorm(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a)
        return _opnorm(a)

    monkeypatch.setattr(hereditary, "_opnorm", counting)
    return calls


def _diagonal_commutator_pair(x):
    """Two matrices of norms x and 1 whose commutator is diag(x, -x): spectral
    norm x, Frobenius norm sqrt(2) x."""
    return (np.array([[0, x], [0, 0]], dtype=complex), np.array([[0, 0], [1, 0]], dtype=complex))


def _frobenius(pair):
    a, b = pair
    commutator = a @ b - b @ a
    return math.sqrt(np.vdot(commutator, commutator).real)


def test_commutator_just_above_half_the_bound_takes_the_svd_and_passes(monkeypatch):
    # Both norms are at most 1, so the bound is the tolerance.  At the last x whose
    # Frobenius norm is within half of it no SVD runs; at the next float one does,
    # and the spectral norm, about 0.35 of the bound, passes.
    tol = 1e-12
    below = 0.5 * tol / math.sqrt(2.0)
    while _frobenius(_diagonal_commutator_pair(below)) > 0.5 * tol:
        below = math.nextafter(below, 0.0)
    while _frobenius(_diagonal_commutator_pair(math.nextafter(below, 1.0))) <= 0.5 * tol:
        below = math.nextafter(below, 1.0)
    calls = _counting_opnorm(monkeypatch)
    for x, svds in ((below, 0), (math.nextafter(below, 1.0), 1)):
        calls.clear()
        T = MatrixTuple(_diagonal_commutator_pair(x), tolerance=tol)
        assert len(calls) == svds
        assert T.norms == (x, 1.0)
    assert _opnorm(calls[0]) == pytest.approx(0.5 / math.sqrt(2.0) * tol, rel=1e-12)


def test_commutator_above_the_bound_reports_the_svd_residual():
    # T_1 = T_0^2 commutes with T_0; T_2 commutes with neither, and (0, 2) is the first pair.
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        t0, t2 = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2))
        residual = _opnorm(t0 @ t2 - t2 @ t0)
        with pytest.raises(NonCommuting) as raised:
            MatrixTuple((t0, t0 @ t0, t2))
        assert str(raised.value) == f"matrices 0 and 2 do not commute (residual {residual:.3e})"


@pytest.mark.parametrize("tol, verdict", [(0.0, False), (1e-171, False), (1e-160, True), (1e-12, True)])
def test_commutator_whose_squares_underflow_is_judged_by_its_svd(tol, verdict):
    # The commutator diag(1e-170, -1e-170) has a Frobenius norm of 0.0 in floats,
    # so a bound below 2^-498 takes the SVD, which sees the residual 1e-170.
    pair = _diagonal_commutator_pair(1e-85)
    pair = (pair[0], 1e-85 * pair[1])
    assert _frobenius(pair) == 0.0
    if verdict:
        MatrixTuple(pair, tolerance=tol)
    else:
        with pytest.raises(NonCommuting, match=r"residual 1\.000e-170"):
            MatrixTuple(pair, tolerance=tol)


def _chain_tuple(first, third):
    """T_0 with first in row 0 over the first three columns, T_1 = 0, and T_2 with
    third at (3, 3): the products across the pairs are 0, so the tuple commutes."""
    t0, t1, t2 = (np.zeros((4, 4), dtype=complex) for _ in range(3))
    t0[0, :3], t2[3, 3] = first, third
    return MatrixTuple((t0, t1, t2))


@pytest.mark.parametrize("first, third, message", [
    # Difference 1 is finite with an eigenvalue below -1.8e308, and difference 2 overflows.
    (8.9e153, 1e200, "margin 1"),
    (8.9e153, 0.5, "margin 1"),
    (0.1, 1e200, "difference 2 of the chain"),
])
def test_ordering_check_raises_for_the_first_failure_along_the_chain(first, third, message):
    with pytest.raises(MalformedInput, match=f"^{message} overflows the float range$"):
        ordering_check(_chain_tuple(first, third))


PICK_NODES = [(0.1, 0.5), (0.2, -0.9)]
PICK_OFF = np.array([[0, 1e308], [1e308, 0]], dtype=complex)


def test_pick_identity_false_before_a_later_overflow():
    # The target 1.2e154 fails the identity at (0, 0); (0, 1) overflows later.
    assert pick_verify(PICK_NODES, [1.2e154, 0.3], -PICK_OFF, PICK_OFF, tol=1e308) is False


def test_pick_identity_overflow_before_a_later_false():
    # (0, 1) overflows: 0.47e308 + 1.45e308; the target 1.2e154 would fail (1, 1) later.
    with pytest.raises(MalformedInput, match="^the certificate identity overflows the float range$"):
        pick_verify(PICK_NODES, [0.3, 1.2e154], -PICK_OFF, PICK_OFF, tol=1e308)


def test_pick_identity_difference_whose_modulus_overflows_is_false():
    # lhs - rhs is about -1.44e308 - 1.6e308j: finite parts, a modulus beyond the
    # float range.  numpy's abs gave inf there, and inf > tol.
    a = np.array([[1.6e308j]])
    assert pick_verify([(0.01, 0.5)], [1.2e154], a, a, tol=1e300) is False


def _float_key(z):
    return [(math.isnan(v), 0.0 if math.isnan(v) else v, math.copysign(1.0, v)) for v in (z.real, z.imag)]


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.complex_numbers(allow_nan=False), min_size=4, max_size=4))
def test_identity_terms_in_python_complex_round_as_numpy_scalars(values):
    cross2, cross1, x1, x2 = values
    with np.errstate(over="ignore", invalid="ignore"):
        want = (cross2 - cross1) * np.complex128(x1) + (1.0 - cross2) * np.complex128(x2)
    assert _float_key((cross2 - cross1) * x1 + (1.0 - cross2) * x2) == _float_key(want)
