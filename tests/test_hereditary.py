import cmath
import math
import random

import numpy as np
import pytest

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
