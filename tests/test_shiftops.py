import cmath
import itertools
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import cli, shiftops
from hartogs.errors import EmptyWindow, MalformedInput, NotAdmissible, WrongDimension
from hartogs.coeff import coeff_function, reciprocal_power_coeffs
from hartogs.polytuple import (
    _box_walk,
    _offset,
    _strides,
    _to_float,
    add_index,
    box,
    from_polys,
    hartogs_tuple,
    index_leq,
    serialize,
    sub_index,
    tail_index,
    tilde_restrictions,
    unit_index,
)
from hartogs.shiftops import (
    WeightTable,
    build_window,
    det_commutator_and_trace,
    det_diagonal_sum,
    factorization_and_commutation_probe,
    norm_bounds,
    op_weights,
    polydisc_intertwining_check,
    spectral_radius_estimate,
)


def fib_tuple():
    # first restriction is t + t^2, second is plain t; admissible
    return from_polys([{(1, 0): F(1), (2, 0): F(1)}, {(0, 1): F(1)}])


def random_admissible_pair(rng):
    coeffs = [F(1), F(2), F(1, 2), F(1, 3), F(3)]
    polys = []
    for j in range(2):
        terms = {unit_index(2, j): rng.choice(coeffs)}
        for deg in (2, 3):
            if rng.random() < 0.6:
                key = tuple(deg if i == j else 0 for i in range(2))
                terms[key] = rng.choice(coeffs)
        polys.append(terms)
    return from_polys(polys)


def inside(window, alpha, increment):
    """True when alpha + increment stays inside the window."""
    return index_leq(add_index(alpha, increment), window.bounds)


def adjoint_weight_sq(wt, j, alpha):
    """The squared weight of the adjoint of z_j at alpha: mult_sq[j][alpha - tail_j],
    or 0 when alpha - tail_j leaves the lattice."""
    beta = sub_index(alpha, tail_index(wt.P.n, j))
    return wt.mult_sq[j][beta] if min(beta) >= 0 else F(0)


def scaled_cell(wt, alpha):
    """B(alpha) of the table, read by the cell's own offset; 0 in the pad below the lattice."""
    return wt.B[wt._table.offset(alpha)]


def hypo_diagonal(wt, j):
    """Diagonal of the self-commutator of multiplication by z_j over the table's
    window: mult_sq[j][alpha] - (adjoint weight at alpha), one Fraction per cell
    d^(n-j) (B(alpha)^2 - B(alpha - tail_j) B(alpha + tail_j)) / (B(alpha) B(alpha + tail_j)),
    as the weights command's hypo_diag."""
    n = wt.P.n
    tail, scale = tail_index(n, j), wt.d ** (n - j)

    def entry(alpha):
        b, up = scaled_cell(wt, alpha), scaled_cell(wt, add_index(alpha, tail))
        return F(scale * (b * b - scaled_cell(wt, sub_index(alpha, tail)) * up), b * up)

    return {alpha: entry(alpha) for alpha in wt.window.cells}


def univariate_coeffs(p, k, kmax):
    """Coefficients of 1/(1-p(t))^k up to degree kmax, for univariate p, as Fractions."""
    return list(reciprocal_power_coeffs({(e,): F(c) for e, c in p.items()}, k, (kmax,)).values)


def mult_matrix(wt, j):
    """Truncated matrix of multiplication by z_j over the window enumeration,
    its entries the float square roots of the quotient columns of wt.quotients;
    a column whose image leaves the window is zero.  Its transpose is the
    adjoint matrix, entry for entry."""
    window, tail = wt.window, tail_index(wt.P.n, j)
    cells = [alpha for alpha in window.cells if inside(window, alpha, tail)]
    out = np.zeros((window.size, window.size))
    for alpha, num, den in zip(cells, *wt.quotients(wt.walk(tail), *wt.mult_steps[j])):
        row, col = _offset(add_index(alpha, tail), window.bounds), _offset(alpha, window.bounds)
        out[row, col] = math.sqrt(_to_float(num, "a squared weight", den))
    return out


def test_build_window_size_and_cells():
    w = build_window((2, 2))
    assert w.size == 9
    assert w.cells[0] == (0, 0) and w.cells[-1] == (2, 2)


def test_build_window_rejects_bad_bounds():
    with pytest.raises(EmptyWindow):
        build_window((2, -1))
    with pytest.raises(EmptyWindow):
        build_window(())


def test_window_enumeration_stable():
    assert build_window((1, 2)).cells == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    w = build_window((3, 3))
    assert all(_offset(c, w.bounds) == i for i, c in enumerate(w.cells))


def test_hartogs_unit_weights():
    wt = op_weights(hartogs_tuple(3), (1, 1, 1), build_window((3, 3, 3)))
    for alpha in wt.window.cells:
        for j in range(3):
            assert wt.mult_sq[j][alpha] == 1
            assert wt.shift_sq[j][alpha] == 1


def test_weight_example_m12():
    wt = op_weights(hartogs_tuple(2), (1, 2), build_window((4, 4)))
    for alpha in wt.window.cells:
        assert wt.mult_sq[1][alpha] == F(alpha[1] + 1, alpha[1] + 2)
    assert wt.mult_sq[1][(0, 0)] == F(1, 2)


def test_adjoint_vanishes_on_bottom_row():
    wt = op_weights(hartogs_tuple(2, 1), (2, 1), build_window((4, 4)))
    for j in range(2):
        adjoint = mult_matrix(wt, j).T
        for alpha in wt.window.cells:
            if alpha[1] == 0:
                assert adjoint_weight_sq(wt, j, alpha) == 0
                assert not adjoint[:, _offset(alpha, wt.window.bounds)].any()


def test_adjoint_weight_agrees_with_a_larger_window():
    # A table over a larger window gives the same adjoint weights on the
    # smaller one; a cell whose tail step back leaves the lattice reads 0.
    P, m = hartogs_tuple(2, 1), (1, 2)
    wt, larger = op_weights(P, m, build_window((3, 3))), op_weights(P, m, build_window((6, 6)))
    assert adjoint_weight_sq(larger, 0, (5, 5)) == F(35, 109)
    for j in range(2):
        assert adjoint_weight_sq(wt, j, (3, 0)) == adjoint_weight_sq(larger, j, (3, 0)) == 0
        assert adjoint_weight_sq(wt, j, (3, 3)) == adjoint_weight_sq(larger, j, (3, 3))


@pytest.mark.parametrize("P, pad", [(hartogs_tuple(2, 1), (1, 1)), (fib_tuple(), (2, 1))],
                         ids=["pad-1", "pad-2"])
def test_weight_table_reads_the_coefficient_table_in_place(P, pad, monkeypatch):
    # The weight table keeps the list coeff_function filled, with its per-axis
    # pad, and reaches cells through that table's offset rule: no copy.
    tables = []

    def capture(*args):
        tables.append(coeff_function(*args))
        return tables[-1]

    monkeypatch.setattr(shiftops, "coeff_function", capture)
    window = build_window((3, 2))
    wt = WeightTable(P, (2, 1), window)
    [table] = tables
    assert table.pad == pad
    assert wt.B is table.B
    assert wt.walk() == table.walk(window.bounds)
    assert [wt._cell(off) for off in wt.walk()] == list(window.cells)


def scaled_triple():
    # c_j z_j with rational c_j: d = 12, so every weight carries a power d^(n-j)
    return from_polys([{(1, 0, 0): F(4, 3)}, {(0, 1, 0): F(3, 2)}, {(0, 0, 1): F(5, 4)}])


# d = 1 for the first four, d = 3 for hartogs_tuple(2, 2/3) and 12 for the last
WEIGHT_TUPLES = [hartogs_tuple(2), hartogs_tuple(2, 1), fib_tuple(), hartogs_tuple(3, 1),
                 hartogs_tuple(2, F(2, 3)), scaled_triple()]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_weights_are_exact_ratios_of_a_passed_table(data):
    P = data.draw(st.sampled_from(WEIGHT_TUPLES))
    n = P.n
    m = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="m"))
    bounds = tuple(data.draw(st.lists(st.integers(0, 5 - n), min_size=n, max_size=n), label="window"))
    window = build_window(bounds)
    wt = WeightTable(P, m, window)
    A = coeff_function(P, m, tuple(b + 1 for b in bounds)).value
    for j in range(n):
        tail = tail_index(n, j)
        diagonal = hypo_diagonal(wt, j)
        assert set(wt.mult_sq[j]) == set(wt.shift_sq[j]) == set(window.cells)
        adjoint = np.zeros((window.size, window.size))
        for col, alpha in enumerate(window.cells):
            assert wt.mult_sq[j][alpha] == A(alpha) / A(add_index(alpha, tail))
            assert wt.shift_sq[j][alpha] == A(alpha) / A(add_index(alpha, unit_index(n, j)))
            beta = sub_index(alpha, tail)
            if min(beta) < 0:
                assert adjoint_weight_sq(wt, j, alpha) == 0
                assert diagonal[alpha] == A(alpha) / A(add_index(alpha, tail))
            else:
                assert adjoint_weight_sq(wt, j, alpha) == A(beta) / A(alpha)
                assert diagonal[alpha] == A(alpha) / A(add_index(alpha, tail)) - A(beta) / A(alpha)
                adjoint[_offset(beta, window.bounds), col] = math.sqrt(float(A(beta) / A(alpha)))
        assert np.array_equal(mult_matrix(wt, j).T, adjoint)


def fraction_route_weights(P, m, bounds):
    """The rows (omega, sigma, hypo_diag) of the weights report by the route of
    reduced Fractions: the whole table reduced, one Fraction division per
    weight, and the diagonal as the difference of two of them."""
    n = P.n
    table = coeff_function(P, m, tuple(b + 1 for b in bounds))
    values = dict(zip(box(table.bounds), table.values))
    rows = {}
    for alpha in box(bounds):
        for j in range(n):
            tail = tail_index(n, j)
            mult = values[alpha] / values[add_index(alpha, tail)]
            shift = values[alpha] / values[add_index(alpha, unit_index(n, j))]
            beta = sub_index(alpha, tail)
            below = values[beta] / values[alpha] if min(beta) >= 0 else F(0)
            rows[alpha, j + 1] = (math.sqrt(float(mult)), math.sqrt(float(shift)), str(mult - below))
    return rows


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_weights_report_equals_the_fraction_route(data):
    # Int true division rounds correctly, as float() of a Fraction does, so the
    # floats agree to the bit; the diagonal is the same reduced rational.
    P = data.draw(st.sampled_from(WEIGHT_TUPLES))
    n = P.n
    m = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n), label="m")
    bounds = data.draw(st.lists(st.integers(0, 5 - n), min_size=n, max_size=n), label="window")
    code, rendered = cli.run({"command": "weights", "poly_tuple": serialize(P), "m": m, "window": bounds})
    assert code == 0
    rows = {(tuple(e["alpha"]), e["j"]): (e["omega"], e["sigma"], e["hypo_diag"])
            for e in json.loads(rendered)["weights"]}
    assert rows == fraction_route_weights(P, m, tuple(bounds))


def test_mult_matrices_zero_diagonal_and_graded():
    wt = op_weights(hartogs_tuple(2, 1), (1, 2), build_window((3, 3)))
    for j in range(2):
        mat = mult_matrix(wt, j)
        assert np.all(np.diag(mat) == 0)
        assert np.all(mat >= 0)


def test_truncated_matrices_commute_on_inner_cells():
    P = hartogs_tuple(2, 2)
    wt = op_weights(P, (2, 1), build_window((5, 5)))
    for j in range(2):
        for k in range(2):
            step = tuple(x + y for x, y in zip(tail_index(2, j), tail_index(2, k)))
            for alpha in wt.window.cells:
                if not inside(wt.window, alpha, step):
                    continue
                jk = wt.mult_sq[k][alpha] * wt.mult_sq[j][add_index(alpha, tail_index(2, k))]
                kj = wt.mult_sq[j][alpha] * wt.mult_sq[k][add_index(alpha, tail_index(2, j))]
                assert jk == kj


def test_norm_bounds_hartogs():
    nb = norm_bounds(hartogs_tuple(2), (1, 1), 0)
    assert nb.lower == nb.upper == 1.0 and nb.exact
    nb = norm_bounds(hartogs_tuple(2), (2, 2), 0)
    assert nb.lower == pytest.approx(0.5) and nb.upper == 1.0 and not nb.exact


def test_norm_bounds_scaled():
    P = from_polys([{(1, 0): F(4)}, {(0, 1): F(1)}])
    assert norm_bounds(P, (1, 1), 0).upper == pytest.approx(0.5)
    assert norm_bounds(P, (1, 1), 1).upper == pytest.approx(1.0)


def test_norm_bounds_requires_n_admissible():
    assert norm_bounds(hartogs_tuple(2, 1), (1, 1), 0).lower is None


@pytest.mark.parametrize("m, j", [((2,), 0), ((2, 2, 2), 0), ((0, 1), 0), ((1, 1), -1), ((1, 1), 2)])
def test_norm_bounds_rejects_bad_arguments(m, j):
    # a short m must not give a lower bound, nor j = -1 the bounds of z_n
    with pytest.raises(ValueError):
        norm_bounds(hartogs_tuple(2), m, j)


def test_weights_below_upper_bound_exactly():
    for P, m in [(hartogs_tuple(2, 3), (1, 2)), (fib_tuple(), (2, 2))]:
        wt = op_weights(P, m, build_window((4, 4)))
        for j in range(2):
            bound = norm_bounds(P, m, j).upper_sq
            for alpha in wt.window.cells:
                assert wt.mult_sq[j][alpha] <= bound


def test_probe_hartogs_dichotomy():
    probe = factorization_and_commutation_probe(hartogs_tuple(2), (1, 1), build_window((4, 4)))
    assert probe.factorization_exact
    assert probe.noncommuting_witness == (1, 0)
    assert probe.polydisc_all_zero
    assert probe.ok


def test_probe_three_variables():
    probe = factorization_and_commutation_probe(hartogs_tuple(3, 1), (1, 2, 1), build_window((2, 2, 2)))
    assert probe.factorization_exact
    assert probe.noncommuting_witness is not None
    assert probe.polydisc_all_zero


# The first cells of the row-major scan have a zero entry where tail_{n-1}
# needs a one, so both orders of S_n and the adjoint of z_{n-1} leave the
# lattice there.  The first cell where exactly one order stays on it is
# (1, 0) for n = 2 and (0, 1, 0) for n = 3: there the adjoint after the
# shift lands on the origin, and the other order has no cell to start from.
# The polydisc counterpart's table factors, so its commutators all vanish.
@pytest.mark.parametrize("P, m, bounds, witness", [
    (from_polys([{(1, 0): F(1, 2), (2, 0): F(1)}, {(0, 1): F(3), (0, 3): F(1)}]), (2, 3), (3, 3), (1, 0)),
    (hartogs_tuple(2, 1), (2, 1), (3, 2), (1, 0)),
    (from_polys([{(1, 0): F(1, 2), (1, 1): F(2)}, {(0, 1): F(3), (0, 3): F(1)}]), (1, 3), (2, 3), (1, 0)),
    (hartogs_tuple(3), (1, 2, 1), (2, 2, 2), (0, 1, 0)),
    (hartogs_tuple(3, 1), (2, 1, 1), (1, 2, 2), (0, 1, 0)),
    (from_polys([{(1, 0, 0): F(1), (0, 2, 0): F(1, 3)}, {(0, 1, 0): F(2)}, {(0, 0, 1): F(1)}]),
     (1, 1, 2), (2, 1, 2), (0, 1, 0)),
], ids=["admissible-2", "mixed-2", "mixed-pure-2", "hartogs-3", "mixed-3", "mixed-pure-3"])
def test_probe_verdicts_match_hand_computed(P, m, bounds, witness):
    probe = factorization_and_commutation_probe(P, m, build_window(bounds))
    assert probe.factorization_exact
    assert probe.noncommuting_witness == witness
    assert probe.polydisc_all_zero
    assert probe.ok


def oracle_commutator_witness(window, a_sq, a, b_sq, b):
    """The tuple scan of the commutator identity over Fraction squares: the
    first interior cell alpha (alpha + a in the window) at which
    a_sq[alpha] b_sq[alpha + a - b] != b_sq[alpha - b] a_sq[alpha - b], where
    a cell off the lattice reads 0."""
    zero = F(0)
    for alpha in window.cells:
        if not inside(window, alpha, a):
            continue
        down = sub_index(alpha, b)
        if a_sq[alpha] * b_sq.get(add_index(down, a), zero) != b_sq.get(down, zero) * a_sq.get(down, zero):
            return alpha
    return None


def oracle_telescoping_mismatches(wt, window, step_sq):
    """The tuple scan of the telescoping identity over Fraction squares: the
    product of step_sq(k, cur) along alpha -> alpha + tail_j, k from n - 1
    down to j, against the squared multiplication weight at alpha."""
    n = wt.P.n
    mismatches = []
    checked = 0
    for j in range(n):
        tail = tail_index(n, j)
        for alpha in window.cells:
            if not inside(window, alpha, tail):
                continue
            checked += 1
            acc = F(1)
            cur = alpha
            for k in range(n - 1, j - 1, -1):
                acc *= step_sq(k, cur)
                cur = add_index(cur, unit_index(n, k))
            if acc != wt.mult_sq[j][alpha]:
                mismatches.append((j, alpha))
    return checked, mismatches


def oracle_polydisc_all_zero(P, m, window):
    n = P.n
    counterpart = from_polys({tuple(e * u for u in unit_index(n, j)): c for e, c in r.items()}
                             for j, r in enumerate(tilde_restrictions(P)))
    table = WeightTable(counterpart, m, window)
    return all(oracle_commutator_witness(window, table.shift_sq[j], unit_index(n, j),
                                         table.shift_sq[k], unit_index(n, k)) is None
               for j in range(n) for k in range(n) if j != k)


def test_commutator_scan_finds_a_witness_on_weights_that_do_not_factor():
    # The triangle weights of a tuple with a mixed term do not factor over the
    # axes, so its single shifts do not doubly commute; those of its polydisc
    # counterpart (here the Hartogs tuple) do.
    window = build_window((4, 4))
    e1, e2 = unit_index(2, 0), unit_index(2, 1)
    mixed = WeightTable(hartogs_tuple(2, 1), (1, 2), window)
    assert shiftops._commutator_witness(mixed, e1, e2) == (0, 1)
    assert oracle_commutator_witness(window, mixed.shift_sq[0], e1, mixed.shift_sq[1], e2) == (0, 1)
    axes = WeightTable(hartogs_tuple(2), (1, 2), window)
    assert shiftops._commutator_witness(axes, e1, e2) is None
    assert shiftops._commutator_witness(axes, e2, e1) is None


FRACTIONAL = [F(1, 2), F(2, 3), F(3, 4), F(5, 2)]
COEFFS = [F(1), F(2), F(1, 3), F(3, 2)]


@st.composite
def probe_tuples(draw):
    """n = 2 or 3; each P_j is a_j z_j plus an optional axis power of degree
    2 or 3 and, for a mixed tuple, optional mixed terms, so the table's pad
    is 1, 2 or 3 on each axis.  a_1 is not an integer, so d != 1."""
    n = draw(st.sampled_from([2, 3]))
    mixed = draw(st.booleans())
    polys = []
    for j in range(n):
        terms = {unit_index(n, j): draw(st.sampled_from(FRACTIONAL if j == 0 else COEFFS))}
        if draw(st.booleans()):
            degree = draw(st.sampled_from([2, 3]))
            terms[tuple(degree if i == j else 0 for i in range(n))] = draw(st.sampled_from(COEFFS))
        if mixed and draw(st.booleans()):
            other = draw(st.sampled_from([i for i in range(n) if i != j]))
            terms[tuple(int(i in (j, other)) for i in range(n))] = draw(st.sampled_from(COEFFS))
        polys.append(terms)
    return from_polys(polys)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quotient_columns_are_the_per_cell_quotients(data):
    # The one reader against the per-cell quotients d^(n-j) B(alpha) / B(alpha + tail_j)
    # and d B(alpha) / B(alpha + e_j), on tables whose pad is 1, 2 or 3 per axis,
    # over the window, over the cells with alpha + tail_j inside, and one tail
    # below the window, where the lattice ends in the zero pad.
    P = data.draw(probe_tuples(), label="P")
    n = P.n
    m = tuple(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n), label="m"))
    bounds = tuple(data.draw(st.lists(st.integers(0, 6 - n), min_size=n, max_size=n), label="window"))
    wt = WeightTable(P, m, build_window(bounds))
    assert set(wt._table.pad) <= {1, 2, 3}
    for j in range(n):
        tail, e = tail_index(n, j), unit_index(n, j)
        for increment in (None, tail):
            cells = [alpha for alpha in wt.window.cells if increment is None or inside(wt.window, alpha, tail)]
            walk = wt.walk(increment)
            assert wt.quotients(walk, *wt.mult_steps[j]) == (
                [wt.d ** (n - j) * scaled_cell(wt, alpha) for alpha in cells],
                [scaled_cell(wt, add_index(alpha, tail)) for alpha in cells])
            assert wt.quotients(walk, *wt.shift_steps[j]) == (
                [wt.d * scaled_cell(wt, alpha) for alpha in cells],
                [scaled_cell(wt, add_index(alpha, e)) for alpha in cells])
        step = wt.mult_steps[j][0]
        below = wt.quotients([off - step for off in wt.walk()], *wt.mult_steps[j])
        assert below == ([wt.d ** (n - j) * scaled_cell(wt, sub_index(alpha, tail)) for alpha in wt.window.cells],
                         [scaled_cell(wt, alpha) for alpha in wt.window.cells])


def assert_probe_matches_oracles(P, m, window):
    """The flat commutator scans, and the three verdicts of the probe, against
    the Fraction oracles over the weight table the probe builds; returns that
    table."""
    n = P.n
    wt = WeightTable(P, m, window)
    for j in range(n):
        for k in range(n):
            if j != k:
                e_j, e_k = unit_index(n, j), unit_index(n, k)
                assert shiftops._commutator_witness(wt, e_j, e_k) == oracle_commutator_witness(
                    window, wt.shift_sq[j], e_j, wt.shift_sq[k], e_k)
    probe = factorization_and_commutation_probe(P, m, window)
    checked, mismatches = oracle_telescoping_mismatches(wt, window, lambda k, cur: wt.shift_sq[k][cur])
    assert probe.cells_checked == checked
    assert probe.factorization_exact == (not mismatches)
    a, b = unit_index(n, n - 1), tail_index(n, n - 2)
    assert probe.noncommuting_witness == oracle_commutator_witness(
        window, wt.shift_sq[n - 1], a, wt.mult_sq[n - 2], b)
    assert probe.polydisc_all_zero == oracle_polydisc_all_zero(P, m, window)
    return wt


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flat_scans_equal_the_tuple_oracles(data):
    # The flat scans read B at offsets, with the zero pad for a cell off the
    # lattice; the oracles key Fraction squares by index tuples.  Windows may
    # have a 0 bound.
    P = data.draw(probe_tuples(), label="P")
    n = P.n
    m = tuple(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n), label="m"))
    bounds = tuple(data.draw(st.lists(st.integers(0, 6 - n), min_size=n, max_size=n), label="window"))
    wt = assert_probe_matches_oracles(P, m, build_window(bounds))
    assert wt.d != 1


@pytest.mark.parametrize("P, m, bounds, cell", [
    (hartogs_tuple(2), (1, 2), (3, 3), (0, 2)),
    (hartogs_tuple(2), (2, 1), (3, 3), (2, 0)),
    (hartogs_tuple(3), (1, 1, 2), (2, 2, 2), (0, 1, 0)),
    (hartogs_tuple(3), (2, 1, 1), (2, 2, 2), (1, 0, 1)),
])
def test_flat_scans_on_a_perturbed_table_agree_at_the_lattice_edge(monkeypatch, P, m, bounds, cell):
    # The table of a tuple whose weights factor, with one cell on a face
    # alpha_k = 0 raised by 1, handed to the probe and to the oracles alike:
    # the commutators now fail first at a cell on that face, where one read
    # of each identity steps off the lattice.  The Fraction squares of the
    # oracles are built from the perturbed table.
    n = P.n
    build = shiftops.coeff_function

    def perturbed(Q, m, table_bounds):
        table = build(Q, m, table_bounds)
        table.B[table.offset(cell)] += 1
        return table

    monkeypatch.setattr(shiftops, "coeff_function", perturbed)
    wt = assert_probe_matches_oracles(P, m, build_window(bounds))
    witnesses = [shiftops._commutator_witness(wt, unit_index(n, j), unit_index(n, k))
                 for j in range(n) for k in range(n) if j != k]
    assert any(w is not None and 0 in w for w in witnesses)


@pytest.mark.parametrize("P, m, bounds", [
    (from_polys([{(1, 0): F(4, 3), (2, 0): F(1, 5)}, {(0, 1): F(3, 2)}]), (1, 2), (3, 3)),
    (from_polys([{(1, 0): F(4, 3), (1, 1): F(2, 5)}, {(0, 1): F(1), (1, 1): F(1, 3)}]), (2, 1), (3, 2)),
    (from_polys([{(1, 0, 0): F(1, 2), (0, 2, 0): F(1, 3)}, {(0, 1, 0): F(2)}, {(0, 0, 1): F(3, 2)}]),
     (1, 1, 2), (2, 1, 2)),
], ids=["admissible-2", "mixed-2", "mixed-pure-3"])
@pytest.mark.parametrize("broken", ["step", "scale"])
def test_factorization_verdict_fails_on_a_broken_mult_view(monkeypatch, P, m, bounds, broken):
    # A mult view that steps one stride short, or scales by one factor d too
    # many, is not the product of the single shifts: the verdict must say so,
    # as the per-cell oracle over the squares of that view does.
    n, window = P.n, build_window(bounds)
    for j in range(n):
        class Broken(WeightTable):
            def __init__(self, *args):
                super().__init__(*args)
                step, scale = self.mult_steps[j]
                self.mult_steps[j] = (step - self._strides[j], scale) if broken == "step" else (step, scale * self.d)

        monkeypatch.setattr(shiftops, "WeightTable", Broken)
        probe = factorization_and_commutation_probe(P, m, window)
        wt = Broken(P, m, window)
        assert wt.d != 1
        checked, mismatches = oracle_telescoping_mismatches(wt, window, lambda k, cur: wt.shift_sq[k][cur])
        assert not probe.factorization_exact
        assert probe.factorization_exact == (not mismatches)
        assert probe.cells_checked == checked


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_intertwining_scan_equals_the_tuple_oracle_on_foreign_axis_tables(data):
    # Hand the intertwining check the axis tables of another admissible tuple:
    # the telescoping products then miss the multiplication weights, and the
    # flat scan must report the same mismatches as the oracle.
    n = data.draw(st.sampled_from([2, 3]), label="n")
    P, Q = (from_polys([{unit_index(n, j): data.draw(st.sampled_from(FRACTIONAL + COEFFS))}
                        for j in range(n)]) for _ in range(2))
    m = tuple(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n), label="m"))
    window = build_window(tuple(data.draw(st.lists(st.integers(0, 6 - n), min_size=n, max_size=n))))
    axis_scaled = shiftops._axis_scaled
    tables = [axis_scaled(Q, m, k, r + 1) for k, r in enumerate(window.bounds)]
    ratios = [{i: F(d * B[i], B[i + 1]) for i in range(len(B) - 1)} for B, d in tables]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shiftops, "_axis_scaled", lambda P, m, k, K: axis_scaled(Q, m, k, K))
        report = polydisc_intertwining_check(P, m, window)
    checked, mismatches = oracle_telescoping_mismatches(
        WeightTable(P, m, window), window, lambda k, cur: ratios[k][cur[k]])
    assert (report.cells_checked, report.mismatches, report.ok) == (checked, mismatches[:16], not mismatches)
    assert report.ok or P != Q


def assert_mirrored_scans_agree(wt):
    """For every j < k, the (k, j) commutator scan finds a witness exactly when
    the (j, k) scan does; returns the (j, k) witnesses."""
    n, witnesses = wt.P.n, []
    for j, k in itertools.combinations(range(n), 2):
        e_j, e_k = unit_index(n, j), unit_index(n, k)
        witnesses.append(shiftops._commutator_witness(wt, e_j, e_k))
        assert (shiftops._commutator_witness(wt, e_k, e_j) is None) == (witnesses[-1] is None)
    return witnesses


@pytest.mark.parametrize("P, m, bounds, cell", [
    (hartogs_tuple(2), (1, 2), (3, 3), (0, 2)),
    (hartogs_tuple(2), (2, 1), (3, 3), (2, 0)),
    (hartogs_tuple(3), (1, 1, 2), (2, 2, 2), (0, 1, 0)),
    (hartogs_tuple(3), (2, 1, 1), (2, 2, 2), (1, 0, 1)),
])
def test_mirrored_commutator_scans_agree_on_the_perturbed_edge_tables(P, m, bounds, cell):
    # The tables of the perturbed-table test above: one cell on a face raised
    # by 1, so that some commutator fails, and fails in both orders.
    wt = WeightTable(P, m, build_window(bounds))
    wt.B[wt._table.offset(cell)] += 1
    assert any(w is not None for w in assert_mirrored_scans_agree(wt))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mirrored_commutator_scans_agree_on_perturbed_tables(data):
    # One cell of the table, in the window or its one-step margin and often on
    # a face alpha_k = 0, raised: the polydisc verdict scans each pair j < k
    # once, because the (k, j) scan tests the same identities.
    P = data.draw(st.one_of(st.sampled_from([hartogs_tuple(2), hartogs_tuple(3)]), probe_tuples()), label="P")
    n = P.n
    m = tuple(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n), label="m"))
    bounds = tuple(data.draw(st.lists(st.integers(0, 6 - n), min_size=n, max_size=n), label="window"))
    wt = WeightTable(P, m, build_window(bounds))
    cell = [data.draw(st.integers(0, b + 1)) for b in bounds]
    if data.draw(st.booleans(), label="on a face"):
        cell[data.draw(st.integers(0, n - 1))] = 0
    wt.B[wt._table.offset(cell)] += data.draw(st.integers(1, 3), label="raise")
    assert_mirrored_scans_agree(wt)


@pytest.mark.parametrize("P, m, bounds", [
    (hartogs_tuple(2, 1), (1, 2), (3, 3)),
    (hartogs_tuple(3), (1, 1, 2), (2, 2, 2)),
    (from_polys([{(1, 0, 0): F(1, 2), (0, 2, 0): F(1, 3)}, {(0, 1, 0): F(2)}, {(0, 0, 1): F(3, 2)}]),
     (1, 1, 2), (2, 1, 2)),
], ids=["mixed-2", "hartogs-3", "mixed-pure-3"])
def test_probe_builds_each_tail_walk_once_and_scans_each_pair_once(monkeypatch, P, m, bounds):
    n = P.n
    walks, scans = [], []
    walk, witness = WeightTable.walk, shiftops._commutator_witness

    def counted_walk(self, increment=None):
        walks.append(increment)
        return walk(self, increment)

    def counted_witness(wt, a, b, *rest):
        scans.append((a, b))
        return witness(wt, a, b, *rest)

    monkeypatch.setattr(WeightTable, "walk", counted_walk)
    monkeypatch.setattr(shiftops, "_commutator_witness", counted_witness)
    factorization_and_commutation_probe(P, m, build_window(bounds), [[0.5] * n])
    tails = [tail_index(n, j) for j in range(n)]
    assert sorted(increment for increment in walks if increment in tails) == sorted(tails)
    units = [unit_index(n, j) for j in range(n)]
    assert [scan for scan in scans if scan[1] in units] == [
        (units[j], units[k]) for j, k in itertools.combinations(range(n), 2)]
    assert len(scans) == 1 + n * (n - 1) // 2


def test_probe_polydisc_verdict_fails_on_a_table_that_does_not_factor(monkeypatch):
    # Hand the counterpart the triangle table of the tuple itself: its
    # commutators do not vanish, and the probe must say so.
    P, m = hartogs_tuple(2, 1), (1, 2)
    build = shiftops.coeff_function
    monkeypatch.setattr(shiftops, "coeff_function", lambda Q, m, bounds: build(P, m, bounds))
    probe = factorization_and_commutation_probe(P, m, build_window((4, 4)))
    assert probe.factorization_exact and probe.noncommuting_witness == (1, 0)
    assert not probe.polydisc_all_zero
    assert not probe.ok


def test_probe_rejects_one_variable():
    with pytest.raises(WrongDimension):
        factorization_and_commutation_probe(from_polys([{(1,): F(1)}]), (1,), build_window((3,)))


def test_hyponormality_hartogs_pattern():
    wt = WeightTable(hartogs_tuple(2), (1, 1), build_window((3, 3)))
    for j in range(2):
        diag = hypo_diagonal(wt, j)
        step = tail_index(2, j)
        for alpha, value in diag.items():
            expected = 0 if all(a >= s for a, s in zip(alpha, step)) else 1
            assert value == expected


def test_hyponormality_origin_positive():
    w = build_window((3, 3))
    for P, m in [(hartogs_tuple(2, 1), (1, 1)), (fib_tuple(), (2, 1))]:
        wt = WeightTable(P, m, w)
        for j in range(2):
            assert hypo_diagonal(wt, j)[(0, 0)] > 0


def test_hyponormality_detects_failure():
    P = from_polys([{(1, 0): F(1), (0, 2): F(2)}, {(0, 1): F(1)}])
    diag = hypo_diagonal(WeightTable(P, (1, 1), build_window((4, 4))), 0)
    assert any(v < 0 for v in diag.values())


def test_det_trace_unit_multiplicities():
    rep = det_commutator_and_trace(hartogs_tuple(2), (1, 1), 10)
    assert rep.positive
    assert rep.diagonal[(0, 0)] == 1
    assert all(v == 0 for a, v in rep.diagonal.items() if a != (0, 0))
    assert rep.partial_trace == 1
    assert det_diagonal_sum(rep, 10) == 1


def test_det_trace_bergman_multiplicities():
    rep = det_commutator_and_trace(hartogs_tuple(2), (2, 2), 98)
    assert rep.ratios(0)[:3] == [F(1, 2), F(2, 3), F(3, 4)]
    assert rep.positive
    assert rep.partial_trace == F(99, 100) ** 3
    assert det_diagonal_sum(rep, 98) == rep.partial_trace


def test_det_trace_nonmonotone_ratios():
    rep = det_commutator_and_trace(fib_tuple(), (1, 1), 12)
    assert rep.ratios(0)[:3] == [F(1, 1), F(1, 2), F(2, 3)]
    assert not rep.positive
    assert any(v < 0 for v in rep.diagonal.values())


def test_det_trace_preconditions():
    with pytest.raises(NotAdmissible):
        det_commutator_and_trace(hartogs_tuple(2, 1), (1, 1), 10)
    with pytest.raises(WrongDimension):
        det_commutator_and_trace(hartogs_tuple(3), (1, 1, 1), 10)


def test_spectral_radius_hartogs_exact():
    rep = spectral_radius_estimate(hartogs_tuple(2), (1, 1), 0, 10, 50)
    assert rep.estimate == 1.0
    assert all(a == 1.0 for a in rep.approximants)
    assert rep.norm_bound == 1.0


def test_spectral_radius_bounded_by_norm():
    rep = spectral_radius_estimate(fib_tuple(), (1, 1), 0, 20, 200)
    assert rep.estimate <= rep.norm_bound + 1e-9
    golden_root = math.sqrt((math.sqrt(5) - 1) / 2)
    assert rep.estimate == pytest.approx(golden_root, abs=1e-3)


def test_spectral_radius_requires_admissible():
    with pytest.raises(NotAdmissible):
        spectral_radius_estimate(hartogs_tuple(2, 1), (1, 1), 0, 10, 10)


SCALE_C = (F(1), F(4, 3), F(3, 2), F(5, 3), F(5, 4))


def scaled_tuple(c1, c2):
    return from_polys([{(1, 0): c1}, {(0, 1): c2}])


def _reference_ratios(P, m, K):
    """a_j(k) = A_j(k)/A_j(k+1), k = 0..K, from the reduced Fraction axis tables."""
    out = []
    for j, g in enumerate(tilde_restrictions(P)):
        axis = univariate_coeffs(g, m[j], K + 1)
        out.append([axis[k] / axis[k + 1] for k in range(K + 1)])
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_det_trace_matches_fraction_reference(data):
    kind = data.draw(st.sampled_from(["scaled", "fibonacci", "hartogs"]))
    if kind == "scaled":
        P = scaled_tuple(data.draw(st.sampled_from(SCALE_C)), data.draw(st.sampled_from(SCALE_C)))
    else:
        P = fib_tuple() if kind == "fibonacci" else hartogs_tuple(2)
    m = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    K = data.draw(st.integers(1, 80))
    rep = det_commutator_and_trace(P, m, K)
    a1, a2 = _reference_ratios(P, m, K)
    increasing = tuple(all(a[k + 1] >= a[k] for k in range(K)) for a in (a1, a2))
    assert rep.increasing == increasing
    assert rep.positive == all(increasing)
    assert rep.diagonal == {
        (i, j): (a1[i] - (a1[i - 1] if i else 0)) * (a2[j] ** 2 - (a2[j - 1] ** 2 if j else 0))
        for i, j in box((min(K, 6), min(K, 6)))}
    assert rep.partial_trace == a1[K] * a2[K] ** 2
    assert rep.limit_trace == float(a1[K]) * float(a2[K]) ** 2
    assert rep.ratios(0) == a1 and rep.ratios(1) == a2


def _reference_radius(axis, K, N):
    """The supremum loop over a reduced Fraction axis table, one log per cell."""
    logs = [math.log(v.numerator) - math.log(v.denominator) for v in axis[:K + N + 1]]
    return [math.exp(max(logs[k] - logs[k + nn] for k in range(K + 1)) / (2 * nn))
            for nn in range(1, N + 1)]


@pytest.mark.parametrize("P, m, j, exact", [
    (hartogs_tuple(2), (1, 1), 0, True),
    (hartogs_tuple(2), (2, 2), 1, True),
    (fib_tuple(), (1, 1), 0, True),
    (fib_tuple(), (2, 1), 0, True),
    (scaled_tuple(F(4, 3), F(5, 3)), (2, 1), 0, False),
    (scaled_tuple(F(3, 2), F(5, 4)), (1, 2), 1, False),
    (from_polys([{(1, 0): F(2, 3), (3, 0): F(1, 5)}, {(0, 1): F(1)}]), (2, 1), 0, False),
], ids=["hartogs-11", "hartogs-22", "fib-11", "fib-21", "scaled-4/3", "scaled-5/4", "cubic-2/3"])
def test_spectral_radius_matches_fraction_log_loop(P, m, j, exact):
    axis = univariate_coeffs(tilde_restrictions(P)[j], m[j], 30 + 2000)
    for N in (1, 50, 2000):
        for K in (0, 10, 30):
            got = spectral_radius_estimate(P, m, j, K, N).approximants
            want = _reference_radius(axis, K, N)
            if exact:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-13, abs=0)


@pytest.mark.parametrize("P, m, j", [
    (fib_tuple(), (1, 1), 0),
    (fib_tuple(), (3, 1), 0),
    (scaled_tuple(F(4, 3), F(5, 3)), (2, 1), 0),
    (scaled_tuple(F(3, 2), F(5, 4)), (1, 2), 1),
    (from_polys([{(1, 0): F(2, 3), (3, 0): F(1, 5)}, {(0, 1): F(1)}]), (2, 1), 0),
], ids=["fib-11", "fib-31", "scaled-4/3", "scaled-5/4", "cubic-2/3"])
def test_spectral_radius_floats_are_the_per_element_formulas(P, m, j):
    # The array forms of the logs and the approximants give the floats of the
    # per-element formulas bit for bit, with d = 1 and with d > 1.
    for K, N in ((0, 1), (10, 50), (30, 400)):
        scaled, d = shiftops._axis_scaled(P, m, j, K + N)
        log_d = math.log(d)
        logs = [math.log(b) - k * log_d for k, b in enumerate(scaled)]
        best = [max(logs[k] - logs[k + n] for k in range(K + 1)) for n in range(1, N + 1)]
        want = [math.exp(b / (2 * n)) for n, b in enumerate(best, start=1)]
        assert spectral_radius_estimate(P, m, j, K, N).approximants == want


def _ratio_table(n, D):
    """B(k) = D^(K+1-k) n_0 ... n_(k-1), k = 0..K+1, so that B(k+1)/B(k) = n_k/D exactly."""
    B = [D ** len(n)]
    for x in n:
        B.append(B[-1] // D * x)
    return B


@st.composite
def _log_concave_cases(draw):
    kind = draw(st.sampled_from(["random", "geometric", "sub-ulp", "overflow", "underflow"]))
    if kind == "random":  # positive big ints
        return draw(st.lists(st.integers(1, 2 ** 2100), min_size=2, max_size=14))
    K = draw(st.integers(0, 12))
    if kind == "geometric":  # p^k q^(K+1-k), now and then times a small factor: float and exact ties
        p, q = draw(st.integers(1, 10 ** 30)), draw(st.integers(1, 10 ** 30))
        factors = draw(st.lists(st.sampled_from([1] * 8 + [2, 3, 5]), min_size=K + 2, max_size=K + 2))
        return [p ** k * q ** (K + 1 - k) * f for k, f in enumerate(factors)]
    small = st.integers(1, 5)
    if kind == "sub-ulp":  # ratios 1 + e/2^100, all rounding to 1.0
        n, D = [2 ** 100 + e for e in draw(st.lists(st.integers(-2, 2), min_size=K + 1, max_size=K + 1))], 2 ** 100
    elif kind == "overflow":  # some ratios at or above 2^1024
        n, D = draw(st.lists(st.one_of(small, small.map(lambda c: c << 1100)), min_size=K + 1, max_size=K + 1)), 1
    else:  # some ratios below 2^-1075, which round to 0.0
        n, D = draw(st.lists(st.one_of(small, small.map(lambda c: c << 1100)), min_size=K + 1, max_size=K + 1)), 2 ** 1100
    if draw(st.booleans()):  # nonincreasing ratios: the log-concave case
        n.sort(reverse=True)
    return _ratio_table(n, D)


@settings(max_examples=400, deadline=None)
@given(B=_log_concave_cases())
def test_log_concave_matches_exact_products(B):
    K = len(B) - 2
    assert shiftops._log_concave(B, K) == all(B[k + 1] * B[k + 1] >= B[k] * B[k + 2] for k in range(K))


@pytest.mark.parametrize("call", [
    lambda: spectral_radius_estimate(hartogs_tuple(2), (1, 1), 2, 10, 10),
    lambda: spectral_radius_estimate(hartogs_tuple(2), (1, 1), -1, 10, 10),
    lambda: spectral_radius_estimate(hartogs_tuple(2), (1,), 1, 10, 10),
    lambda: spectral_radius_estimate(hartogs_tuple(2), (0, 1), 0, 10, 10),
    lambda: spectral_radius_estimate(hartogs_tuple(2), (1, 1), 0, -1, 10),
    lambda: spectral_radius_estimate(hartogs_tuple(2), (1, 1), 0, 10, 0),
    lambda: det_commutator_and_trace(hartogs_tuple(2), (0, 1), 10),
    lambda: det_commutator_and_trace(hartogs_tuple(2), (1,), 10),
    lambda: det_commutator_and_trace(hartogs_tuple(2), (1, 1), 0),
], ids=["radius-j-2", "radius-j-neg", "radius-short-m", "radius-m-0", "radius-K-neg", "radius-N-0",
        "det-m-0", "det-short-m", "det-K-0"])
def test_bad_arguments_raise_value_error(call):
    with pytest.raises(ValueError, match=r"must be|need"):
        call()


def test_intertwining_hartogs_example():
    rep = polydisc_intertwining_check(hartogs_tuple(2), (1, 2), build_window((4, 4)))
    assert rep.ok and rep.cells_checked > 0
    wt = op_weights(hartogs_tuple(2), (1, 2), build_window((4, 4)))
    assert wt.mult_sq[0][(0, 0)] == F(1, 2)


def test_intertwining_random_admissible():
    rng = random.Random(123)
    for _ in range(3):
        P = random_admissible_pair(rng)
        m = (rng.randint(1, 3), rng.randint(1, 3))
        rep = polydisc_intertwining_check(P, m, build_window((4, 4)))
        assert rep.ok, (P, m, rep.mismatches)


def test_intertwining_requires_admissible():
    with pytest.raises(NotAdmissible):
        polydisc_intertwining_check(hartogs_tuple(2, 1), (1, 1), build_window((3, 3)))


def circularity(P, m, window, thetas):
    return factorization_and_commutation_probe(P, m, window, thetas).circularity_max_deviation


def test_circularity_zero_angles():
    assert circularity(hartogs_tuple(2), (1, 1), build_window((4, 4)), [[0.0, 0.0]]) == 0.0
    assert circularity(hartogs_tuple(2), (1, 1), build_window((4, 4)), []) == 0.0


@pytest.mark.parametrize("theta", [[math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]])
def test_circularity_rejects_non_finite_angles(theta):
    # a nan angle made every deviation nan, and max() kept 0.0: a pass
    with pytest.raises(ValueError):
        circularity(hartogs_tuple(2), (1, 1), build_window((2, 2)), [[0.0, 0.0], theta])


@pytest.mark.parametrize("theta", [[0.5], [0.5, 1.0, 1.5]], ids=["short", "long"])
def test_circularity_rejects_angle_tuples_of_another_length(theta):
    with pytest.raises(ValueError, match="must have 2 finite entries"):
        circularity(hartogs_tuple(2), (1, 1), build_window((2, 2)), [theta])


def test_circularity_pi_zero():
    assert circularity(hartogs_tuple(2, 1), (1, 2), build_window((4, 4)), [[math.pi, 0.0]]) <= 1e-12


def test_circularity_random_angles():
    rng = random.Random(5)
    window = build_window((5, 5))
    for P, m in [(hartogs_tuple(2, 1), (1, 2)), (fib_tuple(), (2, 1))]:
        thetas = [[rng.uniform(0, 2 * math.pi) for _ in range(2)] for _ in range(5)]
        assert circularity(P, m, window, thetas) <= 1e-12


def circularity_oracle(P, m, window, theta):
    """The per-trial circularity loop over index tuples: the largest deviation
    of phase(alpha) conj(phase(alpha + tail_j)) w from e^{i theta_j} w, with w
    the float square root of the exact squared weight of z_j at alpha."""
    n = P.n
    wt = WeightTable(P, m, window)
    tilde = [theta[j] - theta[j + 1] for j in range(n - 1)] + [theta[n - 1]]
    phase = {alpha: cmath.exp(-1j * sum(t * a for t, a in zip(tilde, alpha))) for alpha in window.cells}
    deviation = 0.0
    for j in range(n):
        rotation, tail = cmath.exp(1j * theta[j]), tail_index(n, j)
        for alpha in window.cells:
            if inside(window, alpha, tail):
                w = math.sqrt(float(wt.mult_sq[j][alpha]))
                conjugated = phase[alpha] * phase[add_index(alpha, tail)].conjugate() * w
                deviation = max(deviation, abs(conjugated - rotation * w))
    return deviation


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_circularity_over_angle_tuples_is_the_largest_one_angle_deviation(data):
    # One probe call over k angle tuples gives the largest deviation of the k
    # one-tuple calls, float for float, and each is the per-trial loop's.
    P = data.draw(probe_tuples(), label="P")
    n = P.n
    m = tuple(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n), label="m"))
    window = build_window(data.draw(st.lists(st.integers(0, 6 - n), min_size=n, max_size=n), label="window"))
    angle = st.floats(0.0, 2.0 * math.pi)
    thetas = data.draw(st.lists(st.lists(angle, min_size=n, max_size=n), min_size=1, max_size=4), label="thetas")
    singles = [circularity(P, m, window, [theta]) for theta in thetas]
    assert singles == [circularity_oracle(P, m, window, theta) for theta in thetas]
    assert circularity(P, m, window, thetas) == max(singles) <= 1e-12


def window_offset_circularity(wt, thetas):
    """The circularity scan as it read a second, window-relative layout: the
    phases by row-major offset in the window, and alpha + tail_j at the
    window offset of tail_j further on."""
    n, window = wt.P.n, wt.window
    strides, floats = _strides(window.bounds), []
    for tail, (step, scale) in zip(wt._tails, wt.mult_steps):
        inside, rise = [b - t for b, t in zip(window.bounds, tail)], _offset(tail, window.bounds)
        nums, dens = wt.quotients(wt.walk(tail), step, scale)
        weights = map(math.sqrt, map(_to_float, nums, itertools.repeat("a squared weight"), dens))
        floats.append([(at, at + rise, w) for at, w in zip(_box_walk(inside, strides), weights)])
    deviation = 0.0
    for theta in thetas:
        tilde = [theta[j] - theta[j + 1] for j in range(n - 1)] + [theta[n - 1]]
        phase = [cmath.exp(-1j * sum(t * a for t, a in zip(tilde, alpha))) for alpha in window.cells]
        for j, weights_j in enumerate(floats):
            rotation = cmath.exp(1j * theta[j])
            for at, row, w in weights_j:
                conjugated = phase[at] * phase[row].conjugate() * w
                deviation = max(deviation, abs(conjugated - rotation * w))
    return deviation


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_circularity_scan_equals_the_window_offset_scan_bit_for_bit(data):
    # The probes report digests are compared only on a host whose floats match
    # the recorded ones, so the scan over the table's offsets is held here to
    # the window-offset scan it replaced, bit for bit, with angles large
    # enough that the rounding shows.
    P = data.draw(probe_tuples(), label="P")
    n = P.n
    m = tuple(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n), label="m"))
    window = build_window(tuple(data.draw(st.lists(st.integers(0, 6 - n), min_size=n, max_size=n),
                                          label="window")))
    angle = st.floats(-1e3, 1e3)
    thetas = data.draw(st.lists(st.lists(angle, min_size=n, max_size=n), max_size=4), label="thetas")
    wt = WeightTable(P, m, window)
    expected = window_offset_circularity(wt, thetas)
    walks = [wt.walk(tail) for tail in wt._tails]
    assert shiftops._circularity_deviation(wt, thetas, walks).hex() == expected.hex()
    assert circularity(P, m, window, thetas).hex() == expected.hex()


def test_self_commutator_ray_constancy():
    # diagonal of the self-commutator along the first axis is independent of
    # the position on the ray for tuples whose components separate variables
    P = from_polys([{(1, 0): F(1), (2, 0): F(1, 2)}, {(0, 1): F(2)}])
    wt = op_weights(P, (1, 1), build_window((6, 6)))
    values = {wt.mult_sq[1][(l, 0)] for l in range(6)}
    assert len(values) == 1


def test_repeated_mult_targets_are_distinct():
    # powers of the multiplication tuple send distinct cells to distinct
    # cells: the target map alpha -> alpha + sum beta_j * tail_j is injective
    wt = op_weights(hartogs_tuple(2), (1, 2), build_window((6, 6)))
    mats = [mult_matrix(wt, j) for j in range(2)]
    for beta in [(1, 0), (0, 2), (2, 1)]:
        power = np.eye(wt.window.size)
        for j, reps in enumerate(beta):
            for _ in range(reps):
                power = mats[j] @ power
        step = (beta[0], beta[0] + beta[1])  # beta_1 * (1, 1) + beta_2 * (0, 1)
        targets = set()
        for alpha in box((2, 2)):
            rows = np.flatnonzero(power[:, _offset(alpha, wt.window.bounds)])
            assert list(rows) == [_offset(add_index(alpha, step), wt.window.bounds)]
            targets.add(rows[0])
        assert len(targets) == 9


def test_adjoint_matrix_reproduces_kernel_eigenvector():
    # the kernel coefficient vector {conj(e_alpha(w))} is an eigenvector of
    # each truncated adjoint matrix with eigenvalue conj(w_j), exact up to
    # truncation: rows whose single source cell stays in the window match
    import numpy as np
    from hartogs.kernel import basis_eval, make_context

    bounds = (5, 5)
    P = hartogs_tuple(2)
    ctx = make_context(P, (1, 2), bounds)
    window = build_window(bounds)
    wt = op_weights(P, (1, 2), window)
    w = (0.2 + 0.1j, 0.55)
    vec = np.array([basis_eval(ctx, alpha, w).conjugate() for alpha in window.cells])
    for j in range(2):
        image = mult_matrix(wt, j).T @ vec
        eig = complex(w[j]).conjugate()
        for alpha in window.cells:
            if inside(window, alpha, tail_index(2, j)):
                row = _offset(alpha, window.bounds)
                assert image[row] == pytest.approx(eig * vec[row], rel=1e-10)


@pytest.mark.parametrize("a", [F(1, 10 ** 400), F(10 ** 400)], ids=["tiny", "huge"])
def test_float_views_of_values_without_a_float_raise_malformed_input(a):
    # These raised a bare OverflowError or ZeroDivisionError, or read as 0.0.
    P = from_polys([{(1, 0): a}, {(0, 1): 1}])
    window = build_window((2, 2))
    calls = [lambda: norm_bounds(P, (1, 1), 0), lambda: spectral_radius_estimate(P, (1, 1), 0, 3, 5),
             lambda: mult_matrix(WeightTable(P, (1, 1), window), 0),
             lambda: factorization_and_commutation_probe(P, (1, 1), window, [[0.5, 1.0]]),
             lambda: det_commutator_and_trace(P, (1, 1), 3)]
    for call in calls:
        with pytest.raises(MalformedInput, match="has no float value"):
            call()
