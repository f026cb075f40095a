import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import coeff
from hartogs.coeff import (
    coeff_function,
    hartogs_coeff_closed,
    reciprocal_power_coeffs,
)
from hartogs.errors import ConstantTerm, WindowTooSmall
from hartogs.polytuple import box, box_size, from_polys, hartogs_tuple, total_degree


def univariate_coeffs(p, k, kmax):
    """Coefficients of 1/(1-p(t))^k up to degree kmax, for univariate p, as Fractions."""
    return list(reciprocal_power_coeffs({(e,): F(c) for e, c in p.items()}, k, (kmax,)).values)


def fib(count):
    # classic recurrence, the stated oracle for 1/(1 - t - t^2)
    out = [F(1), F(1)]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def test_geometric_binomials():
    # 1/(1-t)^m has coefficients C(l+m-1, m-1)
    q = {(1,): F(1)}
    for m in (1, 2, 3, 5):
        table = reciprocal_power_coeffs(q, m, (12,))
        for l in range(13):
            assert table.value((l,)) == math.comb(l + m - 1, m - 1)


def test_fibonacci_recursion_and_oracle():
    q = {(1,): F(1), (2,): F(1)}
    expected = fib(31)
    for mode in ("recursion", "oracle"):
        table = reciprocal_power_coeffs(q, 1, (30,), mode=mode)
        assert [table.value((l,)) for l in range(31)] == expected


def test_power_zero_is_indicator():
    q = {(1, 0): F(2), (0, 1): F(3)}
    for mode in ("recursion", "oracle"):
        table = reciprocal_power_coeffs(q, 0, (3, 3), mode=mode)
        assert table.value((0, 0)) == 1
        assert all(table.value(a) == 0 for a in box((3, 3)) if a != (0, 0))


def test_constant_term_rejected():
    with pytest.raises(ConstantTerm):
        reciprocal_power_coeffs({(0, 0): F(1, 2), (1, 0): F(1)}, 1, (2, 2))


def test_independent_variable_gives_zero_slices():
    # Q independent of the second variable
    q = {(1, 0): F(1), (2, 0): F(1, 2)}
    table = reciprocal_power_coeffs(q, 2, (5, 5))
    for alpha in box((5, 5)):
        if alpha[1] != 0:
            assert table.value(alpha) == 0


def test_negative_entries_are_zero_and_window_guard():
    table = reciprocal_power_coeffs({(1,): F(1)}, 1, (4,))
    assert table.value((-1,)) == 0
    assert table.value((-3,)) == 0
    with pytest.raises(WindowTooSmall):
        table.value((5,))


def test_value_rejects_wrong_length():
    # (3,) on a two-variable table must not be read as cell (0, 3)
    table = reciprocal_power_coeffs({(1, 0): F(1), (0, 1): F(1)}, 1, (4, 4))
    for alpha in [(3,), (0, 3, 0)]:
        with pytest.raises(ValueError):
            table.value(alpha)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.data())
def test_recursion_equals_oracle_property(n, k, data):
    # The recursion pads each axis by its largest exponent.  Non-square boxes
    # with bounds from 0, exponents that can exceed their bound, and a Q that
    # leaves some axes untouched (pad 0 there) probe every edge of the padding.
    touched = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    exponents = st.tuples(*(st.integers(0, 3) if t else st.just(0) for t in touched))
    coeff = st.fractions(min_value=0, max_value=3, max_denominator=4)
    raw = data.draw(st.lists(st.tuples(exponents, coeff), max_size=4))
    q = {alpha: c for alpha, c in raw if sum(alpha) > 0 and c > 0}
    bounds = tuple(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    rec = reciprocal_power_coeffs(q, k, bounds, mode="recursion")
    orc = reciprocal_power_coeffs(q, k, bounds, mode="oracle")
    # the oracle's Fractions, put over the recursion's common denominator,
    # are the recursion's scaled integers, read through its padded layout;
    # the oracle's table is the pad-0 case of that layout
    assert orc.pad == (0,) * n and orc.walk(bounds) == list(range(len(orc.B)))
    assert ([rec.B[off] for off in rec.walk(bounds)], rec.d) == (orc.B, orc.d)
    assert rec.values == orc.values


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.data())
def test_value_reads_one_cell_of_the_scaled_table(n, data):
    # value(alpha) reduces one cell, B(alpha) / d^|alpha|, and leaves the whole
    # reduced table unbuilt; it agrees with that table once it is built
    coeffs = st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6)
    polys = [{tuple(int(i == j) for i in range(n)): data.draw(coeffs), (1,) * n: data.draw(coeffs)}
             for j in range(n)]
    m = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    bounds = tuple(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    table = coeff_function(from_polys(polys), m, bounds)
    cells = [table.value(alpha) for alpha in box(bounds)]
    assert "values" not in vars(table)
    assert tuple(cells) == table.values
    assert all(type(v) is F for v in cells)


def test_terms_beyond_the_box_are_dropped(monkeypatch):
    # a term whose exponent exceeds the bound never reaches the box, so it
    # must neither change the table nor size the padding
    def capped_box_size(bounds):
        assert all(b <= 10 for b in bounds), f"table of shape {bounds} requested"
        return box_size(bounds)

    monkeypatch.setattr(coeff, "box_size", capped_box_size)
    huge = 10 ** 9
    for base, extra, bounds in [
        ([{(1, 0): F(1)}, {(0, 1): F(1, 2)}], [{(huge, 0): F(1, 3)}, {}], (3, 3)),
        ([{(1, 0): F(1), (1, 1): F(1)}, {(0, 1): F(1)}], [{(2, huge): F(2)}, {(huge, 1): F(1)}], (4, 2)),
    ]:
        P = from_polys(base)
        P_huge = from_polys([{**q, **e} for q, e in zip(base, extra)])
        assert coeff_function(P_huge, (2, 1), bounds).values == coeff_function(P, (2, 1), bounds).values
    assert univariate_coeffs({1: F(1), huge: F(1, 5)}, 2, 3) == univariate_coeffs({1: F(1)}, 2, 3)


def test_coeff_function_origin_is_one():
    for P, m in [(hartogs_tuple(2), (1, 1)), (hartogs_tuple(2, 1), (2, 3)),
                 (hartogs_tuple(3, 2), (1, 2, 1))]:
        table = coeff_function(P, m, (2,) * P.n)
        assert table.value((0,) * P.n) == 1


def test_coeff_function_all_positive():
    P = hartogs_tuple(2, F(1, 2))
    table = coeff_function(P, (2, 1), (5, 5))
    assert all(table.value(a) > 0 for a in box((5, 5)))


def test_hartogs_closed_form_examples():
    assert hartogs_coeff_closed((1, 1), (5, 7)) == 1
    assert hartogs_coeff_closed((2, 2), (3, 0)) == 4
    assert hartogs_coeff_closed((2, 3), (0, 0)) == 1
    assert hartogs_coeff_closed((2, 3), (1, 2)) == 2 * 6
    # off the nonnegative lattice the closed form vanishes, as the table does
    table = coeff_function(hartogs_tuple(2), (2, 3), (2, 2))
    assert hartogs_coeff_closed((2, 3), (-1, 2)) == table.value((-1, 2)) == 0


def test_hartogs_closed_form_rejects_length_mismatch():
    # the unmatched entry must not be dropped: ((2, 2), (3,)) is not 4
    for m, alpha in [((2, 2), (3,)), ((2,), (3, 1))]:
        with pytest.raises(ValueError):
            hartogs_coeff_closed(m, alpha)


def oracle_axis_product(P, m, bounds):
    """The coefficient table of an admissible (P, m) as the componentwise
    product of oracle tables of 1/(1-P_j)^m_j, each read along its own axis."""
    axes = [reciprocal_power_coeffs(q, mj, bounds, mode="oracle") for q, mj in zip(P.polys, m)]
    return tuple(math.prod((t.value(tuple(a if i == j else 0 for i, a in enumerate(alpha)))
                            for j, t in enumerate(axes)), start=F(1))
                 for alpha in box(bounds))


def test_coeff_function_matches_closed_form_both_methods():
    # the general route and the oracle axis product both give the binomials
    P = hartogs_tuple(2)
    closed = tuple(hartogs_coeff_closed((2, 3), alpha) for alpha in box((6, 6)))
    assert coeff_function(P, (2, 3), (6, 6)).values == closed
    assert oracle_axis_product(P, (2, 3), (6, 6)) == closed


def family_closed_sum(a, m, alpha):
    """A(alpha) of P_{j,a} = z_j + a z_1...z_n, from expanding each factor
    1/(1 - z_j - t)^{m_j} in t = a z_1...z_n: the sum over s <= min(alpha) of
    a^s times the sum over s_1 + ... + s_n = s of
    prod_j C(alpha_j - s + s_j + m_j - 1, m_j - 1) C(alpha_j - s + s_j, s_j)."""
    total = F(0)
    for s in range(min(alpha) + 1):
        inner = 0
        for head in itertools.product(range(s + 1), repeat=len(alpha) - 1):
            if (last := s - sum(head)) >= 0:
                inner += math.prod(math.comb(aj - s + sj + mj - 1, mj - 1) * math.comb(aj - s + sj, sj)
                                   for aj, sj, mj in zip(alpha, (*head, last), m))
        total += a ** s * inner
    return total


FAMILY_BOUNDS = {1: 20, 2: 14, 3: 6, 4: 4}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), p=st.integers(0, 6), q=st.integers(1, 4), seed=st.integers(0, 2 ** 32), data=st.data())
def test_family_closed_sum_matches_the_general_route(n, p, q, seed, data):
    # A seeded sample of cells, with the far corner and a cell on each face of
    # the box, where a fault of the padding or of the margin would show.
    a = F(p, q)
    m = data.draw(st.tuples(*[st.integers(1, 3)] * n))
    bounds = tuple(data.draw(st.integers(1, FAMILY_BOUNDS[n])) for _ in range(n))
    rng = random.Random(seed)
    cells = {bounds} | {tuple(rng.randint(0, b) for b in bounds) for _ in range(10)}
    for j in range(n):
        for face in (0, bounds[j]):
            cells.add(tuple(face if i == j else rng.randint(0, b) for i, b in enumerate(bounds)))
    table = coeff_function(hartogs_tuple(n, a), m, bounds)
    for alpha in cells:
        assert table.value(alpha) == family_closed_sum(a, m, alpha), (a, m, alpha)


def test_convolution_equals_product_for_admissible():
    m = (2, 2)
    for P in (from_polys([{(1, 0): F(1), (2, 0): F(1, 2)}, {(0, 1): F(3)}]),
              from_polys([{(1, 0): F(2, 3), (2, 0): F(1, 4)}, {(0, 1): F(5, 3)}])):
        assert coeff_function(P, m, (6, 6)).values == oracle_axis_product(P, m, (6, 6))


def test_ratio_inequality_along_own_axis():
    # expansion coefficients of one component grow at least by the linear
    # coefficient under a unit step in the own variable
    P = hartogs_tuple(2, F(2, 3))
    for j, q in enumerate(P.polys):
        a_j = P.linear_coefficient(j)
        table = reciprocal_power_coeffs(q, 2, (5, 5))
        step = tuple(1 if i == j else 0 for i in range(2))
        for alpha in box((4, 4)):
            up = tuple(x + s for x, s in zip(alpha, step))
            assert table.value(up) >= a_j * table.value(alpha)


def _convolution_by_definition(P, m, bounds):
    # the product of the oracle tables of 1/(1-P_j)^{m_j}, convolved term by term
    out = {alpha: F(int(not any(alpha))) for alpha in box(bounds)}
    for q, mj in zip(P.polys, m):
        t = reciprocal_power_coeffs(q, mj, bounds, mode="oracle")
        out = {alpha: sum((out[g] * t.value(tuple(x - y for x, y in zip(alpha, g)))
                           for g in box(alpha)), start=F(0))
               for alpha in box(bounds)}
    return out


def test_convolve_definition_brute_force():
    P = from_polys([{(1, 0): F(1), (1, 1): F(1)}, {(0, 1): F(1, 2)}])
    bounds = (4, 4)
    table = coeff_function(P, (1, 2), bounds)
    expected = _convolution_by_definition(P, (1, 2), bounds)
    assert table.values == tuple(expected[alpha] for alpha in box(bounds))


def _first_component(n, reach, c):
    # c z_1, z_1 + c z_1 z_2 and z_1 + z_1^2 + c z_1 z_2 (z_1 + c z_1^3 and
    # z_1 + z_1^2 + c z_1^3 when n = 1), whose terms all reach the box of
    # _branch_bounds, and c z_1 under a bound of 0 on z_1, which none reaches.
    unit, square = (1,) + (0,) * (n - 1), (2,) + (0,) * (n - 1)
    mixed = (1, 1) + (0,) * (n - 2) if n > 1 else (3,)
    return [{unit: c}, {unit: c}, {unit: F(1), mixed: c}, {unit: F(1), square: F(1), mixed: c}][reach]


def _branch_bounds(n, reach):
    bounds = {1: (6,), 2: (4, 4), 3: (2, 2, 2)}[n]
    return (0,) * (reach == 0) + bounds[reach == 0:]


def _pad_cells(table):
    inside = set(table.walk(table.bounds))
    return [b for off, b in enumerate(table.B) if off not in inside]


# The division kernel unrolls its term loop by the number of terms that reach
# the box: none (no pass), one, two, and the generic loop for three or more.
BRANCHES = pytest.mark.parametrize("n, reach, c", [(n, reach, c) for n in (1, 2, 3) for reach in range(4)
                                                   for c in (F(1), F(2, 3))])


@BRANCHES
@pytest.mark.parametrize("k", [1, 2, 3])
def test_division_kernel_branches_match_the_oracle(n, reach, c, k):
    q, bounds = _first_component(n, reach, c), _branch_bounds(n, reach)
    assert len(coeff._reachable(q, bounds)) == reach
    table = coeff._divided(bounds, [(q, k)])
    oracle = reciprocal_power_coeffs(q, k, bounds, mode="oracle")
    assert ([table.B[off] for off in table.walk(bounds)], table.d) == (oracle.B, oracle.d)
    assert table.d == (1 if c == 1 or reach == 0 else 3)
    assert table.values == oracle.values
    assert not any(_pad_cells(table))  # every reader relies on the zero pad


@BRANCHES
@pytest.mark.parametrize("mj", [1, 2, 3])
def test_division_kernel_branches_match_the_convolution(n, reach, c, mj):
    # The first factor takes each branch; the others, c z_j, take the one-term branch.
    P = from_polys([_first_component(n, reach, c)]
                   + [{tuple(int(i == j) for i in range(n)): c} for j in range(1, n)])
    m, bounds = tuple((mj + j - 1) % 3 + 1 for j in range(n)), _branch_bounds(n, reach)
    table = coeff_function(P, m, bounds)
    expected = _convolution_by_definition(P, m, bounds)
    assert table.values == tuple(expected[alpha] for alpha in box(bounds))
    assert not any(_pad_cells(table))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.data())
def test_general_route_equals_convolution_property(n, data):
    # mixed terms with rational coefficients of different denominators exercise
    # the common denominator d and the d^|alpha| rescaling of the general route
    coeff = st.fractions(min_value=F(1, 7), max_value=3, max_denominator=7)
    alphas = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    polys = []
    for j in range(n):
        q = {tuple(int(i == j) for i in range(n)): data.draw(coeff)}
        for alpha, c in data.draw(st.lists(st.tuples(alphas, coeff), max_size=3)):
            if sum(alpha) > 0:
                q[alpha] = c
        polys.append(q)
    P = from_polys(polys)
    m = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    bounds = {1: (8,), 2: (4, 4), 3: (2, 2, 2)}[n]
    table = coeff_function(P, m, bounds)
    expected = _convolution_by_definition(P, m, bounds)
    assert table.values == tuple(expected[alpha] for alpha in box(bounds))


def test_univariate_coeffs_matches_table():
    p = {1: F(1), 2: F(1)}
    assert univariate_coeffs(p, 1, 10) == fib(11)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scaled_axis_table_reduces_to_the_oracle(data):
    # _axis_scaled keeps B(k) = d^k A(k) in int; reduced, it is the oracle table.
    rationals = st.sampled_from([F(1), F(2), F(1, 2), F(2, 3), F(4, 3), F(5, 6)])
    polys = [{(1, 0): data.draw(rationals)}, {(0, 1): data.draw(rationals)}]
    for deg in (2, 3):
        if data.draw(st.booleans()):
            polys[0][(deg, 0)] = data.draw(rationals)
    P = from_polys(polys)
    m = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    j, kmax = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 12))
    scaled, d = coeff._axis_scaled(P, m, j, kmax)
    q = {(e[j],): c for e, c in polys[j].items()}
    oracle = reciprocal_power_coeffs(q, m[j], (kmax,), mode="oracle").values
    assert tuple(F(b, d ** k) for k, b in enumerate(scaled)) == oracle
    assert all(b > 0 for b in scaled)


def test_window_too_small_on_lookup():
    P = hartogs_tuple(2)
    table = coeff_function(P, (1, 1), (3, 3))
    with pytest.raises(WindowTooSmall):
        table.value((4, 0))


def test_total_degree_truncation_is_exact():
    # oracle truncation at the box total degree loses nothing: enlarging the
    # box and restricting back gives the same values
    q = {(1, 1): F(1), (2, 0): F(1, 3)}
    small = reciprocal_power_coeffs(q, 2, (3, 3), mode="oracle")
    large = reciprocal_power_coeffs(q, 2, (5, 5), mode="oracle")
    for alpha in box((3, 3)):
        assert small.value(alpha) == large.value(alpha)


def test_values_depend_only_on_reachable_degrees():
    q = {(1,): F(1), (3,): F(2)}
    table = reciprocal_power_coeffs(q, 3, (9,))
    # brute expansion through the oracle at higher truncation as cross-check
    oracle = reciprocal_power_coeffs(q, 3, (9,), mode="oracle")
    assert table.values == oracle.values
    assert all(total_degree(a) <= 9 for a in box((9,)))
