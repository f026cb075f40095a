import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import subnormality
from hartogs.coeff import coeff_function, hartogs_coeff_closed
from hartogs.polytuple import _offset, _strides, add_index, box, from_polys, hartogs_tuple
from hartogs.subnormality import (
    _first_witnesses,
    complete_monotonicity_check,
    embedded_shift,
    hartogs_certify,
    shift_check,
)


def test_embedded_shift_is_running_sum():
    assert embedded_shift((2, 0, 3)) == (2, 2, 5)
    assert embedded_shift((0,)) == (0,)


def _reciprocals_of_general_route(P, m, gamma, window, margin):
    """1/A at every cell the sequence reads, from the general-route table."""
    reach = tuple(w + margin for w in window)
    bounds = tuple(g + sum(reach[: j + 1]) for j, g in enumerate(gamma))
    table = coeff_function(P, m, bounds)
    return {beta: 1 / table.value(tuple(g + s for g, s in zip(gamma, embedded_shift(beta))))
            for beta in box(reach)}


def _general_route_sequence(P, m, gamma, window, order, scale=1):
    """beta -> 1/(A(gamma + emb(beta)) scale^|beta|) from the general-route
    table, as a dict lookup, so that a read beyond box(window + order) raises."""
    values = _reciprocals_of_general_route(P, m, gamma, window, order)
    return {beta: v / F(scale) ** sum(beta) for beta, v in values.items()}.__getitem__


def test_unit_multiplicities_give_constant_one():
    for n in (1, 2, 3):
        for scale in (1, 2, F(1, 2)):
            report = shift_check(hartogs_tuple(n), (1,) * n, (0,) * n, (2,) * n, 3, scale)
            assert report == complete_monotonicity_check(lambda beta: 1 / F(scale) ** sum(beta), (2,) * n, 3)
            assert report.passed == (scale >= 1)


def test_closed_form_m21():
    for scale in (1, F(1, 2)):
        report = shift_check(hartogs_tuple(2), (2, 1), (0, 0), (3, 3), 2, scale)
        assert report == complete_monotonicity_check(
            lambda beta: F(1, 1 + beta[0]) / F(scale) ** sum(beta), (3, 3), 2)


def _assert_shift_checks_match_general_route(P, m, cases):
    """shift_check against the sequence check on the general-route sequence;
    some of the cases must fail."""
    failed = 0
    for gamma, scale in cases:
        report = shift_check(P, m, gamma, (2, 2), 2, scale)
        assert report == complete_monotonicity_check(
            _general_route_sequence(P, m, gamma, (2, 2), 2, scale), (2, 2), 2)
        failed += not report.passed
    assert failed


def test_admissible_sequence_matches_general_route():
    # the rational tuple has non-integer axis entries, so its values are not 1/integer
    rational = from_polys([{(1, 0): F(1), (2, 0): F(2, 3)}, {(0, 1): F(1), (0, 2): F(5, 2)}])
    cases = [(gamma, scale) for gamma in [(0, 0), (1, 2)] for scale in (1, F(1, 2), F(3, 2))]
    for P in (hartogs_tuple(2), rational):
        _assert_shift_checks_match_general_route(P, (2, 3), cases)


def test_mixed_terms_sequence_matches_coeff_function():
    P = hartogs_tuple(2, 1)
    for m, gamma in [((1, 1), (0, 0)), ((2, 1), (1, 2))]:
        _assert_shift_checks_match_general_route(P, m, [(gamma, 1), (gamma, F(1, 2)), (gamma, F(3, 2))])
    # d = 3 > 1, shifts off the origin, and both the unscaled and the scaled cells
    cases = [(gamma, scale) for gamma in [(1, 2), (2, 1)] for scale in (1, F(1, 2), F(3, 2))]
    _assert_shift_checks_match_general_route(hartogs_tuple(2, F(2, 3)), (2, 1), cases)


def test_sequence_rejects_short_gamma_and_window():
    # the axis route would otherwise read only the first axes, silently
    for gamma, window in [((0,), (1, 1)), ((0, 0), (1,))]:
        with pytest.raises(ValueError):
            shift_check(hartogs_tuple(2), (2, 2), gamma, window, 1)


def test_sequence_rejects_negative_gamma_and_window():
    # the axis route read index -1 as the last cell, the general route divided by 0
    cases = [(hartogs_tuple(1), (3,), (-1,), (2,)), (hartogs_tuple(1), (3,), (0,), (-1,)),
             (hartogs_tuple(2, 1), (1, 1), (-1, 0), (2, 2))]
    for P, m, gamma, window in cases:
        with pytest.raises(ValueError):
            shift_check(P, m, gamma, window, 1)


def test_gamma_shift_consistency():
    # for monotone gamma the shifted sequence re-reads the base one
    P, m, gamma = hartogs_tuple(2), (2, 3), (1, 2)
    base = _reciprocals_of_general_route(P, m, (0, 0), (4, 4), 4)
    for scale in (1, F(1, 2)):
        def shifted(beta):
            return base[(beta[0] + gamma[0], beta[1] + gamma[1] - gamma[0])] / F(scale) ** sum(beta)
        assert shift_check(P, m, gamma, (2, 2), 2, scale) == complete_monotonicity_check(shifted, (2, 2), 2)


def test_constant_sequence_passes_all_orders():
    for order in (1, 3, 5):
        assert complete_monotonicity_check(lambda beta: 1, (2, 2), order).passed


def test_reciprocal_sequence_passes():
    report = complete_monotonicity_check(lambda beta: F(1, 1 + beta[0]), (4,), 4)
    assert report.passed


def test_geometric_growth_fails_at_first_difference():
    report = complete_monotonicity_check(lambda beta: 2 ** beta[0], (3,), 4)
    assert not report.passed
    assert report.witness == ((0,), (1,))


def test_witness_is_lexicographically_first():
    # fails only in the second variable; the first failing (k, beta) pair in
    # lexicographic order is k = (0, 1), beta = (0, 0)
    report = complete_monotonicity_check(lambda beta: 3 ** beta[1], (2, 2), 3)
    assert report.witness == ((0, 0), (0, 1))


def test_missing_cell_within_reach_raises_before_the_scan():
    # (k, beta) = ((1,), (0,)) fails first, but cell (7,) lies within reach
    values = {beta: 2 ** beta[0] for beta in box((7,))}
    del values[(7,)]
    with pytest.raises(KeyError):
        complete_monotonicity_check(values.__getitem__, (3,), 4)


# A negative window entry passed vacuously, a short window raised IndexError,
# scale 0 raised ZeroDivisionError and a negative scale gave a verdict.
@pytest.mark.parametrize("P, m, window, order, scale", [
    (hartogs_tuple(1), (2,), (-1,), 2, 1),
    (hartogs_tuple(2), (2, 2), (1,), 2, 1),
    (hartogs_tuple(1), (2,), (2,), 0, 1),
    (hartogs_tuple(1), (2,), (2,), 2, 0),
    (hartogs_tuple(2, 1), (2, 2), (2, 2), 2, -1),
], ids=["negative-window", "short-window", "order-0", "scale-0", "negative-scale"])
def test_sequence_rejects_bad_shape(P, m, window, order, scale):
    with pytest.raises(ValueError):
        shift_check(P, m, (0,) * P.n, window, order, scale)


def test_sequence_check_rejects_bad_window_and_order():
    for window, order in [((-1,), 2), ((2, -1), 2), ((2,), 0)]:
        with pytest.raises(ValueError):
            complete_monotonicity_check(lambda beta: 1, window, order)


def test_scaling_invariance_of_verdict():
    # c z_2 in place of z_2 multiplies A(alpha) by c^alpha_2, which is c^|beta|
    # up to a factor fixed by the shift, so it acts as the scale c
    failed = 0
    for c, scale in [(3, 1), (F(1, 2), 1), (2, F(1, 3)), (F(2, 5), F(3, 2))]:
        P = from_polys([{(1, 0): 1}, {(0, 1): c}])
        for gamma in [(0, 0), (2, 1)]:
            report = shift_check(P, (2, 3), gamma, (2, 2), 3, scale)
            assert report == shift_check(hartogs_tuple(2), (2, 3), gamma, (2, 2), 3, scale * c)
            failed += not report.passed
    assert 0 < failed < 8


def test_product_of_passing_sequences_passes():
    def sequence(m, gamma):
        return lambda beta: 1 / hartogs_coeff_closed(m, add_index(gamma, embedded_shift(beta)))

    s1, s2 = sequence((2, 1), (0, 0)), sequence((1, 3), (1, 1))
    assert complete_monotonicity_check(s1, (2, 2), 3).passed
    assert complete_monotonicity_check(s2, (2, 2), 3).passed
    assert complete_monotonicity_check(lambda beta: s1(beta) * s2(beta), (2, 2), 3).passed


def test_certify_small_cases():
    rep = hartogs_certify((1, 1), (1, 1), order=2, window=(1, 1))
    assert rep.passed and rep.gammas_checked == 4
    rep = hartogs_certify((2, 2, 2), (0, 0, 0), order=3, window=(2, 2, 2))
    assert rep.passed and rep.gammas_checked == 1


def test_certify_reports_window():
    rep = hartogs_certify((2, 3), (1, 0), order=2, window=(2, 2))
    assert rep.window == (2, 2) and rep.order == 2 and rep.passed


# A negative entry left an empty box of shifts or of beta, which passed
# vacuously; the other checks were made by the per-shift calls.
@pytest.mark.parametrize("m, gamma_bound, order, window", [
    ((2, 2), (1, -1), 2, None),
    ((2,), (1,), 2, (-1,)),
    ((2, 2), (1,), 2, None),
    ((2, 2), (1, 1), 2, (1, 1, 1)),
    ((2, 2), (1, 1), 0, None),
    ((0, 2), (1, 1), 2, None),
], ids=["negative-gamma-bound", "negative-window", "short-gamma-bound", "long-window", "order-0", "m-0"])
def test_certify_rejects_bad_input(m, gamma_bound, order, window):
    with pytest.raises(ValueError):
        hartogs_certify(m, gamma_bound, order, window)


def _per_shift_certify(m, gamma_bound, order, window):
    """The oracle: one complete_monotonicity_check per shift, on the
    general-route sequence."""
    failures = []
    for gamma in box(gamma_bound):
        s = _general_route_sequence(hartogs_tuple(len(m)), m, gamma, window, order)
        report = complete_monotonicity_check(s, window, order)
        if not report.passed:
            failures.append((gamma, report.witness))
    return not failures, failures, math.prod(g + 1 for g in gamma_bound)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(1, 4)] * n),
    st.tuples(*[st.integers(0, 2 if n < 3 else 1)] * n),
    st.integers(1, 4 if n < 3 else 3),
    st.tuples(*[st.integers(0, 2)] * n))))
def test_certify_matches_per_shift_oracle(case):
    m, gamma_bound, order, window = case
    report = hartogs_certify(m, gamma_bound, order, window)
    assert (report.passed, report.failures, report.gammas_checked) == _per_shift_certify(
        m, gamma_bound, order, window)


def _bounds(gamma_bound, window, order):
    """The box hartogs_certify builds its tables on: no larger than the cells read."""
    return tuple(g + e + order for g, e in zip(gamma_bound, embedded_shift(window)))


def _assert_first_witnesses_match(values, gamma_bound, window, order):
    """_first_witnesses on an integer table, set up as hartogs_certify does,
    against complete_monotonicity_check and against _naive_check on each
    shift's sequence of the same values.  Each sequence is a lookup in a dict
    of only the cells inside the table's box, so a read beyond it raises
    KeyError."""
    bounds = _bounds(gamma_bound, window, order)
    strides = _strides(bounds)
    steps = [sum(strides[j:]) for j in range(len(bounds))]
    starts = {gamma: _offset(gamma, bounds) for gamma in box(gamma_bound)}
    offsets = [(beta, _offset(embedded_shift(beta), bounds)) for beta in box(window)]
    witnesses = _first_witnesses(values, steps, starts, offsets, order)
    for gamma in box(gamma_bound):
        cells = {beta: add_index(gamma, embedded_shift(beta))
                 for beta in box(tuple(w + order for w in window))}
        s = {beta: values[_offset(alpha, bounds)] for beta, alpha in cells.items()
             if all(a <= b for a, b in zip(alpha, bounds))}.__getitem__
        assert witnesses.get(gamma) == complete_monotonicity_check(s, window, order).witness
        assert witnesses.get(gamma) == _naive_check(s, window, order)[1]
    return witnesses


def _moment_table(cs, bounds):
    """Integers L / prod_j (1 + c_j alpha_j), a moment multisequence over one denominator L."""
    scales = [math.lcm(*(1 + c * a for a in range(b + 1))) for c, b in zip(cs, bounds)]
    return [math.prod(s // (1 + c * a) for s, c, a in zip(scales, cs, alpha)) for alpha in box(bounds)]


@st.composite
def _perturbed_tables(draw):
    """Moment tables with a few cells nudged by up to a quarter of the largest
    cell, so that a good share of the shifts fail."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 3 if n == 3 else 4))
    gamma_bound = tuple(draw(st.lists(st.integers(0, 2 if n < 3 else 1), min_size=n, max_size=n)))
    window = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    values = _moment_table(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                           _bounds(gamma_bound, window, order))
    for off, nudge in draw(st.dictionaries(st.integers(0, len(values) - 1), st.integers(-4, 4),
                                           max_size=3)).items():
        values[off] += nudge * values[0] // 16
    return values, gamma_bound, window, order


@settings(max_examples=100, deadline=None)
@given(_perturbed_tables())
def test_first_witnesses_match_per_shift_scan(case):
    _assert_first_witnesses_match(*case)


def test_certify_faces_of_the_box():
    # Shifts and beta on the far faces read the last rows of the flat tables,
    # where offsets of cells outside the box would wrap onto other rows.
    cases = [((2, 3, 2), (0, 2, 0), 3, (1, 2, 0)), ((3,), (4,), 4, (0,)),
             ((2, 2), (3, 0), 2, (2, 0)), ((1, 2, 3), (1, 0, 1), 2, (0, 1, 0))]
    for m, gamma_bound, order, window in cases:
        report = hartogs_certify(m, gamma_bound, order, window)
        assert (report.passed, report.failures, report.gammas_checked) == _per_shift_certify(
            m, gamma_bound, order, window)
        # a table nudged at the last cell that the last shift reads, on the far
        # face of the last axis, so that this shift fails at order k = order * e_n
        bounds = _bounds(gamma_bound, window, order)
        values = _moment_table((1,) * len(m), bounds)
        far = add_index(gamma_bound, embedded_shift(window[:-1] + (window[-1] + order,)))
        values[_offset(far, bounds)] += (-1) ** (order + 1) * values[0]
        assert gamma_bound in _assert_first_witnesses_match(values, gamma_bound, window, order)


def test_certify_builds_one_table_set(monkeypatch):
    # one scaled table per axis, or one general table, per check, for all shifts or for one
    calls = []

    def counting(name):
        build = getattr(subnormality, name)

        def counted(*args):
            calls.append(name)
            return build(*args)
        return counted

    def refuse(*args, **kwargs):
        raise AssertionError("fell back to the sequence check")

    for name in ("_axis_scaled", "_divided"):
        monkeypatch.setattr(subnormality, name, counting(name))
    monkeypatch.setattr(subnormality, "complete_monotonicity_check", refuse)
    assert hartogs_certify((3, 2), (3, 3), order=3).passed
    assert calls == ["_axis_scaled"] * 2
    assert shift_check(hartogs_tuple(2), (3, 2), (3, 3), order=3).passed
    assert calls == ["_axis_scaled"] * 4
    shift_check(hartogs_tuple(2, 1), (3, 2), (1, 2), order=3)
    assert calls == ["_axis_scaled"] * 4 + ["_divided"]


def test_one_engine_call_per_check(monkeypatch):
    calls = []
    first_witnesses = subnormality._first_witnesses

    def counting(*args):
        calls.append(args)
        return first_witnesses(*args)

    monkeypatch.setattr(subnormality, "_first_witnesses", counting)
    assert shift_check(hartogs_tuple(2), (2, 3), (1, 0), (2, 2), 3).passed
    assert len(calls) == 1
    assert not shift_check(hartogs_tuple(2, 1), (1, 1), (0, 0), (2, 2), 3).passed
    assert len(calls) == 2
    assert not complete_monotonicity_check(lambda b: 2 ** b[0], (3,), 4).passed
    assert len(calls) == 3
    assert hartogs_certify((3, 2), (3, 3), order=3).passed
    assert len(calls) == 4


def test_certify_frees_spent_tables():
    # Freeing spent tables peaks at about 0.34 MB here; keeping all of them
    # alive peaked at about 2.2 MB.
    tracemalloc.start()
    try:
        assert hartogs_certify((3, 3, 3), (3, 3, 3), 4).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _naive_check(s, window, order):
    """Reference scan: every signed difference of the sequence s summed from
    scratch, in the lexicographic (k, beta) order of the report."""
    checked = 0
    for k in (k for k in box((order,) * len(window)) if 1 <= sum(k) <= order):
        for beta in box(window):
            diff = F(0)
            for i in box(k):
                cell = tuple(b + x for b, x in zip(beta, i))
                weight = math.prod(math.comb(kj, ij) for kj, ij in zip(k, i))
                diff += (-1) ** sum(i) * weight * s(cell)
            checked += 1
            if diff < 0:
                return False, (beta, k), checked
    return True, None, checked


@st.composite
def _perturbed_sequences(draw):
    """Products of 1/(1 + c_j beta_j), which are moment sequences, with a few
    cells nudged so that a good share of them fail, divided by scale^|beta|."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 3 if n == 3 else 4))
    window = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    scale = draw(st.sampled_from([1, 2, F(3, 2), F(2, 5)]))
    cs = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cells = st.tuples(*(st.integers(0, w + order) for w in window))
    nudges = draw(st.dictionaries(cells, st.fractions(F(-1, 4), F(1, 4), max_denominator=16),
                                  max_size=3))

    def s(beta):
        value = math.prod(F(1, 1 + c * b) for c, b in zip(cs, beta)) + nudges.get(beta, 0)
        return value / F(scale) ** sum(beta)
    return s, window, order


@settings(max_examples=150, deadline=None)
@given(_perturbed_sequences())
def test_difference_tables_match_naive_scan(case):
    report = complete_monotonicity_check(*case)
    assert (report.passed, report.witness, report.checked) == _naive_check(*case)


@st.composite
def _shift_cases(draw):
    """Two-variable tuples a_j z_j + c_j z_j^2, general when a mixed term is
    added, with a shift, window, order and scale."""
    coeffs = st.sampled_from([0, 1, F(2, 3), F(5, 2)])
    polys = [{(1, 0): draw(st.sampled_from([1, 2, F(1, 2)])), (2, 0): draw(coeffs)},
             {(0, 1): draw(st.sampled_from([1, 3, F(3, 4)])), (0, 2): draw(coeffs)}]
    for j in draw(st.sets(st.integers(0, 1))):
        polys[j][draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))] = draw(coeffs.filter(bool))
    pair = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return (from_polys(polys), draw(st.tuples(st.integers(1, 3), st.integers(1, 3))), draw(pair),
            draw(st.tuples(st.integers(0, 2), st.integers(0, 2))), draw(st.integers(1, 4)),
            draw(st.sampled_from([1, 2, F(1, 2), F(3, 2)])))


@settings(max_examples=100, deadline=None)
@given(_shift_cases())
def test_shift_check_matches_sequence_check(case):
    P, m, gamma, window, order, scale = case
    report = shift_check(P, m, gamma, window, order, scale)
    s = _general_route_sequence(P, m, gamma, window, order, scale)
    want = complete_monotonicity_check(s, window, order)
    assert ((report.passed, report.witness, report.checked)
            == (want.passed, want.witness, want.checked) == _naive_check(s, window, order))
