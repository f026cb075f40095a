import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs.errors import (
    ConstantTerm,
    MalformedInput,
    MissingLinearTerm,
    NegativeCoefficient,
    ResultTooLarge,
)
from hartogs.polytuple import (
    PolyTuple,
    _to_float,
    admissibility_degree,
    format_rational,
    format_rationals,
    from_polys,
    hartogs_tuple,
    parse_and_validate,
    parse_rational,
    serialize,
    tilde_restrictions,
    unit_index,
)


def doc(n, polys):
    return {"n": n, "polys": [{"terms": [{"alpha": list(a), "coeff": c}
                                          for a, c in terms]} for terms in polys]}


def test_parse_hartogs_pair():
    P = parse_and_validate(doc(2, [[((1, 0), "1")], [((0, 1), "1")]]))
    assert P.n == 2
    assert P.polys[0] == {(1, 0): F(1)}
    assert P.linear_coefficients == (F(1), F(1))


def test_parse_a1_tuple():
    P = parse_and_validate(doc(2, [[((1, 0), 1), ((1, 1), 1)],
                                   [((0, 1), 1), ((1, 1), 1)]]))
    assert P == hartogs_tuple(2, 1)


def test_parse_rejects_missing_linear_term():
    with pytest.raises(MissingLinearTerm):
        parse_and_validate(doc(1, [[((2,), "1")]]))


def test_parse_rejects_negative_coefficient():
    with pytest.raises(NegativeCoefficient) as exc:
        parse_and_validate(doc(1, [[((1,), "1"), ((2,), "-1/2")]]))
    assert "terms[1]" in str(exc.value)


def test_parse_rejects_constant_term():
    with pytest.raises(ConstantTerm):
        parse_and_validate(doc(1, [[((1,), "1"), ((0,), "3")]]))


@pytest.mark.parametrize("bad", [
    {"n": 0, "polys": []},
    {"n": 2, "polys": [{"terms": []}]},
    {"n": 1, "polys": [{"terms": [{"alpha": [1, 0], "coeff": "1"}]}]},
    {"n": 1, "polys": [{"terms": [{"alpha": [1], "coeff": 0.5}]}]},
    {"n": 1, "polys": [{"terms": [{"alpha": [-1], "coeff": "1"}]}]},
    "not json {",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(MalformedInput):
        parse_and_validate(bad)


def test_zero_terms_normalized_away():
    P = parse_and_validate(doc(1, [[((1,), "1"), ((3,), "0")]]))
    assert P.polys[0] == {(1,): F(1)}


def test_duplicate_terms_accumulate():
    P = parse_and_validate(doc(1, [[((1,), "1/3"), ((1,), "2/3")]]))
    assert P.polys[0] == {(1,): F(1)}


def test_roundtrip_examples():
    for P in [hartogs_tuple(1), hartogs_tuple(3), hartogs_tuple(2, F(5, 7)),
              from_polys([{(1, 0): F(2), (0, 3): F(1, 2)}, {(0, 1): F(1, 3)}])]:
        assert parse_and_validate(json.dumps(serialize(P))) == P


@st.composite
def poly_tuples(draw):
    n = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)
    polys = []
    for j in range(n):
        terms = {unit_index(n, j): draw(coeff)}
        extra = draw(st.lists(
            st.tuples(st.lists(st.integers(0, 3), min_size=n, max_size=n), coeff),
            max_size=3))
        for alpha, c in extra:
            if sum(alpha) > 0:
                terms[tuple(alpha)] = c
        polys.append(terms)
    return from_polys(polys)


@settings(max_examples=40, deadline=None)
@given(poly_tuples())
def test_roundtrip_property(P):
    assert parse_and_validate(json.dumps(serialize(P))) == P


def test_admissibility_hartogs():
    for n in (1, 2, 4):
        adm = admissibility_degree(hartogs_tuple(n))
        assert adm.admissible and adm.degree is None


def test_admissibility_a_positive():
    # mixed term z_1*...*z_n of degree n in every slot
    for n in (2, 3):
        adm = admissibility_degree(hartogs_tuple(n, 2))
        assert adm.degree == n - 1
        assert not adm.admissible
        assert adm.at_least(n - 1) and not adm.at_least(n)


def test_admissibility_linear_cross_term():
    P = from_polys([{(1, 0): F(1), (0, 1): F(1)}, {(0, 1): F(1)}])
    adm = admissibility_degree(P)
    assert adm.degree == 0 and not adm.admissible


def test_admissible_implies_all_degrees_sentinel():
    P = from_polys([{(1, 0): F(1), (3, 0): F(2)}, {(0, 1): F(4)}])
    adm = admissibility_degree(P)
    assert adm.admissible and adm.degree is None


def test_tilde_restrictions_hartogs():
    assert tilde_restrictions(hartogs_tuple(3)) == [{1: F(1)}] * 3


def test_tilde_restrictions_drop_mixed_terms():
    assert tilde_restrictions(hartogs_tuple(2, 1)) == [{1: F(1)}, {1: F(1)}]


def test_tilde_restrictions_keep_pure_powers():
    P = from_polys([{(1, 0): F(1), (3, 0): F(1)}, {(0, 1): F(1)}])
    assert tilde_restrictions(P) == [{1: F(1), 3: F(1)}, {1: F(1)}]


def test_admissible_tuple_equals_its_restrictions():
    P = from_polys([{(1, 0): F(2), (2, 0): F(1, 3)}, {(0, 1): F(1)}])
    for j, tilde in enumerate(tilde_restrictions(P)):
        rebuilt = {tuple(k if i == j else 0 for i in range(P.n)): c
                   for k, c in tilde.items()}
        assert rebuilt == P.polys[j]


def test_parse_rational_accepts_only_integers_and_p_over_q():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(" 7 ") == 7
    assert parse_rational("-2") == -2
    assert parse_rational(5) == 5
    # Decimals, exponents and digit separators are other forms of Fraction;
    # "1e10000000" would take seconds to expand and "1e-5000" could not be printed.
    for text in ("1e-5000", "1e10000000", "0.5", "1_0", "1/0", "", "3 / 4"):
        with pytest.raises(MalformedInput):
            parse_rational(text)


def test_format_rational_too_long_raises_result_too_large():
    assert format_rational(F(-3, 4)) == "-3/4"
    for value in (F(10 ** 5000), 10 ** 5000, F(1, 10 ** 5000)):
        with pytest.raises(ResultTooLarge, match=f"{sys.get_int_max_str_digits()} digits"):
            format_rational(value)
    with pytest.raises(ResultTooLarge, match=f"{sys.get_int_max_str_digits()} digits"):
        format_rational(1, 3 ** 10000)
    for columns in ([[1, 10 ** 5000]], [[1, 2], [1, 3 ** 10000]]):  # ints, and over denominators
        with pytest.raises(ResultTooLarge, match=f"{sys.get_int_max_str_digits()} digits"):
            format_rationals(*columns)


def test_format_rational_ints_and_fractions():
    # An int and a Fraction of the same value print alike: p, or p/q in lowest terms.
    cases = [(0, "0"), (7, "7"), (-12, "-12"), (10 ** 30, "1" + "0" * 30), (F(0), "0"), (F(6, 2), "3"),
             (F(-3, 4), "-3/4"), (F(4, -6), "-2/3"), (F(1, 10 ** 20), "1/1" + "0" * 20)]
    assert [(value, format_rational(value)) for value, _ in cases] == cases


def test_format_rational_over_a_denominator_is_the_reduced_fraction():
    # coeffs prints B(alpha) over d^|alpha| without building the Fraction, a
    # column at a time; weights prints its quotients one cell at a time
    cases = [(0, 9), (6, 4), (-6, 4), (7, 1), (12, 3), (F(1, 2), 3), (F(-4, 3), 2), (3 ** 40, 6 ** 25)]
    assert [format_rational(v, d) for v, d in cases] == [format_rational(F(v) / d) for v, d in cases]
    ints = [(v, d) for v, d in cases if type(v) is int]
    assert format_rationals(*zip(*ints)) == [format_rational(v, d) for v, d in ints]
    assert format_rationals(v for v, _ in ints) == [format_rational(v) for v, _ in ints]


@pytest.mark.parametrize("coeff", [0.5, 1.0, True], ids=["float", "integral-float", "bool"])
def test_polytuple_rejects_inexact_coefficients(coeff):
    # A float coefficient once made a valid tuple that serialize could not print.
    with pytest.raises(MalformedInput, match="not an int or a Fraction"):
        PolyTuple(({(1,): coeff},))
    assert serialize(PolyTuple(({(1,): 2},))) == serialize(PolyTuple(({(1,): F(2)},)))


def test_to_float_rejects_only_values_without_a_float():
    for value in (F(10 ** 400), 10 ** 400, F(-(10 ** 400)), F(1, 10 ** 400), F(-1, 10 ** 400)):
        with pytest.raises(MalformedInput, match="the value has no float value"):
            _to_float(value, "the value")
    kept = [(F(0), 0.0), (0, 0.0), (7, 7.0), (F(-3, 4), -0.75), (F(1, 10 ** 320), 1e-320)]
    assert [(value, _to_float(value, "x")) for value, _ in kept] == kept
    assert 0.0 < _to_float(F(1, 10 ** 320), "x") < sys.float_info.min  # subnormal, kept
