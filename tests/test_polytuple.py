import collections
import copy
import enum
import json
import random
import re
import sys
import types
from collections.abc import Mapping
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


def test_format_rationals_over_denominators_with_any_sign_and_shared_denominators():
    # A hypo_diag column holds zero and negative numerators; its denominators
    # repeat, and some reduce to 1 (or are 1), which prints no "/1".
    nums = [0, 0, -6, 6, -7, 5, 10, -10, 3 ** 40, -(3 ** 40), 4, -4]
    dens = [1, 9, 4, 4, 1, 1, 5, 5, 6 ** 25, 6 ** 25, 6, 6]
    texts = format_rationals(nums, dens)
    assert texts == [format_rational(v, d) for v, d in zip(nums, dens)] == [
        format_rational(F(v, d)) for v, d in zip(nums, dens)]
    assert texts[:8] + texts[10:] == ["0", "0", "-3/2", "3/2", "-7", "5", "2", "-2", "2/3", "-2/3"]
    assert format_rationals([], []) == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 12) | st.integers(1, 10 ** 30))))
def test_format_rationals_is_format_rational_per_cell(cells):
    nums, dens = [v for v, _ in cells], [d for _, d in cells]
    assert format_rationals(nums, dens) == [format_rational(F(v, d)) for v, d in cells]


def test_format_rationals_digit_limit_applies_to_the_reduced_denominator():
    # 3^10000 has more digits than the int-to-string limit: as a reduced
    # denominator it raises ResultTooLarge (never ValueError), also when it
    # repeats; over a numerator it divides, it never prints.
    big = 3 ** 10000
    assert format_rationals([big, 2 * big, 0], [big, big, big]) == ["1", "2", "0"]
    for nums in ([1], [2, 1], [1, 1, 1]):
        with pytest.raises(ResultTooLarge, match=f"{sys.get_int_max_str_digits()} digits"):
            format_rationals(nums, [big] * len(nums))


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


# --- one-pass parser against the two-pass reference ------------------------------
# The reference reads the document as the parser once did: each term is
# checked while it is read, then from_polys sums duplicates, drops zeros and
# builds every coefficient again, and the tuple's checks run on each term.

_REF_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _ref_rational(value, where):
    if type(value) is int:
        return F(value)
    if isinstance(value, str) and _REF_RATIONAL.fullmatch(value.strip()):
        try:
            return F(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInput(f"{where}: cannot parse rational {value!r:.80}: {exc}") from None
    raise MalformedInput(f"{where}: rational must be an integer or 'p/q' string, got {value!r:.80}")


def _ref_from_polys(polys):
    normalized = []
    for p in polys:
        out = {}
        for alpha, coeff in {alpha: F(c) for alpha, c in p.items()}.items():
            c = out[alpha] + coeff if alpha in out else coeff
            if c:
                out[alpha] = c
            else:
                out.pop(alpha, None)
        normalized.append(out)
    n, zero = len(normalized), (0,) * len(normalized)
    for j, p in enumerate(normalized):
        for alpha, coeff in p.items():
            if type(coeff) not in (int, F):
                raise MalformedInput(f"polys[{j}] term {alpha}: {coeff!r} is not an int or a Fraction")
            if len(alpha) != n or not all(x >= 0 for x in alpha):
                raise MalformedInput(f"polys[{j}]: bad exponent {alpha}")
            if coeff < 0:
                raise NegativeCoefficient(f"polys[{j}] term {alpha}: coefficient {coeff} < 0")
        if p.get(zero):
            raise ConstantTerm(f"polys[{j}]: constant term {p[zero]} present")
        if p.get(unit_index(n, j), F(0)) <= 0:
            raise MissingLinearTerm(f"polys[{j}]: linear self-coefficient a_{j + 1} absent or zero")
    return PolyTuple(tuple(normalized))


def _ref_parse(document):
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"not valid JSON: {exc}") from None
    if not isinstance(document, Mapping):
        raise MalformedInput("document must be a JSON object")
    n = document.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MalformedInput(f"'n' must be a positive integer, got {n!r}")
    polys_doc = document.get("polys")
    if not isinstance(polys_doc, list) or len(polys_doc) != n:
        raise MalformedInput(f"'polys' must be a list of {n} polynomials")
    polys = []
    for j, poly_doc in enumerate(polys_doc):
        where = f"polys[{j}]"
        if not isinstance(poly_doc, Mapping) or not isinstance(poly_doc.get("terms"), list):
            raise MalformedInput(f"{where}: expected an object with a 'terms' list")
        terms = {}
        for t, term in enumerate(poly_doc["terms"]):
            twhere = f"{where}.terms[{t}]"
            if not isinstance(term, Mapping):
                raise MalformedInput(f"{twhere}: expected an object")
            alpha = term.get("alpha")
            if (not isinstance(alpha, list) or len(alpha) != n
                    or not all(isinstance(e, int) and not isinstance(e, bool) for e in alpha)):
                raise MalformedInput(f"{twhere}.alpha: expected a list of {n} integers")
            if any(e < 0 for e in alpha):
                raise MalformedInput(f"{twhere}.alpha: negative exponent in {alpha}")
            coeff = _ref_rational(term.get("coeff"), f"{twhere}.coeff")
            if coeff < 0:
                raise NegativeCoefficient(f"{twhere}: coefficient {coeff} < 0")
            key = tuple(alpha)
            if sum(key) == 0 and coeff != 0:
                raise ConstantTerm(f"{twhere}: constant term {coeff} not allowed")
            terms[key] = terms[key] + coeff if key in terms else coeff
        polys.append(terms)
    return _ref_from_polys(polys)


class _ListOf(list):
    pass


class _Level(enum.IntEnum):
    ONE = 1


_COEFFS = ["1", "0", "-0", "2/3", " 7 ", "+2", "0/5", "6/4", "-1", "-1/2", "1/0", "-0/0", "9" * 5000,
           "1/" + "9" * 5000, "1e3", "0.5", "1_0", "", "3 / 4", 0, 1, 5, -2, 10 ** 30, 0.5, 1.0, True, None,
           [1], _Level.ONE]
_EXPONENTS = [0, 1, 2, -1, True, False, 1.0, "1", None, _Level.ONE]


def _as_mapping(value):
    return types.MappingProxyType(value) if type(value) is dict else value


def _mutate(rng, document):
    """One random edit of a copy of a tuple document, or the document itself
    when an earlier edit left it out of shape for this one."""
    try:
        return _edit(rng, copy.deepcopy(document))
    except (TypeError, KeyError, IndexError, AttributeError, ValueError):
        return document


def _edit(rng, document):
    polys = document["polys"]
    j = rng.randrange(len(polys))
    terms = polys[j]["terms"]
    t = rng.randrange(len(terms))
    term = terms[t]
    n = len(term["alpha"])
    edit = rng.randrange(14)
    if edit < 3:
        term["coeff"] = rng.choice(_COEFFS)
    elif edit == 3:
        term["alpha"][rng.randrange(n)] = rng.choice(_EXPONENTS)
    elif edit == 4:
        term["alpha"] = rng.choice([[0] * n, [0] * (n + 1), [1] * max(n - 1, 0), tuple(term["alpha"]),
                                    _ListOf(term["alpha"]), None])
    elif edit == 5:  # a duplicate, first or last
        terms.insert(rng.choice([t, len(terms)]), {"alpha": list(term["alpha"]), "coeff": rng.choice(_COEFFS[:9])})
    elif edit == 6:  # the linear term made zero or taken out
        linear = [k for k, x in enumerate(terms) if x["alpha"] == list(unit_index(n, j))]
        if linear:
            if rng.random() < 0.5:
                del terms[linear[0]]
            else:
                terms[linear[0]]["coeff"] = rng.choice(["0", "0/7", 0])
    elif edit == 7:
        del term[rng.choice(["alpha", "coeff"])]
    elif edit == 8:
        terms[t] = rng.choice([_as_mapping(term), [term], None, "term"])
    elif edit == 9:
        polys[j] = rng.choice([_as_mapping(polys[j]), {"terms": _ListOf(terms)}, {"terms": tuple(terms)},
                               {}, []])
    elif edit == 10:
        document["n"] = rng.choice([0, -1, True, "2", 2.0, None, n + 1, _Level.ONE])
    elif edit == 11:
        document["polys"] = rng.choice([_ListOf(polys), tuple(polys), polys[:-1], polys + polys[:1], None])
    elif edit == 12:
        terms.append({"alpha": [0] * n, "coeff": rng.choice(["0", "1", "0/2"])})
    else:
        document = rng.choice([_as_mapping(document), [document], "not json {", None])
    return document


def _outcome(parse, document):
    try:
        P = parse(document)
    except Exception as exc:
        return type(exc), str(exc)
    # the terms in their order, and the type of each coefficient
    return [[(alpha, c, type(c)) for alpha, c in p.items()] for p in P.polys]


def test_one_pass_parser_matches_the_two_pass_reference():
    bases = [doc(2, [[((1, 0), "1"), ((1, 1), "2/3")], [((0, 1), "1"), ((1, 1), "2/3")]]),
             doc(3, [[(unit_index(3, j), 1), ((1, 1, 1), "2")] for j in range(3)]),
             doc(2, [[((1, 0), "4/3"), ((2, 0), "1/5")], [((0, 1), "3/2"), ((0, 3), 7)]]),
             doc(1, [[((2,), "0"), ((1,), "1/2"), ((2,), "1/3"), ((3,), "0"), ((3,), "-0")]])]
    rng = random.Random(20211)
    reached = collections.Counter()
    for i in range(3000):
        document = bases[i % len(bases)]
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            document = _mutate(rng, document)
        if rng.random() < 0.1:
            try:
                document = json.dumps(document)
            except (TypeError, ValueError):
                pass
        expected = _outcome(_ref_parse, document)
        assert _outcome(parse_and_validate, document) == expected, document
        reached[expected[0].__name__ if type(expected) is tuple else "PolyTuple"] += 1
        if type(expected) is tuple:
            reached.update(key for key in ("Exceeds the limit", "Fraction(", "got '1e3'", "rational must")
                           if key in expected[1])
    assert set(reached) >= {"PolyTuple", "MalformedInput", "NegativeCoefficient", "ConstantTerm",
                            "MissingLinearTerm", "Exceeds the limit", "Fraction(", "got '1e3'", "rational must"}


def test_zero_terms_drop_out_in_the_order_of_first_appearance():
    # a zero term keeps its monomial's place when a nonzero term of it follows
    P = parse_and_validate(doc(1, [[((2,), "0"), ((1,), "1"), ((3,), "0"), ((2,), "1/2"), ((3,), "0/4")]]))
    assert list(P.polys[0].items()) == [((2,), F(1, 2)), ((1,), F(1))]
    # duplicates that sum to zero drop out, as a zero constant term does
    P = parse_and_validate(doc(1, [[((1,), "1"), ((2,), "0"), ((0,), "0"), ((2,), "-0")]]))
    assert list(P.polys[0].items()) == [((1,), F(1))]
