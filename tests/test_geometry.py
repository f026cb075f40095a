import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs.errors import MalformedInput, WrongDimension, ZeroCoordinate
from hartogs.geometry import forward, polydisc_radii, triangle_contains
from hartogs.polytuple import _to_float, from_polys, hartogs_tuple, poly_eval, tilde_restrictions


def inverse(p):
    """Product coordinates (w_1*...*w_n, ..., w_n), the inverse of forward; defined everywhere."""
    p = tuple(complex(z) for z in p)
    out = []
    tail = 1 + 0j
    for j in range(len(p) - 1, -1, -1):
        tail *= p[j]
        out.append(tail)
    return tuple(reversed(out))


def test_forward_inverse_examples():
    assert forward((0.2, 0.5)) == pytest.approx((0.4, 0.5))
    assert inverse((0.4, 0.5)) == pytest.approx((0.2, 0.5))


def test_change_of_variables_roundtrip_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        z = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        for j in range(1, n):
            while abs(z[j]) < 0.1:
                z[j] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        back = inverse(forward(z))
        assert max(abs(a - b) for a, b in zip(back, z)) < 1e-14


def test_forward_rejects_zero_tail():
    with pytest.raises(ZeroCoordinate):
        forward((0.3, 0.0))
    with pytest.raises(ZeroCoordinate):
        forward((0.3, 0.5, 0.0))


def test_inverse_defined_everywhere():
    assert inverse((1.0, 0.0)) == (0.0, 0.0)


def test_hartogs_membership():
    P0 = hartogs_tuple(2)
    assert triangle_contains(P0, (0.2, 0.5))
    assert not triangle_contains(P0, (0.5, 0.2))
    assert not triangle_contains(P0, (0.2, 0.0))


def test_membership_needs_a_point_of_n_coordinates():
    P0 = hartogs_tuple(2)
    for point in ((0.1, 0.5, 0.9), (0.3,)):
        with pytest.raises(WrongDimension):
            triangle_contains(P0, point)


def test_hartogs_membership_boundary_is_outside():
    P0 = hartogs_tuple(2)
    assert not triangle_contains(P0, (0.5, 0.5))
    assert not triangle_contains(P0, (0.2, 1.0))


def test_membership_of_a_point_whose_squared_moduli_overflow():
    # |1e200|^2 overflows as a modulus, and 0.1^2 / |1e200|^2 is never formed:
    # the point is far outside.
    P0 = hartogs_tuple(2)
    assert not triangle_contains(P0, (1e200, 1))
    assert not triangle_contains(P0, (0.1, 1e200))


def test_a1_membership():
    P1 = hartogs_tuple(2, 1)
    assert triangle_contains(P1, (0.61, 0.78))
    assert not triangle_contains(P1, (0.63, 0.79))


def test_membership_iff_quotient_image_in_balls():
    # by definition: the squared-moduli image must satisfy every P_j < 1
    P1 = hartogs_tuple(2, 1)
    rng = random.Random(3)
    for _ in range(50):
        z = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 0.3)
        if z[1] == 0:
            continue
        u = [abs(z[0] / z[1]) ** 2, abs(z[1]) ** 2]
        expected = all(poly_eval(p, u).real < 1 for p in P1.polys)
        assert triangle_contains(P1, z) == expected


def test_membership_reinhardt_invariance():
    P1 = hartogs_tuple(2, 1)
    rng = random.Random(11)
    for _ in range(30):
        z = (rng.uniform(0, 0.8), rng.uniform(0.1, 0.95))
        phases = [cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(2)]
        rotated = tuple(p * c for p, c in zip(phases, z))
        assert triangle_contains(P1, z) == triangle_contains(P1, rotated)


def test_polydisc_radii_examples():
    assert polydisc_radii(hartogs_tuple(3)) == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
    P = from_polys([{(1, 0): F(1), (2, 0): F(1)}, {(0, 1): F(1)}])
    golden = (math.sqrt(5) - 1) / 2
    assert polydisc_radii(P)[0] == pytest.approx(math.sqrt(golden), abs=1e-9)
    P4 = from_polys([{(1,): F(4)}])
    assert polydisc_radii(P4) == pytest.approx([0.5], abs=1e-9)


def test_admissible_membership_is_polydisc_membership():
    P = from_polys([{(1, 0): F(1), (2, 0): F(1)}, {(0, 1): F(2)}])
    r = polydisc_radii(P)
    rng = random.Random(5)
    for _ in range(100):
        z = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)))
        if abs(z[1]) < 1e-6:
            continue
        w = forward(z)
        in_polydisc = abs(w[0]) < r[0] and 0 < abs(w[1]) < r[1]
        assert triangle_contains(P, z) == in_polydisc


def test_membership_implies_coordinate_bounds():
    P = from_polys([{(1, 0): F(2)}, {(0, 1): F(1), (0, 2): F(1)}])
    r = polydisc_radii(P)
    rng = random.Random(9)
    hits = 0
    for _ in range(300):
        z = (rng.uniform(0, 1), rng.uniform(0, 1))
        if triangle_contains(P, z):
            hits += 1
            assert abs(z[0]) < r[0] * r[1] + 1e-12
            assert abs(z[1]) < r[1] + 1e-12
    assert hits > 0


@pytest.mark.parametrize("a", [F(1, 10 ** 400), F(1, 10 ** 320), F(10 ** 400)],
                         ids=["tiny", "subnormal", "huge"])
def test_coefficients_without_a_float_raise_malformed_input(a):
    P = from_polys([{(1, 0): a}, {(0, 1): 1}])
    with pytest.raises(MalformedInput):
        polydisc_radii(P)
    if a == F(1, 10 ** 320):  # a subnormal coefficient is kept
        assert triangle_contains(P, (0.1, 0.5))
    else:  # (0, 0.5) lies inside, but the huge coefficient made it read as outside
        with pytest.raises(MalformedInput, match="has no float value"):
            triangle_contains(P, (0, 0.5))


@pytest.mark.parametrize("a", [F(1, 10 ** 200), F(1, 10 ** 320)], ids=["tiny", "subnormal"])
def test_polydisc_radii_bracket_at_the_term_that_reaches_1_first(a):
    # a t + t^2 = 1 has its root near 1, but the bracket 1/a squared overflowed
    # (and 1/a itself for the subnormal a), so the tuple was rejected.
    P = from_polys([{(1, 0): a, (2, 0): 1}, {(0, 1): 1}])
    assert polydisc_radii(P) == pytest.approx([1.0, 1.0], abs=1e-9)


@pytest.mark.parametrize("e", [4, 100, 307])
def test_polydisc_radii_end_where_floats_are_coarser_than_the_tolerance(e):
    # Beyond a root of about 4500 the spacing of floats exceeds the bisection
    # tolerance, and the bisection for z_1 / 10^e never ended.
    assert polydisc_radii(from_polys([{(1,): F(1, 10 ** e)}])) == pytest.approx([10.0 ** (e / 2)], rel=1e-12)


@pytest.mark.parametrize("q", [93, 99, 161])
def test_polydisc_radii_double_the_bracket_where_rounding_leaves_it_below_1(q):
    # float(1/q) * float(1/q)^-1 rounds below 1 for these q, so the bracket at
    # the term that reaches 1 first is doubled before the bisection starts.
    a = F(1, q)
    assert float(a) * float(a) ** -1.0 < 1.0
    assert polydisc_radii(from_polys([{(1,): a}])) == pytest.approx([math.sqrt(q)], rel=1e-12)



def _r1(c):
    r1, r2 = polydisc_radii(from_polys([{(1, 0): c}, {(0, 1): 1}]))
    assert r2 == 1.0
    return r1


def test_polydisc_radii_to_the_last_bits_for_every_power_of_ten():
    # r_1^2 of c z_1 is 1/c.  An absolute stop of the bisection on r^2 read
    # r_1 of 10^13 z_1 as 6.74e-7 for 3.16e-7; adjacent floats hold it to an ulp.
    for k in range(308):
        assert _r1(10 ** k) == pytest.approx(math.sqrt(1 / 10 ** k), rel=1e-15, abs=0), k


@pytest.mark.parametrize("c", [F(3, 2), F(2, 3), F(7, 3), F(355, 113), F(10 ** 12, 7), F(1, 10 ** 12)], ids=str)
def test_polydisc_radii_to_the_last_bits_for_a_rational_coefficient(c):
    assert _r1(c) == pytest.approx(math.sqrt(1 / c), rel=1e-15, abs=0)


def _poly_eval_radii(P):
    """polydisc_radii with the restriction as a Fraction term map, evaluated by
    poly_eval (which converts each coefficient again) at every step."""
    radii = []
    for j, g in enumerate(tilde_restrictions(P)):
        a_j = _to_float(P.linear_coefficient(j), f"the linear coefficient a_{j + 1}")
        hi = math.inf
        for k, c in g.items():
            try:
                hi = min(hi, (a_j if k == 1 else _to_float(c, "a coefficient")) ** (-1.0 / k))
            except OverflowError:
                pass
        hi = max(1.0, hi)
        g = {(k,): c for k, c in g.items()}
        try:
            while poly_eval(g, (hi,)) < 1.0:
                hi *= 2.0
        except OverflowError:
            hi = math.inf
        if hi == math.inf:
            raise MalformedInput(f"the bisection bracket for r_{j + 1}^2 is beyond the float range")
        lo, mid = 0.0, 0.5 * hi
        while lo < mid < hi:
            if poly_eval(g, (mid,)) < 1.0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * lo + 0.5 * hi
        radii.append(math.sqrt(mid))
    return radii


def _outcome(radii, P):
    try:
        return radii(P)
    except MalformedInput as exc:
        return type(exc), str(exc)


_COEFFS = st.one_of(
    st.builds(lambda c, e: c * F(10) ** e, st.fractions(F(1, 9), 9), st.integers(-300, 300)),
    st.sampled_from([F(1, 10 ** 320), F(1, 10 ** 400), F(10 ** 400)]))  # subnormal, tiny, huge


@st.composite
def _restriction_tuples(draw):
    n = draw(st.integers(1, 2))
    polys = []
    for j in range(n):
        degrees = draw(st.sets(st.integers(2, 8), max_size=3))
        polys.append({tuple(k if i == j else 0 for i in range(n)): draw(_COEFFS) for k in [1, *degrees]})
    return from_polys(polys)


@settings(max_examples=300, deadline=None)
@given(P=_restriction_tuples())
def test_polydisc_radii_are_the_poly_eval_bisection(P):
    # The float terms, converted once per axis, give the floats and the errors
    # of the bisection that evaluates the Fraction term map at every step.
    assert _outcome(polydisc_radii, P) == _outcome(_poly_eval_radii, P)
