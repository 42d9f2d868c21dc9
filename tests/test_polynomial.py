"""Exact polynomial arithmetic and the rank-reversal/difference operators."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from klspoly.polynomial import (NEG_INF, DegreeExceedsRank, NotDivisible,
                                Poly, delta_invert, delta_truncate,
                                poly_div_t_minus_1, poly_dot, poly_rev)

coeffs = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)
polys = coeffs.map(Poly)
small_rank = st.integers(min_value=0, max_value=12)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
rational_lists = st.lists(rationals, max_size=6)


def _exact(c):
    """An exact coefficient: int, or Fraction whose denominator is not 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_construction_trims_and_coerces():
    p = Poly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert all(_exact(c) for c in p.coeffs)
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert Poly(["1/2", 1]).coeff(0) == Fraction(1, 2)
    assert not Poly() and not Poly([0, 0])
    assert Poly().degree == NEG_INF
    with pytest.raises(TypeError):
        Poly([1.5])


def test_integer_coefficients_are_stored_as_int():
    assert Poly([Fraction(4, 2), "3/1", True]).coeffs == (2, 3, 1)
    assert all(type(c) is int for c in Poly([Fraction(4, 2), "3/1", True]).coeffs)
    half = Poly([Fraction(1, 2)])
    assert type(half.coeffs[0]) is Fraction
    doubled = half * 2
    assert doubled.coeffs == (1,) and type(doubled.coeffs[0]) is int
    assert all(type(c) is int for c in (half + half).coeffs)
    assert type(Poly([1]).coeff(5)) is int


def test_equality_and_hash_do_not_see_the_representation():
    assert Poly([Fraction(1)]) == Poly([1])
    assert hash(Poly([Fraction(1)])) == hash(Poly([1]))
    assert Poly([Fraction(3, 1), Fraction(1, 2)]) == Poly([3, "1/2"])
    assert hash(Poly([Fraction(3, 1), Fraction(1, 2)])) == hash(Poly([3, "1/2"]))
    assert Poly([2]) == Fraction(2) and Poly([2]) == 2


def test_json_strings_are_the_same_for_int_and_fraction_input():
    assert Poly([Fraction(-2), Fraction(7, 1)]).to_json() == ["-2", "7"]
    assert Poly([-2, 7]).to_json() == ["-2", "7"]
    assert Poly([Fraction(1, 3), Fraction(6, 2)]).to_json() == ["1/3", "3"]


def _ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@given(rational_lists, rational_lists, small_rank)
@example(a=[Fraction(1), Fraction(0)], b=[], r=0)
def test_arithmetic_agrees_with_a_fraction_reference(a, b, r):
    p, q = Poly(a), Poly(b)
    for got, want in ((p + q, _ref_add(a, b)), (p * q, _ref_mul(a, b)),
                      (-p, [-x for x in a])):
        assert got.coeffs == _ref_trim(want)
        assert all(_exact(c) for c in got.coeffs)
    if p.degree <= r:
        trimmed = list(_ref_trim(a))
        padded = trimmed + [Fraction(0)] * (r + 1 - len(trimmed))
        rev = poly_rev(p, r)
        assert rev.coeffs == _ref_trim(reversed(padded))
        assert all(_exact(c) for c in rev.coeffs)
    # (t - 1) * p divided back; p itself leaves the remainder p(1), and
    # p - p(1) divides with p = (t - 1) q + p(1)
    tm1 = [Fraction(-1), Fraction(1)]
    quotient = poly_div_t_minus_1(Poly(_ref_mul(a, tm1)))
    assert quotient.coeffs == _ref_trim(a)
    assert all(_exact(c) for c in quotient.coeffs)
    value = sum(a, Fraction(0))
    if value:
        with pytest.raises(NotDivisible) as err:
            poly_div_t_minus_1(p)
        assert err.value.remainder == value
    quotient = poly_div_t_minus_1(p - value)
    assert Poly(_ref_add(_ref_mul(list(quotient.coeffs), tm1), [value])) == p


def test_division_by_t_minus_1_examples():
    assert poly_div_t_minus_1(Poly()) == Poly()
    assert poly_div_t_minus_1(Poly([-1, 0, 1])) == Poly([1, 1])
    for p, quotient, value in ((Poly([5]), Poly(), 5),
                               (Poly([1, 1]), Poly([1]), 2)):
        with pytest.raises(NotDivisible) as err:
            poly_div_t_minus_1(p)
        assert err.value.remainder == value
        assert poly_div_t_minus_1(p - value) == quotient


def test_arithmetic_basics():
    p, q = Poly([1, 1]), Poly([1, 4, 1])
    assert p + q == Poly([2, 5, 1])
    assert q - p == Poly([0, 3, 1])
    assert p * p == Poly([1, 2, 1])
    assert p * 0 == Poly()
    assert (p ** 3) == Poly([1, 3, 3, 1])
    assert q(1) == 6 and q(-1) == -2
    assert Poly(p.coeffs[:1]) == Poly([1])


@pytest.mark.parametrize("other", [1.5, "a", None],
                         ids=["float", "str", "none"])
def test_mixing_an_unsupported_type_is_a_type_error(other):
    p = Poly([1])
    for op in (lambda: other - p, lambda: p - other, lambda: other + p,
               lambda: p * other, lambda: other * p):
        with pytest.raises(TypeError):
            op()
    assert 2 - p == Poly([1]) and Fraction(1, 2) - p == Poly([Fraction(-1, 2)])


@given(polys, polys)
def test_addition_and_multiplication_commute(p, q):
    assert p + q == q + p
    assert p * q == q * p


@given(polys, polys, polys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(polys, small_rank)
def test_rev_is_an_involution(p, r):
    if p.degree > r:
        with pytest.raises(DegreeExceedsRank):
            poly_rev(p, r)
        return
    assert poly_rev(poly_rev(p, r), r) == p


@given(polys, polys, small_rank, small_rank)
def test_rev_is_multiplicative(p, q, r, s):
    if p.degree > r or q.degree > s:
        return
    assert poly_rev(p * q, r + s) == poly_rev(p, r) * poly_rev(q, s)


def test_rev_examples():
    assert poly_rev(Poly([1, 2]), 3) == Poly([0, 0, 2, 1])
    assert poly_rev(Poly(), 4) == Poly()


@given(polys)
def test_division_by_t_minus_1_roundtrips(p):
    tm1 = Poly([-1, 1])
    assert poly_div_t_minus_1(p * tm1) == p


def test_division_remainder_is_reported():
    with pytest.raises(NotDivisible) as err:
        poly_div_t_minus_1(Poly([1, 1]))
    assert err.value.remainder == Poly([2])


@given(coeffs, st.integers(min_value=1, max_value=6))
def test_delta_operators_invert_on_symmetric_input(half, r):
    # build a symmetric polynomial of degree <= r - 1 from its lower half
    low = half[: (r + 1) // 2]
    full = [Fraction(0)] * r
    for i, c in enumerate(low):
        full[i] = Fraction(c)
        full[r - 1 - i] = Fraction(c)
    p = Poly(full)
    assert poly_rev(p, r - 1) == p
    assert delta_invert(delta_truncate(p, r), r) == p


def test_delta_truncate_examples():
    # 1 + 4t + t^2 at rank 3 keeps 1 + 3t
    assert delta_truncate(Poly([1, 4, 1]), 3) == Poly([1, 3])
    assert delta_truncate(Poly([1, 4, 1]), 1) == Poly([1])
    with pytest.raises(ValueError):
        delta_truncate(Poly([1]), 0)


def test_json_roundtrip_is_exact():
    p = Poly(["1/3", -2, 7])
    assert Poly.from_json(p.to_json()) == p
    assert p.to_json() == ["1/3", "-2", "7"]


# -- the numerator/denominator representation --------------------------------

mixed_rationals = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=60))
mixed_lists = st.lists(mixed_rationals, max_size=6)


def _canonical(p):
    """num is a trimmed int tuple over den > 0 with gcd(den, *num) == 1."""
    assert type(p.num) is tuple and all(type(c) is int for c in p.num)
    assert type(p.den) is int and p.den > 0
    assert not p.num or p.num[-1] != 0
    assert gcd(p.den, *p.num) == 1
    if not p.num:
        assert (p.num, p.den) == ((), 1)
    return True


def _ref(cs):
    return [Fraction(c) for c in cs]


def _matches(p, cs):
    """p is canonical and has the coefficients of the Fraction list cs."""
    return _canonical(p) and p.coeffs == _ref_trim(cs) and \
        all(_exact(c) for c in p.coeffs)


def test_canonical_form_examples():
    assert (Poly().num, Poly().den) == ((), 1)
    assert (Poly([Fraction(0, 7)]).num, Poly([Fraction(0, 7)]).den) == ((), 1)
    half = Poly(["1/2", "1/3", 0])
    assert (half.num, half.den) == ((3, 2), 6)
    # (t - 1)/3 * 3 reduces back to an integer polynomial
    third = Poly([Fraction(-1, 3), Fraction(1, 3)]) * 3
    assert (third.num, third.den) == ((-1, 1), 1)
    # equal denominators whose sum shares a factor with them
    s = Poly([Fraction(1, 4)]) + Poly([Fraction(1, 4)])
    assert (s.num, s.den) == ((1,), 2)
    assert Poly(["1/2", 1]) - Poly(["1/2", 1]) == Poly()
    assert (Poly(["1/2", 1]) - Poly(["1/2", 1])).den == 1


@given(mixed_lists, mixed_lists, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=4))
@example(a=[Fraction(1, 2)], b=[Fraction(-1, 2)], k=2, s=1)
@example(a=[Fraction(1, 6), Fraction(1, 3)], b=[Fraction(5, 6)], k=0, s=0)
def test_every_operation_stays_canonical_and_exact(a, b, k, s):
    p, q = Poly(a), Poly(b)
    assert _matches(p, _ref(a)) and _matches(q, _ref(b))
    assert _matches(p + q, _ref_add(_ref(a), _ref(b)))
    assert _matches(p - q, _ref_add(_ref(a), [-x for x in _ref(b)]))
    assert _matches(-p, [-x for x in _ref(a)])
    assert _matches(p * q, _ref_mul(_ref(a), _ref(b)))
    power = [Fraction(1)]
    for _ in range(k):
        power = _ref_mul(power, _ref(a))
    assert _matches(p ** k, power)
    trimmed = list(_ref_trim(_ref(a)))
    r = len(trimmed) + s
    padded = trimmed + [Fraction(0)] * (r + 1 - len(trimmed))
    assert _matches(poly_rev(p, r), list(reversed(padded)))
    value = sum(_ref(a), Fraction(0))
    if value:
        with pytest.raises(NotDivisible) as err:
            poly_div_t_minus_1(p)
        assert _matches(err.value.remainder, [value])
    quotient = poly_div_t_minus_1(p - value)
    assert _canonical(quotient)
    back = _ref_add(_ref_mul(list(quotient.coeffs), [Fraction(-1), 1]), [value])
    assert _ref_trim(back) == _ref_trim(_ref(a))
    if s:
        full = trimmed + [Fraction(0)] * s
        want = [full[0]] + [full[i] - full[i - 1]
                            for i in range(1, (s - 1) // 2 + 1)]
        assert _matches(delta_truncate(p, s), want)


# -- the fused sum of products -----------------------------------------------

half, third, sixth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)


@given(st.lists(st.tuples(mixed_lists, mixed_lists), max_size=5))
@example(pairs=[])
@example(pairs=[([], [1, 2]), ([half], []), ([], [])])
# the second denominator does not divide the first: rescale to 6
@example(pairs=[([half], [1]), ([third], [1, 1])])
# the second divides the first: no rescale; then the sum cancels to zero
@example(pairs=[([sixth], [3]), ([half], [-1])])
@example(pairs=[([half, 1], [third]), ([1], [-sixth, -third]), ([2], [5])])
def test_poly_dot_is_the_sum_of_products(pairs):
    polys = [(Poly(a), Poly(b)) for a, b in pairs]
    want = Poly()
    ref = []
    for (p, q), (a, b) in zip(polys, pairs):
        want = want + p * q
        ref = _ref_add(ref, _ref_mul(_ref(a), _ref(b)))
    got = poly_dot(polys)
    assert got == want
    assert _matches(got, ref)
    assert poly_dot(iter(polys)) == got
