"""Span factorizations and characteristic polynomials against references."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from klspoly.fans import FanError, induced_charpoly
from klspoly.linalg import Span, charpoly


def reference_rank(vectors):
    """Rank by textbook Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k][c]:
                f = rows[k][c] / rows[rank][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[rank])]
        rank += 1
    return rank


entry = st.integers(-4, 4)


def vectors(width, count):
    return st.lists(st.tuples(*[entry] * width), min_size=count,
                    max_size=count)


@st.composite
def vector_families(draw, max_width=4):
    width = draw(st.integers(1, max_width))
    count = draw(st.integers(0, max_width + 1))
    return width, draw(vectors(width, count))


@settings(max_examples=150, deadline=None)
@given(vector_families(), st.data())
def test_coords_round_trip_on_independent_vectors(family, data):
    width, vs = family
    span = Span(vs)
    assume(span.independent)
    assert span.basis == tuple(vs)
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(vs),
                                max_size=len(vs)))
    v = tuple(sum(c * u[i] for c, u in zip(coeffs, vs))
              for i in range(width))
    assert span.coords(v) == tuple(c * span.den for c in coeffs)


@settings(max_examples=150, deadline=None)
@given(vector_families(), st.data())
def test_coords_is_none_exactly_outside_the_span(family, data):
    width, vs = family
    w = data.draw(st.tuples(*[entry] * width))
    span = Span(vs)
    coords = span.coords(w)
    inside = reference_rank(vs + [w]) == reference_rank(vs)
    assert (coords is not None) == inside
    if coords is not None:
        assert tuple(sum(c * u[i] for c, u in zip(coords, span.basis))
                     for i in range(width)) == \
            tuple(span.den * x for x in w)


@settings(max_examples=150, deadline=None)
@given(vector_families(), st.data())
def test_extend_adopts_greedily_by_rank(family, data):
    width, base = family
    candidates = data.draw(vectors(width, data.draw(st.integers(0, 5))))
    span = Span(base)
    assert span.rank == reference_rank(base)
    kept = list(span.basis)
    adopted = []
    for v in candidates:
        if reference_rank(kept + [v]) > len(kept):
            kept.append(v)
            adopted.append(v)
    extended = span.extend(candidates)
    assert extended.basis == span.basis + tuple(adopted)
    assert extended.rank == reference_rank(base + candidates)
    assert span.rank == reference_rank(base)  # left unchanged


def test_coords_of_a_rational_vector():
    span = Span([(2, 0), (0, 3)])
    assert span.den > 0
    coords = span.coords((1, Fraction(1, 2)))
    assert [Fraction(c, span.den) for c in coords] == \
        [Fraction(1, 2), Fraction(1, 6)]


def test_span_takes_integer_vectors_only():
    with pytest.raises(TypeError, match="integer vectors"):
        Span([(Fraction(1, 2), 0)])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(entry, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_the_int_charpoly_path_equals_the_fraction_path(m):
    as_fractions = [[Fraction(x) for x in row] for row in m]
    assert charpoly(m) == charpoly(as_fractions)
    assert all(type(c) is int for c in charpoly(m).coeffs)


def test_a_matrix_that_leaves_the_span_is_refused():
    # the xy-plane over the x-axis; swapping y and z leaves the plane
    line = Span([(1, 0, 0)])
    plane = line.extend([(0, 1, 0)])
    swap = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    with pytest.raises(FanError, match="matrix does not preserve the span"):
        induced_charpoly(swap, plane, line.rank)
    # a reflection of the plane fixing the x-axis acts on the quotient by -1
    flip = ((1, 0, 0), (0, -1, 0), (0, 0, 1))
    assert induced_charpoly(flip, plane, line.rank).coeffs == (1, 1)
