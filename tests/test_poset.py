"""Posets: builders, rank functions, Euler conditions, serialization."""

import re

import pytest

from klspoly.incidence import UnsuitablePoset, WeakRank
from klspoly.poset import (Poset, PosetError, adjoin_max, boolean_algebra,
                           chain, cross_polytope_face_lattice,
                           cube_face_lattice, direct_product, from_covers,
                           polygon, pyramid, segment_subdivision,
                           semisuspension, simplex_face_lattice)


def test_boolean_algebra_shape():
    b3 = boolean_algebra(3)
    assert b3.n == 8
    assert b3.bottom() == 0 and b3.top() == 7
    assert b3.rank == (0, 1, 1, 2, 1, 2, 2, 3)
    assert b3.is_eulerian()
    assert b3.is_lower_eulerian()
    # meet-irreducible cover structure: each subset covered by supersets
    assert sorted(j for i, j in b3.covers() if i == 0) == [1, 2, 4]


def test_chain_fails_lower_eulerian_with_witness():
    c = chain(3)
    res = c.is_lower_eulerian()
    assert not res
    assert tuple(res.witness) == (0, 2)


def test_lower_eulerian_result_is_kept_for_the_own_rank_only():
    c = chain(3)
    first = c.is_lower_eulerian()
    assert c.is_lower_eulerian() is first
    assert not first and tuple(first.witness) == (0, 2)
    # another rank makes another poset, checked afresh, whatever was kept
    assert c.with_rank((0, 1, 1)).is_lower_eulerian().reason == "cover-step"
    b = boolean_algebra(2)
    assert b.is_lower_eulerian()
    assert not b.with_rank((0, 0, 1, 2)).is_lower_eulerian()
    assert b.is_lower_eulerian() is b.is_lower_eulerian()


def test_polygon_and_segment_builders():
    p = polygon(5)
    assert p.n == 12
    assert p.is_eulerian()
    s = segment_subdivision(2)
    assert s.n == 8
    assert s.is_lower_eulerian()
    assert not s.is_eulerian()  # two maximal edges, no top
    assert len(s.maximal_elements()) == 3


def test_cube_and_cross_polytope_are_dual_sized():
    for d in (2, 3):
        cube = cube_face_lattice(d)
        cross = cross_polytope_face_lattice(d)
        assert cube.is_eulerian()
        assert cross.is_eulerian()
        assert cube.n == cross.n == 3 ** d + 1
    assert simplex_face_lattice(2).n == boolean_algebra(3).n


def test_direct_product_multiplies_and_keeps_eulerian():
    a, b = boolean_algebra(2), polygon(3)
    p = direct_product(a, b)
    assert p.n == a.n * b.n
    assert p.is_eulerian()
    assert max(p.rank) == max(a.rank) + max(b.rank)


def test_pyramid_and_adjoin_max():
    p = pyramid(polygon(4))
    assert p.is_eulerian()
    q = adjoin_max(segment_subdivision(1))
    assert q.top() == q.n - 1
    assert q.rank[-1] == max(segment_subdivision(1).rank) + 1


def test_natural_rank_matches_builders():
    for poset in (boolean_algebra(4), cube_face_lattice(3), polygon(6)):
        assert tuple(poset.natural_rank()) == tuple(poset.rank)


def test_natural_rank_rejects_ungraded():
    # diamond with one long and one short chain to the top
    up = from_covers(4, [(0, 1), (1, 3), (0, 2), (2, 3)]).up
    broken = from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    with pytest.raises(PosetError):
        broken.natural_rank()
    del up


def test_a_rankless_graded_poset_carries_its_natural_rank():
    for poset in (boolean_algebra(3), polygon(5), cube_face_lattice(2),
                  segment_subdivision(2)):
        rankless = from_covers(poset.n, poset.covers(), labels=poset.labels)
        assert rankless.rank == rankless.natural_rank()
        assert rankless == poset and hash(rankless) == hash(poset)
    above_vertex, _emb = polygon(4).upper_set(1)
    assert above_vertex.rank == (0, 1, 1, 2)


@pytest.mark.parametrize("n, covers, why", [
    (5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)],
     "no natural rank: element 4 (4) is covered at inconsistent heights "
     "[1, 2]"),
    (3, [(0, 2), (1, 2)], "poset has 2 minimal elements, not 1"),
], ids=["ungraded", "two-minima"])
def test_a_poset_that_is_not_graded_has_no_rank(n, covers, why):
    poset = from_covers(n, covers)
    assert poset.rank is None
    assert poset.is_lower_eulerian().describe() == f"not-graded; {why}"
    with pytest.raises(PosetError, match=f"^{re.escape(why)}$"):
        Poset.from_json(poset.to_json())
    with pytest.raises(UnsuitablePoset, match=f"{re.escape(why)}$"):
        WeakRank.natural(poset)


def test_from_covers_validates():
    with pytest.raises(PosetError):
        from_covers(2, [(0, 1), (1, 0)])  # cycle
    with pytest.raises(PosetError):
        from_covers(1, [(0, 5)])  # out of range


def test_intervals_and_elements_between():
    b3 = boolean_algebra(3)
    assert (0, 7) in b3.intervals()
    between = b3.elements_between(0, 3)
    assert sorted(between) == [0, 1, 2, 3]
    assert b3.leq(1, 3) and not b3.leq(3, 1)


def test_json_roundtrip_preserves_structure():
    for poset in (boolean_algebra(3), polygon(4), segment_subdivision(2)):
        back = Poset.from_json(poset.to_json())
        assert back.same_order(poset)
        assert back.labels == poset.labels


def test_euler_check_catches_bad_rank():
    # the constructor stores any rank vector; the Euler validators are
    # where inconsistency surfaces
    flat = from_covers(2, [(0, 1)], rank=[0, 0])
    assert not flat.is_lower_eulerian()


@pytest.mark.parametrize("s", range(4))
def test_semisuspension_of_a_segment_subdivision_is_a_polygon(s):
    # the added element closes the path of s + 1 edges into a cycle
    closed = semisuspension(segment_subdivision(s))
    assert closed.same_order(polygon(s + 2))
