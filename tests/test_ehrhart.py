"""Equivariant lattice-point counting on simplicial complexes."""

import pytest

from klspoly.ehrhart import (ComplexCylinder, ComplexError, HStarData,
                             LatticeSimplexComplex, NotASimplex, box_points,
                             check_hl_relation, check_hstar_identity,
                             coarse_hstar, ehr_interior_series, ehr_series,
                             hstar_from_subdivision, hstar_via_localh,
                             interior_faces, localhstar_via_localh,
                             polynomial_action_check, reciprocity_check,
                             simplex_hstar, simplex_local_hstar)
from klspoly.equivariant import ClassPoly, NotAutomorphism, classpoly_json
from klspoly.polynomial import Poly
from klspoly.verify import (COMPLEX_FIXTURES, load_complex_fixture,
                            load_fixture)


def test_box_points_of_small_simplices():
    # unimodular triangle: the half-open box contains only the origin
    tri = [(0, 0), (1, 0), (0, 1)]
    assert box_points(tri, "half-open", 0) == [(0, 0, 0)]
    assert box_points(tri, "half-open", 1) == []
    assert box_points(tri, "open", 1) == []
    # segment of length two: one box point at height one
    seg = [(0,), (2,)]
    assert box_points(seg, "half-open", 1) == [(1, 1)]
    assert box_points(seg, "open", 1) == [(1, 1)]
    assert box_points(seg, "half-open", 0) == [(0, 0)]
    assert box_points(seg, "open", 0) == []
    with pytest.raises(NotASimplex):
        box_points([(0, 0), (1, 0), (2, 0)], "half-open", 1)
    with pytest.raises(ValueError, match="strictness"):
        box_points(seg, "closed", 0)


def test_series_oracles():
    sq = load_complex_fixture("unit_square.json")
    flip = next(w for w in sq.action.elements if w != sq.action.identity)
    assert ehr_series(sq, sq.action.identity, 3) == Poly([1, 4, 9, 16])
    assert ehr_series(sq, flip, 3) == Poly([1, 2, 3, 4])
    cube = load_complex_fixture("unit_cube.json")
    for w in cube.action.elements:
        series = ehr_series(cube, w, 3)
        fixed = series.coeff(1) - 1  # fixed vertices of the unit cube
        assert series == Poly([(m + 1) ** {7: 3, 3: 2, 1: 1}[fixed]
                               for m in range(4)])


def test_interior_series_of_the_square():
    sq = load_complex_fixture("unit_square.json")
    assert ehr_interior_series(sq, sq.action.identity, 4) == \
        Poly([0, 0, 1, 4, 9])


def test_hstar_oracles():
    crosscut = load_complex_fixture("crosscut_d4.json")
    assert classpoly_json(crosscut.action, hstar_from_subdivision(crosscut)) \
        == {"on": list(range(8)),
            "values": [[0, ["1", "6", "1"]], [1, ["1", "2", "1"]],
                       [2, ["1", "2", "1"]], [3, ["1", "0", "1"]],
                       [5, ["1", "2", "1"]]]}
    cube = load_complex_fixture("unit_cube.json")
    assert classpoly_json(cube.action, hstar_from_subdivision(cube)) == {
        "on": list(range(6)),
        "values": [[0, ["1", "4", "1"]], [1, ["1", "2", "1"]],
                   [3, ["1", "1", "1"]]]}
    seg = load_complex_fixture("seg4_flip.json")
    assert classpoly_json(seg.action, hstar_from_subdivision(seg)) == {
        "on": [0, 1], "values": [[0, ["1", "3"]], [1, ["1", "1"]]]}


def test_local_hstar_oracles():
    crosscut = load_complex_fixture("crosscut_d4.json")
    assert classpoly_json(crosscut.action, localhstar_via_localh(crosscut)) \
        == {"on": list(range(8)),
            "values": [[0, ["0", "1", "1"]], [1, ["0", "1", "1"]],
                       [2, ["0", "1", "1"]], [3, ["0", "1", "1"]],
                       [5, ["0", "1", "1"]]]}
    sq = load_complex_fixture("unit_square.json")
    lh = localhstar_via_localh(sq)
    assert all(v.is_zero for v in lh.values.values())


def test_hstar_data_validates_and_exposes_per_face_polynomials():
    cx = load_complex_fixture("crosscut_d4.json")
    data = HStarData(cx)
    ident = cx.action.identity
    for z in range(cx.poset.n):
        h = data.hstar[z].ev(ident)
        assert all(c >= 0 and c == int(c) for c in h.coeffs)
        assert data.local[z].ev(ident).coeff(0) == 0 or \
            len(cx.faces[z]) == 0
    # a maximal triangle of area 1/2 with a boundary midpoint is unimodular
    assert simplex_hstar(cx, cx.poset.n - 1).ev(ident) is not None


def test_interior_faces_of_the_crosscut_square():
    cx = load_complex_fixture("crosscut_d4.json")
    inter = interior_faces(cx)
    # the centre vertex, eight edges through it, eight triangles
    assert len(inter) == 17
    empty = cx.poset.bottom()
    assert empty not in inter


def test_two_counting_routes_agree_on_every_fixture():
    for name in COMPLEX_FIXTURES:
        cx = load_complex_fixture(name)
        assert polynomial_action_check(cx, order=2 * (cx.dim + 1))


def test_reciprocity_and_its_failure_mode():
    cx = load_complex_fixture("seg2_flip.json")
    good = hstar_from_subdivision(cx)
    for w in cx.action.elements:
        assert reciprocity_check(cx, w, order=6, hstar=good)
    corrupt = good + ClassPoly.constant(good.group, Poly([0, 1]))
    res = reciprocity_check(cx, cx.action.identity, order=6, hstar=corrupt)
    assert not res
    assert res.witness["w"] == list(cx.action.identity)
    assert res.witness["order"] == 1  # first order where the counts differ


def test_hl_relation_and_hstar_identity():
    for name in ("seg2_flip.json", "unit_square.json", "crosscut_d4.json"):
        cx = load_complex_fixture(name)
        assert check_hl_relation(cx)
        if cx.coarse_poset is not None:
            assert check_hstar_identity(cx)


def test_cylinder_routes_match_direct_assembly():
    for name in ("seg3_flip.json", "unit_square.json", "unit_cube.json"):
        cx = load_complex_fixture(name)
        direct = hstar_from_subdivision(cx)
        via_local = hstar_via_localh(cx)
        assert classpoly_json(cx.action, direct) == \
            classpoly_json(cx.action, via_local)


def test_coarse_hstar_of_the_cube():
    cube = load_complex_fixture("unit_cube.json")
    cyl = ComplexCylinder(cube)
    per_face = coarse_hstar(cube, cylinder=cyl)
    top = cube.coarse_poset.top()
    bottom = cube.coarse_poset.bottom()
    fine = hstar_from_subdivision(cube)
    # the whole-polytope coarse face carries the assembled polynomial
    for wc in cyl.action.elements:
        w = cyl.fine_of(wc)
        assert per_face[top].ev(wc) == fine.ev(w)
        assert per_face[bottom].ev(wc) == Poly([1])


def test_cylinder_structure():
    cx = load_complex_fixture("seg2_flip.json")
    cyl = ComplexCylinder(cx)
    assert cyl.triple.gamma.is_lower_eulerian()
    assert cyl.triple.q == cyl.triple.gamma.n - cx.coarse_poset.n \
        + cx.coarse_poset.bottom()
    fines = {cyl.fine_of(w) for w in cyl.action.elements}
    assert fines == set(cx.action.elements)


def test_complex_json_roundtrip():
    cx = load_complex_fixture("unit_square.json")
    again = LatticeSimplexComplex.from_json(cx.to_json())
    assert again.vertices == cx.vertices
    assert again.faces == cx.faces
    assert classpoly_json(again.action, hstar_from_subdivision(again)) == \
        classpoly_json(cx.action, hstar_from_subdivision(cx))


def test_degenerate_complex_rejected():
    # three collinear points cannot span a triangle face
    with pytest.raises((ComplexError, NotASimplex)):
        LatticeSimplexComplex(
            1, [(0,), (1,), (2,)],
            [[], [0], [1], [2], [0, 1, 2]],
            [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def _segment(matrices=None, coarse_faces=None):
    """The flip-symmetric [0, 2] segment with its action or coarsening
    replaced."""
    _tag, payload = load_fixture("seg2_flip.json", expect="complex")
    if matrices is not None:
        payload["affine_action"] = {"matrices": matrices}
    if coarse_faces is not None:
        payload["coarse"]["faces"] = coarse_faces
    return LatticeSimplexComplex.from_json(payload)


def test_complex_action_rejections():
    assert len(_segment().action) == 2
    with pytest.raises(NotAutomorphism, match="not 2 x 2"):
        _segment(matrices=[[[-1]]])
    with pytest.raises(ComplexError, match="fix the last coordinate"):
        _segment(matrices=[[[-1, 2], [0, 2]]])
    with pytest.raises(NotAutomorphism, match="outside the vertex set"):
        _segment(matrices=[[[1, 1], [0, 1]]])


def test_a_group_that_moves_the_coarsening_is_refused():
    # the flip sends the coarse vertex {0} to {2}, which is no coarse face
    with pytest.raises(NotAutomorphism, match="coarsening"):
        _segment(coarse_faces=[[], [0], [1], [0, 1, 2]])


def test_the_cylinder_honours_the_complex_group_bound(monkeypatch):
    monkeypatch.setenv("KLS_MAX_GROUP", "2")
    cx = load_complex_fixture("crosscut_d4.json", max_group=100)
    cyl = ComplexCylinder(cx)
    assert len(cyl.action) == len(cx.action) == 8
