"""Equivariant lattice-point counting on simplicial complexes."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from klspoly import cli, ehrhart
from klspoly.ehrhart import (ComplexCylinder, ComplexError, HStarData,
                             LatticeSimplexComplex, NotASimplex, box_points,
                             check_hl_relation, check_hstar_identity,
                             coarse_hstar, ehr_interior_series, ehr_series,
                             hstar_from_subdivision, hstar_via_localh,
                             interior_faces, localhstar_via_localh,
                             polynomial_action_check, reciprocity_check)
from klspoly.equivariant import (ClassPoly, EquivIncidenceElement,
                                 NotAutomorphism, classpoly_json,
                                 equiv_local_invariants)
from klspoly.linalg import Span, charpoly
from klspoly.polynomial import Poly, poly_rev
from klspoly.verify import (COMPLEX_FIXTURES, load_complex_fixture,
                            load_fixture, run_suite)


def _box(vertices):
    """The half-open and the open box of a simplex, as point lists."""
    box = box_points(Span(tuple(v) + (1,) for v in vertices))
    return [u for u, _lam in box], [u for u, lam in box if all(lam)]


def test_box_points_of_small_simplices():
    # unimodular triangle: the half-open box holds only the origin, the
    # open box nothing
    assert _box([(0, 0), (1, 0), (0, 1)]) == ([(0, 0, 0)], [])
    # segment of length two: the origin, and the midpoint at height one,
    # which is also the open box
    assert _box([(0,), (2,)]) == ([(0, 0), (1, 1)], [(1, 1)])
    span = Span([(0, 1), (2, 1)])
    assert [(u, tuple(Fraction(x, span.den) for x in lam))
            for u, lam in box_points(span)] == [
        ((0, 0), (0, 0)), ((1, 1), (Fraction(1, 2), Fraction(1, 2)))]
    with pytest.raises(NotASimplex, match="vertices are affinely dependent"):
        _box([(0, 0), (1, 0), (2, 0)])


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** c * m[0][c] * _det([row[:c] + row[c + 1:]
                                           for row in m[1:]])
               for c in range(len(m)))


@st.composite
def lattice_simplices(draw):
    dim = draw(st.integers(2, 3))
    point = st.tuples(*[st.integers(-2, 2)] * dim)
    return draw(st.lists(point, min_size=dim + 1, max_size=dim + 1))


@settings(max_examples=60, deadline=None)
@given(lattice_simplices())
def test_box_points_count_the_normalized_volume(vertices):
    lifted = [tuple(v) + (1,) for v in vertices]
    volume = abs(_det(lifted))
    assume(volume)
    k = len(vertices)
    half_open, open_box = _box(vertices)
    # the half-open box is a set of coset representatives of the lattice
    # generated by the lifted vertices, so it has |det| points
    assert len(half_open) == volume
    assert [u for u in half_open if u[-1] == 0] == [(0,) * k]
    assert all(u[-1] < k for u in half_open)
    # lambda -> 1 - lambda maps the open box at height m onto height k - m
    open_counts = [sum(u[-1] == m for u in open_box) for m in range(k + 1)]
    assert open_counts == open_counts[::-1]


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


def _local_data(cx):
    """The complex's cylinder and its equivariant local invariants."""
    cyl = ComplexCylinder(cx)
    return cyl, equiv_local_invariants(cyl.triple, cyl.weak_rank, cyl.action,
                                       cyl.kappa)


def test_local_hstar_oracles():
    crosscut = load_complex_fixture("crosscut_d4.json")
    local = localhstar_via_localh(crosscut, *_local_data(crosscut))
    assert classpoly_json(crosscut.action, local) == {
        "on": list(range(8)),
        "values": [[0, ["0", "1", "1"]], [1, ["0", "1", "1"]],
                   [2, ["0", "1", "1"]], [3, ["0", "1", "1"]],
                   [5, ["0", "1", "1"]]]}
    sq = load_complex_fixture("unit_square.json")
    lh = localhstar_via_localh(sq, *_local_data(sq))
    assert not any(lh.values.values())


def test_hstar_data_validates_and_exposes_per_face_polynomials():
    cx = load_complex_fixture("crosscut_d4.json")
    data = HStarData(cx)
    ident = cx.action.identity
    for z in range(cx.poset.n):
        h = data.hstar[z].ev(ident)
        assert all(c >= 0 and c == int(c) for c in h.coeffs)
        assert data.local[z].ev(ident).coeff(0) == 0 or \
            len(cx.faces[z]) == 0
    # a maximal triangle of the crosscut square is unimodular: its
    # half-open box holds only the origin
    assert data.hstar[cx.poset.n - 1].ev(ident) == Poly([1])


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
        assert polynomial_action_check(cx, hstar_from_subdivision(cx))


def _first_failing_element(cx, hstar):
    """The check of :func:`polynomial_action_check`, run on every group
    element in increasing order; the first failing element, or None."""
    order = cx.default_order()
    for w in cx.action.elements:
        det = poly_rev(charpoly(cx.by_perm[w]), cx.dim + 1)
        got = Poly((ehr_series(cx, w, order) * det).coeffs[: order + 1])
        if got != Poly(hstar.ev(w).coeffs[: order + 1]):
            return list(w)
    return None


def test_the_class_loop_names_the_witness_of_the_element_loop():
    cx = load_complex_fixture("crosscut_d4.json")
    good = hstar_from_subdivision(cx)
    group = good.group
    assert len(group.reps) < len(group.elements)
    for rep in group.reps:
        bad = ClassPoly(group, {w: v + Poly([0, 1]) if w == rep else v
                                for w, v in good.values.items()})
        res = polynomial_action_check(cx, bad)
        assert not res
        assert res.witness == {"w": _first_failing_element(cx, bad)}
        assert res.witness == {"w": list(rep)}


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


def _off_by_one_on(monkeypatch, name, target):
    """Wrap ``ehrhart.NAME`` so that its result is one more on ``target``."""
    exact = getattr(ehrhart, name)

    def perturbed(*args):
        result = exact(*args)
        vals = dict(result.vals)
        cp = result.value(*target)
        vals[target] = cp + ClassPoly.constant(cp.group, Poly([1]))
        return EquivIncidenceElement._unchecked(result.action,
                                                result.weak_rank, vals)

    monkeypatch.setattr(ehrhart, name, perturbed)


@pytest.mark.parametrize("name, reason", [
    ("equiv_multiply", "open-box-from-half-open"),
    ("equiv_rev", "open-box-symmetry")])
def test_a_failed_box_identity_names_its_interval(monkeypatch, name, reason):
    cx = load_complex_fixture("unit_square.json")
    target = (cx.poset.bottom(), cx.poset.maximal_elements()[-1])
    _off_by_one_on(monkeypatch, name, target)
    res = check_hl_relation(cx)
    assert not res and (res.reason, res.witness) == (reason, target)


def test_a_failed_crossing_identity_names_its_interval(monkeypatch):
    # one more on the coarse top face moves (t - 1) h*|_XY there alone
    cx = load_complex_fixture("unit_square.json")
    gamma = ComplexCylinder(cx).triple.gamma
    top = gamma.maximal_elements()
    assert len(top) == 1
    exact = ehrhart.coarse_hstar

    def perturbed(cx, cylinder):
        coarse = exact(cx, cylinder=cylinder)
        y = top[0] - cx.poset.n
        coarse[y] = coarse[y] + ClassPoly.constant(coarse[y].group, Poly([1]))
        return coarse

    monkeypatch.setattr(ehrhart, "coarse_hstar", perturbed)
    res = check_hstar_identity(cx)
    assert not res
    assert (res.reason, res.witness) == ("crossing-identity",
                                         (gamma.bottom(), top[0]))


def test_the_crossing_identity_multiplies_once_per_side(monkeypatch):
    # coarse_hstar makes one product and the identity one more: the fine
    # part of the box element times the crossing kernel
    cx = load_complex_fixture("unit_square.json")
    products = _count_calls(monkeypatch, "equiv_multiply")
    assert check_hstar_identity(cx)
    assert len(products) == 2


@pytest.mark.parametrize("what, tables", [("series", 0), ("hstar", 1),
                                          ("local-hstar", 1),
                                          ("reciprocity", 1)])
def test_the_box_table_is_built_on_its_first_read(monkeypatch, capsys, what,
                                                  tables):
    built = []
    original = HStarData.__init__

    def counted(self, cx):
        built.append(cx)
        original(self, cx)

    monkeypatch.setattr(HStarData, "__init__", counted)
    assert cli.main(["ehrhart", "fixture:unit_square.json",
                     "--what", what]) == 0
    assert capsys.readouterr().err == ""
    assert len(built) == tables


def test_cylinder_routes_match_direct_assembly():
    for name in ("seg3_flip.json", "unit_square.json", "unit_cube.json"):
        cx = load_complex_fixture(name)
        direct = hstar_from_subdivision(cx)
        via_local = hstar_via_localh(cx, *_local_data(cx))
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
    with pytest.raises(NotASimplex, match=r"face \[0, 1, 2\] is not a simplex"):
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
    _tag, payload = load_fixture("crosscut_d4.json", expect="complex")
    monkeypatch.setenv("KLS_MAX_GROUP", "8")
    cx = LatticeSimplexComplex.from_json(payload)
    # the cylinder group is bounded by the complex group, not the variable
    monkeypatch.setenv("KLS_MAX_GROUP", "2")
    cyl = ComplexCylinder(cx)
    assert len(cyl.action) == len(cx.action) == 8


def _quotient_reciprocity(cx, w, order, hstar):
    """Reciprocity by division, as the reference for the product form:
    t^(dim+1) h*(1/t) / det(I - wt) expanded term by term on numerators
    (with num = N/a and den = D/b, so D_0 = b, the coefficient of t^j is
    u_j / (a b^j), u_j = N_j b^j - sum_{k >= 1} D_k u_{j-k} b^(k-1)) and
    compared with the interior counts; (ok, reason, witness, detail)."""
    w = tuple(w)
    numer = poly_rev(hstar.ev(w), cx.dim + 1)
    den = poly_rev(charpoly(cx.by_perm[w]), cx.dim + 1)
    n, a = numer.num, numer.den
    d, b = den.num, den.den
    assert d[0] == b  # det(I - wt) has constant term 1
    u = []
    for j in range(order + 1):
        acc = n[j] * b ** j if j < len(n) else 0
        for k in range(1, min(len(d), j + 1)):
            acc -= d[k] * u[j - k] * b ** (k - 1)
        u.append(acc)
    series = [Fraction(c, a * b ** j) for j, c in enumerate(u)]
    counts = ehr_interior_series(cx, w, order)
    for m in range(order + 1):
        if series[m] != counts.coeff(m):
            return (False, "reciprocity", {"w": list(w), "order": m},
                    f"series {series[m]} != count {counts.coeff(m)}")
    return True, "", None, ""


_BUMPS = (Poly([0]), Poly([1]), Poly([0, 1]), Poly(["1/2"]), Poly([0, 0, 3]),
          Poly([0, 0, 0, 0, 1]))


@pytest.mark.parametrize("name", COMPLEX_FIXTURES)
def test_reciprocity_by_product_matches_the_division_reference(name):
    cx = load_complex_fixture(name)
    good = hstar_from_subdivision(cx)
    failures = 0
    for bump in _BUMPS:
        hstar = good + ClassPoly.constant(good.group, bump)
        if hstar.ev(cx.action.identity).degree > cx.dim + 1:
            # the reflection refuses a degree above dim + 1 on both routes
            with pytest.raises(ValueError, match="exceeds rank"):
                reciprocity_check(cx, cx.action.identity, 3, hstar)
            continue
        for w in sorted(cx.action.elements):
            for order in (0, 3, 6, 9):
                res = reciprocity_check(cx, w, order, hstar)
                want = _quotient_reciprocity(cx, w, order, hstar)
                assert (res.ok, res.reason, res.witness, res.detail) == want
                failures += not res
    # the corrupted h* reach the failure branch, not just the passing one
    assert failures


def _count_calls(monkeypatch, name):
    """Wrap ``ehrhart.NAME``; returns the list its calls are appended to."""
    calls = []
    original = getattr(ehrhart, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ehrhart, name, counted)
    return calls


def test_each_box_is_scanned_and_each_hstar_assembled_once(monkeypatch,
                                                           capsys):
    faces = sum(1 for name in COMPLEX_FIXTURES
                for f in load_complex_fixture(name).faces if f)
    assert faces == 119
    scans = _count_calls(monkeypatch, "box_points")
    assembled = _count_calls(monkeypatch, "hstar_from_subdivision")
    results = run_suite("ehrhart-reciprocity")
    assert all(res for _label, res in results)
    assert (len(scans), len(assembled)) == (faces, len(COMPLEX_FIXTURES))
    del assembled[:]
    assert cli.main(["ehrhart", "fixture:unit_cube.json",
                     "--what", "reciprocity"]) == 0
    assert "reciprocity w0: ok" in capsys.readouterr().out
    assert len(assembled) == 1
