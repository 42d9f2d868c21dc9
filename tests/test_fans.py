"""Lattice fans, matrix actions, and geometric kernels."""

from fractions import Fraction

import pytest

from klspoly import ehrhart, equivariant, fans
from klspoly.ehrhart import ComplexCylinder, face_kernel
from klspoly.equivariant import (AssemblyInconsistent, ClassPoly,
                                 EquivIncidenceElement,
                                 GroupTooLarge, NotAutomorphism, PermAction,
                                 classpoly_json, equiv_constant,
                                 equiv_kernel_validate,
                                 equiv_local_invariants, equiv_rev,
                                 equiv_multiply, equiv_solve_f, equiv_solve_g,
                                 equiv_z_function, ev_w)
from klspoly.fans import (EquivFanAction, FanError, LatticeFan,
                          checked_kernel, cone_contains, conv_contains,
                          fan_kernel, fixed_fan, induced_charpoly,
                          polytope_cone_triple, primitive_vector,
                          relint_contains)
from klspoly.incidence import (IncidenceElement, WeakRank, hat,
                               is_rank_alternating, rev, validate_kernel)
from klspoly.linalg import Span, charpoly, identity_matrix
from klspoly.polynomial import ONE, T, Poly, poly_rev
from klspoly.poset import boolean_algebra
from klspoly.schemas import build_fan, load_document
from klspoly.verify import (COMPLEX_FIXTURES, fixture_path,
                            hexagon_dihedral_setup, hexagon_polytope,
                            kernel_checks, load_complex_fixture, load_fixture)

from conftest import bench_module


def load_fan_fixture(name):
    _, payload = load_document(fixture_path(name), "fan")
    fan = LatticeFan.from_json(payload["fan"] if "fan" in payload else payload)
    matrices = payload.get("action", {}).get("matrices")
    return fan, matrices


def test_vector_predicates():
    assert primitive_vector((4, -6)) == (2, -3)
    assert primitive_vector((0, 0, 5)) == (0, 0, 1)
    assert cone_contains([(1, 0), (0, 1)], (3, 2))
    assert not cone_contains([(1, 0), (0, 1)], (-1, 2))
    assert conv_contains([(0, 0), (2, 0), (0, 2)], (1, 1))
    assert not conv_contains([(0, 0), (2, 0), (0, 2)], (2, 2))
    assert relint_contains([(0, 0), (2, 0), (0, 2)], (1, Fraction(1, 2)))
    assert not relint_contains([(0, 0), (2, 0), (0, 2)], (1, 1))
    assert relint_contains([(0, 0)], (0, 0))


def test_fan_validation():
    with pytest.raises(FanError, match="duplicate rays"):
        LatticeFan(2, [(1, 0), (1, 0)], [frozenset()])
    with pytest.raises(FanError, match="zero vector"):
        LatticeFan(2, [(0, 0)], [frozenset()])
    with pytest.raises(FanError, match="missing ray"):
        LatticeFan(2, [(1, 0)], [frozenset(), frozenset({3})])
    with pytest.raises(FanError, match="lower Eulerian"):
        # rank jumps from 0 to 2 with nothing in between
        LatticeFan(2, [(1, 0), (0, 1)], [frozenset(), frozenset({0, 1})])


def test_square_fan_dihedral_kernel_and_z():
    fan, _ = load_fan_fixture("square_fan_z4.json")
    fa = EquivFanAction(fan, [[[0, -1], [1, 0]], [[1, 0], [0, -1]]], 10_000)
    act = fa.action
    assert len(act.elements) == 8
    assert len(act.conjugacy_classes()) == 5
    kappa = fan_kernel(fan, fa)
    assert equiv_kernel_validate(kappa)
    g = equiv_solve_g(kappa)
    z = equiv_z_function(kappa, g=g)
    p = act.poset
    b = p.bottom()
    quadrant = next(i for i in range(p.n) if p.up[i] == 1 << i)
    # the quadrant's stabilizer is generated by the diagonal swap
    assert classpoly_json(act, kappa.value(b, quadrant)) == {
        "on": [0, 2],
        "values": [[0, ["1", "-2", "1"]], [2, ["-1", "0", "1"]]]}
    assert classpoly_json(act, z.value(b, quadrant)) == {
        "on": [0, 2],
        "values": [[0, ["1", "2", "1"]], [2, ["1", "0", "1"]]]}
    assert classpoly_json(act, g.value(b, quadrant)) == {
        "on": [0, 2], "values": [[0, ["1"]], [2, ["1"]]]}


def test_fixed_fans_of_square_symmetries():
    fan, _ = load_fan_fixture("square_fan_z4.json")
    fa = EquivFanAction(fan, [[[0, -1], [1, 0]], [[1, 0], [0, -1]]], 10_000)
    act = fa.action
    by_matrix = {tuple(tuple(int(x) for x in row) for row in fa.matrix_of(w)): w
                 for w in act.elements}
    diag = by_matrix[((0, 1), (1, 0))]
    ff, _ = fixed_fan(fan, fa, diag)
    assert ff.rays == ((1, 1), (-1, -1))
    assert ff.cones == (frozenset(), frozenset({0}), frozenset({1}))
    xaxis = by_matrix[((1, 0), (0, -1))]
    ff, _ = fixed_fan(fan, fa, xaxis)
    assert ff.rays == ((1, 0), (-1, 0))
    r90 = by_matrix[((0, -1), (1, 0))]
    ff, _ = fixed_fan(fan, fa, r90)
    assert ff.rays == () and ff.cones == (frozenset(),)
    r180 = by_matrix[((-1, 0), (0, -1))]
    ff, _ = fixed_fan(fan, fa, r180)
    assert ff.rays == ()


def test_cone_over_square_quarter_turn_g():
    fan, matrices = load_fan_fixture("cone_square_z4.json")
    fa = EquivFanAction(fan, matrices, 10_000)
    act = fa.action
    assert len(act.elements) == 4
    kappa = fan_kernel(fan, fa)
    g = equiv_solve_g(kappa)
    f = equiv_solve_f(kappa)
    z = equiv_z_function(kappa, g=g, f=f)
    p = act.poset
    b, t = p.bottom(), p.top()
    assert classpoly_json(act, g.value(b, t)) == {
        "on": [0, 1, 2, 3],
        "values": [[0, ["1", "1"]], [1, ["1", "-1"]],
                   [2, ["1", "1"]], [3, ["1", "-1"]]]}
    assert classpoly_json(act, f.value(b, t)) == classpoly_json(
        act, g.value(b, t))
    assert classpoly_json(act, z.value(b, t)) == {
        "on": [0, 1, 2, 3],
        "values": [[0, ["1", "5", "5", "1"]], [1, ["1", "-1", "-1", "1"]],
                   [2, ["1", "1", "1", "1"]], [3, ["1", "-1", "-1", "1"]]]}
    # per-element reduction agrees with direct equivariant multiplication
    assert equiv_rev(g).vals == equiv_multiply(g, kappa).vals


def test_simplicial_cone_splits_into_ray_orbit_factors():
    # cone spanned by e1, e2, e3; the action cycles e1 -> e2 -> e1, e3 fixed
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cones = [frozenset(s) for s in
             ([], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2])]
    fan = LatticeFan(3, rays, cones)
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    fa = EquivFanAction(fan, [swap], 10_000)
    act = fa.action
    kappa = fan_kernel(fan, fa)
    g = equiv_solve_g(kappa)
    z = equiv_z_function(kappa, g=g)
    p = act.poset
    b, t = p.bottom(), p.top()
    w = next(w for w in act.elements if w != act.identity)
    # ray orbits of the swap have sizes 2 and 1
    assert ev_w(kappa, w).value(*_full(ev_w(kappa, w))) == \
        Poly([-1, 0, 1]) * Poly([-1, 1])
    assert ev_w(g, w).value(*_full(ev_w(g, w))) == Poly([1])
    assert ev_w(z, w).value(*_full(ev_w(z, w))) == \
        Poly([1, 0, 1]) * Poly([1, 1])
    assert kappa.value(b, t).ev(act.identity) == Poly([-1, 1]) ** 3


def _full(element):
    p = element.poset
    return p.bottom(), p.top()


def test_finite_order_charpoly_mirror_identity():
    # det(M) det(tI - M) = (-1)^d det(I - t M) for finite-order matrices
    mats = [
        ((0, -1), (1, 0)),
        ((0, 1), (1, 0)),
        ((-1, 0), (0, -1)),
        ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
        ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
        ((1, 0), (0, 1)),
    ]
    for m in mats:
        d = len(m)
        cp = charpoly(m)
        det = cp.coeff(0) * (-1) ** d
        assert cp * Poly([det]) == poly_rev(cp, d) * Poly([(-1) ** d])
        # the determinant is the parity of the moved dimensions: the
        # fixed space has dimension d - rank(M - I)
        moved = Span(tuple(x - y for x, y in zip(row, irow))
                     for row, irow in zip(m, identity_matrix(d))).rank
        assert det == (-1) ** moved


def _square_kernel(top):
    """t - 1 on the four covers of the square B2 and ``top`` on (0, 3)."""
    square = boolean_algebra(2)
    values = {(z, z): [1] for z in range(4)}
    values.update({pair: [-1, 1] for pair in ((0, 1), (0, 2), (1, 3),
                                              (2, 3))})
    values[(0, 3)] = top
    return IncidenceElement(square, WeakRank.natural(square), values)


def test_a_kernel_that_is_not_rank_alternating_fails_validation():
    # with 2 - 2t on (0, 3), kappa * rev(kappa) = delta, but
    # rev(kappa)(0, 3) = 2t^2 - 2t is not the sign twist 2 - 2t
    kappa = _square_kernel([2, -2])
    assert validate_kernel(kappa)
    plain = is_rank_alternating(kappa)
    assert (plain.ok, plain.reason, plain.witness) == (
        False, "rank-alternating", (0, 3))
    assert plain.detail == (f"{rev(kappa).value(0, 3)!r} != "
                            f"{hat(kappa).value(0, 3)!r}")
    trivial = equiv_constant(
        PermAction(kappa.poset, [tuple(range(4))]), kappa)
    checks = dict(kernel_checks(trivial))
    assert not checks["kernel"]
    assert checks["kernel"].reason == "rank-alternating"
    assert checks["kernel"].witness == (0, 3)
    with pytest.raises(FanError, match="not rank alternating"):
        checked_kernel(trivial)


def test_a_solver_that_cannot_finish_is_reported_with_its_interval():
    # with 2 - 2t + t^2 on (0, 3) the kernel fails, and no g completes the
    # mirror constraint on (0, 3): both checks fail, and neither raises
    kappa = _square_kernel([2, -2, 1])
    trivial = equiv_constant(
        PermAction(kappa.poset, [tuple(range(4))]), kappa)
    checks = dict(kernel_checks(trivial))
    assert not checks["kernel"]
    assert not checks["solvers"]
    assert checks["solvers"].reason == "mirror-constraint"
    assert checks["solvers"].witness == (0, 3)


def test_an_assembly_failure_is_reported_with_its_interval(monkeypatch):
    def inconsistent(_kappa):
        raise AssemblyInconsistent("values do not glue on (0, 3)", (0, 3))

    monkeypatch.setattr(equivariant, "equiv_solve_g", inconsistent)
    kappa = _square_kernel([1, -2, 1])
    trivial = equiv_constant(
        PermAction(kappa.poset, [tuple(range(4))]), kappa)
    checks = dict(kernel_checks(trivial))
    assert checks["kernel"]
    assert (checks["solvers"].reason, checks["solvers"].witness) == (
        "mirror-constraint", (0, 3))
    assert checks["solvers"].detail == "values do not glue on (0, 3)"


def _direct_span_kernel(action, weak_rank, spans, crossing, matrix_of):
    """The oracle of a span kernel: every interval read directly, at each
    class representative of its stabilizer, with no transport."""
    crossing = frozenset(crossing)
    vals = {}
    for (i, j) in action.poset.intervals():
        stab = action.stabilizer(i, j)
        sub = spans[i]
        full = sub.extend(spans[j].basis)
        factor = T - ONE if (i, j) in crossing else ONE
        vals[(i, j)] = ClassPoly(stab, {
            w: induced_charpoly(matrix_of(w), full, sub.rank) * factor
            for w in stab.reps})
    return EquivIncidenceElement._unchecked(action, weak_rank, vals)


def test_every_span_kernel_equals_a_direct_read_of_every_interval(
        monkeypatch):
    built = []
    span_kernel = fans.span_kernel

    def recorded(*args):
        kernel = span_kernel(*args)
        built.append((kernel, args))
        return kernel

    monkeypatch.setattr(fans, "span_kernel", recorded)
    monkeypatch.setattr(ehrhart, "span_kernel", recorded)
    for make in bench_module("inputs").B3_FANS.values():
        fan_kernel(*build_fan(make()))
    for name in ("square_fan_z4.json", "cone_square_z4.json"):
        fan_kernel(*build_fan(load_fixture(name, expect="fan")[1]))
    for name in COMPLEX_FIXTURES:
        cx = load_complex_fixture(name)
        face_kernel(cx)
        ComplexCylinder(cx)
    hexagon_dihedral_setup()
    assert len(built) == 4 + 2 * len(COMPLEX_FIXTURES) + 1
    for kernel, args in built:
        assert kernel == _direct_span_kernel(*args)


def test_matrix_groups_and_cylinders_are_closed_once(monkeypatch):
    def second_closure(*_args):
        raise AssertionError("the group was closed a second time")

    with monkeypatch.context() as patched:
        patched.setattr(equivariant, "_closure", second_closure)
        _fan, faction = build_fan(bench_module("inputs").cube_fan())
        cx = load_complex_fixture("crosscut_d4.json")
        cyl = ComplexCylinder(cx)
    assert (len(faction.action), len(cyl.action)) == (48, 8)
    for action in (faction.action, cx.action, cyl.action):
        again = PermAction(action.poset, action.generators)
        assert action.elements == again.elements


def test_polytope_triple_at_the_full_face():
    verts = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    faces = [[], [0], [1], [2], [3], [0, 1], [1, 2], [2, 3], [3, 0],
             [0, 1, 2, 3]]
    covers = [(0, k) for k in (1, 2, 3, 4)]
    covers += [(1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (4, 7), (4, 8), (1, 8)]
    covers += [(k, 9) for k in (5, 6, 7, 8)]
    triple, geom = polytope_cone_triple(verts, faces, covers, 9)
    action, by_perm = geom.action([[[0, -1], [1, 0]], [[1, 0], [0, -1]]])
    assert len(action.elements) == 8
    kappa = geom.kernel(action, by_perm)
    assert equiv_kernel_validate(kappa)
    li = equiv_local_invariants(triple, kappa.weak_rank, action, kappa)
    p = action.poset
    b, t = p.bottom(), p.top()
    assert classpoly_json(action, li.delta_ell.value(b, t)) == {
        "on": list(range(8)),
        "values": [[0, ["1", "1"]], [1, ["1", "1"]], [2, ["1", "-1"]],
                   [3, ["1", "-1"]], [5, ["1", "1"]]]}
    assert classpoly_json(action, li.h_sigma.value(b, t)) == {
        "on": list(range(8)),
        "values": [[0, ["1", "2", "1"]], [1, ["1", "2", "1"]],
                   [2, ["1", "0", "1"]], [3, ["1", "0", "1"]],
                   [5, ["1", "2", "1"]]]}


def test_polytope_triple_at_a_vertex():
    verts = [(0, 0), (2, 0), (0, 2), (2, 2)]
    faces = [[], [0], [1], [2], [3], [0, 1], [0, 2], [1, 3], [2, 3],
             [0, 1, 2, 3]]
    covers = [(0, k) for k in (1, 2, 3, 4)]
    covers += [(1, 5), (2, 5), (1, 6), (3, 6), (2, 7), (4, 7), (3, 8), (4, 8)]
    covers += [(k, 9) for k in (5, 6, 7, 8)]
    triple, geom = polytope_cone_triple(verts, faces, covers, 1)
    action, by_perm = geom.action([[[0, 1], [1, 0]]])
    kappa = geom.kernel(action, by_perm)
    li = equiv_local_invariants(triple, kappa.weak_rank, action, kappa)
    p = action.poset
    b, t = p.bottom(), p.top()
    assert classpoly_json(action, li.delta_ell.value(b, t)) == {
        "on": [0, 1], "values": [[0, ["0", "1"]], [1, ["0", "1"]]]}
    # origin must sit in the designated face's relative interior
    with pytest.raises(FanError, match="relative interior"):
        polytope_cone_triple(verts, faces, covers, 2)


def test_matrix_action_rejections():
    fan, _ = load_fan_fixture("square_fan_z4.json")
    # twice the identity induces the identity permutation
    with pytest.raises(NotAutomorphism, match="action is not faithful: two "
                       "distinct group elements induce the same "
                       "permutation"):
        EquivFanAction(fan, [[[2, 0], [0, 2]]], 10_000)
    with pytest.raises(GroupTooLarge, match="matrix group exceeds bound 2"):
        EquivFanAction(fan, [[[0, -1], [1, 0]]], 2)


def test_matrix_action_rejects_a_wrong_size_matrix():
    fan, _ = load_fan_fixture("square_fan_z4.json")
    with pytest.raises(NotAutomorphism, match="not 2 x 2"):
        EquivFanAction(fan, [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], 10_000)
    with pytest.raises(NotAutomorphism, match="not 2 x 2"):
        EquivFanAction(fan, [[[0, -1], [1]]], 10_000)


def test_polytope_action_rejects_a_vertex_mapped_outside():
    verts, faces, covers = hexagon_polytope()
    _triple, geom = polytope_cone_triple(verts, faces, covers, 13)
    with pytest.raises(NotAutomorphism, match="outside the vertex set"):
        geom.action([[[2, 0], [0, 2]]])


def test_an_explicit_max_group_overrides_the_environment(monkeypatch):
    monkeypatch.setenv("KLS_MAX_GROUP", "4")
    fan, _ = load_fan_fixture("square_fan_z4.json")
    dihedral = [[[0, -1], [1, 0]], [[1, 0], [0, -1]]]
    assert len(EquivFanAction(fan, dihedral, 100).action) == 8
    with pytest.raises(GroupTooLarge):
        EquivFanAction(fan, dihedral)
    # without an explicit bound, KLS_MAX_GROUP decides
    verts, faces, covers = hexagon_polytope()
    _triple, geom = polytope_cone_triple(verts, faces, covers, 13)
    hexagon = [((1, -1), (1, 0)), ((0, 1), (1, 0))]
    with pytest.raises(GroupTooLarge):
        geom.action(hexagon)
    monkeypatch.setenv("KLS_MAX_GROUP", "12")
    action, by_perm = geom.action(hexagon)
    assert len(action) == len(by_perm) == 12


def test_fan_json_roundtrip():
    fan, _ = load_fan_fixture("cone_square_z4.json")
    again = LatticeFan.from_json(fan.to_json())
    assert again.rays == fan.rays and again.cones == fan.cones
