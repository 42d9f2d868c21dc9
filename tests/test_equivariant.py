"""Group actions on posets and the equivariant incidence algebra."""

import re
from fractions import Fraction

import pytest

from klspoly import cli, equivariant, fans
from klspoly.equivariant import (AssemblyInconsistent, ClassPoly,
                                 EquivIncidenceElement, GroupTooLarge,
                                 NotAutomorphism, PermAction,
                                 check_equivariant_theorem, equiv_constant,
                                 equiv_hat, equiv_invert,
                                 equiv_kernel_validate,
                                 equiv_local_invariants, equiv_multiply,
                                 equiv_rev, equiv_solve_f, equiv_solve_g,
                                 equiv_z_function, ev_w, is_eulerian_action,
                                 perm_inv, perm_mul, validate_action)
from klspoly.incidence import (CarrierMismatch, WeakRank, delta,
                               eulerian_kernel, hat, rev, validate_kernel)
from klspoly.polynomial import Poly, poly_rev
from klspoly.poset import boolean_algebra, polygon
from klspoly.schemas import (build_group, build_poset, build_triple,
                             load_document)
from klspoly.subdivision import theorem_g_identities
from klspoly.verify import (fixture_path, hexagon_dihedral_setup,
                            solver_crosscheck, square_fan_setup)

from conftest import (dihedral_polygon_action, natural_weak_rank,
                      random_equiv_element, seeded_rng)


def rotation_polygon_action(k):
    p = polygon(k)
    rot = [0] + [1 + (i + 1) % k for i in range(k)] \
        + [1 + k + (i + 1) % k for i in range(k)] + [2 * k + 1]
    return PermAction(p, [tuple(rot)])


def test_group_closure_and_conjugacy_classes():
    act = dihedral_polygon_action(6)
    assert len(act.elements) == 12
    # dihedral group of order 12 has 6 conjugacy classes
    assert len(act.conjugacy_classes()) == 6
    rot = rotation_polygon_action(6)
    assert len(rot.elements) == 6
    assert len(rot.conjugacy_classes()) == 6  # abelian


def test_the_orbit_walk_yields_a_schreier_tree_from_its_starts():
    action = dihedral_polygon_action(5)
    gens = action.generators

    def moves(w):
        return ((g, perm_mul(g, w)) for g in gens)

    starts = [action.identity, gens[0], action.identity]
    walk = list(equivariant._orbit(starts, moves))
    points = [point for point, _parent, _g in walk]
    assert len(points) == len(set(points))
    assert set(points) == set(action.elements)
    assert walk[:2] == [(action.identity, None, None), (gens[0], None, None)]
    seen = set(points[:2])
    for point, parent, g in walk[2:]:
        assert parent in seen and point == perm_mul(g, parent)
        seen.add(point)


def test_interval_orbits_partition_the_intervals():
    action = dihedral_polygon_action(5)
    listed = []
    for rep, steps in action.interval_orbits():
        orbit = [rep] + [child for child, _parent, _g in steps]
        for child, (i, j), g in steps:
            assert child == (g[i], g[j])
        assert set(orbit) == {(w[rep[0]], w[rep[1]]) for w in action.elements}
        assert rep == min(orbit)
        listed.extend(orbit)
    assert sorted(listed) == sorted(action.poset.intervals())


def test_a_closure_past_its_bound_stops_walking(monkeypatch):
    yielded = []
    orbit = equivariant._orbit

    def counted(starts, moves):
        for step in orbit(starts, moves):
            yielded.append(step)
            yield step

    monkeypatch.setattr(equivariant, "_orbit", counted)
    quarter_turn = (1, 2, 3, 0)
    assert len(equivariant._closure([quarter_turn], 4, 4)) == 4
    yielded.clear()
    with pytest.raises(GroupTooLarge, match="group closure exceeds bound 2"):
        equivariant._closure([quarter_turn], 4, 2)
    assert len(yielded) <= 3


def test_stabilizers():
    act = dihedral_polygon_action(6)
    p = act.poset
    # the bottom is fixed by everything
    assert len(act.stabilizer(p.bottom())) == 12
    # a vertex is fixed only by the identity and one reflection
    assert len(act.stabilizer(1)) == 2
    # vertex together with a non-adjacent vertex: identity only, unless the
    # reflection through both survives
    assert len(act.stabilizer(1, 1 + 3)) == 2  # opposite vertices


def test_non_automorphism_rejected():
    p = polygon(4)
    bad = list(range(p.n))
    bad[1], bad[1 + 4] = bad[1 + 4], bad[1]  # swaps a vertex with an edge
    with pytest.raises(NotAutomorphism):
        PermAction(p, [tuple(bad)])


def test_validate_action_checks_rank_and_q():
    p = polygon(4)
    act = rotation_polygon_action(4)
    assert validate_action(act, p)
    # q = a vertex is moved by the rotation
    assert not validate_action(act, p, q=1)
    # the rank is compared with the poset's, and checked at construction
    lifted = p.with_rank([r + 1 for r in p.rank])
    assert validate_action(act, lifted).reason == "action-poset-mismatch"
    uneven = p.with_rank([0, 1, 1, 1, 5, 2, 2, 2, 2, 3])
    with pytest.raises(NotAutomorphism, match="rank"):
        PermAction(uneven, act.generators)


def test_fixed_posets_of_polygon_rotations():
    act = rotation_polygon_action(5)
    for w in act.elements:
        sub, emb, _ = act.fixed_poset(w)
        if w == act.identity:
            assert sub.n == act.poset.n
        else:
            # a nontrivial rotation fixes only the empty face and the top
            assert sub.n == 2
            assert emb[0] == act.poset.bottom()
            assert emb[1] == act.poset.top()


def test_constant_embedding_and_identity_evaluation():
    act = rotation_polygon_action(5)
    kappa = eulerian_kernel(act.poset)
    ek = equiv_constant(act, kappa)
    assert equiv_kernel_validate(ek)
    # evaluation at the identity returns the plain kernel
    assert ev_w(ek, act.identity).vals == kappa.vals


def test_constant_embedding_requires_invariance():
    act = rotation_polygon_action(4)
    kappa = eulerian_kernel(act.poset)
    tweaked = dict(kappa.vals)
    tweaked[(0, 1)] = Poly([5])
    bad = type(kappa)(kappa.poset, kappa.weak_rank, tweaked)
    with pytest.raises(ValueError, match="not invariant"):
        equiv_constant(act, bad)


def test_rotation_solvers_reduce_per_element():
    act = rotation_polygon_action(6)
    kappa = equiv_constant(act, eulerian_kernel(act.poset))
    g = equiv_solve_g(kappa)
    f = equiv_solve_f(kappa)
    z = equiv_z_function(kappa, g=g, f=f)
    for w in act.elements:
        kw = ev_w(kappa, w)
        assert validate_kernel(kw)
        gw = ev_w(g, w)
        fw = ev_w(f, w)
        sub = gw.poset
        assert all(gw.value(i, j).coeff(0) == 1 for (i, j) in sub.intervals())
        # z at the full interval: the hexagon's z-polynomial at the
        # identity, and its character value at every rotation
        zw = ev_w(z, w)
        full = zw.value(sub.bottom(), sub.top())
        if w == act.identity:
            assert full == Poly([1, 9, 9, 1])
        else:
            assert full == Poly([1, -3, -3, 1])
    # virtual characters: every class value is an integer polynomial
    assert all(v.den == 1 for elem in (g, z) for cp in elem.vals.values()
               for v in cp.values.values())


def test_solver_mirror_constraints_hold_equivariantly():
    fan, faction, kappa = square_fan_setup()
    assert equiv_kernel_validate(kappa)
    g = equiv_solve_g(kappa)
    assert equiv_rev(g).vals == equiv_multiply(g, kappa).vals
    f = equiv_solve_f(kappa)
    assert equiv_rev(f).vals == equiv_multiply(kappa, f).vals
    z = equiv_z_function(kappa, g=g, f=f)
    assert equiv_rev(z).vals == z.vals


def test_randomized_evaluation_is_multiplicative():
    rng = seeded_rng(271828)
    act = dihedral_polygon_action(5)
    wr = natural_weak_rank(act)
    for _ in range(6):
        p = random_equiv_element(act, wr, rng)
        q = random_equiv_element(act, wr, rng)
        prod = equiv_multiply(p, q)
        for w in act.elements:
            left = ev_w(prod, w)
            pw, qw = ev_w(p, w), ev_w(q, w)
            from klspoly.incidence import convolve
            assert left.vals == convolve(pw, qw).vals


def test_glued_double_semisuspension_is_refused():
    _, payload = load_document(fixture_path("glued_semisuspension.json"),
                               "poset")
    poset = build_poset(payload)
    assert poset.is_eulerian()
    _, gpayload = load_document(fixture_path("glued_swap.json"), "group")
    action = build_group(gpayload, poset, 10_000)
    res = is_eulerian_action(action)
    assert not res
    swap = tuple([0, 1, 2, 3, 4, 5, 6, 8, 7, 9])
    assert tuple(res.witness["w"]) == swap
    # the fixed poset of the swap has maximal chains of different lengths
    sub, _, _ = action.fixed_poset(swap)
    assert not sub.is_lower_eulerian()


def test_class_poly_operations():
    act = dihedral_polygon_action(6)
    stab = act.stabilizer(act.poset.bottom())
    one = ClassPoly.constant(stab, Poly([1, 2]))
    assert one.ev(act.identity) == Poly([1, 2])
    assert one.rev(3).ev(act.identity) == Poly([0, 0, 2, 1])
    # the sign twist is the plain hat on every fixed poset
    p = random_equiv_element(act, natural_weak_rank(act), seeded_rng(2))
    twisted = equiv_hat(p)
    for w in act.elements:
        assert ev_w(twisted, w) == hat(ev_w(p, w))
    assert (one - one).ev(act.identity) == Poly([])


def test_orbit_reps_are_the_smallest_point_of_each_subgroup_orbit():
    action = dihedral_polygon_action(6)
    n = action.poset.n
    assert action.stabilizer().generators == action.generators
    for points in [(), (0,), (1,), (7,), (1, 7), (0, n - 1)]:
        stab = action.stabilizer(*points)
        closure = {b for b, _a, _g in equivariant._orbit(
            [action.identity], lambda a: (
                (g, perm_mul(g, a)) for g in stab.generators))}
        assert closure == stab.elements
        candidates = range(n - 1, -1, -1)
        smallest = sorted({min(w[z] for w in stab) for z in candidates})
        assert action.orbit_reps(candidates, subgroup=stab) == smallest
    assert action.orbit_reps(range(1, 7)) == [1]


def test_perm_helpers():
    a = (1, 2, 0)
    b = (2, 0, 1)
    assert perm_mul(a, perm_inv(a)) == (0, 1, 2)
    assert perm_mul(a, b) == tuple(a[b[i]] for i in range(3))


def test_equiv_delta_is_identity():
    act = rotation_polygon_action(4)
    wr = natural_weak_rank(act)
    rng = seeded_rng(99)
    p = random_equiv_element(act, wr, rng)
    d = equiv_constant(act, delta(act.poset, wr))
    assert equiv_multiply(d, p).vals == p.vals
    assert equiv_multiply(p, d).vals == p.vals


def test_equivariant_theorem_through_the_ordinary_identity_code():
    triple, action, kappa = hexagon_dihedral_setup()
    assert check_equivariant_theorem(triple, kappa)
    # a wrong Delta ell is caught by the same code, naming an interval
    li = equiv_local_invariants(triple, kappa.weak_rank, action, kappa)
    res = theorem_g_identities(triple, li.g, equiv_invert(li.g),
                               li.delta_ell.scale(Poly([2])))
    assert not res and res.reason == "theorem-g"
    assert res.witness in triple.xy_pairs()


def test_a_product_that_differs_on_one_interval_is_named_there(monkeypatch):
    triple, action, kappa = hexagon_dihedral_setup()
    target = triple.xy_pairs()[-1]
    exact = equiv_multiply

    def perturbed(p, q):
        product = exact(p, q)
        vals = dict(product.vals)
        cp = product.value(*target)
        vals[target] = cp + ClassPoly.constant(cp.group, Poly([1]))
        return EquivIncidenceElement._unchecked(action, p.weak_rank, vals)

    monkeypatch.setattr(equivariant, "equiv_multiply", perturbed)
    with pytest.raises(AssemblyInconsistent,
                       match=re.escape(f"on interval {target}")) as raised:
        equiv_local_invariants(triple, kappa.weak_rank, action, kappa)
    assert raised.value.interval == target
    res = solver_crosscheck(kappa)
    assert not res and res.reason == "g-direct-identity"
    assert res.witness == target


def test_the_equivariant_suite_computes_each_product_once(monkeypatch):
    # the hexagon's subdivision identities multiply Delta ell by g|_Y and
    # f|_X by hat(Delta ell), not by the whole g and f as well
    from klspoly.verify import run_suite

    calls = _record(monkeypatch, equivariant, "equiv_multiply")
    results = run_suite("equivariant")
    assert all(res for _label, res in results)
    assert len(calls) == 11


def test_every_algebra_result_is_well_formed():
    # algebra results are built unchecked: each must hold only nonzero
    # values and pass the checking constructor unchanged
    action = dihedral_polygon_action(4)
    wr = natural_weak_rank(action)
    rng = seeded_rng(5)
    a = random_equiv_element(action, wr, rng)
    b = random_equiv_element(action, wr, rng)
    kappa = equiv_constant(action, eulerian_kernel(action.poset))
    results = [a + b, a - b, a - a, -a, a * b, a.scale(Poly([0])),
               a.scale(Poly([1, -1])),
               a.select([p for p in action.poset.intervals() if p[0] == 0]),
               kappa,
               equiv_rev(kappa), equiv_hat(kappa), equiv_invert(kappa)]
    for e in results:
        assert not any(cp.is_zero for cp in e.vals.values())
        assert EquivIncidenceElement(e.action, e.weak_rank, e.vals).vals \
            == e.vals
    assert (a - a).vals == {} and a.scale(Poly([0])).vals == {}


def _pointwise(f, *elems):
    """{interval: f(values)} over the union of the supports, zeros dropped:
    an operation worked out on the value dicts, without element code."""
    keys = set().union(*(e.vals for e in elems))
    vals = {k: f(*(e.vals.get(k, Poly()) for e in elems)) for k in keys}
    return {k: v for k, v in vals.items() if v}


def test_ev_w_commutes_with_the_shared_operations():
    # each operation both element kinds share, at every group element: the
    # evaluation of the equivariant result equals the plain result on the
    # fixed poset, and both equal the values worked out directly
    action = dihedral_polygon_action(4)
    wr = natural_weak_rank(action)
    rng = seeded_rng(11)
    a = random_equiv_element(action, wr, rng)
    # b is zero on the intervals starting at the bottom 0, which every w
    # fixes, so sums meet keys stored on one side only
    b = random_equiv_element(action, wr, rng).select(
        [p for p in action.poset.intervals() if p[0] != 0])
    kappa = equiv_constant(action, eulerian_kernel(action.poset))
    # constant values times a kernel keep every degree within the weak rank
    low = random_equiv_element(action, wr, rng, max_deg=0) * kappa
    pairs = sorted(action.poset.intervals())[::3]

    def pred(i, j):
        return (i + j) % 2 == 0

    even = [p for p in action.poset.intervals() if pred(*p)]
    for w in action.elements:
        sub, emb, pos = action.fixed_poset(w)
        ea, eb, elow = ev_w(a, w), ev_w(b, w), ev_w(low, w)
        fixed = [(pos[i], pos[j]) for (i, j) in pairs
                 if w[i] == i and w[j] == j]
        cases = [
            (a + b, ea + eb, _pointwise(lambda x, y: x + y, ea, eb)),
            (b - a, eb - ea, _pointwise(lambda x, y: x - y, eb, ea)),
            (-a, -ea, _pointwise(lambda x: -x, ea)),
            (a.select(pairs), ea.select(fixed),
             {k: v for k, v in ea.vals.items() if k in fixed}),
            (a.select(even), ea.select([(i, j) for (i, j) in sub.intervals()
                                        if pred(emb[i], emb[j])]),
             {(i, j): v for (i, j), v in ea.vals.items()
              if pred(emb[i], emb[j])}),
            (equiv_rev(low), rev(elow),
             {(i, j): poly_rev(v, elow.weak_rank.value(i, j))
              for (i, j), v in elow.vals.items()})]
        cases += [(a.scale(c), ea.scale(c), _pointwise(lambda x: x * c, ea))
                  for c in (3, Fraction(-2, 5), Poly([1, -1]), 0)]
        for equivariant_result, plain, expected in cases:
            assert ev_w(equivariant_result, w) == plain
            assert plain.vals == expected
    assert low.vals and equiv_rev is rev


def test_both_element_kinds_refuse_to_mix_carriers():
    # plain elements on two posets and equivariant ones under two actions
    # on one poset: sums and products raise, equality is False
    square = polygon(4)
    plain = (eulerian_kernel(square), eulerian_kernel(polygon(5)))
    kappa = eulerian_kernel(square)
    equiv = (equiv_constant(dihedral_polygon_action(4), kappa),
             equiv_constant(rotation_polygon_action(4), kappa))
    for p, q in (plain, equiv):
        for op in (lambda: p + q, lambda: p - q, lambda: p * q):
            with pytest.raises(CarrierMismatch,
                               match="live on different carriers"):
                op()
        assert not p == q and p != q and p == p


def _square_kernel():
    action = dihedral_polygon_action(4)
    return action, equiv_constant(action, eulerian_kernel(action.poset))


def test_a_class_function_that_is_not_conjugation_compatible_is_named():
    # the value on (empty, v0) changes at the identity only: still a class
    # function on the stabilizer of the pair, but no longer the conjugate
    # of the value on (empty, v1)
    action, kappa = _square_kernel()
    vals = dict(kappa.vals)
    stab = action.stabilizer(0, 1)
    vals[(0, 1)] = ClassPoly(stab, {w: Poly([5]) if w == action.identity
                                    else kappa.value(0, 1).ev(w)
                                    for w in stab.reps})
    broken = EquivIncidenceElement._unchecked(action, kappa.weak_rank, vals)
    res = broken.validate_definition()
    assert not res and res.reason == "conjugation-compatibility"
    rotation = (0, 2, 3, 4, 1, 6, 7, 8, 5, 9)
    reflection = (0, 1, 4, 3, 2, 8, 7, 6, 5, 9)
    assert res.witness == {"interval": [0, 1], "w": list(rotation),
                           "u": list(action.identity)}
    assert reflection < rotation  # the reflection fixes (0, 1): no witness
    with pytest.raises(AssemblyInconsistent,
                       match="conjugation-compat") as raised:
        EquivIncidenceElement(action, kappa.weak_rank, vals)
    assert raised.value.interval == (0, 1)
    # per-element inverses of the broken data do not glue either, and the
    # assembly names an interval
    with pytest.raises(AssemblyInconsistent,
                       match=r"conjugation.*interval.*\d+, \d+"):
        equiv_invert(broken)


def test_a_read_that_does_not_glue_is_named_at_its_interval():
    _fan, _faction, kappa = square_fan_setup()
    action, weak_rank = kappa.action, kappa.weak_rank
    assert equivariant._assemble(action, weak_rank, kappa.value) == kappa
    rep, steps = max(action.interval_orbits(), key=lambda orbit: len(orbit[1]))
    moved = equivariant._deepest(weak_rank,
                                 [child for child, _parent, _g in steps])
    assert moved != rep

    def read(i, j):
        cp = kappa.value(i, j)
        if (i, j) == moved:
            return cp + ClassPoly.constant(cp.group, Poly([1]))
        return cp

    with pytest.raises(AssemblyInconsistent,
                       match=re.escape(f"on interval {moved}")):
        equivariant._assemble(action, weak_rank, read)


def test_a_kernel_wrong_only_at_a_non_identity_class_is_named():
    # (t-1)^3 + 1 at the half-turn on (empty, top) of the rotated square:
    # the half-turn is its own conjugacy class and fixes only the empty
    # face and the top, where the value must be antisymmetric under reversal
    action = rotation_polygon_action(4)
    kappa = equiv_constant(action, eulerian_kernel(action.poset))
    assert equiv_kernel_validate(kappa)
    half_turn = (0, 3, 4, 1, 2, 7, 8, 5, 6, 9)
    whole = action.stabilizer(0, 9)
    assert whole == action.stabilizer() and half_turn in whole.reps
    vals = dict(kappa.vals)
    vals[(0, 9)] = ClassPoly(whole, {
        w: kappa.value(0, 9).ev(w) + (Poly([1]) if w == half_turn
                                      else Poly([]))
        for w in whole.reps})
    broken = EquivIncidenceElement(action, kappa.weak_rank, vals)
    res = equiv_kernel_validate(broken)
    assert not res and res.reason == "fixed-poset-kernel"
    assert res.witness == {"w": list(half_turn)}
    assert validate_kernel(ev_w(broken, action.identity))


def _moved_weak_rank(poset):
    """Heights lifted by 2 above v0: additive and of the same parity as the
    rank, but no rotation of the polygon preserves it."""
    height = [r + (2 if poset.leq(1, z) else 0)
              for z, r in enumerate(poset.rank)]
    return WeakRank(poset, {(i, j): height[j] - height[i]
                            for (i, j) in poset.intervals()})


def test_a_weak_rank_the_action_moves_is_refused_with_an_interval():
    action, kappa = _square_kernel()
    poset = action.poset
    moved = _moved_weak_rank(poset)
    assert any(moved.value(i, j) != moved.value(w[i], w[j])
               for (i, j) in poset.intervals() for w in action.generators)
    broken = EquivIncidenceElement(action, moved, kappa.vals)
    res = equiv_kernel_validate(broken)
    assert not res
    named = re.search(r"[\[(](\d+), (\d+)[\])]", res.describe())
    assert named is not None, res.describe()
    assert poset.leq(int(named.group(1)), int(named.group(2)))


def _record(monkeypatch, owner, name):
    """Wrap ``owner.NAME``; returns the list of (args, result) of its calls."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


@pytest.mark.parametrize("fixture", ["crosscut_d4.json", "square_fan_z4.json"])
def test_each_span_kernel_is_validated_once(monkeypatch, capsys, fixture):
    built = _record(monkeypatch, fans, "span_kernel")
    checked = _record(monkeypatch, fans, "validate_span_kernel")
    assert cli.main(["check", f"fixture:{fixture}"]) == 0
    assert "fail" not in capsys.readouterr().out
    kernels = [id(kernel) for _args, kernel in built]
    assert len(kernels) == 1
    assert [id(args[0]) for args, _result in checked] == kernels


def test_kernels_are_validated_once_per_whole_group_class(monkeypatch):
    _triple, action, kappa = hexagon_dihedral_setup()
    calls = _record(monkeypatch, equivariant, "validate_kernel")
    assert equiv_kernel_validate(kappa)
    assert len(calls) == len(action.stabilizer().reps) == 6 < len(action)
    assert sorted(tuple(args[0].poset.up) for args, _ in calls) == sorted(
        tuple(action.fixed_poset(w)[0].up) for w in action.stabilizer().reps)


def test_a_product_is_summed_once_per_interval_orbit(monkeypatch):
    action, kappa = _square_kernel()
    calls = _record(monkeypatch, equivariant, "_multiply_at")
    product = equiv_multiply(kappa, kappa)
    orbits = action.interval_orbits()
    assert len(calls) == len(orbits) < len(action.poset.intervals())
    assert len(product.vals) == len(action.poset.intervals())


def _direct_product(p, q):
    """p * q by the character formula, summed over every interval and every
    element of its stabilizer: (p q)(i, j) at u adds p(i, z) q(z, j) at u
    over the z in [i, j] that u fixes."""
    poset = p.action.poset
    out = {}
    for (i, j) in poset.intervals():
        stab = p.action.stabilizer(i, j)
        values = {}
        for u in stab:
            total = Poly([])
            for z in poset.elements_between(i, j):
                if u[z] == z:
                    total = total + p.value(i, z).ev(u) * q.value(z, j).ev(u)
            values[u] = total
        cp = ClassPoly(stab, values)
        if not cp.is_zero:
            out[(i, j)] = cp
    return out


def _oracle_cases():
    square = dihedral_polygon_action(4)
    _tag, triple = load_document(fixture_path("polygon_s3_top.json"),
                                 "triple")
    _tag, group = load_document(fixture_path("polygon_s3_rotation.json"),
                                "group")
    rotation = build_group(group, build_triple(triple).gamma)
    _fan, faction, kappa = square_fan_setup()
    return {"dihedral square": (square, None),
            "polygon_s3_rotation": (rotation, None),
            "square_fan_z4": (faction.action, kappa)}


@pytest.mark.parametrize("name", ["dihedral square", "polygon_s3_rotation",
                                  "square_fan_z4"])
def test_the_product_matches_a_direct_sum_over_every_interval(name):
    action, kappa = _oracle_cases()[name]
    rng = seeded_rng(31)
    wr = natural_weak_rank(action) if kappa is None else kappa.weak_rank
    p = random_equiv_element(action, wr, rng)
    q = kappa if kappa is not None else random_equiv_element(action, wr, rng)
    for left, right in ((p, q), (q, p), (p, p)):
        assert equiv_multiply(left, right).vals == _direct_product(left,
                                                                   right)


def test_class_polynomials_scale_by_scalars_and_polynomials():
    whole = dihedral_polygon_action(4).stabilizer()
    cp = ClassPoly.constant(whole, Poly([1, 2]))
    assert cp.scale(2) == ClassPoly.constant(whole, Poly([2, 4]))
    assert cp.scale(Fraction(1, 2)) == ClassPoly.constant(
        whole, Poly([Fraction(1, 2), 1]))
    assert cp.scale(Poly([0, 1])) == ClassPoly.constant(whole, Poly([0, 1, 2]))
    with pytest.raises(TypeError, match="by a str"):
        cp.scale("2")


def test_the_identity_under_a_moved_weak_rank_is_no_equivariant_kernel():
    # delta is a kernel for every weak rank, so each fixed poset accepts
    # it; only the invariance check sees that the rotation moves the rank
    action = rotation_polygon_action(4)
    moved = _moved_weak_rank(action.poset)
    unit = equiv_constant(action, delta(action.poset, moved))
    assert all(validate_kernel(ev_w(unit, w)) for w in action.elements)
    res = equiv_kernel_validate(unit)
    assert not res and res.reason == "weak-rank-not-invariant"
    (i, j), w = res.witness["interval"], res.witness["w"]
    assert moved.value(w[i], w[j]) != moved.value(i, j)
