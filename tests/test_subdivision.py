"""Strong formal subdivisions, mapping cylinders, and local invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from klspoly.equivariant import PermAction
from klspoly.fans import polytope_cone_triple
from klspoly.incidence import IncidenceElement, WeakRank, eulerian_kernel
from klspoly.polynomial import Poly
from klspoly.poset import (boolean_algebra, cube_face_lattice, from_covers,
                           polygon, segment_subdivision)
from klspoly.subdivision import (StrongFormalSubdivision, SubdivisionError,
                                 SubdivisionTriple, check_composition,
                                 check_corollary_f, check_corollary_z,
                                 check_product_identities, check_theorem_g,
                                 id_sfs, local_invariants, mapping_cylinder,
                                 product_sfs, relative_g,
                                 segment_refinement_sfs,
                                 segment_subdivision_sfs, solve_kernel,
                                 triple_to_sfs)
from klspoly.verify import (admissible_triples, builder_corpus,
                            hexagon_dihedral_setup)

from conftest import random_equiv_element


def test_segment_subdivision_sfs_validates():
    for s in range(0, 6):
        sfs = segment_subdivision_sfs(s)
        assert sfs.validate()
        # the end vertices go to the end vertices, the interior vertices
        # and the s + 1 small edges to the edge
        assert (sfs.X, sfs.Y) == (segment_subdivision(s),
                                  segment_subdivision(0))
        assert sfs.sigma == (0, 1) + (3,) * s + (2,) + (3,) * (s + 1)


def test_validation_witnesses_name_the_broken_condition():
    good = segment_subdivision_sfs(2)
    # send an interior vertex to a coarse vertex: breaks the signed fiber
    # count over the edge above it
    sigma = list(good.sigma)
    sigma[2] = 1
    res = StrongFormalSubdivision(good.X, good.Y, sigma).validate()
    assert not res
    assert res.reason in ("signed-count", "strongly-surjective",
                          "order-preserving")
    # collapse everything to the empty face: ranks go down
    res = StrongFormalSubdivision(good.X, good.Y, [0] * good.X.n).validate()
    assert not res and res.reason == "rank-increasing"
    # rank-respecting map that never hits the right vertex
    one = segment_subdivision_sfs(1)
    sigma = [0, 1, 1, 1, 3, 3]
    res = StrongFormalSubdivision(one.X, one.Y, sigma).validate()
    assert not res and res.reason == "strongly-surjective"
    # sigma reversing the order
    flip = list(good.sigma)
    flip[0], flip[-1] = flip[-1], 0
    res = StrongFormalSubdivision(good.X, good.Y, flip).validate()
    assert not res and res.reason == "order-preserving"


def test_sigma_range_checked_at_construction():
    good = segment_subdivision_sfs(1)
    with pytest.raises(SubdivisionError):
        StrongFormalSubdivision(good.X, good.Y, [99] * good.X.n)
    with pytest.raises(SubdivisionError):
        StrongFormalSubdivision(good.X, good.Y, good.sigma[:-1])


def test_mapping_cylinder_shape_and_roundtrip():
    sfs = segment_subdivision_sfs(2)
    triple = mapping_cylinder(sfs)
    assert triple.q == sfs.X.n + sfs.Y.bottom()
    assert triple.gamma.is_lower_eulerian()
    back = triple_to_sfs(triple)
    assert back.X.n == sfs.X.n and back.Y.n == sfs.Y.n
    assert list(back.sigma) == list(sfs.sigma)
    assert back.validate()


def test_triple_requires_join_admissible_q():
    # two segments glued along both endpoints: atoms have two joins
    bowtie = from_covers(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
                         rank=[0, 1, 1, 2, 2])
    with pytest.raises(SubdivisionError, match="join"):
        SubdivisionTriple(bowtie, 1)
    b2 = boolean_algebra(2)
    with pytest.raises(SubdivisionError, match="minimum"):
        SubdivisionTriple(b2, b2.bottom())


def test_polygon_triple_local_invariants():
    # polygon with s + 3 vertices, q = one vertex: the local invariants at
    # the full interval are h = 1 + s t, ell = Delta ell = s t
    for s in range(0, 7):
        p = polygon(s + 3)
        triple = SubdivisionTriple(p, 1)
        kappa = eulerian_kernel(p)
        li = local_invariants(triple, kappa.weak_rank, kappa)
        b, t = p.bottom(), p.top()
        assert li.h_sigma.value(b, t) == Poly([1, s])
        assert li.ell_sigma.value(b, t) == Poly([0, s])
        assert li.delta_ell.value(b, t) == Poly([0, s])


def test_relative_g_cube_faces():
    c = cube_face_lattice(3)
    expected = {1: Poly([0, 1]), 2: Poly([0, 2]), 3: Poly([0, 3]),
                4: Poly([1, 4])}
    for z in range(c.n):
        r = c.rank[z]
        if r == 0:
            with pytest.raises(SubdivisionError, match="nonempty"):
                relative_g(c, z)
        else:
            assert relative_g(c, z) == expected[r]


def test_relative_g_square():
    sq = cube_face_lattice(2)
    vertex = next(z for z in range(sq.n) if sq.rank[z] == 1)
    assert relative_g(sq, vertex) == Poly([0, 1])
    assert relative_g(sq, sq.top()) == Poly([1, 1])


def test_theorem_and_corollaries_on_triples():
    for s in (1, 2, 3):
        triple = mapping_cylinder(segment_subdivision_sfs(s))
        kappa = eulerian_kernel(triple.gamma)
        assert check_theorem_g(triple, kappa)
        assert check_corollary_f(triple, kappa)
        assert check_corollary_z(triple, kappa)
    for k in (4, 6):
        triple = SubdivisionTriple(polygon(k), 1)
        kappa = eulerian_kernel(triple.gamma)
        assert check_theorem_g(triple, kappa)
        assert check_corollary_f(triple, kappa)
        assert check_corollary_z(triple, kappa)


def test_composition_of_refinements():
    fine = segment_refinement_sfs(3, (2,))
    coarse = segment_subdivision_sfs(1)
    assert fine.validate() and coarse.validate()
    assert check_composition(fine, coarse)


def test_identity_subdivision_laws():
    p = segment_subdivision(2)
    ident = id_sfs(p)
    assert ident.validate()
    assert check_composition(ident, ident)
    sub = segment_subdivision_sfs(2)
    # id before and after a subdivision composes cleanly
    assert check_composition(id_sfs(sub.X), sub)
    assert check_composition(sub, id_sfs(sub.Y))


def test_product_identities():
    s1 = segment_subdivision_sfs(2)
    s2 = segment_subdivision_sfs(1)
    prod = product_sfs(s1, s2)
    assert prod.validate()
    assert check_product_identities(s1, s2)


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=12, deadline=None)
def test_random_segment_refinements_satisfy_theorem_g(fine, data):
    kept = data.draw(st.sets(st.integers(min_value=1, max_value=fine)))
    sfs = segment_refinement_sfs(fine, kept)
    assert sfs.validate()
    triple = mapping_cylinder(sfs)
    kappa = eulerian_kernel(triple.gamma)
    assert check_theorem_g(triple, kappa)


# -- solved kernels ----------------------------------------------------------


def test_solve_kernel_refuses_a_non_multiplicative_kernel_with_witness():
    b = boolean_algebra(2)
    kappa = eulerian_kernel(b)
    bot, top = b.bottom(), b.top()
    kappa.vals[(bot, top)] = Poly([1, -2, 2])
    atom = min(z for z in b.elements_between(bot, top) if z not in (bot, top))
    with pytest.raises(SubdivisionError, match="not multiplicative") as err:
        solve_kernel(kappa)
    assert f"witness={(bot, atom, top)}" in str(err.value)


def test_a_solution_on_another_carrier_is_refused():
    solution = solve_kernel(eulerian_kernel(polygon(5)))
    triple = SubdivisionTriple(polygon(6), 1)
    with pytest.raises(SubdivisionError, match="carrier"):
        local_invariants(triple, solution.weak_rank, solution)
    with pytest.raises(SubdivisionError, match="carrier"):
        check_theorem_g(triple, solution)


def test_theorem_g_suite_solves_each_corpus_kernel_once(monkeypatch):
    from klspoly import incidence, subdivision, verify

    calls = {"g": 0, "f": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrapped = {"solve_g": counting("g", incidence.solve_g),
               "solve_f": counting("f", incidence.solve_f)}
    for module in (incidence, subdivision, verify):
        for name, fn in wrapped.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    posets = sum(1 for _, p in verify.builder_corpus()
                 if any(True for _ in verify.admissible_triples(p)))
    results = verify.run_suite("theorem-g")
    assert all(res for _, res in results)
    # one solve per poset with an admissible triple, one for the guard
    assert calls["g"] == posets + 1
    assert calls["f"] == 0


def test_corrupted_kernel_guard_checks_the_interval(monkeypatch):
    from klspoly import verify
    from klspoly.incidence import MirrorConstraintViolated

    assert verify._corrupted_kernel_guard()

    def misplaced(kappa):
        raise MirrorConstraintViolated("mirror constraint fails (1, 3)", (1, 3))

    monkeypatch.setattr(verify, "solve_g", misplaced)
    res = verify._corrupted_kernel_guard()
    assert not res and res.witness == (1, 3)


@pytest.mark.parametrize("poset", [polygon(6), cube_face_lattice(3)],
                         ids=["polygon-6", "cube-3"])
def test_a_shared_solution_matches_a_raw_kernel_at_every_q(poset):
    from klspoly.verify import admissible_triples

    kappa = eulerian_kernel(poset)
    solution = solve_kernel(kappa)
    seen = 0
    for q, triple in admissible_triples(poset):
        shared = local_invariants(triple, solution.weak_rank, solution)
        raw = local_invariants(triple, kappa.weak_rank, kappa)
        for name in ("g", "h_sigma", "ell_sigma", "delta_ell"):
            assert getattr(shared, name) == getattr(raw, name), (q, name)
        assert check_theorem_g(triple, solution)
        assert check_corollary_f(triple, solution)
        assert check_corollary_z(triple, solution)
        seen += 1
    assert seen > 0


def _split_cases():
    """(name, triple, action): every corpus triple under the trivial
    action, and the two polytope triples under their symmetry groups."""
    for name, poset in builder_corpus():
        trivial = PermAction(poset, [tuple(range(poset.n))])
        for q, triple in admissible_triples(poset):
            yield f"{name} q={q}", triple, trivial
    hexagon, action, _kappa = hexagon_dihedral_setup()
    yield "hexagon", hexagon, action
    # a square with the origin at its vertex 0, the swap of the axes
    verts = [(0, 0), (2, 0), (0, 2), (2, 2)]
    faces = [[], [0], [1], [2], [3], [0, 1], [0, 2], [1, 3], [2, 3],
             [0, 1, 2, 3]]
    covers = [(0, k) for k in (1, 2, 3, 4)]
    covers += [(1, 5), (2, 5), (1, 6), (3, 6), (2, 7), (4, 7), (3, 8), (4, 8)]
    covers += [(k, 9) for k in (5, 6, 7, 8)]
    square, geom = polytope_cone_triple(verts, faces, covers, 1)
    action, _by_perm = geom.action([[[0, 1], [1, 0]]])
    yield "square at a vertex", square, action


def test_a_triple_splits_its_intervals_into_three_blocks():
    # the blocks are the X x X, X x Y and Y x Y filters of the intervals,
    # in interval order, and cover each interval once; each mask keeps
    # exactly its filter's values of plain and equivariant elements
    rng = random.Random(17)
    cases = 0
    for name, triple, action in _split_cases():
        gamma, q = triple.gamma, triple.q
        intervals = tuple(gamma.intervals())

        def in_y(z):
            return gamma.leq(q, z)

        filters = {
            triple.mask_xx: lambda i, j: not in_y(i) and not in_y(j),
            triple.mask_xy: lambda i, j: not in_y(i) and in_y(j),
            triple.mask_yy: lambda i, j: in_y(i) and in_y(j)}
        blocks = (triple._xx, triple.xy_pairs(), triple._yy)
        for block, keep in zip(blocks, filters.values()):
            assert block == tuple(p for p in intervals if keep(*p)), name
        assert sum(map(len, blocks)) == len(intervals), name
        wr = WeakRank.natural(gamma)
        plain = IncidenceElement(gamma, wr, {
            p: Poly([rng.randint(1, 3)]) for p in intervals
            if rng.random() < 0.7})
        equiv = random_equiv_element(action, wr, rng, max_deg=0)
        for mask, keep in filters.items():
            for element in (plain, equiv):
                masked = mask(element)
                assert masked.carrier is element.carrier, name
                assert masked.vals == {p: v for p, v in element.vals.items()
                                       if keep(*p)}, name
        cases += 1
    assert cases > 100


def test_the_local_invariants_are_supported_on_the_mixed_block():
    # h_sigma is g * kappa on the pairs (x, sigma(x)) over (t - 1), ell_sigma
    # is h_sigma * g^-1 and Delta ell is computed from ell_sigma interval by
    # interval: each lives on X x Y, which is why the subdivision
    # identities multiply only masked blocks
    from klspoly.equivariant import equiv_local_invariants

    cases = []
    for _name, poset in builder_corpus():
        solution = solve_kernel(eulerian_kernel(poset))
        cases += [(triple, local_invariants(triple, solution.weak_rank,
                                            solution))
                  for _q, triple in admissible_triples(poset)]
    hexagon, action, kappa = hexagon_dihedral_setup()
    cases.append((hexagon, equiv_local_invariants(hexagon, kappa.weak_rank,
                                                  action, kappa)))
    for triple, inv in cases:
        mixed = set(triple.xy_pairs())
        for name in ("h_sigma", "ell_sigma", "delta_ell"):
            assert set(getattr(inv, name).vals) <= mixed, (triple, name)
    assert len(cases) > 200


@pytest.mark.parametrize("suite, products", [("theorem-g", 944),
                                             ("corollary-f", 708),
                                             ("corollary-z", 998)])
def test_each_side_of_a_corpus_identity_is_computed_once(monkeypatch, suite,
                                                         products):
    # 236 triples, each with two products for h_sigma and ell_sigma and
    # one per computed side: Delta ell * g|_Y and g|_XY * g^-1 (theorem
    # g), f|_X * hat(Delta ell) (corollary f), Z|_X * hat(Delta ell) and
    # rev(Delta ell) * Z|_Y (corollary Z, whose 18 kernels each add the
    # three products of z_function)
    from klspoly import incidence, subdivision, verify

    calls = []
    original = incidence.convolve

    def counted(a, b):
        calls.append(None)
        return original(a, b)

    for module in (incidence, subdivision):
        monkeypatch.setattr(module, "convolve", counted)
    results = verify.run_suite(suite)
    assert all(res for _label, res in results)
    assert len(calls) == products
