"""Named verification suites over builder posets and bundled fixtures.

Each suite runs a family of exact identity checks and returns a list of
``(label, CheckResult)`` pairs, one per check.  The command line
(``klspoly verify --suite NAME``) and the acceptance tests both consume
these, so a green suite here and a green test run certify the same facts.

Suites:

``theorem-g``
    On every admissible (builder poset, q) pair, the mixed block of g
    equals ``delta_ell * g|_Y`` and ``delta_ell`` equals
    ``g|_{XY} * g^{-1}``; plus the guard that a corrupted kernel is
    rejected with the offending interval named.
``corollary-f`` / ``corollary-z``
    The analogous identities for f and for Z on the same corpus.
``composition``
    Local invariants of composite subdivisions convolve.
``products``
    Product subdivisions: ell multiplies, the mixed g-block convolves,
    identity-factor laws hold, and h of a product of Eulerian posets is
    the product of the h's.
``equivariant``
    Kernel validation and the two independent solver routes (per-element
    reduction vs. direct product identities) on the square fan with the
    quarter-turn action and on a hexagon with its full dihedral symmetry;
    the subdivision identities of theorem G and its f and Z companions on
    the hexagon's subdivision, in the equivariant algebra; plus the guard
    that a non-Eulerian action is refused with the group element named.
``ehrhart-reciprocity``
    For every bundled lattice complex: the h*-polynomial assembled from
    interior faces matches the counting series times det(I - wt) on one
    element per conjugacy class, and for every group element the interior
    point counts times det(I - wt) match the reflected h* up to order 6.
``all``
    Everything above.

:data:`SUITES` maps each name to its suite.  A suite imports the layers it
checks when it runs, so the corpus suites load no geometry.
"""

from .incidence import (MirrorConstraintViolated, _elements_agree,
                        eulerian_kernel, h_polynomial, solve_g)
from .poset import (boolean_algebra, cross_polytope_face_lattice,
                    cube_face_lattice, direct_product, polygon, pyramid,
                    segment_subdivision)
from .schemas import (build_complex, build_fan, build_group, build_poset,
                      fixture_path, load_fixture, load_kernel_file)
from .status import CheckResult, VerificationFailure

COMPLEX_FIXTURES = ("seg1_flip.json", "seg2_flip.json", "seg3_flip.json",
                    "seg4_flip.json", "unit_square.json", "unit_cube.json",
                    "crosscut_d4.json")


def load_complex_fixture(name):
    _tag, payload = load_fixture(name, expect="complex")
    return build_complex(payload)


def builder_corpus():
    """Ranked lower Eulerian posets the theorem suites sweep over."""
    out = []
    for n in range(1, 6):
        out.append((f"boolean-{n}", boolean_algebra(n)))
    for k in range(3, 9):
        out.append((f"polygon-{k}", polygon(k)))
    for d in (2, 3):
        out.append((f"cube-{d}", cube_face_lattice(d)))
        out.append((f"cross-{d}", cross_polytope_face_lattice(d)))
    out.append(("pyramid-square", pyramid(polygon(4))))
    for s in (1, 2, 3):
        out.append((f"segment-{s}", segment_subdivision(s)))
    out.append(("prism-triangle", direct_product(polygon(3), boolean_algebra(1))))
    return out


def admissible_triples(poset):
    """All (q, triple) pairs for which (poset, q) is a subdivision triple."""
    from .subdivision import SubdivisionError, SubdivisionTriple

    bot = poset.bottom()
    for q in range(poset.n):
        if q == bot:
            continue
        try:
            yield q, SubdivisionTriple(poset, q)
        except SubdivisionError:
            continue


def _corpus_suite(check):
    """Run check on every admissible triple of the corpus, with the
    Eulerian kernel of each poset solved once and dropped after its
    triples."""
    from .subdivision import solve_kernel

    out = []
    for name, poset in builder_corpus():
        triples = list(admissible_triples(poset))
        if not triples:
            continue
        solution = solve_kernel(eulerian_kernel(poset))
        for q, triple in triples:
            out.append((f"{name} q={poset.labels[q]}", check(triple, solution)))
        del solution
    return out


def _corrupted_kernel_guard():
    """The bundled corrupted kernel must be rejected, naming its interval."""
    _tag, payload = load_fixture("boolean3.json", expect="poset")
    poset = build_poset(payload)
    kappa = load_kernel_file(fixture_path("corrupted_kernel_b3.json"), poset)
    try:
        solve_g(kappa)
    except MirrorConstraintViolated as exc:
        if exc.interval == (0, 3):
            return CheckResult.passed()
        return CheckResult.failed("mirror-violation-wrong-interval",
                                  witness=exc.interval, detail=str(exc))
    return CheckResult.failed("corrupted-kernel-accepted")


def suite_theorem_g():
    from .subdivision import check_theorem_g

    out = _corpus_suite(check_theorem_g)
    out.append(("guard corrupted-kernel", _corrupted_kernel_guard()))
    return out


def suite_corollary_f():
    from .subdivision import check_corollary_f

    return _corpus_suite(check_corollary_f)


def suite_corollary_z():
    from .subdivision import check_corollary_z

    return _corpus_suite(check_corollary_z)


def composition_pairs():
    """Composable subdivision pairs: refinement chains of a segment.

    The first map keeps a subset of the interior points, the second
    collapses the rest onto the plain segment; they share the middle poset.
    """
    from .subdivision import segment_refinement_sfs, segment_subdivision_sfs

    pairs = []
    for fine, mid in ((3, (2,)), (3, (1, 3)), (2, (2,)), (4, (2, 4))):
        s1 = segment_refinement_sfs(fine, mid)
        s2 = segment_subdivision_sfs(len(mid))
        pairs.append((f"segment fine={fine} mid={list(mid)}", s1, s2))
    return pairs


def suite_composition():
    from .subdivision import check_composition

    return [(name, check_composition(s1, s2))
            for name, s1, s2 in composition_pairs()]


def product_pairs():
    from .subdivision import segment_refinement_sfs, segment_subdivision_sfs

    s_seg2 = segment_subdivision_sfs(2)
    s_seg1 = segment_subdivision_sfs(1)
    s_ref = segment_refinement_sfs(3, (2,))
    return [("seg2 x seg1", s_seg2, s_seg1),
            ("seg1 x seg1", s_seg1, s_seg1),
            ("ref31 x seg2", s_ref, s_seg2)]


def _h_product_check():
    cases = [(boolean_algebra(2), boolean_algebra(3)),
             (polygon(4), boolean_algebra(2)),
             (polygon(3), polygon(5))]
    for a, b in cases:
        ha, hb = h_polynomial(a), h_polynomial(b)
        hp = h_polynomial(direct_product(a, b))
        if hp != ha * hb:
            return CheckResult.failed(
                "h-of-product", detail=f"{hp!r} != {ha!r} * {hb!r}")
    return CheckResult.passed()


def suite_products():
    from .subdivision import check_product_identities

    out = [(name, check_product_identities(s1, s2))
           for name, s1, s2 in product_pairs()]
    out.append(("h of direct products", _h_product_check()))
    return out


def hexagon_polytope():
    """A lattice hexagon with full dihedral symmetry (order 12).

    Vertices on the hexagonal lattice; the rotation by one step is the
    integer matrix ((1, -1), (1, 0)) and the reflection swaps coordinates.
    """
    verts = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    faces = [frozenset()] + [frozenset([i]) for i in range(6)] \
        + [frozenset([i, (i + 1) % 6]) for i in range(6)] \
        + [frozenset(range(6))]
    covers = [(0, 1 + i) for i in range(6)]
    for e in range(6):
        covers.append((1 + e, 7 + e))
        covers.append((1 + (e + 1) % 6, 7 + e))
        covers.append((7 + e, 13))
    return verts, faces, covers


def hexagon_dihedral_setup():
    from .fans import cylinder_kernel, polytope_cone_triple

    verts, faces, covers = hexagon_polytope()
    triple, geom = polytope_cone_triple(verts, faces, covers, 13)
    rot = ((1, -1), (1, 0))
    ref = ((0, 1), (1, 0))
    action, matrix_of = geom.action([rot, ref])
    kappa = cylinder_kernel(triple, action, geom.spans, matrix_of.__getitem__)
    return triple, action, kappa


def square_fan_setup():
    from .fans import fan_kernel

    _tag, payload = load_fixture("square_fan_z4.json", expect="fan")
    fan, faction = build_fan(payload)
    kappa = fan_kernel(fan, faction)
    return fan, faction, kappa


def solver_crosscheck(kappa):
    """g and f from per-element reduction against the direct identities.

    ``equiv_solve_g``/``equiv_solve_f`` work one class representative at a
    time on fixed posets; the defining equations ``rev(g) = g * kappa`` and
    ``rev(f) = kappa * f`` are then re-verified with the
    induction/restriction product, which never looks at fixed posets; a
    failure names the first interval where the two sides differ.
    The symmetry of Z = g * kappa * f under rev is checked inside
    ``equiv_z_function``.  A solve that raises, as it may on a kernel that
    fails its validation, is reported as "mirror-constraint": its message
    is the detail, and the interval it names (a violated mirror constraint
    on a fixed poset, or a failed assembly check) is the witness.
    """
    from .equivariant import (equiv_multiply, equiv_rev, equiv_solve_f,
                              equiv_solve_g, equiv_z_function)

    try:
        g = equiv_solve_g(kappa)
        f = equiv_solve_f(kappa)
        equiv_z_function(kappa, g=g, f=f)
    except VerificationFailure as exc:
        return CheckResult.failed("mirror-constraint", witness=exc.interval,
                                  detail=str(exc))
    res = _elements_agree("g-direct-identity", equiv_rev(g),
                          equiv_multiply(g, kappa))
    if not res:
        return res
    return _elements_agree("f-direct-identity", equiv_rev(f),
                           equiv_multiply(kappa, f))


def kernel_checks(kappa):
    """The checks of an equivariant span kernel, under bare labels: its
    validation, rank alternation included, and the solver cross-check."""
    from .fans import validate_span_kernel

    return [("kernel", validate_span_kernel(kappa)),
            ("solvers", solver_crosscheck(kappa))]


def _refusal_guard():
    """The glued double-semisuspension swap must be refused, naming w."""
    from .equivariant import is_eulerian_action

    _tag, payload = load_fixture("glued_semisuspension.json", expect="poset")
    poset = build_poset(payload)
    _tag, gpayload = load_fixture("glued_swap.json", expect="group")
    action = build_group(gpayload, poset)
    res = is_eulerian_action(action)
    if res:
        return CheckResult.failed("non-eulerian-action-accepted")
    if not (res.witness and "w" in res.witness):
        return CheckResult.failed("refusal-lacks-witness",
                                  detail=res.describe())
    w = tuple(res.witness["w"])
    if w == action.identity:
        return CheckResult.failed("refusal-blames-identity")
    return CheckResult.passed()


def suite_equivariant():
    from .equivariant import check_equivariant_theorem

    _fan, _faction, kappa = square_fan_setup()
    out = [(f"square-fan quarter-turn {label}", res)
           for label, res in kernel_checks(kappa)]
    triple, _action, hkappa = hexagon_dihedral_setup()
    out.extend((f"hexagon dihedral {label}", res)
               for label, res in kernel_checks(hkappa))
    out.append(("hexagon dihedral subdivision identities",
                check_equivariant_theorem(triple, hkappa)))
    out.append(("guard non-eulerian action", _refusal_guard()))
    return out


def complex_checks(cx):
    """The checks of a lattice complex, under bare labels.

    The counting polynomial is assembled once; the point-count series of
    every group element must reproduce it, and the interior counts of
    every element must match its reflection up to order 6.
    """
    from .ehrhart import (hstar_from_subdivision, polynomial_action_check,
                          reciprocity_check)

    hstar = hstar_from_subdivision(cx)
    out = [("counting vs assembled h*", polynomial_action_check(cx, hstar))]
    for w in sorted(cx.action.elements):
        out.append((f"reciprocity w={list(w)}",
                    reciprocity_check(cx, w, 6, hstar)))
    return out


def suite_ehrhart_reciprocity():
    return [(f"{name} {label}", res) for name in COMPLEX_FIXTURES
            for label, res in complex_checks(load_complex_fixture(name))]


#: Suite name -> function returning its [(label, CheckResult)].
SUITES = {
    "theorem-g": suite_theorem_g,
    "corollary-f": suite_corollary_f,
    "corollary-z": suite_corollary_z,
    "composition": suite_composition,
    "products": suite_products,
    "equivariant": suite_equivariant,
    "ehrhart-reciprocity": suite_ehrhart_reciprocity,
}


def run_suite(name):
    """Run one named suite (or 'all'); returns [(label, CheckResult)]."""
    if name == "all":
        return [(f"{key}: {label}", res)
                for key, suite in SUITES.items() for label, res in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITES)}, all")
    return SUITES[name]()
