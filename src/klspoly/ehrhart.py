"""Equivariant lattice-point enumeration for triangulated polytopes.

A complex is a lattice triangulation of a polytope together with a finite
group of affine lattice symmetries.  Its faces, and the faces of its
optional coarsening, become face posets through
:func:`klspoly.fans.face_poset`; faces are ranked by size and coarse faces
by the dimension of their span.  Everything is computed exactly: box
points of simplices by integer barycentric coordinates against one
factored span per face (:class:`klspoly.linalg.Span`), point counts of cones
by box points plus invariant ray combinations, and the assembly formulas
expressing the counting polynomials of the whole polytope through the
kernel machinery on the subdivision's face poset.  The face kernel and
the cylinder kernel are :func:`klspoly.fans.span_kernel` calls; elements
multiplied with a kernel take that kernel's weak rank.  Every assembly
reads a complex's one table of box polynomials, built on its first read
and lifted onto a kernel's bottom row by one function; only the
point-count series scan the boxes instead, a route that builds no table.

Affine maps are encoded as (dim+1) x (dim+1) integer matrices acting on
the lattice extended by a last coordinate that every group element fixes;
a polytope face enters the linear picture as the cone over the face
placed at height one.
"""

import itertools
from functools import cached_property

from .polynomial import (Poly, ZERO, NotDivisible, poly_div_t_minus_1,
                         poly_rev)
from .linalg import Span, charpoly, identity_matrix, lattice_points, mat_vec
from .incidence import _elements_agree
from .status import CheckResult, InputError, json_int
from .equivariant import (
    ClassPoly,
    EquivIncidenceElement,
    NotAutomorphism,
    PermAction,
    _classpoly,
    _multiply_at,
    equiv_invert,
    equiv_multiply,
    equiv_rev,
    equiv_solve_g,
    perm_cycles,
)
from .fans import (
    checked_kernel,
    conv_contains,
    cylinder_kernel,
    face_permutation,
    face_poset,
    face_sets,
    induced_charpoly,
    matrix_action,
    span_kernel,
    vertex_permutation,
)
from .subdivision import StrongFormalSubdivision, mapping_cylinder


class ComplexError(InputError):
    pass


class NotASimplex(ComplexError):
    pass


def _lift(v):
    return tuple(v) + (1,)


def box_points(span):
    """The half-open box of a simplex, at every height.

    The simplex is given by the factored span of its lifted vertices
    (v_i, 1).  Returns, sorted, the lattice vectors sum lambda_i (v_i, 1)
    with every lambda_i in [0, 1), each paired with its integer
    coordinates lambda_i * den; the last entry of a point is its height
    sum lambda_i.  The open box is the points whose coordinates are all
    positive.  Each bounding-box candidate is one integer coordinate query
    against the one factorization.  Raises NotASimplex when the vertices
    are affinely dependent.
    """
    lifted = span.basis
    if not lifted:
        raise NotASimplex("a simplex needs at least one vertex")
    if not span.independent:
        raise NotASimplex("vertices are affinely dependent")
    den = span.den
    ranges = [range(sum(min(0, u[c]) for u in lifted),
                    sum(max(0, u[c]) for u in lifted) + 1)
              for c in range(len(lifted[0]) - 1)]
    out = []
    for candidate in itertools.product(*ranges, range(len(lifted))):
        coords = span.coords(candidate)
        if coords is not None and all(0 <= x < den for x in coords):
            out.append((candidate, coords))
    return out


class LatticeSimplexComplex:
    """A group-invariant lattice triangulation of a polytope.

    ``faces`` lists vertex-index sets including the empty face; every
    nonempty face must be a simplex.  ``matrices`` generate the symmetry
    group as integer matrices fixing the last coordinate.  ``coarse``
    optionally names a coarsening (usually the face lattice of the
    polytope itself) by vertex sets and cover pairs over the same vertex
    list; it is required by the operations that localize along the map to
    the coarsening.

    Each face's box is enumerated once, here: ``box[z]`` lists the
    half-open box points of face z at every height and ``open_box[z]``
    those of its open box; the empty face's box is the origin.
    ``hstar_data``, built on its first read, is their one table.
    ``interior`` lists the faces off the boundary of the polytope.
    """

    def __init__(self, dim, vertices, faces, covers, matrices=None,
                 coarse=None):
        self.dim = dim = json_int(dim, "dim", ComplexError)
        self.vertices = lattice_points(vertices, dim, "vertex", ComplexError)
        self.lifted = tuple(_lift(v) for v in self.vertices)
        self.faces = face_sets(faces, len(self.vertices), "face", "vertex",
                               ComplexError)
        if frozenset() not in self.faces:
            raise ComplexError("the empty face must be listed")
        self.spans = [Span(self.lifted[k] for k in sorted(f))
                      for f in self.faces]
        for f, span in zip(self.faces, self.spans):
            if not span.independent:
                raise NotASimplex(
                    f"face {sorted(f)} is not a simplex")
        self.poset = face_poset(self.faces, covers,
                                [len(f) for f in self.faces], "face",
                                "vertex", ComplexError)
        for z in self.poset.maximal_elements():
            if len(self.faces[z]) != dim + 1:
                raise ComplexError("maximal faces must be full-dimensional")
        self._init_action(matrices or [])
        self._init_coarse(coarse)
        self.interior = interior_faces(self)
        origin = (0,) * (dim + 1)
        self.box = []
        self.open_box = []
        for f, span in zip(self.faces, self.spans):
            box = box_points(span) if f else [(origin, ())]
            self.box.append([u for u, _lam in box])
            self.open_box.append([u for u, lam in box if all(lam)])

    @cached_property
    def hstar_data(self):
        """The :class:`HStarData` of the boxes, built and checked once."""
        return HStarData(self)

    # -- symmetry -----------------------------------------------------------

    def _init_action(self, matrices):
        last = identity_matrix(self.dim + 1)[self.dim]
        lifted_permutation = vertex_permutation(self.lifted)

        def affine_permutation(mat):
            if mat[self.dim] != last:
                raise ComplexError("affine matrices must fix the last "
                                   "coordinate")
            return lifted_permutation(mat)

        self.action, self.by_perm, self.vert_perm = matrix_action(
            self.poset, self.faces, self.dim + 1, matrices,
            affine_permutation)

    # -- coarsening ---------------------------------------------------------

    def _init_coarse(self, coarse):
        self.coarse_poset = None
        if coarse is None:
            return
        cfaces = face_sets(coarse["faces"], len(self.vertices),
                           "coarse face", "vertex", ComplexError)
        if frozenset() not in cfaces:
            raise ComplexError("the coarse empty face must be listed")
        spans = [Span(self.lifted[k] for k in sorted(f)) for f in cfaces]
        cposet = face_poset(cfaces, coarse["covers"],
                            [s.rank for s in spans], "coarse face",
                            "vertex", ComplexError)
        cperms = {}
        for w, vperm in self.vert_perm.items():
            cperms[w] = face_permutation(cfaces, vperm)
            if cperms[w] is None:
                raise NotAutomorphism(
                    "the group does not preserve the coarsening")
        self.coarse_faces = cfaces
        self.coarse_poset = cposet
        self.coarse_spans = spans
        self.coarse_perm = cperms
        # the vertices lying in each coarse face, decided once per pair
        inside = []
        for cf in cfaces:
            points = [self.vertices[k] for k in sorted(cf)]
            inside.append(frozenset(
                j for j, v in enumerate(self.vertices)
                if j in cf or (cf and conv_contains(points, v))))
        sigma = []
        bottom = cposet.bottom()
        for f in self.faces:
            if not f:
                sigma.append(bottom)
                continue
            candidates = [y for y in range(cposet.n)
                          if cfaces[y] and f <= inside[y]]
            minimal = [y for y in candidates
                       if all(cposet.leq(y, y2) for y2 in candidates)]
            if len(minimal) != 1:
                raise ComplexError(
                    f"no unique smallest coarse face contains "
                    f"face {sorted(f)}")
            sigma.append(minimal[0])
        self.sigma = tuple(sigma)

    # -- basic accessors ------------------------------------------------------

    def default_order(self):
        return 2 * (self.dim + 1)

    @classmethod
    def from_json(cls, payload):
        action = payload.get("affine_action") or {}
        if not isinstance(action, dict):
            raise ComplexError("affine_action must be an object")
        coarse = payload.get("coarse")
        if coarse is not None and not isinstance(coarse, dict):
            raise ComplexError("coarse must be an object")
        return cls(payload["dim"], payload["vertices"], payload["faces"],
                   payload["covers"], matrices=action.get("matrices"),
                   coarse=coarse)

    def to_json(self):
        out = {"dim": self.dim,
               "vertices": [list(v) for v in self.vertices],
               "faces": [sorted(f) for f in self.faces],
               "covers": [list(c) for c in self.poset.covers()],
               "affine_action": {"matrices": [
                   [[int(x) for x in row] for row in self.by_perm[w]]
                   for w in self.action.generators]}}
        if self.coarse_poset is not None:
            out["coarse"] = {
                "faces": [sorted(f) for f in self.coarse_faces],
                "covers": [list(c) for c in self.coarse_poset.covers()]}
        return out

    def __repr__(self):
        return (f"LatticeSimplexComplex(dim={self.dim}, "
                f"faces={self.poset.n}, |W|={len(self.action)})")


def _fixed_by_height(points, matrix, k):
    """How many box points the matrix fixes at each height 0..k-1 (just
    height 0 for the empty face, k = 0)."""
    counts = [0] * (k or 1)
    for u in points:
        if tuple(mat_vec(matrix, u)) == u:
            counts[u[-1]] += 1
    return counts


def _box_character(cx, z, points):
    """Counting polynomial of box points of face z: the coefficient of t^m
    is the permutation character of the stabilizer of z on the points at
    height m."""
    stab = cx.action.stabilizer(z)
    k = len(cx.faces[z])
    return _classpoly(stab, {
        w: Poly(_fixed_by_height(points, cx.by_perm[w], k))
        for w in stab.reps})


class HStarData:
    """Per-face box-counting polynomials of a complex: ``hstar`` of the
    half-open boxes and ``local`` of the open boxes.

    Validates on construction that every open-box polynomial is symmetric
    with center (dim F + 1)/2 and that identity evaluations are honest
    nonnegative counts.
    """

    def __init__(self, cx):
        self.hstar = {}
        self.local = {}
        ident = cx.action.identity
        for z in range(cx.poset.n):
            h = _box_character(cx, z, cx.box[z])
            l = _box_character(cx, z, cx.open_box[z])
            if l.rev(len(cx.faces[z])) != l:
                raise ComplexError(
                    f"open-box polynomial of face {cx.poset.labels[z]} "
                    f"is not symmetric")
            counts = h.ev(ident)
            if counts.den != 1 or any(c < 0 for c in counts.num):
                raise ComplexError("box counts must be nonnegative integers")
            self.hstar[z] = h
            self.local[z] = l


def _bottom_row(kappa, per_face, to_face):
    """Per-face class polynomials of a complex on the pairs (bottom, face)
    of the kernel ``kappa`` they are multiplied with; ``to_face`` maps an
    element of the kernel's group to the complex's element they are read at.
    """
    action = kappa.action
    bottom = action.poset.bottom()
    vals = {}
    for z, cp in per_face.items():
        stab = action.stabilizer(bottom, z)
        vals[(bottom, z)] = _classpoly(
            stab, {w: cp.ev(to_face(w)) for w in stab.reps})
    return EquivIncidenceElement(action, kappa.weak_rank, vals)


def face_kernel(cx):
    """The kernel of the face poset of the complex.

    On [z,z'] and group element w this is the characteristic polynomial
    of w on span(z')/span(z), spans taken of the faces placed at height
    one.
    """
    return checked_kernel(span_kernel(cx.action, cx.spans, (),
                                      cx.by_perm.__getitem__))


def check_hl_relation(cx):
    """Open-box = half-open-box * inverse-g, and open-box symmetry.

    These are the incidence-algebra forms of reciprocity on the face
    poset; both are checked as equalities of equivariant elements.
    """
    kappa = face_kernel(cx)
    g = equiv_solve_g(kappa)
    h_elem = _bottom_row(kappa, cx.hstar_data.hstar, lambda w: w)
    l_elem = _bottom_row(kappa, cx.hstar_data.local, lambda w: w)
    res = _elements_agree("open-box-from-half-open", l_elem,
                          equiv_multiply(h_elem, equiv_invert(g)))
    if not res:
        return res
    return _elements_agree("open-box-symmetry", equiv_rev(l_elem), l_elem)


# -- counting series ----------------------------------------------------------


def interior_faces(cx):
    """Faces not contained in the boundary of the polytope.

    A codimension-one face lying in exactly one maximal face is a
    boundary face; the boundary subcomplex is their downward closure, and
    interior faces are everything else.
    """
    maximal = set(cx.poset.maximal_elements())
    boundary_ridges = []
    for z in range(cx.poset.n):
        if len(cx.faces[z]) != cx.dim:
            continue
        above = [m for m in maximal if cx.poset.leq(z, m)]
        if len(above) == 1:
            boundary_ridges.append(z)
    boundary = set()
    for r in boundary_ridges:
        for z in range(cx.poset.n):
            if cx.poset.leq(z, r):
                boundary.add(z)
    return [z for z in range(cx.poset.n) if z not in boundary]


def _invariant_combo_counts(sizes, order):
    """counts[j] = number of orbitwise-constant nonnegative integer
    combinations with total weight j, for j = 0..order."""
    counts = [0] * (order + 1)
    counts[0] = 1
    for s in sizes:
        for j in range(s, order + 1):
            counts[j] += counts[j - s]
    return counts


def _series_counts(cx, w, order, face_filter):
    """Fixed-point counts by height over the given faces' open cone parts.

    Interior points of a simplicial cone split uniquely into a box point
    with all barycentric coordinates in (0, 1] plus a nonnegative integer
    combination of the lifted vertices; that box is the reflection of the
    half-open box through the vertex sum, so its fixed counts at height h
    are the half-open fixed counts at height (#vertices - h).
    """
    w = tuple(w)
    if w not in cx.by_perm:
        raise ComplexError("unknown group element")
    mat = cx.by_perm[w]
    totals = [0] * (order + 1)
    for z in face_filter:
        if w[z] != z:
            continue
        k = len(cx.faces[z])
        sizes = [len(c) for c in perm_cycles(cx.vert_perm[w], cx.faces[z])]
        combos = _invariant_combo_counts(sizes, order)
        for hh, fixed in enumerate(_fixed_by_height(cx.box[z], mat, k)):
            if not fixed:
                continue
            h = k - hh
            for m in range(h, order + 1):
                totals[m] += fixed * combos[m - h]
    return totals


def ehr_series(cx, w, order):
    """Counts of w-fixed lattice points at heights 0..order in the cone
    over the polytope, as a polynomial truncation.

    Every lattice point of the cone lies in the relative interior of
    exactly one face's cone, where it splits uniquely into an open box
    point plus a nonnegative integer combination of the face's lifted
    vertices; a point is w-fixed exactly when the box part is fixed and
    the combination is constant on vertex orbits.
    """
    return Poly(_series_counts(cx, w, order, range(cx.poset.n)))


def ehr_interior_series(cx, w, order):
    """Counts of w-fixed interior lattice points at heights 0..order."""
    return Poly(_series_counts(cx, w, order, cx.interior))


# -- assembly formulas --------------------------------------------------------


def hstar_from_subdivision(cx):
    """Counting polynomial of the whole polytope, assembled from the
    subdivision's interior faces.

    Each interior-face orbit contributes the induction of its box
    polynomial times the characteristic polynomial of the quotient of the
    ambient space by the face's span.
    """
    group = cx.action.stabilizer()
    total = ClassPoly.constant(group, ZERO)
    ambient = identity_matrix(cx.dim + 1)
    for z in cx.action.orbit_reps(cx.interior):
        stab = cx.action.stabilizer(z)
        # the face's span completed to the ambient space, factored once
        full = cx.spans[z].extend(ambient)
        rank = cx.spans[z].rank
        factor = _classpoly(stab, {
            w: induced_charpoly(cx.by_perm[w], full, rank)
            for w in stab.reps})
        total = total + (cx.hstar_data.hstar[z] * factor).induce(group)
    ident = cx.action.identity
    if total.ev(ident).degree > cx.dim:
        raise ComplexError("assembled counting polynomial exceeds the "
                           "dimension bound")
    return total


def _det(cx, w):
    """det(I - wt) of the group element w, as t^(dim+1) charpoly(1/t);
    its constant term is 1."""
    return poly_rev(charpoly(cx.by_perm[w]), cx.dim + 1)


def polynomial_action_check(cx, hstar):
    """Certify the assembled counting polynomial ``hstar`` (from
    :func:`hstar_from_subdivision`) against direct counts.

    For every conjugacy class, the point-count series truncated at the
    default order 2(dim+1) times det(I - wt) must reproduce the assembled
    polynomial, with nothing beyond its degree.  All three are class
    functions, so each class is read at its smallest member, and the
    witness of a failure is the smallest failing group element.
    """
    order = cx.default_order()
    for w in cx.action.stabilizer().reps:
        det = _det(cx, w)
        product = ehr_series(cx, w, order) * det
        got = Poly(product.coeffs[: order + 1])
        want = Poly(hstar.ev(w).coeffs[: order + 1])
        if got != want:
            return CheckResult.failed(
                "series-vs-assembled", witness={"w": list(w)},
                detail=f"series*det = {got}, assembled = {want}")
    return CheckResult.passed()


def reciprocity_check(cx, w, order, hstar):
    """Interior counts versus the reflected counting polynomial.

    The w-fixed interior point counts times det(I - wt) must equal
    t^(dim+1) h*(1/t), with ``hstar`` the assembled counting polynomial,
    coefficient by coefficient up to t^order.  det(I - wt) has constant
    term 1, so the first order m with a nonzero defect d is the first
    order where the power series t^(dim+1) h*(1/t) / det(I - wt) differs
    from the counts, and its coefficient there is count - d.
    """
    w = tuple(w)
    numer = poly_rev(hstar.ev(w), cx.dim + 1)
    det = _det(cx, w)
    counts = ehr_interior_series(cx, w, order)
    product = counts * det
    for m in range(order + 1):
        defect = product.coeff(m) - numer.coeff(m)
        if defect:
            count = counts.coeff(m)
            return CheckResult.failed(
                "reciprocity", witness={"w": list(w), "order": m},
                detail=f"series {count - defect} != count {count}")
    return CheckResult.passed()


# -- localization along the coarsening ---------------------------------------


class ComplexCylinder:
    """The fine-to-coarse mapping cylinder with its geometric kernel."""

    def __init__(self, cx):
        if cx.coarse_poset is None:
            raise ComplexError("this operation needs the coarse face data")
        self.cx = cx
        sfs = StrongFormalSubdivision(cx.poset, cx.coarse_poset, cx.sigma)
        res = sfs.validate()
        if not res:
            raise ComplexError(f"fine-to-coarse map is not a strong formal "
                               f"subdivision: {res.describe()}")
        self.triple = mapping_cylinder(sfs)
        nx = cx.poset.n

        def lift(fp):
            return tuple(fp) + tuple(c + nx for c in cx.coarse_perm[fp])

        # the coarse permutations follow the vertex permutations, so the
        # lifts of the complex's group are the group the lifted
        # generators generate, already closed
        self._to_fine = {lift(fp): fp for fp in cx.action.elements}
        self.action = PermAction._closed(
            self.triple.gamma,
            [lift(fp) for fp in cx.action.generators or [cx.action.identity]],
            self._to_fine)
        spans = list(cx.spans) + list(cx.coarse_spans)
        self.kappa = checked_kernel(cylinder_kernel(
            self.triple, self.action, spans,
            lambda w: cx.by_perm[self._to_fine[tuple(w)]]))
        self.weak_rank = self.kappa.weak_rank

    def fine_of(self, w):
        """The fine complex group element of a cylinder permutation.

        A cylinder permutation starts with its fine permutation, so this
        isomorphism preserves the order of permutations and maps class
        representatives to class representatives.
        """
        return self._to_fine[tuple(w)]

    def top(self):
        tops = self.triple.gamma.maximal_elements()
        if len(tops) != 1:
            raise ComplexError("the coarsening has no unique maximal face")
        return tops[0]


def _via_localh(cx, cyl, inv, field):
    """The open-box element of the fine faces times the ``field`` row of
    the local invariants ``inv`` of the cylinder ``cyl``, read at
    (bottom, top) and moved to the complex's group."""
    lstar = _bottom_row(cyl.kappa, cx.hstar_data.local, cyl.fine_of)
    bottom, top = cyl.triple.gamma.bottom(), cyl.top()
    out = _multiply_at(lstar, getattr(inv, field), bottom, top,
                       cyl.triple.gamma.elements_between(bottom, top))
    return _classpoly(cx.action.stabilizer(),
                      {cyl.fine_of(w): v for w, v in out.values.items()})


def hstar_via_localh(cx, cylinder, invariants):
    """Counting polynomial of the polytope from local subdivision data.

    ``invariants`` are the equivariant local invariants of ``cylinder``,
    the complex's :class:`ComplexCylinder`.  Sums, over fine faces, the
    open-box polynomial times the local h of the fine-to-coarse map at
    (face, top); with a unimodular triangulation this collapses to the
    local h at the bottom interval.
    """
    return _via_localh(cx, cylinder, invariants, "h_sigma")


def localhstar_via_localh(cx, cylinder, invariants):
    """Open-box polynomial of the polytope from local subdivision data."""
    return _via_localh(cx, cylinder, invariants, "ell_sigma")


def coarse_hstar(cx, cylinder):
    """Counting polynomials of the coarse faces, by exact division.

    (t-1) h*(coarse face) equals the sum of fine box polynomials times the
    crossing kernel values; the division must be exact, which is the
    computational content of the coarsened action staying polynomial.
    """
    hstar_x = _bottom_row(cylinder.kappa, cx.hstar_data.hstar,
                          cylinder.fine_of)
    crossing = cylinder.triple.mask_interior(cylinder.kappa)
    product = equiv_multiply(hstar_x, crossing)
    gamma = cylinder.triple.gamma
    bottom = gamma.bottom()
    nx = cx.poset.n
    out = {}
    for y in range(nx, gamma.n):
        cp = product.value(bottom, y)
        values = {}
        for w, num in cp.values.items():
            try:
                values[w] = poly_div_t_minus_1(num)
            except NotDivisible:
                raise ComplexError(
                    f"coarse face {gamma.labels[y]} has a non-polynomial "
                    f"count at some group element") from None
        out[y - nx] = _classpoly(cp.group, values)
    return out


def check_hstar_identity(cx):
    """The crossing identity on the cylinder, as equivariant elements.

    (t-1) times the coarse faces' box values, from the exact division and
    checked for conjugation consistency, must equal the fine faces' bottom
    row times the crossing kernel; a failure names its interval.
    """
    cyl = ComplexCylinder(cx)
    bottom, nx = cyl.triple.gamma.bottom(), cx.poset.n
    coarse = EquivIncidenceElement(cyl.action, cyl.weak_rank, {
        (bottom, y + nx): cp
        for y, cp in coarse_hstar(cx, cylinder=cyl).items()})
    fine = _bottom_row(cyl.kappa, cx.hstar_data.hstar, cyl.fine_of)
    return _elements_agree(
        "crossing-identity", coarse.scale(Poly([-1, 1])),
        equiv_multiply(fine, cyl.triple.mask_interior(cyl.kappa)))
