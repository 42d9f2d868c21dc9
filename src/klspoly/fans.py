"""Rational fans, lattice polytopes and their equivariant kernels.

Face combinatorics are always supplied as input, as point-index sets
with cover pairs; :func:`face_sets` and :func:`face_poset` turn them into
the validated face poset of every fan, complex, coarse face list and
polytope in the package, :func:`klspoly.linalg.lattice_points` reads
their rays and vertices, and each keeps a ``spans`` list, the factored
span of every face.  Coordinates are used only for exact linear
algebra: spans of cones, induced maps on quotient spaces, characteristic
polynomials, fixed subspaces.  Every kernel is one :func:`span_kernel`
call: it gives each interval [z,z'] the characteristic polynomial of the
group element acting on span(z')/span(z), with an extra factor of (t-1)
on pairs that cross from a subdivision to its target; these are the
kernels whose Kazhdan-Lusztig-Stanley invariants the rest of the package
studies.
"""

import math
from fractions import Fraction
from itertools import combinations

from .polynomial import ONE, T, _poly
from .poset import from_covers
from .incidence import WeakRank, is_rank_alternating
from .linalg import (
    Span,
    charpoly,
    identity_matrix,
    lattice_points,
    mat_mul,
    mat_vec,
)
from .equivariant import (
    GroupTooLarge,
    NotAutomorphism,
    PermAction,
    _assemble,
    _classpoly,
    _group_bound,
    _orbit,
    perm_cycles,
    perm_mul,
    validate_class_kernels,
)
from .status import CheckResult, InputError, json_int, json_rational
from .subdivision import SubdivisionTriple


class FanError(InputError):
    pass


def face_sets(sets, npoints, what, point, error):
    """Point-index sets as frozensets, each index an integer naming one of
    ``npoints`` points and no set listed twice.

    ``what`` names a set ("cone", "face") and ``point`` a point ("ray",
    "vertex") in the message of the ``error`` raised on a failure.
    """
    out = tuple(frozenset(s) for s in sets)
    field = f"{what} index"
    for s in out:
        if not all(0 <= json_int(k, field, error) < npoints for k in s):
            raise error(f"{what} {sorted(s)} references a missing {point}")
    if len(set(out)) != len(out):
        raise error(f"duplicate {what}s")
    return out


def face_poset(sets, covers, rank, what, point, error):
    """The face poset of the :func:`face_sets` ``sets``.

    Element k is labelled by the indices of sets[k] and ranked by
    rank[k], or by the natural rank when ``rank`` is None.  Every relation
    must be a containment of point sets and the poset lower Eulerian;
    a failure raises ``error``, naming a set ``what`` and a point
    ``point``.
    """
    labels = ["{" + ",".join(map(str, sorted(s))) + "}" for s in sets]
    poset = from_covers(len(sets), covers, labels=labels, rank=rank)
    for (i, j) in poset.intervals():
        if not sets[i] <= sets[j]:
            raise error(f"{what} relation {i} <= {j} inconsistent with "
                        f"{point} sets")
    res = poset.is_lower_eulerian()
    if not res:
        raise error(f"{what} poset is not lower Eulerian: {res.describe()}")
    return poset


def face_permutation(faces, point_perm):
    """Permutation of the faces induced by a permutation of their points.

    Faces are point-index sets; returns None when the image of some face
    is not a face.
    """
    index = {f: k for k, f in enumerate(faces)}
    perm = []
    for f in faces:
        k = index.get(frozenset(point_perm[j] for j in f))
        if k is None:
            return None
        perm.append(k)
    return tuple(perm)


def matrix_action(poset, faces, dim, matrices, point_perm, max_group=None):
    """The group generated by lattice matrices permuting faces of a poset.

    ``faces`` lists the point-index set of each poset element and
    ``point_perm`` maps a dim x dim matrix, its entries read by
    :func:`klspoly.status.json_rational`, to the permutation it induces
    on the points (raising loudly when it has none).  The matrix
    group is closed eagerly, once, as the :func:`_orbit` of the identity
    over (face permutation, point permutation, matrix) triples: if one face
    permutation is reached by two distinct triples the action is not
    faithful and the failure is loud, so a kernel can evaluate one
    well-defined matrix at each poset permutation.  The closed face
    permutations are the group of the PermAction, handed over through
    :meth:`PermAction._closed`, which checks the generators but does not
    close the group a second time.  Returns (PermAction, {face perm:
    matrix}, {face perm: point perm}).
    """
    gens = []
    for k, m in enumerate(matrices):
        mat = tuple(tuple(json_rational(x, "entry", NotAutomorphism)
                          for x in row) for row in m)
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise NotAutomorphism(f"matrix {k} is not {dim} x {dim}")
        pperm = point_perm(mat)
        fperm = face_permutation(faces, pperm)
        if fperm is None:
            raise NotAutomorphism(f"matrix {k} does not permute the faces")
        gens.append((fperm, pperm, mat))
    bound = _group_bound(max_group)
    ident = tuple(range(poset.n))
    ident_mat = identity_matrix(dim)

    def moves(element):
        fperm, pperm, mat = element
        return ((None, (perm_mul(gf, fperm), perm_mul(gp, pperm),
                        mat_mul(gm, mat))) for gf, gp, gm in gens)

    matrix_of = {}
    point_perm_of = {}
    for (fperm, pperm, mat), parent, _g in _orbit(
            [(ident, point_perm(ident_mat), ident_mat)], moves):
        if fperm in matrix_of:
            raise NotAutomorphism(
                "action is not faithful: two distinct group elements "
                "induce the same permutation")
        if parent is not None and len(matrix_of) >= bound:
            raise GroupTooLarge(f"matrix group exceeds bound {bound}")
        matrix_of[fperm] = mat
        point_perm_of[fperm] = pperm
    return (PermAction._closed(poset, [g[0] for g in gens] or [ident],
                               matrix_of), matrix_of, point_perm_of)


def primitive_vector(v):
    """Scale a rational vector to primitive integer form."""
    v = [Fraction(x) for x in v]
    if not any(v):
        raise FanError("zero vector has no primitive form")
    lcm = 1
    for x in v:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in ints)


def cone_contains(generators, x):
    """Membership of x in the cone spanned by integer generators.

    Checks all linearly independent generator subsets of the right size
    for a nonnegative coordinate solution, one elimination per subset;
    small generator counts make this exhaustive approach exact and fast
    enough.
    """
    if not any(x):
        return True
    gens = [tuple(g) for g in generators]
    d = Span(gens).rank
    if d == 0:
        return False
    for subset in combinations(gens, d):
        span = Span(subset)
        if not span.independent:
            continue
        coords = span.coords(x)
        if coords is not None and all(c >= 0 for c in coords):
            return True
    return False


def conv_contains(points, x):
    """Membership of x in the convex hull of the integer points."""
    lifted = [tuple(p) + (1,) for p in points]
    return cone_contains(lifted, tuple(x) + (1,))


def relint_contains(points, x):
    """Membership of x in the relative interior of the convex hull.

    Enumerates the basic convex representations of x (affinely independent
    support sets with nonnegative unique coefficients) and averages them;
    x is in the relative interior exactly when the average puts positive
    weight on every point.  The points are integer; x may be rational.
    """
    m = len(points)
    lifted = [tuple(p) + (1,) for p in points]
    target = tuple(x) + (1,)
    total = [Fraction(0)] * m
    count = 0
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            span = Span(lifted[k] for k in subset)
            if not span.independent:
                continue
            coords = span.coords(target)
            if coords is None or any(c < 0 for c in coords):
                continue
            count += 1
            for k, c in zip(subset, coords):
                total[k] += Fraction(c, span.den)
    if count == 0:
        return False
    return all(c > 0 for c in total)


class LatticeFan:
    """A fan given by integer rays plus explicit face combinatorics.

    ``cones`` lists each cone as a set of ray indices, with the zero cone
    as the empty set.  The cover pairs are either supplied or derived from
    ray-set containment; ``spans`` holds the factored linear span of each
    cone, whose rank is the cone's rank, and :func:`face_poset` builds and
    validates the face poset.
    """

    def __init__(self, dim, rays, cones, covers=None):
        self.dim = json_int(dim, "dim", FanError)
        self.rays = lattice_points(rays, dim, "ray", FanError)
        if not all(map(any, self.rays)):
            raise FanError("zero vector listed as a ray")
        self.cones = face_sets(cones, len(self.rays), "cone", "ray", FanError)
        if covers is None:
            # j covers i when j lies above i and no cone lies between them
            above = [sum(1 << j for j, b in enumerate(self.cones) if a < b)
                     for a in self.cones]
            below = [sum(1 << i for i, a in enumerate(self.cones) if a < b)
                     for b in self.cones]
            covers = [(i, j) for i in range(self.n) for j in range(self.n)
                      if above[i] >> j & 1 and not above[i] & below[j]]
        self.spans = [Span(self.rays[k] for k in sorted(c))
                      for c in self.cones]
        self.face_poset = face_poset(self.cones, covers,
                                     [s.rank for s in self.spans], "face",
                                     "ray", FanError)

    @property
    def n(self):
        return len(self.cones)

    def to_json(self):
        return {"dim": self.dim,
                "rays": [list(r) for r in self.rays],
                "cones": [sorted(c) for c in self.cones],
                "covers": [list(c) for c in self.face_poset.covers()]}

    @classmethod
    def from_json(cls, payload):
        return cls(payload["dim"], payload["rays"], payload["cones"],
                   covers=payload.get("covers"))

    def __repr__(self):
        return f"LatticeFan(dim={self.dim}, rays={len(self.rays)}, cones={self.n})"


def vertex_permutation(vertices):
    """Point rule for :func:`matrix_action`: each vertex image must be a
    vertex, found by exact lookup, and no two vertices may share one."""
    index = {v: k for k, v in enumerate(vertices)}

    def perm(matrix):
        out = []
        for v in vertices:
            k = index.get(mat_vec(matrix, v))
            if k is None:
                raise NotAutomorphism(
                    f"matrix maps vertex {v} outside the vertex set")
            out.append(k)
        if len(set(out)) != len(out):
            raise NotAutomorphism("matrix does not permute the vertices")
        return tuple(out)

    return perm


def _ray_permutation(fan, matrix):
    """Permutation of ray indices induced by a matrix, or a loud failure."""
    perm = []
    for r in fan.rays:
        image = mat_vec(matrix, r)
        if not any(image):
            raise NotAutomorphism("matrix kills a ray")
        target = primitive_vector(image)
        try:
            k = fan.rays.index(target)
        except ValueError:
            raise NotAutomorphism(
                f"matrix maps ray {r} outside the ray set") from None
        perm.append(k)
    if sorted(perm) != list(range(len(fan.rays))):
        raise NotAutomorphism("matrix does not permute the rays")
    return tuple(perm)


class EquivFanAction:
    """A finite matrix group acting on a fan.

    Generators are integer matrices; each must permute the rays (up to
    positive scale) and the cones.  The group is built by
    :func:`matrix_action`, so it is closed eagerly and must act faithfully
    on the face poset.
    """

    def __init__(self, fan, matrices, max_group=None):
        self.fan = fan
        self.action, self._matrices, self._ray_perms = matrix_action(
            fan.face_poset, fan.cones, fan.dim, matrices,
            lambda mat: _ray_permutation(fan, mat), max_group=max_group)

    def matrix_of(self, w):
        return self._matrices[tuple(w)]

    def ray_perm_of(self, w):
        return self._ray_perms[tuple(w)]

    def __len__(self):
        return len(self._matrices)

    @classmethod
    def from_json(cls, fan, payload):
        if not isinstance(payload, dict):
            raise FanError("action must be an object")
        return cls(fan, payload["matrices"])

    def __repr__(self):
        return f"EquivFanAction(|W|={len(self)}, {self.fan!r})"


def induced_charpoly(matrix, full, sub_rank):
    """Characteristic polynomial of the induced map on big/small.

    ``full`` is the factored big space; the first ``sub_rank`` vectors of
    its basis span the small space and the rest represent the quotient.
    The matrix must preserve both spans; an image outside the big span
    raises loudly.  The induced matrix is the integer matrix of scaled
    coordinates divided by ``full.den``, so its characteristic polynomial
    is that of the integer matrix with the coefficient of t^(s-k) divided
    by den^k.
    """
    size = full.rank - sub_rank
    if not size:
        return ONE
    cols = []
    for v in full.basis[sub_rank:]:
        coords = full.coords(mat_vec(matrix, v))
        if coords is None:
            raise FanError("matrix does not preserve the span")
        cols.append(coords[sub_rank:])
    induced = tuple(zip(*cols))
    cp = charpoly(induced)
    den = full.den
    if den == 1:
        return cp
    # the coefficient of t^k is divided by den^(size - k)
    return _poly([c * den ** k for k, c in enumerate(cp.num)],
                 cp.den * den ** size)


def span_kernel(action, spans, crossing, matrix_of):
    """Kernel from span data: quotient characteristic polynomials.

    The one builder of the kernels of fans, complexes, cylinders and
    polytopes.  ``spans`` gives the factored span of each element of
    ``action.poset``; ``crossing`` is the set of intervals that receive an
    extra factor of (t - 1), a subdivision triple's X x Y block or none;
    ``matrix_of`` maps each group element to its matrix.  The weak rank is
    the natural rank of ``action.poset``, derived here and nowhere else
    in the geometry.  The kernel is the :func:`_assemble` of one read:
    on [i, j] the basis of spans[i] is extended greedily by the basis of
    spans[j], once, and every stabilizer class rep is read off that one
    factorization.  The read runs on the first interval of each interval
    orbit, and again on the orbit's deepest transported interval; the
    rest of each orbit is filled by transport, so the kernel is
    conjugation compatible by construction.  Each caller validates it once
    through :func:`validate_span_kernel`: by :func:`checked_kernel`, or
    where the result is reported rather than raised.
    """
    crossing = frozenset(crossing)
    tm1 = T - ONE

    def read(i, j):
        stab = action.stabilizer(i, j)
        sub = spans[i]
        full = sub.extend(spans[j].basis)
        values = {}
        for w in stab.reps:
            p = induced_charpoly(matrix_of(w), full, sub.rank)
            if (i, j) in crossing:
                p = p * tm1
            values[w] = p
        return _classpoly(stab, values)

    return _assemble(action, WeakRank.natural(action.poset), read)


def validate_span_kernel(kernel):
    """The one validation of a span kernel, as a CheckResult:
    :func:`equiv_kernel_validate`, then
    :func:`klspoly.incidence.is_rank_alternating` on the same evaluation at
    one representative w per conjugacy class, its failing interval of B^w
    named in B."""
    result, kernels = validate_class_kernels(kernel)
    if not result:
        return result
    for w, kernel_at_w in kernels:
        res = is_rank_alternating(kernel_at_w)
        if not res:
            emb = kernel.action.fixed_poset(w)[1]
            return CheckResult.failed("rank-alternating", witness=tuple(
                emb[z] for z in res.witness), detail=res.detail)
    return result


def checked_kernel(kernel):
    """A span kernel after :func:`validate_span_kernel`, which raises
    FanError on a failure."""
    result = validate_span_kernel(kernel)
    if result.reason == "rank-alternating":
        raise FanError("span kernel is not rank alternating")
    if not result:
        raise FanError(f"span data does not produce a kernel: "
                       f"{result.describe()}")
    return kernel


def cylinder_kernel(triple, action, spans, matrix_of):
    """The :func:`span_kernel` of a geometrically realized triple: a
    subdivision cylinder, or a polytope split at a face.

    Pairs inside either half use plain quotient characteristic
    polynomials; pairs crossing from the subdivision side into the target
    side, the triple's X x Y block, pick up the extra (t - 1) factor.  The
    kernel is returned unchecked, for the caller to validate once.
    """
    return span_kernel(action, spans, triple.xy_pairs(), matrix_of)


def fan_kernel(fan, faction):
    """The equivariant kernel of a fan action.

    On [z,z'] and group element w this is the characteristic polynomial of
    w acting on span(z')/span(z); with the trivial action it reduces to
    the Eulerian kernel (t-1)^rank.
    """
    return span_kernel(faction.action, fan.spans, (), faction.matrix_of)


def fixed_fan(fan, faction, w):
    """The fan of w-fixed cones intersected with the fixed space.

    A cone fixed setwise meets the fixed space in the cone generated by
    the sums of its ray orbits under w; those sums (made primitive) become
    the rays of the fixed fan, and the face poset is the fixed poset of w.
    Returns (fan, embedding into the original cone list).
    """
    w = tuple(w)
    rperm = faction.ray_perm_of(w)
    sub, emb = fan.face_poset.fixed_subposet(w)
    ray_list = []
    ray_index = {}
    new_cones = []
    for z in emb:
        cone = set()
        for orbit in perm_cycles(rperm, fan.cones[z]):
            total = tuple(sum(fan.rays[o][c] for o in orbit)
                          for c in range(fan.dim))
            if not any(total):
                raise FanError("ray orbit sums to zero; cone has no fixed "
                               "part of the expected dimension")
            prim = primitive_vector(total)
            idx = ray_index.get(prim)
            if idx is None:
                idx = len(ray_list)
                ray_list.append(prim)
                ray_index[prim] = idx
            cone.add(idx)
        new_cones.append(frozenset(cone))
    covers = [(a, b) for (a, b) in sub.covers()]
    fixed = LatticeFan(fan.dim, ray_list, new_cones, covers=covers)
    return fixed, emb


class PolytopeGeometry:
    """Geometric side of a polytope/face pair.

    Holds the vertex coordinates, the per-face spans (spans of the faces'
    vertex vectors, once the origin sits in the designated face's relative
    interior), and the triple of the face lattice split at the designated
    face.  The dimension is the length of the first vertex.  Provides the
    matrix group actions; the kernel is the :func:`cylinder_kernel` of the
    triple.
    """

    def __init__(self, vertices, faces, triple):
        self.dim = len(vertices[0]) if vertices else 0
        self.vertices = lattice_points(vertices, self.dim, "vertex", FanError)
        self.faces = faces
        self.triple = triple
        self.spans = [Span(self.vertices[k] for k in sorted(f))
                      for f in self.faces]

    def action(self, matrices):
        """Permutation action on the face lattice induced by matrices.

        Each matrix must permute the vertices; the face permutation must
        be faithful so kernels can evaluate matrices at permutations.
        Returns (PermAction, {face perm: matrix}).
        """
        triple = self.triple
        action, matrix_of, _vperms = matrix_action(
            triple.gamma, self.faces, self.dim, matrices,
            vertex_permutation(self.vertices))
        for w in action.generators:
            if w[triple.q] != triple.q:
                raise NotAutomorphism("action does not fix the designated "
                                      "face")
        return action, matrix_of


def polytope_cone_triple(vertices, faces, covers, face_index):
    """Triple of a polytope and one of its faces, with geometry attached.

    ``faces`` must list the vertex sets of all faces including the empty
    face and the polytope itself, ``covers`` their cover relations, and
    the designated face must contain the origin in its relative interior
    (checked exactly).  Returns (triple, geometry) where the triple is the
    face lattice with the designated face as its carrier split point.
    """
    faces = face_sets(faces, len(vertices), "face", "vertex", FanError)
    poset = face_poset(faces, covers, None, "face", "vertex", FanError)
    triple = SubdivisionTriple(poset, face_index)
    geometry = PolytopeGeometry(vertices, faces, triple)
    face_points = [geometry.vertices[k] for k in sorted(faces[face_index])]
    if not face_points:
        raise FanError("designated face has no vertices")
    origin = [0] * geometry.dim
    if not relint_contains(face_points, origin):
        raise FanError("origin is not in the relative interior of the "
                       "designated face")
    for z in range(poset.n):
        expected = poset.rank[z] - (1 if poset.leq(face_index, z) else 0)
        actual = geometry.spans[z].rank
        if actual != expected:
            raise FanError(
                f"span dimension of face {poset.labels[z]} is {actual}, "
                f"inconsistent with its rank")
    return triple, geometry
