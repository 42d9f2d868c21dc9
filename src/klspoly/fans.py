"""Rational fans, lattice polytopes and their equivariant kernels.

Face combinatorics are always supplied as input; coordinates are used only
for exact linear algebra: spans of cones, induced maps on quotient spaces,
characteristic polynomials, fixed subspaces.  The kernels built here give
each interval [z,z'] the characteristic polynomial of the group element
acting on span(z')/span(z), with an extra factor of (t-1) on pairs that
cross from a subdivision to its target; these are the kernels whose
Kazhdan-Lusztig-Stanley invariants the rest of the package studies.
"""

import math
from fractions import Fraction
from itertools import combinations

from .polynomial import ONE, T, Poly
from .poset import Poset, PosetError, from_covers
from .incidence import WeakRank
from .linalg import (
    charpoly,
    express,
    extend_basis,
    frac_matrix,
    frac_vector,
    mat_mul,
    mat_rank,
    mat_vec,
    span_basis,
)
from .equivariant import (
    ClassPoly,
    EquivIncidenceElement,
    GroupTooLarge,
    NotAutomorphism,
    PermAction,
    equiv_hat,
    equiv_kernel_validate,
    equiv_rev,
    _group_bound,
    perm_mul,
)
from .status import CheckResult


class FanError(ValueError):
    pass


def identity_matrix_fr(dim):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(dim))
                 for i in range(dim))


def perm_matrix_closure(gen_pairs, identity, max_group=None):
    """Close (permutations, matrix) generator pairs under composition.

    Each pair carries a tuple of permutations (composed componentwise) and
    a matrix.  The closure is keyed on the first permutation: if two
    distinct matrices ever induce the same first permutation the action is
    not faithful and the failure is loud.  Returns {first perm: pair}.
    """
    bound = _group_bound(max_group)
    seen = {identity[0][0]: identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for (perms, mat) in frontier:
            for (gperms, gmat) in gen_pairs:
                new = (tuple(perm_mul(gp, p) for gp, p in zip(gperms, perms)),
                       mat_mul(gmat, mat))
                known = seen.get(new[0][0])
                if known is None:
                    if len(seen) >= bound:
                        raise GroupTooLarge(
                            f"matrix group exceeds bound {bound}")
                    seen[new[0][0]] = new
                    nxt.append(new)
                elif known[0] != new[0] or known[1] != new[1]:
                    raise NotAutomorphism(
                        "action is not faithful: two distinct group elements "
                        "induce the same permutation")
        frontier = nxt
    return seen


def primitive_vector(v):
    """Scale a rational vector to primitive integer form."""
    v = frac_vector(v)
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
    """Membership of x in the cone spanned by the generators.

    Checks all linearly independent generator subsets of the right size
    for a nonnegative coordinate solution; small generator counts make
    this exhaustive approach exact and fast enough.
    """
    x = frac_vector(x)
    if not any(x):
        return True
    gens = [frac_vector(g) for g in generators]
    d = mat_rank(gens)
    if d == 0:
        return False
    for subset in combinations(range(len(gens)), d):
        vectors = [gens[k] for k in subset]
        if mat_rank(vectors) < d:
            continue
        coords = express(vectors, x)
        if coords is not None and all(c >= 0 for c in coords):
            return True
    return False


def conv_contains(points, x):
    """Membership of x in the convex hull of the points."""
    lifted = [tuple(p) + (1,) for p in points]
    return cone_contains(lifted, tuple(x) + (1,))


def relint_contains(points, x):
    """Membership of x in the relative interior of the convex hull.

    Enumerates the basic convex representations of x (affinely independent
    support sets with nonnegative unique coefficients) and averages them;
    x is in the relative interior exactly when the average puts positive
    weight on every point.
    """
    m = len(points)
    lifted = [frac_vector(p) + (Fraction(1),) for p in points]
    target = frac_vector(x) + (Fraction(1),)
    total = [Fraction(0)] * m
    count = 0
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            vectors = [lifted[k] for k in subset]
            if mat_rank(vectors) < size:
                continue
            coords = express(vectors, target)
            if coords is None or any(c < 0 for c in coords):
                continue
            count += 1
            for k, c in zip(subset, coords):
                total[k] += c
    if count == 0:
        return False
    return all(c > 0 for c in total)


class LatticeFan:
    """A fan given by integer rays plus explicit face combinatorics.

    ``cones`` lists each cone as a set of ray indices, with the zero cone
    as the empty set.  The face poset is either supplied as cover pairs or
    derived from ray-set containment; each cone's rank is the dimension of
    its span, and the poset must come out lower Eulerian with relations
    consistent with ray containment.
    """

    def __init__(self, dim, rays, cones, covers=None):
        self.dim = dim
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        for r in self.rays:
            if len(r) != dim:
                raise FanError("ray dimension mismatch")
            if not any(r):
                raise FanError("zero vector listed as a ray")
        if len(set(self.rays)) != len(self.rays):
            raise FanError("duplicate rays")
        self.cones = tuple(frozenset(c) for c in cones)
        if len(set(self.cones)) != len(self.cones):
            raise FanError("duplicate cones")
        for c in self.cones:
            if any(k < 0 or k >= len(self.rays) for k in c):
                raise FanError("cone references a missing ray")
        if covers is None:
            covers = [(i, j) for i in range(len(self.cones))
                      for j in range(len(self.cones))
                      if self.cones[i] < self.cones[j]
                      and not any(self.cones[i] < self.cones[k] < self.cones[j]
                                  for k in range(len(self.cones)))]
        labels = ["{" + ",".join(map(str, sorted(c))) + "}" for c in self.cones]
        rank = [mat_rank([self.rays[k] for k in c]) for c in self.cones]
        self.face_poset = from_covers(len(self.cones), covers, labels=labels,
                                      rank=rank)
        for (i, j) in self.face_poset.intervals():
            if not self.cones[i] <= self.cones[j]:
                raise FanError(
                    f"face relation {i} <= {j} inconsistent with ray sets")
        result = self.face_poset.is_lower_eulerian()
        if not result:
            raise FanError(f"face poset is not lower Eulerian: "
                           f"{result.describe()}")
        self._spans = [span_basis([self.rays[k] for k in c])
                       for c in self.cones]

    @property
    def n(self):
        return len(self.cones)

    def span(self, z):
        """Canonical basis of the linear span of cone z."""
        return self._spans[z]

    def ray_vectors(self, z):
        return [self.rays[k] for k in sorted(self.cones[z])]

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


def _cone_permutation(fan, ray_perm):
    cone_index = {c: k for k, c in enumerate(fan.cones)}
    perm = []
    for c in fan.cones:
        image = frozenset(ray_perm[k] for k in c)
        k = cone_index.get(image)
        if k is None:
            raise NotAutomorphism(
                f"matrix maps cone {sorted(c)} outside the fan")
        perm.append(k)
    return tuple(perm)


class EquivFanAction:
    """A finite matrix group acting on a fan.

    Generators are integer matrices; each must permute the rays (up to
    positive scale) and the cones.  The closure is generated eagerly and
    the action must be faithful on the face poset, so that evaluating a
    kernel at a poset permutation picks out one well-defined matrix.
    """

    def __init__(self, fan, matrices, max_group=None):
        self.fan = fan
        gen_pairs = []
        for m in matrices:
            mat = tuple(tuple(Fraction(x) for x in row) for row in m)
            rperm = _ray_permutation(fan, mat)
            cperm = _cone_permutation(fan, rperm)
            gen_pairs.append((cperm, rperm, mat))
        n = fan.n
        ident = ((tuple(range(n)), tuple(range(len(fan.rays)))),
                 identity_matrix_fr(fan.dim))
        pairs = [((cp, rp), m) for (cp, rp, m) in gen_pairs]
        seen = perm_matrix_closure(pairs, ident, max_group=max_group)
        self._by_perm = {cp: (perms[1], m)
                         for cp, (perms, m) in seen.items()}
        self.action = PermAction(fan.face_poset,
                                 [cp for (cp, _rp, _m) in gen_pairs] or
                                 [ident[0][0]])
        if len(self.action) != len(seen):
            raise NotAutomorphism("permutation closure disagrees with the "
                                  "matrix closure")

    def matrix_of(self, w):
        return self._by_perm[tuple(w)][1]

    def ray_perm_of(self, w):
        return self._by_perm[tuple(w)][0]

    def __len__(self):
        return len(self._by_perm)

    @classmethod
    def from_json(cls, fan, payload, max_group=None):
        return cls(fan, payload["matrices"], max_group=max_group)

    def __repr__(self):
        return f"EquivFanAction(|W|={len(self._by_perm)}, {self.fan!r})"


def induced_charpoly(matrix, sub_basis, ext_vectors):
    """Characteristic polynomial of the induced map on big/small.

    ``sub_basis`` spans the small space; ``ext_vectors`` complete it to the
    big space and represent the quotient.  The matrix must preserve both
    spans; coordinates of images that fail to resolve raise loudly.
    """
    if not ext_vectors:
        return ONE
    full = list(sub_basis) + list(ext_vectors)
    cols = []
    for v in ext_vectors:
        coords = express(full, mat_vec(frac_matrix(matrix), v))
        if coords is None:
            raise FanError("matrix does not preserve the span")
        cols.append(coords[len(sub_basis):])
    size = len(ext_vectors)
    induced = tuple(tuple(cols[j][i] for j in range(size))
                    for i in range(size))
    return charpoly(induced)


def _complement(small_basis, big_generators):
    """Deterministic complement: first independent generators, in order."""
    return extend_basis(small_basis, big_generators)


def span_kernel(action, weak_rank, spans, generators, crossing, matrix_of,
                validate=True):
    """Kernel from span data: quotient characteristic polynomials.

    ``spans``/``generators`` give, per poset element, the canonical span
    basis and the generating vectors used for complements; ``crossing`` is
    a predicate on pairs that receives an extra factor of (t - 1);
    ``matrix_of`` maps each group element to its matrix.  The result is
    validated as an equivariant kernel unless told otherwise.
    """
    poset = action.poset
    tm1 = T - ONE
    vals = {}
    for (i, j) in poset.intervals():
        stab = action.stabilizer(i, j)
        comp = _complement(spans[i], generators[j])
        values = {}
        for w in stab:
            p = induced_charpoly(matrix_of(w), spans[i], comp)
            if crossing(i, j):
                p = p * tm1
            values[w] = p
        vals[(i, j)] = ClassPoly(stab, values)
    kernel = EquivIncidenceElement(action, weak_rank, vals)
    if validate:
        result = equiv_kernel_validate(kernel)
        if not result:
            raise FanError(f"span data does not produce a kernel: "
                           f"{result.describe()}")
        if equiv_rev(kernel) != equiv_hat(kernel):
            raise FanError("span kernel is not rank alternating")
    return kernel


def cylinder_kernel(triple, action, spans, generators, matrix_of,
                    validate=True):
    """Kernel of a geometrically realized subdivision cylinder.

    Pairs inside either half use plain quotient characteristic
    polynomials; pairs crossing from the subdivision side into the target
    side pick up the extra (t - 1) factor.  The weak rank is the natural
    rank of the cylinder.
    """
    weak_rank = WeakRank.natural(triple.gamma)
    return span_kernel(action, weak_rank, spans, generators,
                       lambda i, j: triple.in_x(i) and triple.in_y(j),
                       matrix_of, validate=validate)


def fan_kernel(fan, faction, validate=True):
    """The equivariant kernel of a fan action.

    On [z,z'] and group element w this is the characteristic polynomial of
    w acting on span(z')/span(z); with the trivial action it reduces to
    the Eulerian kernel (t-1)^rank.
    """
    action = faction.action
    weak_rank = WeakRank.natural(fan.face_poset)
    spans = [fan.span(z) for z in range(fan.n)]
    generators = [fan.ray_vectors(z) for z in range(fan.n)]
    return span_kernel(action, weak_rank, spans, generators,
                       lambda i, j: False, faction.matrix_of,
                       validate=validate)


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
        rays_of_cone = sorted(fan.cones[z])
        todo = set(rays_of_cone)
        cone = set()
        while todo:
            k = min(todo)
            orbit = [k]
            cur = rperm[k]
            while cur != k:
                orbit.append(cur)
                cur = rperm[cur]
            todo -= set(orbit)
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
    interior), and which faces contain the designated face.  Provides the
    matrix group actions and the kernel whose crossing pairs pick up the
    (t - 1) factor.
    """

    def __init__(self, vertices, faces, poset, face_index):
        self.vertices = tuple(tuple(int(x) for x in v) for v in vertices)
        self.faces = tuple(frozenset(f) for f in faces)
        self.poset = poset
        self.face_index = face_index
        self.dim = len(self.vertices[0]) if self.vertices else 0
        self.spans = [span_basis([self.vertices[k] for k in f])
                      for f in self.faces]
        self.generators = [[self.vertices[k] for k in sorted(f)]
                           for f in self.faces]
        self.in_y = [poset.leq(face_index, z) for z in range(poset.n)]

    def action(self, matrices, max_group=None):
        """Permutation action on the face lattice induced by matrices.

        Each matrix must permute the vertices; the face permutation must
        be faithful so kernels can evaluate matrices at permutations.
        """
        vert_index = {v: k for k, v in enumerate(self.vertices)}
        face_index = {f: k for k, f in enumerate(self.faces)}
        perms = []
        gen_pairs = []
        for m in matrices:
            mat = frac_matrix(m)
            vperm = []
            for v in self.vertices:
                image = tuple(mat_vec(mat, v))
                k = vert_index.get(image)
                if k is None:
                    raise NotAutomorphism(
                        f"matrix maps vertex {v} outside the vertex set")
                vperm.append(k)
            fperm = []
            for f in self.faces:
                image = frozenset(vperm[k] for k in f)
                k = face_index.get(image)
                if k is None:
                    raise NotAutomorphism(
                        "matrix does not permute the faces")
                fperm.append(k)
            fperm = tuple(fperm)
            perms.append(fperm)
            gen_pairs.append(((fperm,), mat))
        n = self.poset.n
        ident = ((tuple(range(n)),), identity_matrix_fr(self.dim))
        seen = perm_matrix_closure(gen_pairs, ident, max_group=max_group)
        by_perm = {cp: m for cp, (_perms, m) in seen.items()}
        action = PermAction(self.poset, perms or [ident[0][0]])
        if len(action) != len(by_perm):
            raise NotAutomorphism("permutation closure disagrees with the "
                                  "matrix closure")
        for w in action.generators:
            if w[self.face_index] != self.face_index:
                raise NotAutomorphism("action does not fix the designated "
                                      "face")
        return action, by_perm

    def kernel(self, action, by_perm, validate=True):
        weak_rank = WeakRank.natural(self.poset)
        return span_kernel(
            action, weak_rank, self.spans, self.generators,
            lambda i, j: self.in_y[j] and not self.in_y[i],
            lambda w: by_perm[tuple(w)], validate=validate)


def polytope_cone_triple(vertices, faces, covers, face_index):
    """Triple of a polytope and one of its faces, with geometry attached.

    ``faces`` must list the vertex sets of all faces including the empty
    face and the polytope itself, ``covers`` their cover relations, and
    the designated face must contain the origin in its relative interior
    (checked exactly).  Returns (triple, geometry) where the triple is the
    face lattice with the designated face as its carrier split point.
    """
    from .subdivision import SubdivisionTriple

    faces = [frozenset(f) for f in faces]
    n = len(faces)
    labels = ["{" + ",".join(map(str, sorted(f))) + "}" for f in faces]
    poset = from_covers(n, covers, labels=labels)
    rank = poset.natural_rank()
    poset = poset.with_rank(rank)
    for (i, j) in poset.intervals():
        if not faces[i] <= faces[j]:
            raise FanError(f"face relation {i} <= {j} inconsistent with "
                           "vertex sets")
    face_points = [vertices[k] for k in sorted(faces[face_index])]
    if not face_points:
        raise FanError("designated face has no vertices")
    origin = [0] * len(vertices[0])
    if not relint_contains(face_points, origin):
        raise FanError("origin is not in the relative interior of the "
                       "designated face")
    geometry = PolytopeGeometry(vertices, faces, poset, face_index)
    for z in range(n):
        expected = rank[z] - (1 if geometry.in_y[z] else 0)
        actual = len(geometry.spans[z])
        if actual != expected:
            raise FanError(
                f"span dimension of face {labels[z]} is {actual}, "
                f"inconsistent with its rank")
    triple = SubdivisionTriple(poset, face_index)
    return triple, geometry
