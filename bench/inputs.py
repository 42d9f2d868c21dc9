"""Benchmark inputs, generated with the standard library alone.

Nothing here imports ``klspoly``: the documents the benchmark feeds to the
command line must not change when the package under test is refactored.
Each generator returns a plain JSON-ready document in the package's
versioned schema (``{"schema": ..., "v": 1, ...}``).

The large posets are face lattices built from their usual combinatorial
descriptions; the B3 fans are the face fans of the 3-cube and of the
octahedron with the hyperoctahedral group given by three signed
permutation matrices.  Only the rational kernel files depend on the seed.
"""

import itertools
import json
import os
from fractions import Fraction
from math import comb


# -- posets ------------------------------------------------------------------

def _graded_document(labels, rank, leq):
    """Poset document from labels, a rank vector and an order predicate.

    Every poset generated here is graded, so x is covered by y exactly when
    x < y and the ranks differ by one.
    """
    n = len(labels)
    covers = [[x, y] for x in range(n) for y in range(n)
              if rank[y] == rank[x] + 1 and leq(x, y)]
    return {"schema": "poset", "v": 1, "labels": list(labels),
            "covers": covers, "rank": list(rank)}


def boolean_poset(n):
    """Subsets of an n-set; element i is the subset of the set bits of i."""
    size = 1 << n
    labels = ["{" + ",".join(str(k + 1) for k in range(n) if s >> k & 1) + "}"
              for s in range(size)]
    rank = [bin(s).count("1") for s in range(size)]
    return _graded_document(labels, rank, lambda a, b: a & b == a)


def cube_poset(d):
    """Face lattice of the d-cube: the empty face, then words over {0,1,I}."""
    words = list(itertools.product("01I", repeat=d))
    faces = [None] + words

    def leq(i, j):
        f, g = faces[i], faces[j]
        if f is None:
            return True
        if g is None:
            return False
        return all(a == b or b == "I" for a, b in zip(f, g))

    labels = ["empty"] + ["".join(w) for w in words]
    rank = [0] + [w.count("I") + 1 for w in words]
    return _graded_document(labels, rank, leq)


def cross_polytope_poset(d):
    """Face lattice of the d-cross-polytope: signed axis sets, plus a top."""
    faces = [frozenset()]
    for axes_mask in range(1, 1 << d):
        axes = [k for k in range(d) if axes_mask >> k & 1]
        for signs in range(1 << len(axes)):
            faces.append(frozenset((ax, signs >> k & 1)
                                   for k, ax in enumerate(axes)))
    top = len(faces)
    labels = ["empty" if not f else
              ",".join(f"{'+' if s else '-'}{ax + 1}" for ax, s in sorted(f))
              for f in faces] + ["top"]
    rank = [len(f) for f in faces] + [d + 1]

    def leq(i, j):
        if j == top:
            return True
        return i != top and faces[i] <= faces[j]

    return _graded_document(labels, rank, leq)


def polygon_times_boolean(k, n):
    """Product of the k-gon face lattice with the boolean lattice of an n-set.

    Element (a, b) has index a * 2**n + b and rank rank(a) + |b|.
    """
    poly_rank = [0] + [1] * k + [2] * k + [3]
    poly_up = [set() for _ in poly_rank]
    top = 2 * k + 1
    for a in range(2 * k + 2):
        poly_up[a].update({a, top})
    poly_up[0].update(range(2 * k + 2))
    for e in range(k):
        poly_up[1 + e].add(1 + k + e)
        poly_up[1 + (e + 1) % k].add(1 + k + e)
    size = 1 << n
    poly_labels = ["empty"] + [f"v{i}" for i in range(k)] \
        + [f"e{i}" for i in range(k)] + ["top"]
    bool_labels = boolean_poset(n)["labels"]
    labels, rank = [], []
    for a in range(2 * k + 2):
        for b in range(size):
            labels.append(f"({poly_labels[a]},{bool_labels[b]})")
            rank.append(poly_rank[a] + bin(b).count("1"))

    def leq(i, j):
        a, b = divmod(i, size)
        a2, b2 = divmod(j, size)
        return a2 in poly_up[a] and b & b2 == b

    return _graded_document(labels, rank, leq)


# -- fans --------------------------------------------------------------------

#: Generators of the hyperoctahedral group B3 (order 48): two coordinate
#: permutations and one sign change.
B3_GENERATORS = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                 [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                 [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]


def face_fan(vertices, facets):
    """Fan document of the cones over the faces of a centred polytope.

    Faces are the intersections of facet vertex sets, plus the empty face
    (the zero cone); cover relations are left for the reader to derive.
    """
    facet_sets = [frozenset(f) for f in facets]
    faces = {frozenset()}
    for k in range(1, len(facet_sets) + 1):
        for combo in itertools.combinations(facet_sets, k):
            faces.add(frozenset.intersection(*combo))
    cones = sorted((sorted(f) for f in faces), key=lambda c: (len(c), c))
    return {"schema": "fan", "v": 1, "dim": len(vertices[0]),
            "rays": [list(v) for v in vertices], "cones": cones,
            "action": {"matrices": B3_GENERATORS}}


def cube_fan():
    verts = list(itertools.product((1, -1), repeat=3))
    facets = [[i for i, v in enumerate(verts) if v[axis] == sign]
              for axis in range(3) for sign in (1, -1)]
    return face_fan(verts, facets)


def octahedron_fan():
    verts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
             (0, 0, -1)]
    facets = [[i for i, v in enumerate(verts)
               if v[0] * sx + v[1] * sy + v[2] * sz == 1]
              for sx, sy, sz in itertools.product((1, -1), repeat=3)]
    return face_fan(verts, facets)


B3_FANS = {"cube_b3": cube_fan, "octahedron_b3": octahedron_fan}


# -- seeded kernels ----------------------------------------------------------

def comparable_pairs(doc):
    """Strict comparable pairs (x, y), x < y, from a document's covers."""
    n = len(doc["labels"])
    above = [set() for _ in range(n)]
    for x, y in doc["covers"]:
        above[x].add(y)
    order = sorted(range(n), key=lambda i: -doc["rank"][i])
    up = [set() for _ in range(n)]
    for x in order:
        for y in above[x]:
            up[x].add(y)
            up[x] |= up[y]
    return [(x, y) for x in range(n) for y in sorted(up[x])]


def scaled_kernel(doc, c):
    """Kernel file with kappa'(x, y) = c^k (t - 1)^k, k = rho(y) - rho(x).

    Scaling by c^(rho(y) - rho(x)) is an automorphism of the incidence
    algebra, so every KLS function of kappa' is the Eulerian one scaled the
    same way; that is the identity the benchmark checks the answer by.
    """
    rank = doc["rank"]
    values = []
    for x, y in comparable_pairs(doc):
        k = rank[y] - rank[x]
        ck = c ** k
        coeffs = [str(ck * comb(k, i) * (-1) ** (k - i)) for i in range(k + 1)]
        values.append([x, y, coeffs])
    return {"values": values}


#: Numerators and denominators of the seeded scalars: distinct primes of
#: similar size, so every seed gives a non-integral c of similar bit length.
SCALAR_PRIMES = (11, 13, 17, 19)


def seeded_scalar(rng):
    """A rational c = +-p/q with p != q drawn from SCALAR_PRIMES."""
    p, q = rng.sample(SCALAR_PRIMES, 2)
    return Fraction(rng.choice((1, -1)) * p, q)


def write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
