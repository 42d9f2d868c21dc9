"""Finite posets with explicit order matrices, plus the standard builders.

A Poset stores the full order relation as one Python integer bitmask per
element (bit j of up[i] says i <= j).  That representation is deliberate:
the posets in scope are face lattices and their relatives with at most a
couple of thousand elements, and dense masks make interval enumeration,
joins and subposet extraction cheap and exact.  There is no support for
random posets; everything is built or loaded explicitly.

The rank function is decided here, once: a poset keeps the rank vector it
is given, and otherwise stores its natural rank when it has a unique
minimum and is graded.  Every other module reads ``Poset.rank``, and
``rank is None`` means the poset is not graded.
"""

from __future__ import annotations

import itertools

from .status import CheckResult, InputError, json_int


class PosetError(InputError):
    """Structural problem with a poset, rank function, or builder input."""


def bits(mask):
    """Indices of the set bits of an integer mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Poset:
    """A finite partially ordered set.

    Fields: n (element count), labels (tuple of strings), up (tuple of
    bitmasks; bit j of up[i] means i <= j), and rank.  A given rank vector
    is kept as it is; without one, a poset with a unique minimum that is
    graded stores its natural rank, so ``rank is None`` means exactly that
    the poset is not graded.  The order axioms are validated at
    construction.
    """

    __slots__ = ("n", "labels", "up", "down", "rank", "_covers", "_intervals",
                 "_lower_eulerian")

    def __init__(self, up_masks, labels=None, rank=None, _validated=False):
        up = tuple(up_masks)
        n = len(up)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise PosetError("label count does not match element count")
        if rank is not None:
            rank = tuple(json_int(r, "rank entry", PosetError) for r in rank)
            if len(rank) != n:
                raise PosetError("rank vector length does not match element count")
        self.n = n
        self.labels = labels
        self.up = up
        down = [0] * n
        for i in range(n):
            m = up[i]
            while m:
                low = m & -m
                down[low.bit_length() - 1] |= 1 << i
                m ^= low
        self.down = tuple(down)
        self._covers = None
        self._intervals = None
        self._lower_eulerian = None
        if not _validated:
            self._validate_order()
        if rank is None:
            try:
                rank = self.natural_rank()
            except PosetError:
                pass
        self.rank = rank

    def _validate_order(self):
        full = (1 << self.n) - 1
        for i, m in enumerate(self.up):
            if m & ~full:
                raise PosetError(f"order mask of element {i} references unknown elements")
            if not (m >> i) & 1:
                raise PosetError(f"order is not reflexive at element {i}")
        for i in range(self.n):
            m = self.up[i] & ~(1 << i)
            for j in bits(m):
                if (self.up[j] >> i) & 1:
                    raise PosetError(f"order is not antisymmetric on ({i}, {j})")
                if self.up[j] & ~self.up[i]:
                    raise PosetError(f"order is not transitive at ({i}, {j})")

    # -- basic queries ----------------------------------------------------

    def leq(self, i, j):
        return (self.up[i] >> j) & 1 == 1

    def elements_between(self, i, j):
        """All z with i <= z <= j, ascending by index."""
        return bits(self.up[i] & self.down[j])

    def covers(self):
        """List of cover pairs (i, j) with j covering i."""
        if self._covers is None:
            out = []
            for i in range(self.n):
                strict = self.up[i] & ~(1 << i)
                for j in bits(strict):
                    if self.up[i] & self.down[j] == (1 << i) | (1 << j):
                        out.append((i, j))
            self._covers = out
        return self._covers

    def minimal_elements(self):
        return [i for i in range(self.n) if self.down[i] == 1 << i]

    def maximal_elements(self):
        return [i for i in range(self.n) if self.up[i] == 1 << i]

    def bottom(self):
        """The unique minimum, or a loud failure."""
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise PosetError(f"poset has {len(mins)} minimal elements, not 1")
        return mins[0]

    def top(self):
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            raise PosetError(f"poset has {len(maxs)} maximal elements, not 1")
        return maxs[0]

    def intervals(self):
        if self._intervals is None:
            self._intervals = IntervalIndex(self)
        return self._intervals

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        if self is other:
            return True
        return (
            self.n == other.n
            and self.up == other.up
            and self.labels == other.labels
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.n, self.up, self.labels, self.rank))

    def same_order(self, other):
        """Structural agreement ignoring labels (order and rank only)."""
        return self.n == other.n and self.up == other.up and self.rank == other.rank

    def __repr__(self):
        ranked = "" if self.rank is None else ", ranked"
        return f"Poset({self.n} elements{ranked})"

    # -- ranks ------------------------------------------------------------

    def with_rank(self, rank):
        return Poset(self.up, self.labels, rank, _validated=True)

    def natural_rank(self):
        """Rank vector where every maximal chain from the minimum is graded.

        Requires a unique minimum and that for each element all saturated
        chains from the minimum have the same length; raises PosetError
        otherwise.
        """
        bot = self.bottom()
        rank = [None] * self.n
        rank[bot] = 0
        # process in linear extension order (ascending count of elements below)
        order = sorted(range(self.n), key=lambda i: bin(self.down[i]).count("1"))
        cover_down = {}
        for a, b in self.covers():
            cover_down.setdefault(b, []).append(a)
        for z in order:
            if z == bot:
                continue
            below = cover_down.get(z, [])
            if not below:
                raise PosetError(f"element {z} is minimal but poset has minimum {bot}")
            values = {rank[a] for a in below}
            if None in values or len(values) != 1:
                raise PosetError(
                    f"no natural rank: element {z} ({self.labels[z]}) is covered "
                    f"at inconsistent heights {sorted(values, key=str)}"
                )
            rank[z] = values.pop() + 1
        return tuple(rank)

    def validate_rank(self, rank):
        """Check a rank vector: +1 across every cover.

        Rank functions are determined up to an overall shift; the natural
        one has value 0 at the unique minimum, but shifted ones are valid
        (and arise when restricting to upper sets).
        """
        if len(rank) != self.n:
            return CheckResult.failed("bad-length")
        for a, b in self.covers():
            if rank[b] != rank[a] + 1:
                return CheckResult.failed("cover-step", witness=(a, b),
                                          detail=f"rank jumps {rank[a]} -> {rank[b]}")
        return CheckResult.passed()

    # -- Eulerian structure -------------------------------------------------

    def is_lower_eulerian(self):
        """Unique minimum, valid rank, and Euler alternating-sum zero on all
        strict intervals.  Returns a CheckResult whose witness is the first
        offending interval.

        A poset without a rank is not graded and fails here, with the reason
        natural_rank gives; the result is computed once and kept.
        """
        if self._lower_eulerian is None:
            self._lower_eulerian = self._check_lower_eulerian()
        return self._lower_eulerian

    def _check_lower_eulerian(self):
        if self.rank is None:
            try:
                self.natural_rank()
            except PosetError as e:
                return CheckResult.failed("not-graded", detail=str(e))
        rank = self.rank
        try:
            self.bottom()
        except PosetError as e:
            return CheckResult.failed("no-unique-minimum", detail=str(e))
        ok = self.validate_rank(rank)
        if not ok:
            return ok
        even = sum(1 << z for z in range(self.n) if rank[z] % 2 == 0)
        for (i, j) in self.intervals():
            if i == j:
                continue
            inside = self.up[i] & self.down[j]
            # (number of even ranks) - (number of odd ranks) on [i, j]
            total = 2 * (inside & even).bit_count() - inside.bit_count()
            if total != 0:
                return CheckResult.failed(
                    "euler-sum", witness=(i, j),
                    detail=f"alternating sum {total} on [{self.labels[i]}, {self.labels[j]}]")
        return CheckResult.passed()

    def is_eulerian(self):
        """Lower Eulerian with a unique maximum."""
        res = self.is_lower_eulerian()
        if not res:
            return res
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            return CheckResult.failed("no-unique-maximum", witness=tuple(maxs))
        return CheckResult.passed()

    # -- lattice-ish operations ---------------------------------------------

    def join(self, i, j):
        """Least upper bound, or None when it does not exist."""
        ubs = self.up[i] & self.up[j]
        for u in bits(ubs):
            if self.up[u] & ubs == ubs:
                return u
        return None

    def upper_set(self, q):
        """Subposet {z : z >= q} with its embedding into self."""
        return self.subposet(bits(self.up[q]))

    def lower_complement(self, q):
        """Subposet {z : z does not lie above q} with its embedding."""
        full = (1 << self.n) - 1
        return self.subposet(bits(full & ~self.up[q]))

    def subposet(self, indices):
        """Induced subposet on the given elements.

        Returns (poset, embedding) where embedding[k] is the index in self
        of element k of the subposet.  The subposet carries its own natural
        rank when it is graded with a unique minimum, and no rank otherwise.
        """
        emb = list(indices)
        pos = {z: k for k, z in enumerate(emb)}
        up = []
        for z in emb:
            m = 0
            for w in bits(self.up[z]):
                k = pos.get(w)
                if k is not None:
                    m |= 1 << k
            up.append(m)
        labels = [self.labels[z] for z in emb]
        return Poset(up, labels, None, _validated=True), tuple(emb)

    def fixed_subposet(self, perm):
        """Induced subposet of elements fixed by an automorphism."""
        return self.subposet([i for i in range(self.n) if perm[i] == i])

    # -- serialization ------------------------------------------------------

    def to_json(self):
        payload = {
            "labels": list(self.labels),
            "covers": [list(c) for c in self.covers()],
        }
        if self.rank is not None:
            payload["rank"] = list(self.rank)
        return payload

    @classmethod
    def from_json(cls, payload):
        if not isinstance(payload, dict):
            raise PosetError("a poset payload must be a JSON object")
        labels = payload.get("labels")
        covers = payload.get("covers")
        if labels is None or covers is None:
            raise PosetError("poset document needs 'labels' and 'covers'")
        n = len(labels)
        poset = from_covers(n, [tuple(c) for c in covers], labels=labels,
                            rank=payload.get("rank"))
        if poset.rank is None:
            # a document poset is ranked; name why this one is not
            poset.natural_rank()
        return poset


class IntervalIndex:
    """Flat enumeration of the intervals (comparable pairs) of a poset.

    Provides a deterministic iteration order, each interval's elements,
    listed once, and a membership test read off the order bitmasks.
    """

    __slots__ = ("poset", "pairs", "_between")

    def __init__(self, poset):
        self.poset = poset
        pairs = []
        for i in range(poset.n):
            for j in bits(poset.up[i]):
                pairs.append((i, j))
        self.pairs = tuple(pairs)
        self._between = None

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def contains(self, i, j):
        elements = range(self.poset.n)
        return i in elements and j in elements and self.poset.leq(i, j)

    def between(self):
        """{(i, j): the elements z with i <= z <= j, ascending}, in pair
        order; built on first use and kept, as the poset is immutable."""
        if self._between is None:
            between = self.poset.elements_between
            self._between = {(i, j): between(i, j) for (i, j) in self.pairs}
        return self._between


def from_covers(n, covers, labels=None, rank=None):
    """Build a poset from cover pairs (transitive closure is taken here)."""
    up = [1 << i for i in range(n)]
    above = [[] for _ in range(n)]
    for a, b in covers:
        a, b = (json_int(k, "cover entry", PosetError) for k in (a, b))
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise PosetError(f"bad cover pair ({a}, {b})")
        above[a].append(b)
    # close upwards in reverse topological order; detect cycles by iteration
    indeg = [0] * n
    for a in range(n):
        for b in above[a]:
            indeg[b] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    topo = []
    while queue:
        a = queue.pop()
        topo.append(a)
        for b in above[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                queue.append(b)
    if len(topo) != n:
        raise PosetError("cover relation contains a cycle")
    for a in reversed(topo):
        for b in above[a]:
            up[a] |= up[b]
    return Poset(up, labels, rank)


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def boolean_algebra(n, labels=None):
    """The lattice of subsets of an n-element set, ranked by cardinality.

    Element i is the subset whose members are the set bits of i, so meets
    and joins are bitwise operations on indices.
    """
    if n < 0:
        raise PosetError("boolean algebra needs n >= 0")
    size = 1 << n
    up = []
    for s in range(size):
        m = 0
        for u in range(size):
            if s & u == s:
                m |= 1 << u
        up.append(m)
    if labels is None:
        labels = ["{" + ",".join(str(k + 1) for k in bits(s)) + "}" for s in range(size)]
    rank = [bin(s).count("1") for s in range(size)]
    return Poset(up, labels, rank, _validated=True)


def chain(k):
    """A totally ordered poset with k elements, ranked 0..k-1."""
    if k < 1:
        raise PosetError("chain needs at least one element")
    full = (1 << k) - 1
    up = [full & ~((1 << i) - 1) for i in range(k)]
    return Poset(up, [str(i) for i in range(k)], list(range(k)), _validated=True)


def segment_subdivision(s):
    """Face poset of a segment subdivided by s interior points.

    Elements: the empty face, s + 2 vertices, s + 1 edges; ranked 0/1/2.
    Vertex i and vertex i+1 bound edge i.
    """
    if s < 0:
        raise PosetError("segment subdivision needs s >= 0")
    nv, ne = s + 2, s + 1
    labels = ["empty"] + [f"v{i}" for i in range(nv)] + [f"e{i}" for i in range(ne)]
    covers = [(0, 1 + i) for i in range(nv)]
    for e in range(ne):
        covers.append((1 + e, 1 + nv + e))
        covers.append((1 + e + 1, 1 + nv + e))
    rank = [0] + [1] * nv + [2] * ne
    return from_covers(1 + nv + ne, covers, labels=labels, rank=rank)


def polygon(k):
    """Face lattice of a polygon with k vertices (k >= 2; k = 2 is the digon).

    Rank 3 Eulerian lattice: empty face, k vertices, k edges, the polygon.
    Edge i joins vertices i and i+1 (mod k).
    """
    if k < 2:
        raise PosetError("polygon needs at least 2 vertices")
    labels = ["empty"] + [f"v{i}" for i in range(k)] + [f"e{i}" for i in range(k)] + ["top"]
    n = 2 * k + 2
    covers = [(0, 1 + i) for i in range(k)]
    for e in range(k):
        covers.append((1 + e, 1 + k + e))
        covers.append((1 + (e + 1) % k, 1 + k + e))
        covers.append((1 + k + e, n - 1))
    rank = [0] + [1] * k + [2] * k + [3]
    return from_covers(n, covers, labels=labels, rank=rank)


def simplex_face_lattice(d):
    """Face lattice of a d-simplex: subsets of its d+1 vertices."""
    if d < -1:
        raise PosetError("simplex dimension must be >= -1")
    return boolean_algebra(d + 1)


def cube_face_lattice(d):
    """Face lattice of the d-cube, including the empty face.

    A nonempty face is a word over {0, 1, I} per axis (I = full interval);
    rank is (number of I's) + 1.
    """
    if d < 0:
        raise PosetError("cube dimension must be >= 0")
    words = list(itertools.product("01I", repeat=d))
    faces = [None] + words  # None = empty face
    n = len(faces)
    up = [0] * n
    for i, f in enumerate(faces):
        for j, g in enumerate(faces):
            if f is None:
                up[i] |= 1 << j
            elif g is None:
                continue
            elif all(a == b or b == "I" for a, b in zip(f, g)):
                up[i] |= 1 << j
    labels = ["empty"] + ["".join(w) for w in words]
    rank = [0] + [w.count("I") + 1 for w in words]
    return Poset(up, labels, rank)


def cross_polytope_face_lattice(d):
    """Face lattice of the d-dimensional cross-polytope.

    Proper faces are sign vectors on subsets of axes (no antipodal pair);
    the empty face and the whole polytope are adjoined.
    """
    if d < 1:
        raise PosetError("cross-polytope dimension must be >= 1")
    faces = [frozenset()]
    for axes_mask in range(1, 1 << d):
        axes = bits(axes_mask)
        for signs in range(1 << len(axes)):
            face = frozenset((ax, (signs >> k) & 1) for k, ax in enumerate(axes))
            faces.append(face)
    n = len(faces) + 1  # plus top
    up = [0] * n
    for i, f in enumerate(faces):
        for j, g in enumerate(faces):
            if f <= g:
                up[i] |= 1 << j
        up[i] |= 1 << (n - 1)
    up[n - 1] = 1 << (n - 1)
    labels = []
    for f in faces:
        if not f:
            labels.append("empty")
        else:
            labels.append(",".join(f"{'+' if s else '-'}{ax + 1}" for ax, s in sorted(f)))
    labels.append("top")
    rank = [len(f) for f in faces] + [d + 1]
    return Poset(up, labels, rank)


def direct_product(p, q):
    """Product poset ordered componentwise; ranks add when both are ranked.

    Element (i, j) gets index i * q.n + j and label "(a,b)".
    """
    n = p.n * q.n
    up = [0] * n
    for i in range(p.n):
        for j in range(q.n):
            m = 0
            for i2 in bits(p.up[i]):
                base = i2 * q.n
                for j2 in bits(q.up[j]):
                    m |= 1 << (base + j2)
            up[i * q.n + j] = m
    labels = [f"({p.labels[i]},{q.labels[j]})" for i in range(p.n) for j in range(q.n)]
    rank = None
    if p.rank is not None and q.rank is not None:
        rank = [p.rank[i] + q.rank[j] for i in range(p.n) for j in range(q.n)]
    return Poset(up, labels, rank, _validated=True)


def pyramid(p):
    """Product with the two-element chain (face lattice of a pyramid)."""
    return direct_product(p, boolean_algebra(1, labels=["base", "apex"]))


def adjoin_max(p):
    """Add a new maximum element "top" above everything."""
    n = p.n + 1
    top_bit = 1 << (n - 1)
    up = [m | top_bit for m in p.up] + [top_bit]
    labels = list(p.labels) + ["top"]
    rank = None
    if p.rank is not None:
        rank = list(p.rank) + [max(p.rank) + 1]
    return Poset(up, labels, rank, _validated=True)


def semisuspension(p):
    """Complete a near-Eulerian poset to an Eulerian one.

    Adjoins an element above the boundary (the ideal generated by elements
    with exactly one element strictly above) and then a global maximum.
    The input must be ranked; the result is validated Eulerian
    and its stored rank is the natural one.
    """
    if p.rank is None:
        raise PosetError("semisuspension needs a ranked poset")
    generators = [z for z in range(p.n)
                  if bin(p.up[z] & ~(1 << z)).count("1") == 1]
    boundary = 0
    for z in generators:
        boundary |= p.down[z]
    rk = max(p.rank)
    zhat = p.n
    top_bit = 1 << (p.n + 1)
    up = []
    for i in range(p.n):
        m = p.up[i] | top_bit
        if (boundary >> i) & 1:
            m |= 1 << zhat
        up.append(m)
    up.append((1 << zhat) | top_bit)
    up.append(top_bit)
    labels = list(p.labels) + ["zhat", "top"]
    rank = list(p.rank) + [rk, rk + 1]
    out = Poset(up, labels, rank)
    res = out.is_eulerian()
    if not res:
        raise PosetError(f"semisuspension is not Eulerian: {res.describe()}")
    base = rank[out.bottom()]
    if tuple(r - base for r in rank) != out.natural_rank():
        raise PosetError("semisuspension rank is not a shift of the natural one")
    return out
