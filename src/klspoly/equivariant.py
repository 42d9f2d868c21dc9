"""Group actions on posets and the equivariant incidence algebra.

A finite group W acting by automorphisms on a poset B upgrades the
incidence algebra: the value of an element on an interval [z,z'] becomes a
polynomial whose coefficients are rational class functions on the interval
stabilizer W_{z,z'}.  Multiplication convolves with induction/restriction
between stabilizers.  Evaluating every class function at a fixed group
element w collapses an equivariant element to an ordinary incidence element
on the fixed poset B^w, and this evaluation is an algebra homomorphism.

That homomorphism is also the computational workhorse here.  Fixed posets
of conjugate elements are isomorphic, so a kernel is validated on B^w for
one representative w of each conjugacy class of the group (behind a check
that the group preserves its weak rank), and the f/g/Z solvers run once
per such class.  Values are class functions, stored once per conjugacy
class of each interval stabilizer and once per interval.  One orbit
assembly, :func:`_assemble`, builds every computed element from a read of
its values: the per-w answers of the solvers and the quotient
characteristic polynomials of the span kernels in :mod:`klspoly.fans`
alike are read on one interval per orbit of the group and transported to
the rest of the orbit through the conjugating element, and products are
summed the same way, so results are conjugation compatible by
construction.  Each assembly re-reads the deepest transported interval of
every orbit directly, and one interval of each solve is re-verified
through the induction/restriction product, so that the two computation
paths stay honest against each other.

One breadth-first walk, :func:`_orbit`, finds every orbit the group layer
needs: the group itself (over matrices too, in
:func:`klspoly.fans.matrix_action`), stabilizers, and, each orbit walked
once by :func:`_orbits`, interval orbits, cycles and conjugacy classes.

Equivariant elements share one algebra base with ordinary ones,
:class:`klspoly.incidence.AlgebraElement`: value lookup, equality, sums,
negation, scaling and selection are the same code, with class
polynomials in place of polynomials through a small hook per value type.
The reversal is :func:`klspoly.incidence.rev` too, imported here as
``equiv_rev``.  The sign twist and the inverse are assembled from the plain
``hat`` and ``invert`` on the fixed posets; only products stay separate.
"""

import os

from .polynomial import ONE, T, ZERO, Poly, _poly, poly_rev
from .poset import bits
from .incidence import (
    AlgebraElement,
    IncidenceElement,
    _agree_or_raise,
    hat,
    invert,
    rev as equiv_rev,
    solve_f,
    solve_g,
    validate_kernel,
    z_function,
)
from .status import (CheckResult, GroupBoundError, InputError,
                     VerificationFailure)
from .subdivision import (LocalInvariants, SubdivisionTriple,
                          corollary_f_identity, corollary_z_identity,
                          local_invariants, theorem_g_identities)

DEFAULT_MAX_GROUP = 10_000


class GroupTooLarge(InputError):
    """Generated group exceeded the configured size bound."""


class NotAutomorphism(InputError):
    """A generator fails to be an order/rank-preserving bijection."""


class AssemblyInconsistent(VerificationFailure):
    """Per-element values do not glue into an equivariant element.

    Raised when data from outside fail conjugation compatibility, when a
    transported value disagrees with the value read directly (off the
    fixed posets or the spans), or when an assembled solution fails its
    product cross-check.  For the solvers this signals that the input was
    not actually an equivariant kernel.  Every check names the interval
    it fails on, as ``interval``.
    """


def perm_mul(a, b):
    """Compose permutations: (a * b)(z) = a(b(z))."""
    return tuple(a[z] for z in b)


def perm_inv(a):
    inv = [0] * len(a)
    for z, w in enumerate(a):
        inv[w] = z
    return tuple(inv)


def perm_cycles(perm, points):
    """The cycles of a permutation on an invariant set of points.

    Each cycle starts at its smallest point and follows the permutation;
    the cycles come in increasing order of that point.
    """
    return [[y for y, _parent, _label in walk]
            for walk in _orbits(sorted(points), lambda z: ((None, perm[z]),))]


def _orbit(starts, moves):
    """Walk breadth-first from ``starts``, yielding (point, parent, label).

    ``moves(x)`` yields (label, image) pairs.  Every point reached is
    yielded once: the starts first, with parent and label None, then each
    new image with the point it was first reached from and the label of
    that move, so the parents form a Schreier tree.  The walk is lazy, so
    a caller can stop early.
    """
    seen = set()
    queue = []
    for x in starts:
        if x not in seen:
            seen.add(x)
            queue.append(x)
            yield x, None, None
    for x in queue:
        for label, image in moves(x):
            if image not in seen:
                seen.add(image)
                queue.append(image)
                yield image, x, label


def _orbits(points, moves):
    """The :func:`_orbit` walk of each orbit that meets ``points``, from
    its first point, in the order of the points."""
    seen = set()
    for x in points:
        if x not in seen:
            walk = list(_orbit([x], moves))
            seen.update(y for y, _parent, _label in walk)
            yield walk


def _group_bound(max_group):
    """The group size bound: the argument, else KLS_MAX_GROUP, else 10^4."""
    if max_group is not None:
        return max_group
    env = os.environ.get("KLS_MAX_GROUP")
    if not env:
        return DEFAULT_MAX_GROUP
    try:
        return int(env)
    except ValueError:
        raise GroupBoundError(
            f"KLS_MAX_GROUP must be an integer, got {env!r}") from None


class Subgroup:
    """A concrete group of permutations together with its conjugacy classes.

    ``elements`` is the frozenset of members and ``generators`` a few
    that generate them.  ``reps`` lists the smallest element of each
    conjugacy class in increasing order, ``class_of`` maps every element
    to the representative of its class, and ``size`` maps a
    representative to the size of its class.  Iteration, ``len`` and
    ``<=`` act on the elements.

    Built by :meth:`PermAction.stabilizer` from the :func:`_orbits` of
    element ids under conjugation by the generators, one walk per class
    from its smallest id.
    """

    __slots__ = ("elements", "generators", "reps", "class_of", "size")

    def __init__(self, action, walks, generators):
        elements = action.elements
        self.generators = generators
        self.class_of, self.size = {}, {}
        for walk in walks:
            rep = elements[walk[0][0]]
            self.class_of.update((elements[c], rep) for c, _e, _t in walk)
            self.size[rep] = len(walk)
        self.elements = frozenset(self.class_of)
        self.reps = tuple(self.size)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __le__(self, other):
        return self.elements <= other.elements

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self is other or self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return (f"Subgroup(order={len(self.elements)}, "
                f"classes={len(self.reps)})")


def _closure(generators, n, bound):
    """The group generated by permutations of 0..n-1, as a set, closed
    breadth-first; GroupTooLarge once it would exceed ``bound`` elements."""
    group = set()
    for w, parent, _g in _orbit(
            [tuple(range(n))],
            lambda a: ((g, perm_mul(g, a)) for g in generators)):
        if parent is not None and len(group) >= bound:
            raise GroupTooLarge(f"group closure exceeds bound {bound}")
        group.add(w)
    return group


class PermAction:
    """A finite group of poset automorphisms, given by generators.

    Generators are permutations of the element indices.  Each one must
    preserve the order relation in both directions and preserve the rank
    function when the poset has one.  The full group is generated eagerly,
    as the orbit of the identity, under a size bound (argument, else the
    KLS_MAX_GROUP environment variable, else 10^4), and tables are built
    once, indexed by element id (the position in ``elements``): the inverse
    and the fixed-point bitmask of every element, the conjugation map of
    every generator, and the whole group's conjugacy classes, walked once.
    Stabilizers test one mask per element, and interval orbits and
    transport read the tables; no |G|^2 multiplication table is built.
    A caller that has closed the group already builds the action with
    :meth:`_closed`.
    """

    def __init__(self, poset, generators, max_group=None):
        self._set_generators(poset, generators)
        self._set_tables(_closure(self.generators, poset.n,
                                  _group_bound(max_group)))

    @classmethod
    def _closed(cls, poset, generators, elements):
        """The action whose group ``elements`` the caller has closed.

        The generators are checked as by the constructor and the tables
        are built, but the breadth-first closure is skipped: ``elements``
        must be exactly the group the generators generate, as the matrix
        closure of :func:`klspoly.fans.matrix_action` and the complex
        symmetries moved onto a cylinder are.
        """
        action = object.__new__(cls)
        action._set_generators(poset, generators)
        action._set_tables(elements)
        return action

    def _set_generators(self, poset, generators):
        self.poset = poset
        gens = []
        for gen in generators:
            g = tuple(gen)
            self._check_automorphism(g)
            if g not in gens:
                gens.append(g)
        self.generators = tuple(sorted(gens))

    def _set_tables(self, group):
        self.elements = elements = tuple(sorted(group))
        self.identity = tuple(range(self.poset.n))
        self._index = index = {w: k for k, w in enumerate(elements)}
        self._inverse = [index[perm_inv(w)] for w in elements]
        self._fixed = [sum(1 << z for z, y in enumerate(w) if y == z)
                       for w in elements]
        # _conj[g][k] is the id of g e g^-1 for the element e of id k
        self._conj = {g: self._conjugation(g, range(len(elements)))
                      for g in self.generators}
        self._stab_cache = {}
        # one walk of the classes gives the whole group and its conjugators
        self._class_walks = list(_orbits(range(len(elements)), lambda x: (
            (g, table[x]) for g, table in self._conj.items())))
        self._subgroups = {tuple(range(len(elements))): Subgroup(
            self, self._class_walks, self.generators)}
        self._conjugators = None
        self._fixed_cache = {}
        self._orbits = None

    def _check_automorphism(self, g):
        """Compare the image of the cover relation with itself, O(covers);
        only a failure scans up-sets to name the first bad element."""
        poset = self.poset
        n = poset.n
        if sorted(g) != list(range(n)):
            raise NotAutomorphism(f"not a permutation of 0..{n - 1}: {g}")
        covers = set(poset.covers())
        if {(g[a], g[b]) for a, b in covers} != covers:
            for i in range(n):
                image = 0
                for j in bits(poset.up[i]):
                    image |= 1 << g[j]
                if image != poset.up[g[i]]:
                    raise NotAutomorphism(
                        f"permutation does not preserve the order at "
                        f"element {i}")
        if poset.rank is not None:
            for i in range(n):
                if poset.rank[g[i]] != poset.rank[i]:
                    raise NotAutomorphism(
                        f"permutation does not preserve rank at element {i}")

    def __len__(self):
        return len(self.elements)

    def element_id(self, w):
        return self._index[tuple(w)]

    def stabilizer(self, *points):
        """Subgroup fixing every listed element pointwise.

        With no points this is the whole group.  Subgroups with the same
        elements are one shared object, so their conjugacy classes are
        computed once.
        """
        cached = self._stab_cache.get(points)
        if cached is None:
            mask = 0
            for z in points:
                mask |= 1 << z
            ids = tuple(k for k, fixed in enumerate(self._fixed)
                        if fixed & mask == mask)
            cached = self._subgroups.get(ids)
            if cached is None:
                gens = self._generators_of(ids)
                tables = [dict(zip(ids, self._conjugation(h, ids)))
                          for h in gens]
                cached = self._subgroups[ids] = Subgroup(self, _orbits(
                    ids, lambda e: ((t, t[e]) for t in tables)), gens)
            self._stab_cache[points] = cached
        return cached

    def _generators_of(self, ids):
        """A few elements that generate the subgroup ``ids``, picked
        greedily in increasing order."""
        elements, index = self.elements, self._index
        span = {ids[0]}
        gens = []
        for k in ids:
            if k not in span:
                gens.append(elements[k])
                span = {b for b, _a, _g in _orbit(span, lambda a: (
                    (g, index[perm_mul(g, elements[a])]) for g in gens))}
        return gens

    def _conjugation(self, h, ids):
        """The ids of h e h^-1 for the elements e of the ids ``ids``."""
        elements, index = self.elements, self._index
        hinv = elements[self._inverse[index[h]]]
        return [index[tuple(h[e[y]] for y in hinv)]
                for e in map(elements.__getitem__, ids)]

    def class_conjugator(self, u):
        """(r, x^-1) with r the representative of the conjugacy class of u
        in the whole group and u = x r x^-1, so that x^-1 maps the fixed
        poset of u onto that of r.  On first use every x^-1 is read off the
        class walks: the parent's times the inverse of the move, as
        g e g^-1 = (g x) r (g x)^-1."""
        if self._conjugators is None:
            elements = self.elements
            back = self._conjugators = [None] * len(elements)
            for walk in self._class_walks:
                for c, e, g in walk:
                    back[c] = self.identity if e is None else perm_mul(
                        back[e], elements[self._inverse[self._index[g]]])
        return (self.stabilizer().class_of[u],
                self._conjugators[self._index[u]])

    def interval_orbits(self):
        """The orbits of the group on the intervals of the poset.

        Each orbit is (rep, steps): rep is its first interval in index
        order, and the steps (child, parent, g), the Schreier tree of its
        :func:`_orbit` walk minus the root, reach each new interval
        child = g parent from one already listed.
        """
        if self._orbits is None:
            self._orbits = [(walk[0][0], walk[1:]) for walk in _orbits(
                self.poset.intervals(), lambda p: (
                    (g, (g[p[0]], g[p[1]])) for g in self.generators))]
        return self._orbits

    def transport(self, vals, steps):
        """Fill the intervals of ``steps`` in ``vals`` from their parents:
        the value on g (i, j) at g v g^-1 is the value on (i, j) at v, and
        conjugation by g maps the classes of one stabilizer onto the
        other's."""
        elements, index = self.elements, self._index
        for child, parent, g in steps:
            table = self._conj[g]
            stab = self.stabilizer(*child)
            moved = {stab.class_of[elements[table[index[v]]]]: value
                     for v, value in vals[parent].values.items()}
            vals[child] = _classpoly(stab, {u: moved[u] for u in stab.reps})

    def conjugacy_classes(self):
        """Conjugacy classes of the group, each as a frozenset.

        Sorted by their smallest member, which is the class representative.
        """
        group = self.stabilizer()
        return [frozenset(w for w, r in group.class_of.items() if r == rep)
                for rep in group.reps]

    def orbit_reps(self, candidates, subgroup=None):
        """Smallest-index representatives of the subgroup orbits on a set:
        the first point of each :func:`_orbits` walk of the sorted set."""
        gens = self.generators if subgroup is None else subgroup.generators
        return [walk[0][0] for walk in _orbits(
            sorted(candidates), lambda z: ((g, g[z]) for g in gens))]

    def fixed_poset(self, w):
        """Fixed subposet of w with its embedding and derived data.

        Returns (poset, embedding, position) where position maps an
        ambient index to its index in the fixed poset.
        """
        w = tuple(w)
        cached = self._fixed_cache.get(w)
        if cached is None:
            sub, emb = self.poset.fixed_subposet(w)
            pos = {z: k for k, z in enumerate(emb)}
            self._fixed_cache[w] = (sub, emb, pos)
            cached = self._fixed_cache[w]
        return cached

    def __repr__(self):
        return (f"PermAction(|W|={len(self.elements)}, "
                f"generators={len(self.generators)}, n={self.poset.n})")


def validate_action(action, poset=None, q=None):
    """Check an action against a poset and a fixed point.

    Construction already rejects non-automorphisms, including generators
    that move the rank; this adds the two conditions that depend on
    context: the action's poset has the same order and rank as ``poset``,
    and the designated element q is fixed pointwise.
    """
    if poset is not None and not action.poset.same_order(poset):
        return CheckResult.failed("action-poset-mismatch",
                                  detail="action was built on a different poset")
    if q is not None:
        for w in action.generators:
            if w[q] != q:
                return CheckResult.failed(
                    "q-not-fixed", witness={"w": list(w), "q": q})
    return CheckResult.passed()


def _as_poly(v):
    return v if isinstance(v, Poly) else Poly(v)


def _classpoly(group, values):
    """The ClassPoly on Subgroup ``group`` with ``values`` {rep: Poly}.

    The dict is taken over unchecked: every computed class polynomial is
    built here, from arithmetic on class polynomials or from evaluation at
    the carrier's class representatives.
    """
    cp = object.__new__(ClassPoly)
    cp.group = group
    cp.values = values
    return cp


class ClassPoly:
    """Polynomial with rational class-function coefficients.

    The carrier is a Subgroup and ``values`` holds one ordinary polynomial
    per conjugacy class, keyed by the class representative, so class
    constancy holds by construction.  Addition and multiplication are
    classwise (multiplication of characters is the character of the tensor
    product); ``res``/``induce`` move between carriers.
    """

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        """Class polynomial from a dict keyed by carrier elements.

        Every class representative needs a value; any other listed element
        must carry the value of its representative.
        """
        vals = {}
        for rep in group.reps:
            v = values.get(rep)
            if v is None:
                raise ValueError(
                    f"missing value on class representative {rep}")
            vals[rep] = _as_poly(v)
        for w, v in values.items():
            rep = group.class_of.get(w)
            if rep is None:
                raise ValueError("value keys outside the carrier subgroup")
            if _as_poly(v) != vals[rep]:
                raise ValueError(
                    f"values are not constant on the conjugacy class of {rep}")
        self.group = group
        self.values = vals

    @classmethod
    def constant(cls, group, poly):
        return _classpoly(group, dict.fromkeys(group.reps, _as_poly(poly)))

    def ev(self, w):
        return self.values[self.group.class_of[tuple(w)]]

    @property
    def is_zero(self):
        return not any(self.values.values())

    def _same_carrier(self, other):
        if self.group != other.group:
            raise ValueError("class polynomials live on different carriers")

    def __eq__(self, other):
        if not isinstance(other, ClassPoly):
            return NotImplemented
        return self.group == other.group and self.values == other.values

    def __add__(self, other):
        self._same_carrier(other)
        return _classpoly(self.group, {r: v + other.values[r]
                                       for r, v in self.values.items()})

    def __sub__(self, other):
        self._same_carrier(other)
        return _classpoly(self.group, {r: v - other.values[r]
                                       for r, v in self.values.items()})

    def __neg__(self):
        return _classpoly(self.group, {r: -v for r, v in self.values.items()})

    def __mul__(self, other):
        self._same_carrier(other)
        return _classpoly(self.group, {r: v * other.values[r]
                                       for r, v in self.values.items()})

    def scale(self, c):
        """Multiply every value by a fixed polynomial or scalar."""
        factor = Poly._lift(c)
        if factor is NotImplemented:
            raise TypeError(f"cannot scale a class polynomial by a "
                            f"{type(c).__name__}")
        return _classpoly(self.group, {r: v * factor
                                       for r, v in self.values.items()})

    def rev(self, r):
        return _classpoly(self.group, {w: poly_rev(v, r)
                                       for w, v in self.values.items()})

    def res(self, subgroup):
        """Restriction to a Subgroup of the carrier."""
        if not subgroup <= self.group:
            raise ValueError("restriction target is not a subgroup of the carrier")
        return _classpoly(subgroup, {r: self.ev(r) for r in subgroup.reps})

    def induce(self, group):
        """Induce to a bigger carrier G by the Frobenius formula.

        The value at g is |G| / (|H| |g^G|) times the sum of |c| f(c) over
        the conjugacy classes c of the carrier H that lie in g^G.
        """
        if not self.group <= group:
            raise ValueError("induction target does not contain the carrier")
        sub = self.group
        values = dict.fromkeys(group.reps, ZERO)
        for c, v in self.values.items():
            g = group.class_of[c]
            # scale v by |G| |c| / (|H| |g^G|) on its numerators
            n = len(group) * sub.size[c]
            values[g] = values[g] + _poly([x * n for x in v.num],
                                          v.den * len(sub) * group.size[g])
        return _classpoly(group, values)

    def __repr__(self):
        return f"ClassPoly(|carrier|={len(self.group)})"


class EquivIncidenceElement(AlgebraElement):
    """Incidence element whose interval values are class polynomials.

    ``vals`` maps a comparable pair (i, j) to a ClassPoly whose carrier is
    the stabilizer of the pair.  Two conditions make such data equivariant:
    each value is a class function on its stabilizer (which a ClassPoly is
    by construction), and values on intervals in the same orbit determine
    each other by conjugation; ``validate_definition`` checks the latter.

    The constructor checks every key, carrier and the conjugation
    compatibility, for data from outside, and is the one caller of
    ``validate_definition``.  Algebra results and assemblies, span kernels
    among them, are built unchecked: they are compatible by construction.
    """

    __slots__ = ()

    _times = staticmethod(ClassPoly.scale)
    _reverse = staticmethod(ClassPoly.rev)

    def __init__(self, action, weak_rank, vals):
        self.carrier = action
        self.weak_rank = weak_rank
        self.vals = {}
        for (i, j), cp in vals.items():
            if not action.poset.leq(i, j):
                raise ValueError(f"({i}, {j}) is not an interval")
            if cp.group != action.stabilizer(i, j):
                raise ValueError(
                    f"value on ({i}, {j}) does not live on the stabilizer")
            if not cp.is_zero:
                self.vals[(i, j)] = cp
        result = self.validate_definition()
        if not result:
            raise AssemblyInconsistent(result.describe(),
                                       tuple(result.witness["interval"]))

    @property
    def action(self):
        return self.carrier

    @staticmethod
    def _nonzero(cp):
        return not cp.is_zero

    def _zero_at(self, i, j):
        return ClassPoly.constant(self.action.stabilizer(i, j), ZERO)

    def validate_definition(self):
        """Check conjugation compatibility across interval orbits.

        The value on (i, j) evaluated at u must equal the value on
        (w i, w j) evaluated at w u w^{-1}.  Checking generators suffices:
        the condition for a product of generators follows step by step,
        provided the checked pairs cover whole interval orbits, so the
        pairs checked, in sorted order, are those of every orbit of
        :meth:`PermAction.interval_orbits` that meets the support.
        Checking class representatives u suffices too, since both sides are
        class functions and conjugation by w maps classes to classes.
        """
        action = self.action
        pairs = []
        for rep, steps in action.interval_orbits():
            orbit = [rep] + [child for child, _parent, _g in steps]
            if any(pair in self.vals for pair in orbit):
                pairs.extend(orbit)
        elements, index = action.elements, action._index
        for (i, j) in sorted(pairs):
            cp = self.value(i, j)
            for w in action.generators:
                other = self.value(w[i], w[j])
                table = action._conj[w]
                for u in cp.group.reps:
                    conj = elements[table[index[u]]]
                    if cp.values[u] != other.ev(conj):
                        return CheckResult.failed(
                            "conjugation-compatibility",
                            witness={"interval": [i, j], "w": list(w),
                                     "u": list(u)})
        return CheckResult.passed()

    def __mul__(self, other):
        return equiv_multiply(self, other)

    def __repr__(self):
        return (f"EquivIncidenceElement(n={self.action.poset.n}, "
                f"support={len(self.vals)})")


def equiv_constant(action, p):
    """Embed an invariant ordinary incidence element as constants.

    The value on every interval becomes the constant class polynomial, so
    the input must take equal values on intervals in the same orbit; a
    ValueError naming a non-invariant orbit is raised otherwise.
    """
    if p.poset is not action.poset and not p.poset.same_order(action.poset):
        raise ValueError("element lives on a different poset than the action")
    vals = {}
    for (i, j), poly in p.vals.items():
        for w in action.generators:
            if p.value(w[i], w[j]) != poly:
                raise ValueError(
                    f"values on the orbit of ({i}, {j}) differ; "
                    "element is not invariant")
        vals[(i, j)] = ClassPoly.constant(action.stabilizer(i, j), poly)
    return EquivIncidenceElement._unchecked(action, p.weak_rank, vals)


def ev_w(p, w):
    """Evaluate at a group element, landing on the fixed poset.

    All class functions are evaluated at w and the result is an ordinary
    incidence element on B^w carrying the restricted weak rank.  It is
    built unchecked: B^w is an induced subposet, so its intervals are
    intervals of B, and the restriction of a weak rank is one.
    """
    w = tuple(w)
    action = p.action
    sub, emb, pos = action.fixed_poset(w)
    wr = p.weak_rank.restrict(sub, emb)
    vals = {}
    for (i, j), cp in p.vals.items():
        if w[i] == i and w[j] == j:
            poly = cp.ev(w)
            if poly:
                vals[(pos[i], pos[j])] = poly
    return IncidenceElement._unchecked(sub, wr, vals)


def equiv_multiply(p, q):
    """Convolution with induction/restriction between stabilizers.

    On an interval [i, j] the product sums, over representatives z of the
    stabilizer orbits on [i, j], the induction to W_{i,j} of the product of
    the two restrictions to the three-point stabilizer W_{i,z,j}.  Grouping
    an orbit into one induced term is what keeps all coefficients rational
    without dividing by orbit sizes.  The sum runs on one interval per
    orbit of the group; the product is equivariant, so the rest of the
    orbit is filled by transport through the conjugating element.
    """
    p._same_carrier(q)
    action = p.action
    poset = action.poset
    out = {}
    by_first = {}
    for (i, z) in p.vals:
        by_first.setdefault(i, []).append(z)
    for (i, j), steps in action.interval_orbits():
        candidates = [z for z in by_first.get(i, ()) if poset.leq(z, j)]
        if not candidates:
            continue
        total = _multiply_at(p, q, i, j, candidates)
        if not total.is_zero:
            out[(i, j)] = total
            action.transport(out, steps)
    return EquivIncidenceElement._unchecked(action, p.weak_rank, out)


def equiv_hat(p):
    """The sign twist: the :func:`_assemble` of :func:`klspoly.incidence.hat`
    on each fixed poset, which must be lower Eulerian."""
    action = p.action
    return _assemble(action, p.weak_rank, _fixed_poset_read(
        action, lambda w: hat(ev_w(p, w))))


def is_eulerian_action(action):
    """Check that every fixed poset is lower Eulerian.

    One representative per conjugacy class suffices (fixed posets of
    conjugate elements are isomorphic); the witness names the offending
    group element.
    """
    for w in action.stabilizer().reps:
        result = action.fixed_poset(w)[0].is_lower_eulerian()
        if not result:
            return CheckResult.failed(
                "fixed-poset-not-lower-eulerian", witness={"w": list(w)},
                detail=result.describe())
    return CheckResult.passed()


def equiv_kernel_validate(kappa):
    """Validate an equivariant kernel by reduction to fixed posets.

    Checks a unit diagonal on the element itself and that the generators
    preserve the weak rank.  Conjugation compatibility is not checked
    again: the checking constructor enforces it on outside data, and every
    other element is built compatible (transported along orbits, or an
    algebra result of compatible elements).  Then a conjugate u = x w x^-1
    has the fixed poset x B^w, and x carries the evaluation at w, values
    and restricted weak rank alike, onto the evaluation at u; so the
    evaluation is validated as an ordinary kernel at one representative
    of each conjugacy class of the group.  The representatives are the
    smallest elements of their classes, so the witness is the smallest
    group element whose evaluation fails.
    """
    return validate_class_kernels(kappa)[0]


def validate_class_kernels(kappa):
    """(result, kernels): the result of :func:`equiv_kernel_validate` and
    the evaluations (w, ev_w(kappa, w)) it validates, smallest class first;
    no evaluations when a check on the element itself fails."""
    action = kappa.action
    for z in range(action.poset.n):
        if kappa.value(z, z) != ClassPoly.constant(action.stabilizer(z, z),
                                                   ONE):
            return CheckResult.failed("diagonal-not-one",
                                      witness={"z": z}), []
    rho = kappa.weak_rank.rho
    for (i, j) in action.poset.intervals():
        for g in action.generators:
            if rho[g[j]] - rho[g[i]] != rho[j] - rho[i]:
                return CheckResult.failed(
                    "weak-rank-not-invariant",
                    witness={"interval": [i, j], "w": list(g)}), []
    kernels = [(w, ev_w(kappa, w)) for w in action.stabilizer().reps]
    for w, kernel in kernels:
        result = validate_kernel(kernel)
        if not result:
            return CheckResult.failed(
                "fixed-poset-kernel", witness={"w": list(w)},
                detail=result.describe()), kernels
    return CheckResult.passed(), kernels


def _assemble(action, weak_rank, read):
    """The equivariant element whose values ``read`` gives, read once per
    interval orbit.

    ``read(i, j)`` returns the ClassPoly on the stabilizer of (i, j).  It
    is called on the first interval of each orbit of
    :meth:`PermAction.interval_orbits`, and the value is transported to
    the rest of the orbit, so the result is conjugation compatible by
    construction.  The deepest transported interval of each orbit is then
    read directly too, the independent route: a mismatch means the read
    values do not glue into an equivariant element (the input was not
    equivariant) and raises AssemblyInconsistent naming the interval.
    """
    vals = {}
    element = EquivIncidenceElement._unchecked(action, weak_rank, vals)
    for (i, j), steps in action.interval_orbits():
        cp = read(i, j)
        if not cp.is_zero:
            vals[(i, j)] = cp
            action.transport(vals, steps)
        moved = _deepest(weak_rank, [child for child, _parent, _g in steps])
        if moved is not None and element.value(*moved) != read(*moved):
            raise AssemblyInconsistent(
                f"per-element values are not conjugation compatible on "
                f"interval {moved}", moved)
    return element


def _fixed_poset_read(action, solve_at):
    """The read of :func:`_assemble` for answers solved on fixed posets.

    ``solve_at(r)`` is an incidence element on the fixed poset of r, and
    runs once per conjugacy class r of the whole group that is needed: an
    element u = x r x^-1 fixes exactly x B^r, so its value on (i, j) is
    the per-r value on (x^-1 i, x^-1 j), read at each class
    representative u of the stabilizer of (i, j).
    """
    solved = {}

    def read(i, j):
        stab = action.stabilizer(i, j)
        values = {}
        for u in stab.reps:
            r, xinv = action.class_conjugator(u)
            if r not in solved:
                solved[r] = solve_at(r)
            _sub, _emb, pos = action.fixed_poset(r)
            values[u] = solved[r].value(pos[xinv[i]], pos[xinv[j]])
        return _classpoly(stab, values)

    return read


def _deepest(weak_rank, pairs):
    """Deterministic interval for cross-checks, or None without pairs.

    The pair of maximal weak rank, ties broken by smallest index pair: the
    deepest interval exercises the longest recursion, and determinism
    keeps failures reproducible.
    """
    rho = weak_rank.rho
    return max(pairs, default=None,
               key=lambda p: (rho[p[1]] - rho[p[0]], (-p[0], -p[1])))


def _multiply_at(p, q, i, j, candidates):
    """The value of p * q on [i, j], summed over middle elements z.

    ``candidates`` must be stable under the stabilizer W_{i,j} and hold
    every z with both p(i, z) and q(z, j) possibly nonzero.  Each
    stabilizer orbit of candidates contributes the induction to W_{i,j} of
    the product of the two restrictions to the three-point stabilizer
    W_{i,z,j}.
    """
    action = p.action
    stab = action.stabilizer(i, j)
    total = ClassPoly.constant(stab, ZERO)
    for z in action.orbit_reps(candidates, subgroup=stab):
        a = p.value(i, z)
        b = q.value(z, j)
        if a.is_zero or b.is_zero:
            continue
        small = action.stabilizer(i, z, j)
        total = total + (a.res(small) * b.res(small)).induce(stab)
    return total


def _equiv_solve(kappa, solver, name, left):
    """Solve on the fixed posets and reassemble; then cross-check
    rev(x) = x * kappa (``left``) or kappa * x on one deterministic
    interval through the induction/restriction product."""
    action = kappa.action
    x = _assemble(action, kappa.weak_rank, _fixed_poset_read(
        action, lambda w: solver(ev_w(kappa, w))))
    i, j = _deepest(kappa.weak_rank, action.poset.intervals())
    p, q = (x, kappa) if left else (kappa, x)
    if equiv_rev(x).value(i, j) != _multiply_at(
            p, q, i, j, action.poset.elements_between(i, j)):
        product = f"{name}*kernel" if left else f"kernel*{name}"
        raise AssemblyInconsistent(
            f"solved {name} fails rev({name}) = {product} on interval "
            f"({i}, {j})", (i, j))
    return x


def equiv_solve_g(kappa):
    """Equivariant left solution: rev(g) = g * kappa, g below half degree.

    Solved on the fixed posets of class representatives, reassembled, and
    cross-checked on one deterministic interval through the
    induction/restriction product.
    """
    return _equiv_solve(kappa, solve_g, "g", left=True)


def equiv_solve_f(kappa):
    """Equivariant right solution: rev(f) = kappa * f."""
    return _equiv_solve(kappa, solve_f, "f", left=False)


def equiv_z_function(kappa, g=None, f=None):
    """Equivariant Z = g * kappa * f, assembled from the fixed posets."""
    action = kappa.action
    g = g if g is not None else equiv_solve_g(kappa)
    f = f if f is not None else equiv_solve_f(kappa)
    z = _assemble(action, kappa.weak_rank, _fixed_poset_read(
        action, lambda w: z_function(ev_w(kappa, w), g=ev_w(g, w),
                                     f=ev_w(f, w))))
    _agree_or_raise(AssemblyInconsistent, "assembled Z is not symmetric", z,
                    equiv_rev(z))
    i, j = _deepest(kappa.weak_rank, action.poset.intervals())
    if _multiply_at(equiv_rev(g), f, i, j,
                    action.poset.elements_between(i, j)) != z.value(i, j):
        raise AssemblyInconsistent(
            f"assembled Z disagrees with rev(g)*f on interval ({i}, {j})",
            (i, j))
    return z


def equiv_invert(p):
    """Inverse, computed on the fixed posets and reassembled."""
    action = p.action
    return _assemble(action, p.weak_rank, _fixed_poset_read(
        action, lambda w: invert(ev_w(p, w))))


def classpoly_json(action, cp):
    """Serialize one class polynomial against an action's element ids.

    Carrier elements are listed by id (position in the sorted element
    list); one coefficient vector is given per conjugacy class of the
    carrier, keyed by the class's smallest element id.
    """
    on = sorted(action.element_id(w) for w in cp.group)
    values = sorted([action.element_id(rep), v.to_json()]
                    for rep, v in cp.values.items())
    return {"on": on, "values": values}


def equiv_local_invariants(triple, weak_rank, action, kappa):
    """Equivariant h, local-h and half-degree data of a subdivision: a
    LocalInvariants of equivariant elements.

    The action must fix q, preserve the cylinder rank, and have lower
    Eulerian fixed posets.  On the fixed poset of one representative of
    each conjugacy class of the group the element q cuts out the
    fixed subdivision, whose ordinary local invariants are computed with
    the restricted weak rank and evaluated kernel; the per-element answers
    are assembled into class-function form.  Two defining identities are
    then re-verified through the equivariant product itself:
    (t - 1) h = g * (kernel masked to carrier pairs) and ell * g = h.
    """
    result = validate_action(action, triple.gamma, q=triple.q)
    if not result:
        raise ValueError(f"action incompatible with the triple: "
                         f"{result.describe()}")
    eul = is_eulerian_action(action)
    if not eul:
        raise ValueError(f"action is not Eulerian: {eul.describe()}")

    per = {}  # one local solve per representative, read by four assemblies

    def local_at(w):
        if w not in per:
            sub, _emb, pos = action.fixed_poset(w)
            kw = ev_w(kappa, w)
            per[w] = local_invariants(SubdivisionTriple(sub, pos[triple.q]),
                                      kw.weak_rank, kw)
        return per[w]

    def assemble(field):
        return _assemble(action, weak_rank, _fixed_poset_read(
            action, lambda w: getattr(local_at(w), field)))

    g = assemble("g")
    h_sigma = assemble("h_sigma")
    ell_sigma = assemble("ell_sigma")
    delta_ell = assemble("delta_ell")

    _agree_or_raise(AssemblyInconsistent,
                    "(t-1)h does not match g * masked kernel equivariantly",
                    h_sigma.scale(T - ONE),
                    equiv_multiply(g, triple.mask_interior(kappa)))
    _agree_or_raise(AssemblyInconsistent,
                    "ell * g does not match h equivariantly",
                    equiv_multiply(ell_sigma, g), h_sigma)
    return LocalInvariants(triple, g, h_sigma, ell_sigma, delta_ell)


def check_equivariant_theorem(triple, kappa):
    """Verify the subdivision identities in the equivariant algebra, on
    the weak rank and group action of the kernel ``kappa``.

    Both routes are exercised: the local invariants are assembled from the
    fixed posets (where each carries its own ordinary proof obligations),
    and the identities of :func:`klspoly.subdivision.theorem_g_identities`
    and its f and Z companions are then checked with the
    induction/restriction product.
    """
    li = equiv_local_invariants(triple, kappa.weak_rank, kappa.action,
                                kappa)
    g = li.g
    dl = li.delta_ell
    result = theorem_g_identities(triple, g, equiv_invert(g), dl)
    if not result:
        return result
    f = equiv_solve_f(kappa)
    dl_hat = equiv_hat(dl)
    result = corollary_f_identity(triple, f, dl_hat)
    if not result:
        return result
    return corollary_z_identity(triple, equiv_z_function(kappa, g=g, f=f),
                                dl_hat, equiv_rev(dl))
