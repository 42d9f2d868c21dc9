"""Incidence algebra of a finite poset and Kazhdan-Lusztig-Stanley solvers.

An incidence element assigns a polynomial to every interval of a carrier
poset.  A weak rank function bounds degrees interval by interval; it is a
first-class object and is never silently assumed to be the natural rank.
The operations that do not depend on the value type (lookup, equality,
sums, negation, scaling, selection and the reversal :func:`rev`)
live once on :class:`AlgebraElement`, the base that the equivariant
elements of :mod:`klspoly.equivariant` share; a small hook per value type
supplies the rest.

The central objects are kernels: elements kappa with unit diagonal,
deg kappa(z,z') <= r(z,z'), whose inverse equals their degree-r reversal.
For each kernel there are unique "half-degree" elements f and g with

    rev(g) = g * kappa        rev(f) = kappa * f

computed here by truncation: the low coefficients are forced, and the high
coefficients must satisfy mirror constraints which are asserted on every
interval a solve fills (their failure is exactly a failure of the kernel
property, and raises MirrorConstraintViolated naming the interval).  A solve
checks the unit diagonal too; the degree bound belongs to the gates,
:func:`validate_kernel` and :func:`klspoly.subdivision.solve_kernel`.

g, f and the inverse of an element all come from one triangular recursion,
:func:`_triangular_solve`, over the intervals in weak-rank order: g and the
inverse sum their products on the left, f on the right, each interval's sum
in one :func:`klspoly.polynomial.poly_dot`.  A left sum reads only its own
row and a right sum only its own column, so the one recursion fills all
intervals, one row (g, the inverse) or one column (f); only the full solve
sorts the whole order.  The product :func:`convolve` is the batched form of
that sum: one common denominator per operand, every product added in place,
one reduction per output interval.  Division by (t-1) goes through
:func:`klspoly.polynomial.poly_div_t_minus_1`, the one such division in the
package.
"""

from __future__ import annotations

from math import lcm

from .polynomial import (
    ONE,
    ZERO,
    Poly,
    _poly,
    delta_truncate,
    poly_div_t_minus_1,
    poly_dot,
    poly_rev,
)
from .poset import bits
from .status import CheckResult, InputError, VerificationFailure


class CarrierMismatch(ValueError):
    """Two incidence elements live on different posets or weak ranks."""


class UnsuitablePoset(InputError):
    """The poset lacks a property an operation needs: graded, lower
    Eulerian, Eulerian, or rank at least 1."""


class NotInvertible(ValueError):
    """An incidence element has a diagonal value other than 1 or -1."""


class MirrorConstraintViolated(VerificationFailure):
    """The forced low-degree solution cannot be completed symmetrically.

    Raised by the f/g solvers; equivalent to the kernel failing the
    inverse-equals-reversal property on the reported interval.
    """


class WeakRank:
    """An integer on every interval: zero exactly on the diagonal, positive
    off it, and additive along chains; stored as its potential ``rho``, one
    integer per element, with value(i, j) = rho[j] - rho[i]."""

    __slots__ = ("poset", "rho", "_order")

    def __init__(self, poset, values):
        """Checked, from ``values`` on every interval; ``rho`` is read off
        the intervals from the minimum m, and a value that is not
        rho[j] - rho[i] names the chain m <= i <= j it fails to add on."""
        vals = {}
        for pair in poset.intervals():
            if pair not in values:
                raise ValueError(f"weak rank missing on interval {pair}")
            vals[pair] = int(values[pair])
        bot = poset.bottom()
        rho = tuple(vals[(bot, z)] for z in range(poset.n))
        res = _signs(vals.items())
        if res:
            for (i, j), r in vals.items():
                if rho[j] - rho[i] != r:
                    res = CheckResult.failed(
                        "not-additive", witness=(bot, i, j),
                        detail=f"{rho[i]} + {r} != {rho[j]}")
                    break
        if not res:
            raise ValueError(f"invalid weak rank: {res.describe()}")
        self.poset, self.rho, self._order = poset, rho, None

    def value(self, i, j):
        if not self.poset.intervals().contains(i, j):
            raise ValueError(f"({i}, {j}) is not an interval")
        return self.rho[j] - self.rho[i]

    def in_order(self, pairs):
        """``pairs`` by weak rank, then pair: the order in which the
        triangular solves fill intervals."""
        rho = self.rho
        return sorted(pairs, key=lambda p: (rho[p[1]] - rho[p[0]], p))

    def order(self):
        """Every interval :meth:`in_order`, the order of a full triangular
        solve, sorted on first use and kept; a solve of one row or column
        sorts its own intervals only."""
        if self._order is None:
            self._order = tuple(self.in_order(self.poset.intervals()))
        return self._order

    def validate(self):
        """Positivity, the one property a potential can fail."""
        rho = self.rho
        return _signs(((i, j), rho[j] - rho[i])
                      for (i, j) in self.poset.intervals())

    @classmethod
    def natural(cls, poset):
        """The poset's rank vector as the potential; UnsuitablePoset when
        the poset is not graded."""
        if poset.rank is None:
            raise UnsuitablePoset(f"natural weak rank needs a graded poset: "
                                  f"{poset.is_lower_eulerian().detail}")
        wr = _weak_rank(poset, poset.rank)
        res = wr.validate()
        if not res:
            raise ValueError(f"invalid weak rank: {res.describe()}")
        return wr

    def restrict(self, subposet, embedding):
        """The weak rank of an induced subposet: ``rho`` via its embedding."""
        return _weak_rank(subposet, [self.rho[e] for e in embedding])

    def _normal(self):
        """``rho``'s steps across the covers, which fix every value."""
        rho = self.rho
        return tuple(rho[b] - rho[a] for a, b in self.poset.covers())

    def __eq__(self, other):
        if not isinstance(other, WeakRank):
            return NotImplemented
        if self is other:
            return True
        return self.poset == other.poset and self._normal() == other._normal()

    def __hash__(self):
        return hash((self.poset, self._normal()))

    def __repr__(self):
        return f"WeakRank(on {self.poset!r})"


def _signs(values):
    """Zero on the diagonal and positive off it, for ((i, j), r) items in
    interval order; the witness is the first failing interval."""
    for (i, j), r in values:
        if i == j:
            if r != 0:
                return CheckResult.failed("diagonal", witness=(i, j))
        elif r <= 0:
            return CheckResult.failed("not-positive", witness=(i, j),
                                      detail=f"value {r} on strict interval")
    return CheckResult.passed()


class AlgebraElement:
    """Values on the intervals of a carrier, with a weak rank handle.

    The operations that do not depend on the value type, shared by
    :class:`IncidenceElement` (polynomials on the intervals of a poset) and
    :class:`klspoly.equivariant.EquivIncidenceElement` (class polynomials
    on the interval stabilizers of a group action).  Only nonzero values
    are stored.  All binary operations require both operands to share the
    identical carrier and weak rank; mixing carriers raises CarrierMismatch
    rather than guessing.

    A subclass fixes the value type through four hooks: ``_nonzero(v)``;
    ``_zero_at(i, j)``, the value on an interval with nothing stored;
    ``_times(v, factor)``, for a factor lifted by ``Poly._lift``; and
    ``_reverse(v, r)``, the degree-r reversal.

    Algebra results are built by :meth:`_unchecked`, whose keys and values
    hold by construction; the subclass constructors check data from
    outside.
    """

    __slots__ = ("carrier", "weak_rank", "vals")

    @classmethod
    def _unchecked(cls, carrier, weak_rank, vals):
        """The element with ``vals`` {interval: nonzero value}, unchecked.

        The dict is taken over as it is: every algebra result (products,
        sums, selections, reversal, the solvers, the inverse, the assemblies) is
        built here from values on intervals of the carrier, and drops its
        zero values itself.
        """
        element = _new(cls)
        element.carrier = carrier
        element.weak_rank = weak_rank
        element.vals = vals
        return element

    def value(self, i, j):
        v = self.vals.get((i, j))
        return self._zero_at(i, j) if v is None else v

    def _same_carrier(self, other):
        if self.carrier != other.carrier or self.weak_rank != other.weak_rank:
            raise CarrierMismatch("incidence elements live on different carriers")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.carrier == other.carrier
                and self.weak_rank == other.weak_rank
                and self.vals == other.vals)

    def __add__(self, other):
        self._same_carrier(other)
        nonzero = self._nonzero
        out = dict(self.vals)
        for pair, v in other.vals.items():
            cur = out.get(pair)
            if cur is None:
                out[pair] = v
                continue
            total = cur + v
            if nonzero(total):
                out[pair] = total
            else:
                del out[pair]
        return self._unchecked(self.carrier, self.weak_rank, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._unchecked(self.carrier, self.weak_rank,
                               {p: -v for p, v in self.vals.items()})

    def scale(self, c):
        """Multiply every value by a fixed polynomial or scalar."""
        factor = Poly._lift(c)
        if factor is NotImplemented:
            raise TypeError(f"cannot scale an incidence element by a "
                            f"{type(c).__name__}")
        if not factor:
            return self._unchecked(self.carrier, self.weak_rank, {})
        times = self._times
        return self._unchecked(self.carrier, self.weak_rank,
                               {p: times(v, factor)
                                for p, v in self.vals.items()})

    def select(self, pairs):
        """Keep only the values on the given intervals."""
        vals = self.vals
        return self._unchecked(self.carrier, self.weak_rank,
                               {p: vals[p] for p in pairs if p in vals})


class IncidenceElement(AlgebraElement):
    """A polynomial for every interval of a poset, with a weak rank handle.

    The constructor checks every key and value, for loaded and user data.
    """

    __slots__ = ()

    _nonzero = staticmethod(Poly.__bool__)
    _times = staticmethod(Poly.__mul__)
    _reverse = staticmethod(poly_rev)

    def __init__(self, poset, weak_rank, values=None):
        if weak_rank.poset != poset:
            raise CarrierMismatch("weak rank lives on a different poset")
        self.carrier = poset
        self.weak_rank = weak_rank
        idx = poset.intervals()
        vals = {}
        if values:
            for pair, poly in values.items():
                if not idx.contains(*pair):
                    raise ValueError(f"{pair} is not an interval of the carrier")
                if not isinstance(poly, Poly):
                    poly = Poly(poly)
                if poly:
                    vals[pair] = poly
        self.vals = vals

    @property
    def poset(self):
        return self.carrier

    def _zero_at(self, i, j):
        if not self.carrier.intervals().contains(i, j):
            raise ValueError(f"({i}, {j}) is not an interval")
        return ZERO

    def __mul__(self, other):
        if isinstance(other, IncidenceElement):
            return convolve(self, other)
        return NotImplemented

    def __repr__(self):
        return f"IncidenceElement({len(self.vals)} nonzero intervals on {self.poset!r})"


_new = object.__new__


def _weak_rank(poset, rho):
    """The WeakRank with potential ``rho``, unchecked."""
    wr = _new(WeakRank)
    wr.poset, wr.rho, wr._order = poset, tuple(rho), None
    return wr


def delta(poset, weak_rank):
    """The identity of the incidence algebra: 1 on the diagonal."""
    return IncidenceElement(poset, weak_rank,
                            {(i, i): ONE for i in range(poset.n)})


def convolve(a, b):
    """Incidence product: (a*b)(z,z') = sum over z <= w <= z' of
    a(z,w) b(w,z').

    The batched form of :func:`poly_dot`: each operand is lifted once to
    the lcm D of its denominators (1 for integer data), every product's int
    numerators are added in place into its interval's sum, and each sum is
    reduced once over D_a D_b.  Keys are intervals, so i <= w <= j makes
    (i, j) one.
    """
    a._same_carrier(b)
    den_a = lcm(*{p.den for p in a.vals.values()})
    den_b = lcm(*{p.den for p in b.vals.values()})
    by_first = {}
    for (w, j), poly in b.vals.items():
        bn = poly.num
        if poly.den != den_b:
            bn = [c * (den_b // poly.den) for c in bn]
        by_first.setdefault(w, []).append((j, bn))
    sums = {}
    for (i, w), poly in a.vals.items():
        row = by_first.get(w)
        if row is None:
            continue
        an = poly.num
        if poly.den != den_a:
            an = [c * (den_a // poly.den) for c in an]
        if len(an) == 1:
            x = an[0]
            for j, bn in row:
                out = sums.get((i, j))
                if out is None:
                    sums[(i, j)] = [x * y for y in bn]
                elif len(bn) == 1:
                    out[0] += x * bn[0]
                else:
                    if len(out) < len(bn):
                        out += [0] * (len(bn) - len(out))
                    for k, y in enumerate(bn):
                        out[k] += x * y
            continue
        for j, bn in row:
            out = sums.get((i, j))
            if out is None:
                if len(bn) == 1:
                    y = bn[0]
                    sums[(i, j)] = [x * y for x in an]
                    continue
                out = sums[(i, j)] = []
            size = len(an) + len(bn) - 1
            if len(out) < size:
                out += [0] * (size - len(out))
            for k, y in enumerate(bn):
                if y:
                    for m, x in enumerate(an, k):
                        out[m] += x * y
    den = den_a * den_b
    out = {}
    for key, num in sums.items():
        total = _poly(num, den)
        if total:
            out[key] = total
    return IncidenceElement._unchecked(a.poset, a.weak_rank, out)


def rev(p):
    """Intervalwise reversal at the weak rank: t^r p(z,z'; 1/t).

    Requires deg p(z,z') <= r(z,z') everywhere (DegreeExceedsRank
    otherwise).  An involution, and multiplicative across convolution
    because weak ranks add along chains.  One body for both element kinds:
    each value is reversed by its type's ``_reverse`` hook.
    """
    rho, reverse = p.weak_rank.rho, p._reverse
    return p._unchecked(p.carrier, p.weak_rank, {
        (i, j): reverse(v, rho[j] - rho[i]) for (i, j), v in p.vals.items()})


def hat(p):
    """Sign twist by the natural rank: p(z,z') -> (-1)^{rho(z')-rho(z)} p(z,z').

    The carrier must be lower Eulerian (this is what makes the twist
    interact correctly with reversal for rank-alternating kernels).
    """
    res = p.poset.is_lower_eulerian()
    if not res:
        raise UnsuitablePoset(
            f"hat needs a lower Eulerian carrier: {res.describe()}")
    rho = p.poset.rank
    return IncidenceElement._unchecked(p.poset, p.weak_rank, {
        (i, j): poly if (rho[j] - rho[i]) % 2 == 0 else -poly
        for (i, j), poly in p.vals.items()})


def delta_op(p):
    """Intervalwise first-difference truncation to degrees below r/2.

    Zero on the diagonal by convention.
    """
    rho = p.weak_rank.rho
    out = {}
    for (i, j), poly in p.vals.items():
        if i != j:
            v = delta_truncate(poly, rho[j] - rho[i])
            if v:
                out[(i, j)] = v
    return IncidenceElement._unchecked(p.poset, p.weak_rank, out)


def _triangular_solve(p, diagonal, on_left, finish, line=None):
    """The element x with x(i,i) = diagonal[i] and, off the diagonal,
    x(i,j) = finish(d, i, j) for the sum d of one side's products.

    Intervals are visited by increasing weak rank, so every value a sum
    reads is already set.  With ``on_left`` the sum is that of
    x(i,w) p(w,j) over i <= w < j (the inverse and g); otherwise it is that
    of p(i,w) x(w,j) over i < w <= j (f).  Each sum is one
    :func:`poly_dot`.

    A left sum reads only its own row, a right sum only its own column, so
    ``line`` may name the intervals to fill (see :func:`_line`), and the
    result then holds their values alone.  By default every interval is
    filled; only that full solve sorts :meth:`WeakRank.order` and builds
    the interval index's element lists, while a line reads
    :meth:`Poset.elements_between` for the intervals it fills.
    """
    poset = p.poset
    vals = p.vals
    if line is None:
        order = p.weak_rank.order()
        between = poset.intervals().between()
    else:
        order = p.weak_rank.in_order(_line(poset, line, on_left))
        between = {pair: poset.elements_between(*pair) for pair in order}
    x = {}
    for (i, j) in order:
        if i == j:
            x[(i, j)] = diagonal[i]
            continue
        products = []
        if on_left:
            for w in between[(i, j)]:
                if w != j:
                    a = x.get((i, w))
                    if a is not None:
                        b = vals.get((w, j))
                        if b is not None:
                            products.append((a, b))
        else:
            for w in between[(i, j)]:
                if w != i:
                    b = x.get((w, j))
                    if b is not None:
                        a = vals.get((i, w))
                        if a is not None:
                            products.append((a, b))
        value = finish(poly_dot(products), i, j)
        if value:
            x[(i, j)] = value
    return IncidenceElement._unchecked(poset, p.weak_rank, x)


def _line(poset, line, on_left):
    """The intervals of one line: for an element, its row (on the left) or
    its column; for an interval (i, j), the part inside [i, j] of the row
    at i or the column at j."""
    if isinstance(line, tuple):
        i, j = line
        inside = poset.up[i] & poset.down[j]
    elif on_left:
        i, inside = line, poset.up[line]
    else:
        j, inside = line, poset.down[line]
    return [(i, w) if on_left else (w, j) for w in bits(inside)]


def invert(p):
    """Two-sided inverse; exists iff every diagonal value is 1 or -1."""
    diag = []
    for i in range(p.poset.n):
        d = p.value(i, i)
        if d != ONE and d != Poly([-1]):
            raise NotInvertible(f"diagonal value {d!r} at element {i}")
        diag.append(d)

    # q(i,j) p(j,j) = -d  =>  q(i,j) = -d * p(j,j)  (p(j,j)^2 = 1)
    def finish(d, i, j):
        return -d if diag[j] == ONE else d

    return _triangular_solve(p, diag, on_left=True, finish=finish)


def is_in_truncated(p):
    """deg p(z,z') <= r(z,z') on every interval."""
    rho = p.weak_rank.rho
    for (i, j), poly in p.vals.items():
        if poly.degree > rho[j] - rho[i]:
            return CheckResult.failed("degree", witness=(i, j),
                                      detail=f"degree {poly.degree} > {rho[j] - rho[i]}")
    return CheckResult.passed()


def is_unitriangular(p):
    for i in range(p.poset.n):
        if p.value(i, i) != ONE:
            return CheckResult.failed("diagonal", witness=(i, i),
                                      detail=f"value {p.value(i, i)!r}")
    return CheckResult.passed()


def validate_kernel(kappa):
    """Full kernel check: unit diagonal, degree bounds, and inverse equal
    to reversal.  The returned witness is the first offending interval."""
    res = is_unitriangular(kappa)
    if not res:
        return res
    res = is_in_truncated(kappa)
    if not res:
        return res
    product = convolve(kappa, rev(kappa)).vals
    ident = delta(kappa.poset, kappa.weak_rank).vals
    for (i, j) in kappa.poset.intervals():
        value = product.get((i, j), ZERO)
        if value != ident.get((i, j), ZERO):
            return CheckResult.failed(
                "inverse-reversal", witness=(i, j),
                detail=f"(kappa * rev kappa)({i},{j}) = {value!r}")
    return CheckResult.passed()


def is_multiplicative(kappa):
    """kappa(z,z') = kappa(z,w) kappa(w,z') for every chain z <= w <= z'.

    Only the chains with w an atom of [i, j] (an element covering i) or
    w an endpoint are multiplied out, and an endpoint chain holds outright
    when the diagonal value there is 1.  That is equivalent, by induction on
    the size of [i, j]: for i < w < j pick an atom a of [i, w], which is
    also an atom of [i, j].  Then kappa(i,w) = kappa(i,a) kappa(a,w) by the
    check on [i, w], kappa(a,w) kappa(w,j) = kappa(a,j) by induction on the
    smaller interval [a, j], and kappa(i,a) kappa(a,j) = kappa(i,j) by the
    check on [i, j]; so kappa(i,w) kappa(w,j) = kappa(i,j).

    The witness is the first failing chain (i, w, j).  Values are read
    off the stored dict: every pair looked up is an interval.
    """
    poset = kappa.poset
    value = kappa.vals.get
    unit = [value((i, i), ZERO) == ONE for i in range(poset.n)]
    upper_covers = [[] for _ in range(poset.n)]
    for a, b in poset.covers():
        upper_covers[a].append(b)
    for (i, j) in poset.intervals():
        middle = [a for a in upper_covers[i] if a != j and poset.leq(a, j)]
        ends = [w for w in {i, j} if not unit[w]]
        target = value((i, j), ZERO)
        for w in sorted(ends + middle):
            if value((i, w), ZERO) * value((w, j), ZERO) != target:
                return CheckResult.failed("multiplicative", witness=(i, w, j))
    return CheckResult.passed()


def _elements_agree(tag, a, b):
    """CheckResult comparing two incidence elements (ordinary or
    equivariant), with the first interval where they differ as witness."""
    if a.vals != b.vals:
        for pair in sorted(set(a.vals) | set(b.vals)):
            if a.value(*pair) != b.value(*pair):
                return CheckResult.failed(
                    tag, witness=pair,
                    detail=f"{a.value(*pair)!r} != {b.value(*pair)!r}")
    return CheckResult.passed()


def _agree_or_raise(error, message, a, b):
    """Compare two incidence elements; on a difference raise ``error``, a
    VerificationFailure, naming the first interval where they differ."""
    res = _elements_agree("agree", a, b)
    if not res:
        raise error(f"{message} on interval {res.witness}", res.witness)


def is_rank_alternating(kappa):
    """Reversal equals the natural-rank sign twist."""
    return _elements_agree("rank-alternating", rev(kappa), hat(kappa))


def _t_minus_1_powers(n):
    """[1, t-1, (t-1)^2, ..., (t-1)^n]."""
    return [Poly([-1, 1]) ** k for k in range(n + 1)]


def eulerian_kernel(poset):
    """The kernel (t-1)^(rank difference) with the natural weak rank.

    The carrier must be lower Eulerian; this is the kernel whose g/f theory
    specializes to the classical (toric) g- and h-polynomials.
    """
    res = poset.is_lower_eulerian()
    if not res:
        raise UnsuitablePoset(
            f"Eulerian kernel needs a lower Eulerian poset: {res.describe()}")
    rho = poset.rank
    wr = WeakRank.natural(poset)
    powers = _t_minus_1_powers(max(rho) - min(rho))
    return IncidenceElement._unchecked(
        poset, wr, {(i, j): powers[rho[j] - rho[i]]
                    for (i, j) in poset.intervals()})


def _mirror_check(d_poly, r, interval, labels):
    """Assert D_i = -D_{r-i} for i > r/2 and D_{r/2} = 0 for even r.

    The coefficients share one denominator, so the numerators are compared;
    exact coefficients are formed only for a failure message.
    """
    name = f"[{labels[interval[0]]}, {labels[interval[1]]}]"
    num = d_poly.num
    top = len(num)
    if top > r + 1:
        raise MirrorConstraintViolated(
            f"mirror constraint fails on interval {name}: defect has degree "
            f"{d_poly.degree} > weak rank {r}", interval)
    for i in range(r // 2 + 1, top):
        if num[i] != -num[r - i]:
            raise MirrorConstraintViolated(
                f"mirror constraint fails on interval {name} at degree {i}: "
                f"{d_poly.coeff(i)} != -({d_poly.coeff(r - i)})", interval)
    if r % 2 == 0 and r // 2 < top and num[r // 2]:
        raise MirrorConstraintViolated(
            f"mirror constraint fails on interval {name} at middle degree "
            f"{r // 2}: {d_poly.coeff(r // 2)} != 0", interval)


def _truncate_below_half(d_poly, r):
    """-(D) restricted to degrees < r/2."""
    return _poly([-c for c in d_poly.num[: (r - 1) // 2 + 1]], d_poly.den)


def _solve_half_degree(kappa, on_left, line):
    """The unit-diagonal solution below half the weak rank, on one side,
    on the intervals of ``line`` (every interval when None).

    The defect d on each interval filled must pass the mirror constraints,
    which bound its degree by the weak rank; the value is -d below degree
    r/2.  Of the kernel only the unit diagonal, which the recursion never
    visits, is checked here (ValueError); its degree bound is the gate's.
    """
    res = is_unitriangular(kappa)
    if not res:
        raise ValueError(f"kernel must have unit diagonal: {res.describe()}")
    rho = kappa.weak_rank.rho
    labels = kappa.poset.labels

    def finish(d, i, j):
        r = rho[j] - rho[i]
        _mirror_check(d, r, (i, j), labels)
        return _truncate_below_half(d, r)

    return _triangular_solve(kappa, [ONE] * kappa.poset.n, on_left, finish,
                             line=line)


def solve_g(kappa, row=None):
    """The unique g with unit diagonal, deg < r/2 off-diagonal and
    rev(g) = g * kappa.

    Low coefficients are forced by the recursion; the remaining mirror
    constraints are asserted on every interval filled and raise
    MirrorConstraintViolated when kappa is not actually a kernel.  The unit
    diagonal is checked too, and deg kappa <= r by the gate ahead of the
    solve.  The recursion stays inside a row: ``row`` an element x fills
    only the g(x, y), and an interval (x, z) only those with y <= z.
    """
    return _solve_half_degree(kappa, True, row)


def solve_f(kappa, column=None):
    """The unique f with unit diagonal, deg < r/2 off-diagonal and
    rev(f) = kappa * f, checked as :func:`solve_g` checks g.  The
    recursion stays inside a column: ``column`` an element y fills only
    the f(x, y), and an interval (z, y) only those with z <= x."""
    return _solve_half_degree(kappa, False, column)


def z_function(kappa, g=None, f=None):
    """Z = g * kappa * f, with its defining identities verified.

    Checks Z = rev(g) * f, as g * kappa = rev(g) (f is invertible), and
    Z = g * rev(f), and that Z is symmetric under reversal; a discrepancy
    means kappa was not a kernel, a VerificationFailure naming its interval.
    """
    g = solve_g(kappa) if g is None else g
    f = solve_f(kappa) if f is None else f
    g_kappa = convolve(g, kappa)
    z = convolve(g_kappa, f)
    for message, a, b in (("g * kappa != rev(g)", g_kappa, rev(g)),
                          ("Z != g * rev(f)", z, convolve(g, rev(f))),
                          ("Z is not symmetric", rev(z), z)):
        _agree_or_raise(VerificationFailure,
                        f"kernel data is inconsistent: {message}", a, b)
    return z


def h_polynomial(poset):
    """h-polynomial of a lower Eulerian poset (Eulerian-kernel theory).

    Defined by t^n h(1/t) = sum over z of g([0,z]) (t-1)^(n - rho(z)),
    with n the rank of the poset.  For a simplicial complex's face poset
    this is the classical h-polynomial of the complex.  Only the row of g
    at the bottom is solved.
    """
    res = poset.is_lower_eulerian()
    if not res:
        raise UnsuitablePoset(
            f"h-polynomial needs a lower Eulerian poset: {res.describe()}")
    bot = poset.bottom()
    g = solve_g(eulerian_kernel(poset), row=bot)
    raw = poset.rank
    rho = [r - raw[bot] for r in raw]
    n = max(rho)
    powers = _t_minus_1_powers(n)
    gv = g.vals
    acc = poly_dot((gv[(bot, z)], powers[n - rho[z]])
                   for z in range(poset.n) if (bot, z) in gv)
    return poly_rev(acc, n)


def toric_h_boundary(poset):
    """h-polynomial of the boundary of an Eulerian poset of rank >= 1.

    Computed from the g-polynomial of the full poset, read off the row of
    g at the bottom: (t-1) h(boundary) = rev(g, n) - g.
    """
    res = poset.is_eulerian()
    if not res:
        raise UnsuitablePoset(
            f"boundary h needs an Eulerian poset: {res.describe()}")
    rho = poset.rank
    n = max(rho) - min(rho)
    if n < 1:
        raise UnsuitablePoset("boundary h needs rank >= 1")
    bot = poset.bottom()
    g_top = solve_g(eulerian_kernel(poset), row=bot).value(bot, poset.top())
    return poly_div_t_minus_1(poly_rev(g_top, n) - g_top)
