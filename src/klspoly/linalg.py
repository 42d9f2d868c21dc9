"""Exact linear algebra for the geometry modules.

Lattice data stays in ``int``: vertices, rays and integral matrices are
tuples of ints, and :class:`Span` is the one elimination routine.  It
factors the span of integer vectors once, by fraction-free Gauss-Jordan
elimination (Bareiss, Math. Comp. 1968), and then answers membership,
coordinates and greedy extension with integer matrix-vector products over
one common denominator.  ``Fraction`` enters only where the input is
rational: a rational query vector or a rational matrix.  Matrices are
tuples of row tuples; vectors are tuples.  All outputs are deterministic
functions of the input order, which the geometry code relies on
(complement bases must be reproducible even though the invariants computed
from them are basis-independent).
"""

from fractions import Fraction
from operator import mul

from .polynomial import Poly


def lattice_points(vectors, dim, what, error):
    """The vectors as distinct int tuples of length ``dim``.

    Every coordinate must be an integer, as for
    :func:`klspoly.status.json_int`: a float, a bool or a string is
    refused.  A non-integer coordinate, a vector of another length and a
    repeated vector each raise ``error`` naming the ``what`` (a vertex or
    a ray), the first and the last by index and value.
    """
    out = []
    seen = set()
    for k, v in enumerate(vectors):
        ints = tuple(v)
        if any(type(x) is not int for x in ints):
            raise error(f"{what} {k} {list(v)} has a non-integer coordinate")
        if len(ints) != dim:
            raise error(f"{what} dimension mismatch")
        if ints in seen:
            raise error(f"{what} {k} {list(v)} is listed twice")
        seen.add(ints)
        out.append(ints)
    return tuple(out)


def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


class Span:
    """The linear span of integer vectors, factored once.

    The vectors are adopted greedily in input order: ``basis`` keeps, in
    order and unreduced, each one that raises the rank, and ``independent``
    says whether every vector given was kept.  Fraction-free
    Gauss-Jordan elimination keeps one reduced row per basis vector with
    ``den`` at its own pivot column and 0 at the other pivots, and the
    transform with ``rows[k] = sum(transform[k][l] * basis[l])``.  Every
    entry is an int and ``den`` > 0 is the common denominator.  A Span is
    never changed after construction, so one can be shared by every query
    on the same face.
    """

    __slots__ = ("basis", "pivots", "rows", "transform", "den",
                 "independent", "_free", "_tcols")

    def __init__(self, vectors):
        self.basis = []
        self.pivots = []
        self.rows = []
        self.transform = []
        self.den = 1
        self.independent = True
        for v in vectors:
            self._adopt(v)
        self._freeze()

    @property
    def rank(self):
        return len(self.basis)

    def _adopt(self, v):
        """Add v to the basis if it lies outside the span: one Bareiss step.

        With old common denominator d and new pivot value a, every old row
        becomes (a * row - row[p] * u) / d, an exact division (Sylvester's
        identity), and the reduced new vector u is the new row.
        """
        v = tuple(v)
        if any(type(x) is not int for x in v):
            raise TypeError(f"Span takes integer vectors, not {v!r}")
        den = self.den
        u = [den * x for x in v]
        t_new = [0] * len(self.basis)
        for p, row, t in zip(self.pivots, self.rows, self.transform):
            c = v[p]
            if c:
                u = [a - c * b for a, b in zip(u, row)]
                t_new = [a - c * b for a, b in zip(t_new, t)]
        p = next((c for c, x in enumerate(u) if x), None)
        if p is None:
            self.independent = False
            return
        t_new.append(den)
        a = u[p]
        rows = []
        transform = []
        for row, t in zip(self.rows, self.transform):
            c = row[p]
            rows.append([(a * x - c * y) // den for x, y in zip(row, u)])
            transform.append([(a * x - c * y) // den
                              for x, y in zip(t + [0], t_new)])
        rows.append(u)
        transform.append(t_new)
        if a < 0:
            a = -a
            rows = [[-x for x in row] for row in rows]
            transform = [[-x for x in t] for t in transform]
        self.basis.append(v)
        self.pivots.append(p)
        self.rows = rows
        self.transform = transform
        self.den = a

    def _freeze(self):
        """Precompute the columns every query reads."""
        self.basis = tuple(self.basis)
        self.pivots = tuple(self.pivots)
        pivots = set(self.pivots)
        width = len(self.basis[0]) if self.basis else 0
        self._free = tuple((c, tuple(row[c] for row in self.rows))
                           for c in range(width) if c not in pivots)
        self._tcols = tuple(zip(*self.transform))

    def coords(self, v):
        """Coordinates of v in ``basis``, each multiplied by ``den``.

        None when v lies outside the span.  The entries are ints for an
        integer v; a rational v gives Fractions.
        """
        if not self.basis:
            return () if not any(v) else None
        vp = [v[p] for p in self.pivots]
        den = self.den
        for c, col in self._free:
            if den * v[c] != sum(map(mul, vp, col)):
                return None
        return tuple(sum(map(mul, vp, col)) for col in self._tcols)

    def extend(self, candidates):
        """The span of basis + candidates, adopting them greedily in order.

        The result's basis starts with this basis; the adopted candidates
        follow it and complete it to a basis of the larger span.  This
        Span is left unchanged.
        """
        out = Span.__new__(Span)
        out.basis = list(self.basis)
        out.pivots = list(self.pivots)
        out.rows = self.rows
        out.transform = self.transform
        out.den = self.den
        out.independent = self.independent
        for v in candidates:
            out._adopt(v)
        out._freeze()
        return out

    def __repr__(self):
        return f"Span(rank={self.rank}, den={self.den})"


def charpoly(m):
    """Characteristic polynomial det(tI - M), monic, exact.

    Faddeev-LeVerrier: only matrix products and traces, no elimination.
    When every entry is an int the whole computation stays in int, since
    the coefficients are integers and each division by k is exact;
    otherwise it runs over Fraction.
    """
    n = len(m)
    integral = all(type(x) is int for row in m for x in row)
    coeffs = [0] * n + [1]
    mk = identity_matrix(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        tr = sum(mk[i][i] for i in range(n))
        c = -(tr // k) if integral else -Fraction(tr) / k
        coeffs[n - k] = c
        if k < n:
            mk = tuple(tuple(x + c if i == j else x
                             for j, x in enumerate(row))
                       for i, row in enumerate(mk))
    return Poly(coeffs)
