"""Exact univariate polynomials over the rationals.

Everything downstream (incidence algebras, Kazhdan-Lusztig-Stanley solvers,
Ehrhart counts) is built on polynomials in one variable t with rational
coefficients.  A polynomial is stored as one tuple of ``int`` numerators,
lowest degree first with trailing zeros trimmed, over one common ``int``
denominator ``den > 0``, reduced so that gcd(den, *num) == 1.  The form is
canonical (zero is ``((), 1)``), so equal polynomials have equal ``num`` and
``den``.  Arithmetic is integer arithmetic on numerators followed by at most
one gcd: an integer polynomial (``den == 1``) never pays for rational
arithmetic, and a rational one never builds a ``Fraction`` per coefficient.
There are no floats anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .status import json_rational

#: Degree of the zero polynomial.  A sentinel that compares below every
#: integer; deliberately not -1, so that deg(p) <= r reads correctly even
#: for r = 0.
NEG_INF = float("-inf")


class DegreeExceedsRank(ValueError):
    """Raised when reversing a polynomial whose degree exceeds the given rank."""


class NotDivisible(ValueError):
    """Raised when exact division leaves a remainder.

    The offending remainder is attached as ``.remainder``.
    """

    def __init__(self, message, remainder):
        super().__init__(message)
        self.remainder = remainder


def _to_common_denominator(cs):
    """Rewrite the exact coefficients cs as int numerators, in place, over
    the lcm of their denominators, and return that denominator.

    Each is an int (bool included), a Fraction or a string read by
    :func:`klspoly.status.json_rational`; another type raises TypeError.

    The lcm of reduced denominators leaves gcd(den, *num) == 1, so the
    result needs no further reduction.
    """
    den = 1
    for k, c in enumerate(cs):
        if type(c) is int:
            if den != 1:
                cs[k] = c * den
            continue
        if isinstance(c, str):
            c = json_rational(c, "coefficient", ValueError)
        elif not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot use {type(c).__name__} as a coefficient")
        d = c.denominator
        if den % d:
            # raise the common denominator and rescale the entries before k
            m = d // gcd(den, d)
            for j in range(k):
                cs[j] *= m
            den *= m
        cs[k] = c.numerator * (den // d)
    return den


def _exact(c, den):
    """The number c/den: an int when den divides c, else a Fraction."""
    return c // den if not c % den else Fraction(c, den)


def _poly(num, den=1):
    """The Poly num/den, taking over the int list num.

    Trailing zeros are trimmed and a denominator other than 1 is reduced
    against the numerators.  Every arithmetic result is built here or, when
    it is already trimmed and reduced, by :func:`_raw`; a sum of products
    comes here once, from :func:`poly_dot` or, for every interval of an
    incidence product at once, from ``incidence.convolve``.
    """
    while num and not num[-1]:
        num.pop()
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [c // g for c in num]
    p = _new(Poly)
    _set_num(p, tuple(num))
    _set_den(p, den)
    return p


def _raw(num, den):
    """The Poly num/den from a trimmed int tuple already reduced against den."""
    p = _new(Poly)
    _set_num(p, num)
    _set_den(p, den)
    return p


class Poly:
    """A polynomial in t with exact rational coefficients.

    ``Poly([1, 4, 1])`` is 1 + 4t + t^2 and ``Poly(["1/2", 1])`` is
    1/2 + t.  The value is ``num`` (a tuple of ints, trailing zeros
    trimmed) divided by ``den`` (an int > 0 with gcd(den, *num) == 1); the
    representation is canonical, so equality and hashing compare values.
    ``coeffs`` is the exact coefficient view: an ``int`` where the
    denominator divides the numerator and a ``Fraction`` otherwise.
    Instances are immutable and hashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        num = list(coeffs)
        den = 1
        for c in num:
            if type(c) is not int:
                den = _to_common_denominator(num)
                break
        while num and not num[-1]:
            num.pop()
        _set_num(self, tuple(num))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self):
        """The coefficients, lowest degree first, each an int or a Fraction."""
        den = self.den
        if den == 1:
            return self.num
        return tuple(_exact(c, den) for c in self.num)

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    def __bool__(self):
        return bool(self.num)

    def coeff(self, i):
        """Coefficient of t^i (zero beyond the stored degree)."""
        if i < 0:
            raise IndexError("negative degree")
        num = self.num
        if i >= len(num):
            return 0
        return num[i] if self.den == 1 else _exact(num[i], self.den)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if type(other) is not Poly:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        den = self.den
        if den != other.den:
            if not a:
                return other
            if not b:
                return self
            # scale both numerator vectors to the lcm of the denominators
            g = gcd(den, other.den)
            sa, sb = other.den // g, den // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            den *= sa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _raw(tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Poly:
            other = self._lift(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Poly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @staticmethod
    def _lift(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([other])
        return NotImplemented

    def __call__(self, x):
        """Evaluate at a rational point (Horner)."""
        acc = Fraction(0)
        for c in reversed(self.num):
            acc = acc * x + c
        return acc / self.den

    def __repr__(self):
        if not self.num:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return "Poly(" + " + ".join(parts) + ")"

    # -- serialization ----------------------------------------------------

    def to_json(self):
        """Coefficient list, lowest degree first, each as an exact string.

        Integers serialize without a slash; other rationals as "num/den".
        """
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data):
        """The polynomial of a JSON array of coefficients.

        Each entry is read by :func:`klspoly.status.json_rational`;
        anything else, a float, a bool or a zero denominator included,
        raises ValueError.
        """
        if not isinstance(data, list):
            raise ValueError(
                "polynomial must be a JSON array of rational strings, "
                f"got {data!r}")
        return cls([json_rational(c, "coefficient", ValueError)
                    for c in data])


_new = object.__new__
_set_num = Poly.num.__set__
_set_den = Poly.den.__set__

ZERO = Poly()
ONE = Poly([1])
T = Poly([0, 1])


def poly_dot(pairs):
    """The sum of a * b over an iterable of Poly pairs (a, b), reduced once.

    The products' int numerators are accumulated over one running common
    denominator, which is raised to the lcm (rescaling the accumulated
    numerators) only when a product's denominator does not divide it.
    The result goes through :func:`_poly` once, so the sum is canonical;
    the empty sum is zero.
    """
    out = []
    den = 1
    for a, b in pairs:
        an, bn = a.num, b.num
        if not an or not bn:
            continue
        d = a.den * b.den
        if d != den:
            if den % d:
                m = d // gcd(den, d)
                out = [c * m for c in out]
                den *= m
            if d != den:
                scale = den // d
                an = [x * scale for x in an]
        # the shorter factor drives the outer loop
        if len(an) < len(bn):
            an, bn = bn, an
        size = len(an) + len(bn) - 1
        if len(out) < size:
            out += [0] * (size - len(out))
        for k, y in enumerate(bn):
            if y:
                for i, x in enumerate(an, k):
                    out[i] += x * y
    return _poly(out, den)


def poly_rev(p, r):
    """The degree-r reversal t^r * p(1/t).

    Requires deg(p) <= r; otherwise raises DegreeExceedsRank.  Applying it
    twice with the same r is the identity, and it is multiplicative:
    rev(p*q, r+s) = rev(p, r)*rev(q, s).
    """
    if r < 0:
        raise DegreeExceedsRank(f"rank must be nonnegative, got {r}")
    if p.degree > r:
        raise DegreeExceedsRank(f"degree {p.degree} exceeds rank {r}")
    num = p.num
    if not num:
        return p
    # pad up to degree r, reverse, and drop the zeros that were p's low terms
    out = list(reversed(num))
    while not out[-1]:
        out.pop()
    return _raw((0,) * (r + 1 - len(num)) + tuple(out), p.den)


def poly_div_t_minus_1(p):
    """Exact division by (t - 1); raises NotDivisible when p(1) != 0.

    The remainder p(1) is attached to the error as a constant Poly.
    """
    # synthetic division by root 1 on the numerators, highest degree first
    out = []
    acc = 0
    for c in reversed(p.num):
        acc += c
        out.append(acc)
    rem = out.pop() if out else 0
    if rem:
        rem = _exact(rem, p.den)
        raise NotDivisible(f"remainder {rem} after division by (t - 1)",
                           Poly([rem]))
    out.reverse()
    return _poly(out, p.den)


def delta_truncate(p, r):
    """First-difference truncation used to pass from symmetric data to its
    lower half.

    For r >= 1 returns p_0 + sum_{i=1}^{floor((r-1)/2)} (p_i - p_{i-1}) t^i,
    i.e. the truncation of (1 - t) * p to degrees strictly below r/2.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    num = p.num + (0,) * ((r + 1) // 2)
    out = [num[0]]
    for i in range(1, (r - 1) // 2 + 1):
        out.append(num[i] - num[i - 1])
    return _poly(out, p.den)


def delta_invert(q, r):
    """Inverse of delta_truncate on symmetric polynomials.

    If p has degree <= r - 1 and satisfies rev(p, r - 1) = p, then
    q = delta_truncate(p, r) determines p via (t - 1) p = rev(q, r) - q.
    This computes that quotient; NotDivisible propagates if q did not come
    from such a p.
    """
    return poly_div_t_minus_1(poly_rev(q, r) - q)
