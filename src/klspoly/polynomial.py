"""Exact univariate polynomials over the rationals.

Everything downstream (incidence algebras, Kazhdan-Lusztig-Stanley solvers,
Ehrhart counts) is built on polynomials in one variable t with rational
coefficients.  A coefficient is stored as an ``int`` when its denominator is
1 and as a ``Fraction`` only otherwise, so the integer polynomials that the
Eulerian theory runs on never pay for Fraction arithmetic.  Coefficients are
stored densely, lowest degree first, with trailing zeros trimmed, so equal
polynomials always have equal coefficient tuples.  There are no floats
anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction

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


def _coerce(c):
    """An exact coefficient: an ``int``, or a ``Fraction`` whose denominator
    is not 1.  Accepts int (bool included), Fraction and rational strings."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, str):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


def _poly(cs):
    """The Poly with coefficient list cs, which it takes over.

    The entries are int or Fraction, as arithmetic on coefficients yields;
    trailing zeros are trimmed and Fractions with denominator 1 become ints.
    Every arithmetic result is built here.
    """
    while cs and not cs[-1]:
        cs.pop()
    for k, c in enumerate(cs):
        if type(c) is not int and c.denominator == 1:
            cs[k] = c.numerator
    p = object.__new__(Poly)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


class Poly:
    """A polynomial in t with exact rational coefficients.

    ``Poly([1, 4, 1])`` is 1 + 4t + t^2.  Each entry of ``coeffs`` is an
    ``int`` unless its denominator is not 1, in which case it is a
    ``Fraction``; the representation is canonical, so equality and hashing
    compare values.  Instances are immutable and hashable; arithmetic always
    returns new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, i):
        """Coefficient of t^i (zero beyond the stored degree)."""
        if i < 0:
            raise IndexError("negative degree")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _poly(out)

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

    def shift(self, k):
        """Multiply by t^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return _poly([0] * k + list(self.coeffs))

    def __call__(self, x):
        """Evaluate at a rational point (Horner)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def truncate(self, bound):
        """Drop all terms of degree >= bound."""
        if bound <= 0:
            return Poly()
        return Poly(self.coeffs[:bound])

    def __repr__(self):
        if not self.coeffs:
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
        if not isinstance(data, list):
            raise ValueError("polynomial must be a JSON array of rational strings")
        return cls([Fraction(str(c)) for c in data])


ZERO = Poly()
ONE = Poly([1])
T = Poly([0, 1])


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
    out = [0] * (r + 1)
    for i, c in enumerate(p.coeffs):
        out[r - i] = c
    return _poly(out)


def poly_divmod_t_minus_1(p):
    """Quotient and remainder of p by (t - 1).

    Returns (q, r) with p = (t - 1) q + r; the remainder r = p(1) is a
    number (int or Fraction), not a Poly.
    """
    # synthetic division by root 1, highest degree first
    out = []
    acc = 0
    for c in reversed(p.coeffs):
        acc += c
        out.append(acc)
    rem = out.pop() if out else 0
    out.reverse()
    return _poly(out), rem


def poly_div_t_minus_1(p):
    """Exact division by (t - 1); raises NotDivisible when p(1) != 0."""
    quotient, rem = poly_divmod_t_minus_1(p)
    if rem != 0:
        raise NotDivisible(f"remainder {rem} after division by (t - 1)", Poly([rem]))
    return quotient


def delta_truncate(p, r):
    """First-difference truncation used to pass from symmetric data to its
    lower half.

    For r >= 1 returns p_0 + sum_{i=1}^{floor((r-1)/2)} (p_i - p_{i-1}) t^i,
    i.e. the truncation of (1 - t) * p to degrees strictly below r/2.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    half = (r - 1) // 2
    out = [p.coeff(0)]
    for i in range(1, half + 1):
        out.append(p.coeff(i) - p.coeff(i - 1))
    return Poly(out)


def delta_invert(q, r):
    """Inverse of delta_truncate on symmetric polynomials.

    If p has degree <= r - 1 and satisfies rev(p, r - 1) = p, then
    q = delta_truncate(p, r) determines p via (t - 1) p = rev(q, r) - q.
    This computes that quotient; NotDivisible propagates if q did not come
    from such a p.
    """
    return poly_div_t_minus_1(poly_rev(q, r) - q)
