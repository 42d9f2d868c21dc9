"""Check results and the two error bases the command line sorts by.

Validators in this package return a CheckResult rather than a bare bool, so
callers (and the command line) can surface *where* a property failed, not
just that it failed.

Every error that makes a request unanswerable derives from InputError (the
command line exits 2), and every verification that fails while computing
raises a VerificationFailure (exit 1).  Both live here, in a module every
layer already imports, so the command line catches two bases instead of
importing each layer's error classes.  Every number a document carries is
read here, for the same reason: each layer raises its own error class
through :func:`json_int` (indices, ranks, dimensions, coordinates) or
:func:`json_rational` (matrix entries, kernel coefficients).
"""

from __future__ import annotations

from fractions import Fraction


class InputError(ValueError):
    """Malformed input, an impossible request, or an object that lacks a
    property the computation needs."""


class VerificationFailure(ValueError):
    """An identity or consistency check failed during a computation.

    ``interval`` is the interval (i, j) the failure is found on, or None.
    """

    def __init__(self, message, interval):
        super().__init__(message)
        self.interval = interval


def json_int(value, field, error):
    """``value`` when it is an integer, else ``error`` naming ``field``.

    A document's indices and ranks are JSON integers: a float, a string or
    a bool (an int to Python) is refused, never truncated or read as 0/1.
    """
    if type(value) is not int:
        raise error(f"{field} must be an integer, got {value!r}")
    return value


def json_rational(value, field, error):
    """``value`` as an int, or a Fraction where it is not integral, else
    ``error`` naming ``field``.

    A document's rationals are JSON integers or rational strings ("-1",
    "1/2", "0.25"); a float, a bool, another string or a zero denominator
    is refused.  No other function parses a rational string.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            q = Fraction(value)
        except ZeroDivisionError:
            raise error(f"{field} {value!r} has a zero denominator") from None
        except ValueError:
            pass
        else:
            return q.numerator if q.denominator == 1 else q
    raise error(f"{field} must be an integer or a rational string, "
                f"got {value!r}")


class GroupBoundError(InputError):
    """KLS_MAX_GROUP is set to something other than an integer.

    Document builders report other input errors as a malformed document;
    this one names the environment, so they pass it on unchanged.
    """


class CheckResult:
    """Outcome of a structural check.

    ok       -- True when the property holds
    reason   -- short machine-friendly tag ("euler-sum", "not-graded", ...)
    witness  -- offending data (an interval pair, an element, ...) or None
    detail   -- optional human-readable elaboration
    """

    __slots__ = ("ok", "reason", "witness", "detail")

    def __init__(self, ok, reason="", witness=None, detail=""):
        self.ok = bool(ok)
        self.reason = reason
        self.witness = witness
        self.detail = detail

    def __bool__(self):
        return self.ok

    @classmethod
    def passed(cls):
        return cls(True)

    @classmethod
    def failed(cls, reason, witness=None, detail=""):
        return cls(False, reason, witness, detail)

    def __repr__(self):
        if self.ok:
            return "CheckResult(ok)"
        extra = f", witness={self.witness!r}" if self.witness is not None else ""
        return f"CheckResult(fail: {self.reason}{extra})"

    def describe(self):
        if self.ok:
            return "ok"
        parts = [self.reason or "failed"]
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)
