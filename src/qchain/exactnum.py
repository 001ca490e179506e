"""Exact scalar backends on the standard library alone: arbitrary-precision
rationals and the quadratic extension field Q(sqrt(D)).

Rationals are :class:`fractions.Fraction`.  Every quantity the exact
pipeline produces (support points, masses, radicals) lives in one field
Q(sqrt(D)), fixed per run by the initial state; :class:`QuadraticNumber` holds
it as reduced integers (A + B*sqrt(N))/C, so a field operation is a few
integer products and one gcd, with no Fraction in between.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

__all__ = [
    "QuadraticNumber",
    "DiscriminantMismatch",
    "NotAPerfectSquare",
    "rational_sqrt",
    "quad_sqrt",
    "scalar_sqrt",
    "format_scalar",
    "parse_exact",
]


class DiscriminantMismatch(ValueError):
    """Arithmetic attempted between quadratic numbers over different fields."""


class NotAPerfectSquare(ArithmeticError):
    """The requested square root does not exist in the exact field."""


def rational_sqrt(x) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if type(x) is not Fraction:  # Fraction(Fraction) would pay an ABC check
        x = Fraction(x)
    if x.numerator < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _on_coords(op):
    """A binary method running op(self, A, B, C) on the integer coordinates
    of the other operand: those of a QuadraticNumber of the same D, or
    (p, 0, q) for an int, bool or Fraction p/q; NotImplemented otherwise."""

    @functools.wraps(op)
    def method(self, other):
        if type(other) is QuadraticNumber:
            if other._F is not self._F and other._F[:2] != self._F[:2]:
                raise DiscriminantMismatch(f"sqrt({self.D}) vs sqrt({other.D})")
            return op(self, other._A, other._B, other._C)
        if isinstance(other, (int, Fraction)):
            return op(self, other.numerator, 0, other.denominator)
        return NotImplemented

    return method


@functools.total_ordering
class QuadraticNumber:
    """An element a + b*sqrt(D) of the real quadratic field Q(sqrt(D)).

    Stored as reduced integers (A + B*sqrt(N))/C with N = D.numerator *
    D.denominator (sqrt(D) = sqrt(N)/D.denominator), C > 0 and gcd(A, B,
    C) = 1; ``a``, ``b`` and the given ``D`` read back as Fractions.  Each
    value has one representation: B != 0 only when N is not a perfect
    square, which one isqrt(N) tests when a value is built from outside
    a, b, D (a square field folds into Q).  Arithmetic within one field
    never needs that test and builds QuadraticNumber(A, B, (C, field));
    sign and comparisons are integer inequalities, never floating point.
    """

    __slots__ = ("_A", "_B", "_C", "_F")

    def __init__(self, a, b, D):
        if type(D) is tuple:  # (C, field) from arithmetic, with integers a, b
            C, self._F = D
        else:
            a, b, D = Fraction(a), Fraction(b), Fraction(D)
            if D < 0:
                raise ValueError(f"negative discriminant {D}: field must be real")
            d = D.denominator
            N = D.numerator * d
            self._F = (N, d, D)  # the field: sqrt(D) = sqrt(N)/d
            a, b, C = a.numerator * b.denominator * d, b.numerator * a.denominator, a.denominator * b.denominator * d
            s = math.isqrt(N)
            if s * s == N:  # the field is Q: fold b*sqrt(D) into a
                a, b = a + b * s, 0
        g = math.gcd(a, b, C) if C > 0 else -math.gcd(a, b, C)
        if g != 1:
            a, b, C = a // g, b // g, C // g
        self._A, self._B, self._C = a, b, C

    a = property(lambda self: Fraction(self._A, self._C))
    b = property(lambda self: Fraction(self._B * self._F[1], self._C))
    D = property(lambda self: self._F[2])

    # -- field arithmetic -------------------------------------------------

    @_on_coords
    def __add__(self, A, B, C):
        return QuadraticNumber(self._A * C + A * self._C, self._B * C + B * self._C, (self._C * C, self._F))

    __radd__ = __add__

    @_on_coords
    def __sub__(self, A, B, C):
        return QuadraticNumber(self._A * C - A * self._C, self._B * C - B * self._C, (self._C * C, self._F))

    @_on_coords
    def __rsub__(self, A, B, C):
        return QuadraticNumber(A * self._C - self._A * C, B * self._C - self._B * C, (self._C * C, self._F))

    def __neg__(self):
        return QuadraticNumber(-self._A, -self._B, (self._C, self._F))

    @_on_coords
    def __mul__(self, A, B, C):
        sA, sB = self._A, self._B
        return QuadraticNumber(sA * A + sB * B * self._F[0], sA * B + sB * A, (self._C * C, self._F))

    __rmul__ = __mul__

    @_on_coords
    def __truediv__(self, A, B, C):
        return _quotient(self._A, self._B, self._C, A, B, C, self._F)

    @_on_coords
    def __rtruediv__(self, A, B, C):
        return _quotient(A, B, C, self._A, self._B, self._C, self._F)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / self ** (-n)
        out, base = QuadraticNumber(1, 0, (1, self._F)), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QuadraticNumber":
        return QuadraticNumber(self._A, -self._B, (self._C, self._F))

    # -- exact comparisons (total_ordering adds <=, >, >=) ------------------

    def sign(self) -> int:
        """Sign of a + b*sqrt(D), computed by integer comparisons alone."""
        return _sign(self._A, self._B, self._F[0])

    @_on_coords
    def __eq__(self, A, B, C):
        return A == self._A and B == self._B and C == self._C

    @_on_coords
    def __lt__(self, A, B, C):
        return _sign(self._A * C - A * self._C, self._B * C - B * self._C, self._F[0]) < 0

    def __hash__(self):  # a value with B = 0 equals the Fraction A/C, so it hashes as that
        return hash((self._A, self._B, self._C) if self._B else Fraction(self._A, self._C))

    def __bool__(self):
        return bool(self._A or self._B)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        # correctly rounded: r = isqrt(B^2 N 4^p) puts |B| sqrt(N) 2^p in (r, r + 1), and
        # rounding is monotone, so once both ends round to one double the value does too
        A, B, C = self._A, self._B, self._C
        if not B:
            return A / C
        BBN = B * B * self._F[0]
        cancel = A and (A < 0) != (B < 0)  # A + B sqrt(N) cancels: divide the norm by the conjugate
        p = max(0, 65 - BBN.bit_length() // 2)  # r carries at least 64 bits
        while True:
            r = math.isqrt(BBN << 2 * p)
            ends = (r, r + 1) if B > 0 else (-r, -r - 1)
            lo, hi = (((A * A - BBN) << p) / (C * ((A << p) - s)) if cancel else ((A << p) + s) / (C << p) for s in ends)
            if lo == hi:
                return lo
            p += 64

    def __repr__(self):
        return f"QuadraticNumber({self.a}, {self.b}, {self.D})"

    def __str__(self):
        b = self.b
        return f"{self.a} {'-' if b < 0 else '+'} {abs(b)}*sqrt({self.D})"


def _sign(A: int, B: int, N: int) -> int:
    """Sign of A + B*sqrt(N), where B != 0 only when sqrt(N) is irrational."""
    if not B:
        return (A > 0) - (A < 0)
    # A^2 != B^2 N: B*sqrt(N) sets the sign unless A has the other sign and the larger square
    lead = A if (A > 0) != (B > 0) and A * A > B * B * N else B
    return 1 if lead > 0 else -1


def _quotient(A1, B1, C1, A2, B2, C2, F) -> QuadraticNumber:
    """(A1 + B1 sqrt(N))/C1 over (A2 + B2 sqrt(N))/C2 in the field F: times
    the conjugate of the divisor, whose norm A2^2 - B2^2 N vanishes only at 0."""
    N = F[0]
    norm = A2 * A2 - B2 * B2 * N
    if norm == 0:
        raise ZeroDivisionError("division by zero quadratic number")
    return QuadraticNumber((A1 * A2 - B1 * B2 * N) * C2, (B1 * A2 - A1 * B2) * C2, (C1 * norm, F))


def quad_sqrt(v: QuadraticNumber) -> QuadraticNumber:
    """Nonnegative square root of v = (A + B sqrt(N))/C in its field, from the integers.

    At B = 0 it is sqrt(AC)/C or sqrt(ACN)/(CN) sqrt(N); otherwise A^2 - B^2 N = T^2
    and 2C(A + T) or 2C(A - T) = s^2 give (s^2 + 2CB sqrt(N))/(2Cs), whose square is
    v by construction.  Raises NotAPerfectSquare when v is negative or no root lies
    in the field (callers decide whether to fall back to floats).
    """
    A, B, C, (N, _, D) = v._A, v._B, v._C, v._F
    if v.sign() < 0:
        raise NotAPerfectSquare(f"{v} is negative")
    if not B:
        s = math.isqrt(A * C)
        if s * s == A * C:
            return QuadraticNumber(s, 0, (C, v._F))
        s = math.isqrt(A * C * N)
        if N and s * s == A * C * N:
            return QuadraticNumber(0, s, (C * N, v._F))
    elif A * A >= B * B * N:
        T = math.isqrt(A * A - B * B * N)
        for u in (A + T, A - T) if T * T == A * A - B * B * N else ():
            s = math.isqrt(2 * C * u)
            if s * s == 2 * C * u:
                w = QuadraticNumber(s * s, 2 * C * B, (2 * C * s, v._F))
                return w if w.sign() >= 0 else -w
    raise NotAPerfectSquare(f"{v} has no square root in Q(sqrt({D}))")


_EXACT_TYPES = frozenset((int, bool, Fraction, QuadraticNumber))


def _is_exact(*values) -> bool:
    """The lane rule: a computation is exact iff q and every input coordinate
    is an int, Fraction or QuadraticNumber; one float puts it in the float lane.

    Float kernel builds ask this several times per chain step, so it tests
    the type itself: isinstance against Fraction goes through its ABC
    metaclass and costs several times as much."""
    for v in values:
        if type(v) not in _EXACT_TYPES:
            return False
    return True


def scalar_sqrt(v):
    """Square root matching the backend of v: the one place sqrt(q) is formed.

    In the exact lane (_is_exact) a rational q must be a perfect rational
    square (NotAPerfectSquare naming q otherwise) and a quadratic number a
    perfect square in its field; floats use math.sqrt, complex cmath.sqrt
    and any other number its own ** 0.5 (an mpmath mpf: mpmath.sqrt's bits).
    """
    if not _is_exact(v):
        if isinstance(v, float):
            return math.sqrt(v)
        return cmath.sqrt(v) if isinstance(v, complex) else v**0.5
    if isinstance(v, QuadraticNumber):
        return quad_sqrt(v)
    r = rational_sqrt(v)
    if r is None:
        raise NotAPerfectSquare(f"exact mode needs q to be a perfect rational square, got {v}")
    return r


def format_scalar(v) -> str:
    """Render a scalar for serialization: "p/q" rationals, "a + b*sqrt(D)"
    quadratic numbers (pure-rational ones collapse to "p/q"), repr floats."""
    if isinstance(v, QuadraticNumber):
        if not v._B:
            return str(v.a)
        return str(v)
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    return repr(v)


def parse_exact(s: str):
    """Parse "p/q" into a Fraction or "a + b*sqrt(D)" into a QuadraticNumber."""
    s = s.strip()
    if "sqrt" not in s:
        return Fraction(s)
    head, _, tail = s.partition("sqrt")
    tail = tail.strip()
    if not (tail.startswith("(") and tail.endswith(")")):
        raise ValueError(f"malformed quadratic literal: {s!r}")
    D = Fraction(tail[1:-1])
    head = head.strip()
    if not head.endswith("*"):
        raise ValueError(f"malformed quadratic literal: {s!r}")
    head = head[:-1].rstrip()
    # split "a + b" / "a - b" on the last top-level sign
    for i in range(len(head) - 1, 0, -1):
        if head[i] in "+-" and head[i - 1] == " ":
            a = Fraction(head[:i].strip())
            b = Fraction(head[i:].replace(" ", ""))
            return QuadraticNumber(a, b, D)
    return QuadraticNumber(0, Fraction(head), D)
