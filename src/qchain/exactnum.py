"""Exact scalar backends: arbitrary-precision rationals and the quadratic
extension field Q(sqrt(D)).

``Rational`` is an alias for :class:`fractions.Fraction`, which already
provides reduced arbitrary-precision rationals.  :class:`QuadraticNumber`
adjoins a single square root ``sqrt(D)`` to the rationals; every quantity
the exact pipeline produces (support points, masses, radicals) lives in
one such field, fixed per run by the initial state.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Union

Rational = Fraction

__all__ = [
    "Rational",
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
    x = Fraction(x)
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _log2(x: Fraction) -> int:
    """log2 |x| to within 1 for a nonzero rational (-1 at zero)."""
    return x.numerator.bit_length() - x.denominator.bit_length()


class QuadraticNumber:
    """An element a + b*sqrt(D) of the real quadratic field Q(sqrt(D)).

    ``a``, ``b``, ``D`` are rationals with D >= 0.  Arithmetic only
    combines numbers sharing the same D (plain ints/Fractions are lifted
    automatically).  Comparisons and sign are decided by exact rational
    inequalities, never by floating point.

    When D happens to be a perfect rational square the field degenerates
    to Q and the (a, b) representation is no longer unique; equality then
    compares the represented values a + b*sqrt(D) instead of components.
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b, D):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.D = Fraction(D)
        if self.D < 0:
            raise ValueError(f"negative discriminant {self.D}: field must be real")

    def _lift(self, other) -> "QuadraticNumber":
        if isinstance(other, QuadraticNumber):
            if other.D != self.D:
                raise DiscriminantMismatch(f"sqrt({self.D}) vs sqrt({other.D})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(other, 0, self.D)
        return NotImplemented

    # -- field arithmetic -------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadraticNumber(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadraticNumber(self.a - o.a, self.b - o.b, self.D)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadraticNumber(o.a - self.a, o.b - self.b, self.D)

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.D)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadraticNumber(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        # multiply by the conjugate; the norm a^2 - b^2 D vanishes only at 0
        nrm = o.a * o.a - o.b * o.b * o.D
        if nrm == 0:
            if o.a == 0 and o.b == 0:
                raise ZeroDivisionError("division by zero quadratic number")
            # degenerate field: a = -b*sqrt(D) with D a perfect square
            val = o._degenerate_value()
            if val == 0:
                raise ZeroDivisionError("division by zero quadratic number")
            return QuadraticNumber(self._degenerate_value() / val, 0, self.D)
        return self * QuadraticNumber(o.a / nrm, -o.b / nrm, self.D)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / self ** (-n)
        out = QuadraticNumber(1, 0, self.D)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QuadraticNumber":
        return QuadraticNumber(self.a, -self.b, self.D)

    # -- exact comparisons ------------------------------------------------

    def _degenerate_root(self) -> Fraction | None:
        return rational_sqrt(self.D)

    def _degenerate_value(self) -> Fraction:
        s = self._degenerate_root()
        if s is None:
            raise ArithmeticError("value is irrational")
        return self.a + self.b * s

    def sign(self) -> int:
        """Sign of a + b*sqrt(D), computed by rational comparisons alone."""
        s = self._degenerate_root()
        if s is not None:
            v = self.a + self.b * s
            return (v > 0) - (v < 0)
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 D
        lhs, rhs = self.a * self.a, self.b * self.b * self.D
        if lhs == rhs:
            return 0
        bigger_rational = lhs > rhs
        return (1 if bigger_rational else -1) if self.a > 0 else (-1 if bigger_rational else 1)

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if self.a == o.a and self.b == o.b:
            return True
        if self._degenerate_root() is not None:
            return self._degenerate_value() == o._degenerate_value()
        return False

    def __lt__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() >= 0

    def __bool__(self):
        return self.sign() != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        # a + b sqrt(D) = 2^e (a' + b' sqrt(D')) with |a'|, |b' sqrt(D')| <~ 1
        # and D' near 1, so no term underflows or overflows on conversion
        t = _log2(self.D) // 2
        D = self.D / Fraction(4) ** t
        e = max((_log2(x) for x in (self.a, self.b * Fraction(2) ** t) if x), default=0)
        a, b = self.a / Fraction(2) ** e, self.b * Fraction(2) ** (t - e)
        root = math.sqrt(float(D))
        if a < 0 < b or b < 0 < a:
            # a and b*sqrt(D) cancel: divide the exact norm, scaled apart, by the conjugate
            norm = a * a - b * b * D
            f = _log2(norm)
            return math.ldexp(float(norm / Fraction(2) ** f) / (float(a) - float(b) * root), e + f)
        return math.ldexp(float(a) + float(b) * root, e)

    def __repr__(self):
        return f"QuadraticNumber({self.a}, {self.b}, {self.D})"

    def __str__(self):
        sign = "-" if self.b < 0 else "+"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.D})"


def quad_sqrt(v: QuadraticNumber) -> QuadraticNumber:
    """Nonnegative square root of v inside Q(sqrt(D)), when one exists.

    Solves c^2 + d^2 D = a, 2 c d = b over the rationals; the resulting
    quadratic in c^2 has two candidate roots and both are tested.  Raises
    NotAPerfectSquare when v is negative or no root lies in the field
    (callers decide whether to fall back to floats).
    """
    a, b, D = v.a, v.b, v.D
    s = rational_sqrt(D)
    if s is not None:
        # degenerate field Q(sqrt(D)) = Q
        r = rational_sqrt(a + b * s)
        if r is None:
            raise NotAPerfectSquare(f"{v} has no square root in Q")
        return QuadraticNumber(r, 0, D)
    if v.sign() < 0:
        raise NotAPerfectSquare(f"{v} is negative")
    if b == 0:
        r = rational_sqrt(a)
        if r is not None:
            return QuadraticNumber(r, 0, D)
        if D != 0:
            r = rational_sqrt(a / D)
            if r is not None:
                return QuadraticNumber(0, r, D)
        raise NotAPerfectSquare(f"{v} has no square root in Q(sqrt({D}))")
    disc = a * a - b * b * D
    t = rational_sqrt(disc)
    if t is None:
        raise NotAPerfectSquare(f"{v} has no square root in Q(sqrt({D}))")
    for c_sq in ((a + t) / 2, (a - t) / 2):
        c = rational_sqrt(c_sq)
        if c is None or c == 0:
            continue
        w = QuadraticNumber(c, b / (2 * c), D)
        if w * w == v:
            return w if w.sign() >= 0 else -w
    raise NotAPerfectSquare(f"{v} has no square root in Q(sqrt({D}))")


Scalar = Union[int, float, complex, Fraction, QuadraticNumber]


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
    """Square root matching the backend of v.

    Floats use math.sqrt, complex uses cmath.sqrt; rationals and quadratic
    numbers must be perfect squares in their field (NotAPerfectSquare
    otherwise).
    """
    if isinstance(v, QuadraticNumber):
        return quad_sqrt(v)
    if isinstance(v, (int, Fraction)):
        r = rational_sqrt(v)
        if r is None:
            raise NotAPerfectSquare(f"{v} is not a perfect rational square")
        return r
    if isinstance(v, complex):
        return cmath.sqrt(v)
    return math.sqrt(v)


def format_scalar(v) -> str:
    """Render a scalar for serialization: "p/q" rationals, "a + b*sqrt(D)"
    quadratic numbers (pure-rational ones collapse to "p/q"), repr floats."""
    if isinstance(v, QuadraticNumber):
        if v.b == 0:
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
