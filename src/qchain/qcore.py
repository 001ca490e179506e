"""q-deformed combinatorial primitives and three-term-recurrence evaluation
of four polynomial families, generic over the scalar backend.

All evaluators are written once against plain arithmetic operators and
work unchanged for float, complex, Fraction, QuadraticNumber, unreduced
exactnum._Ratio and mpmath scalars.  The four families share one three-term
driver, y_{n+1} = a_n y_n - b_n y_{n-1}, and differ only in (a_n, b_n),
which each builds from one table of q^{n-1}, q^n and [n]_q (_q_table):

    H_n(x|q)        monic q-Hermite:      x H_n = H_{n+1} + [n]_q H_{n-1}
    h_n(x|q)        continuous q-Hermite: 2x h_n = h_{n+1} + (1-q^n) h_{n-1}
    B_n(y|q)        connection family:    B_{n+1} = -q^n y B_n + q^{n-1} [n]_q B_{n-1}
    p_n(x|y,rho,q)  Al-Salam-Chihara:
        p_{n+1} = (x - rho y q^n) p_n - (1 - rho^2 q^{n-1}) [n]_q p_{n-1}

with H_{-1} = h_{-1} = B_{-1} = p_{-1} = 0 and unit initial values; float or
complex inputs must be finite.  The Gaussian binomials have one source, the
q-Pascal row of _q_binomial_row, read by q_binomial, the connection sum, the
addition formula and the kernel masses.  Pure functions; the one global
state is _q_binomial_row's bounded memo of rows, keyed by (n, q, type(q)).
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

__all__ = [
    "q_bracket",
    "q_factorial",
    "q_binomial",
    "q_pochhammer",
    "eval_H",
    "eval_H_seq",
    "eval_h",
    "eval_h_seq",
    "eval_B",
    "eval_B_seq",
    "eval_p",
    "eval_p_seq",
    "eval_p_expansion",
]


def _check_finite(seq: list, family: str, first_degree: int = 0) -> None:
    """Raise OverflowError naming the first degree whose float or complex
    value is not finite (float mode overflows near n ~ 40 at q ~ 2).  inf
    and nan propagate to the last value, so only an overflowed sequence
    is scanned."""
    if isinstance(seq[-1], (float, complex)) and not cmath.isfinite(seq[-1]):
        degree = first_degree + next(i for i, v in enumerate(seq) if not cmath.isfinite(v))
        raise OverflowError(
            f"{family} recurrence overflowed 64-bit floats at degree {degree}; "
            f"use exact (Fraction) inputs"
        )


def q_bracket(n: int, q):
    """[n]_q = 1 + q + ... + q^{n-1}, with [0]_q = 0.

    The summation form keeps q = 1 first-class (no division by 1-q).
    """
    if n < 0:
        raise ValueError(f"q_bracket needs n >= 0, got n = {n}")
    return _q_table(n + 1, q)[n][2]


def q_factorial(n: int, q):
    """[n]_q! = [1]_q [2]_q ... [n]_q, empty product for n = 0: the q-factorial of the paper's q-binomials."""
    if n < 0:
        raise ValueError(f"q_factorial needs n >= 0, got n = {n}")
    return math.prod(bracket for _, _, bracket in _q_table(n + 1, q)[1:])


def _q_binomial_row(n: int, q):
    """[n choose k]_q for k = 0..n by the q-Pascal rule [i+1 choose k] =
    [i choose k-1] + q^k [i choose k], updated in place from the top.  Sums
    and products only: defined at every q, an int q stays int and q = 1
    gives C(n, k).  An int or Fraction q reads its row, an unalterable tuple,
    from one memo, typed so that 4 and Fraction(4) keep their own rows; any
    other q forms a fresh list (an mpmath row depends on the working precision)."""
    return (_exact_q_binomial_row if type(q) is int or type(q) is Fraction else _q_pascal_row)(n, q)


_exact_q_binomial_row = lru_cache(maxsize=64, typed=True)(lambda n, q: tuple(_q_pascal_row(n, q)))


def _q_pascal_row(n: int, q) -> list:
    row, powers = [1] * (n + 1), list(accumulate([q] * n, operator.mul, initial=1))
    for i in range(1, n):  # row[k] = [i choose k] for k <= i
        for k in range(i, 0, -1):
            row[k] = row[k - 1] + powers[k] * row[k]
    return row


def q_binomial(n: int, k: int, q):
    """Gaussian binomial [n choose k]_q, an entry of _q_binomial_row; 0 when k > n."""
    if k < 0:
        raise ValueError(f"q_binomial needs k >= 0, got k = {k}")
    return _q_binomial_row(n, q)[k] if k <= n else 0


def q_pochhammer(a, q, n: int):
    """(a;q)_n = prod_{i=0}^{n-1} (1 - a q^i); supports complex a."""
    if n < 0:
        raise ValueError(f"q_pochhammer needs n >= 0, got n = {n}")
    return math.prod(1 - a * power for _, power, _ in _q_table(n, q))


def _q_table(n: int, q) -> list:
    """(q^{i-1}, q^i, [i]_q) for i = 0..n-1 by sums and products alone, read by
    q_bracket, q_factorial, q_pochhammer and every family's (a_i, b_i).  At
    i = 0, 0 stands in for q^{-1}, which meets [0]_q = 0 (keeps int q exact)."""
    if n < 0:
        raise ValueError(f"_q_table needs degree n >= 0, got n = {n}")
    powers = list(accumulate([q] * n, operator.mul, initial=1))
    return list(zip([0] + powers, powers[:n], accumulate(powers, operator.add, initial=0)))


def _three_term(family: str, coefficients, **inputs) -> list:
    """y_0 .. y_n of y_{i+1} = a_i y_i - b_i y_{i-1}, y_{-1} = 0, y_0 = 1, for the
    n pairs (a_i, b_i) drawn one by one from `coefficients`.  The named `inputs`,
    q among them, must not be a non-finite float or complex (ValueError naming it)."""
    for name, value in inputs.items():
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ValueError(f"{family} recurrence needs finite inputs, got {name} = {value}")
    seq = [1]
    prev, cur = 0, 1
    try:
        for a, b in coefficients:
            prev, cur = cur, a * cur - b * prev
            seq.append(cur)
    finally:  # also on an early exit, e.g. an int coefficient too large for an overflowed float
        _check_finite(seq, family)
    return seq


def eval_H_seq(n: int, x, q) -> list:
    """All monic q-Hermite values H_0(x|q) .. H_n(x|q) in one forward pass."""
    return _three_term("H", ((x, bracket) for _, _, bracket in _q_table(n, q)), x=x, q=q)


def eval_H(n: int, x, q):
    """H_n(x|q) by forward recurrence."""
    return eval_H_seq(n, x, q)[n]


def eval_h_seq(n: int, x, q) -> list:
    """All continuous q-Hermite values h_0(x|q) .. h_n(x|q)."""
    two_x = 2 * x
    return _three_term("h", ((two_x, 1 - power) for _, power, _ in _q_table(n, q)), x=x, q=q)


def eval_h(n: int, x, q):
    """h_n(x|q) by forward recurrence; h_0 = 1, h_1 = 2x."""
    return eval_h_seq(n, x, q)[n]


def eval_B_seq(n: int, y, q) -> list:
    """All connection-family values B_0(y|q) .. B_n(y|q)."""
    return _three_term("B", ((-(power * y), -(prev * bracket)) for prev, power, bracket in _q_table(n, q)), y=y, q=q)


def eval_B(n: int, y, q):
    """B_n(y|q) by forward recurrence; B_1 = -y."""
    return eval_B_seq(n, y, q)[n]


def _p_parts(n: int, rho, q):
    """The p recurrence's b_i = (1 - rho^2 q^{i-1}) [i]_q and y -> rho y q^i
    (a_i = x - rho y q^i), both lazy, for callers forming them once."""
    table = _q_table(n, q)
    b = ((1 - rho * rho * power_prev) * bracket for power_prev, _, bracket in table)
    return b, lambda y: (rho * y * power for _, power, _ in table)


def _p_from_parts(x, shifts, b, /, **inputs) -> list:
    """p_0 .. p_n from the rho y q^i and b_i of _p_parts."""
    return _three_term("p", zip((x - shift for shift in shifts), b), **inputs)


def eval_p_seq(n: int, x, y, rho, q) -> list:
    """All Al-Salam-Chihara values p_0 .. p_n at (x | y, rho, q)."""
    b, shifts = _p_parts(n, rho, q)
    return _p_from_parts(x, shifts(y), b, x=x, y=y, rho=rho, q=q)


def eval_p(n: int, x, y, rho, q):
    """p_n(x|y,rho,q) by forward recurrence; p_1 = x - rho y."""
    return eval_p_seq(n, x, y, rho, q)[n]


def _expansion_weights(n: int, rho, q) -> list:
    """qbinom(n, n-j) rho^j, j = 0..n, from one q-Pascal row: the connection sum's x- and y-free weights."""
    binomials = _q_binomial_row(n, q)
    return [binomials[n - j] * rho_pow for j, rho_pow in enumerate(accumulate([rho] * n, operator.mul, initial=1))]


def _expansion(weights: list, left: list, right: list):
    """sum_j weights[j] left_j right_{n-j}: the connection sum at one point
    with left = B(y) and right = H(x), and the addition formula's h-sum."""
    total = 0
    for weight, a, b in zip(weights, left, reversed(right)):
        total = total + weight * a * b
    _check_finite([total], "p-expansion", len(weights) - 1)
    return total


def eval_p_expansion(n: int, x, y, rho, q):
    """p_n(x|y,rho,q) through its connection-coefficient expansion

        sum_{k=0}^{n} qbinom(n,k) rho^{n-k} B_{n-k}(y|q) H_k(x|q),

    the binomials from one q-Pascal row: an evaluation route independent of
    the three-term recurrence; the two must agree identically on exact scalars.
    """
    B_seq, H_seq = eval_B_seq(n, y, q), eval_H_seq(n, x, q)  # n < 0 raises in _q_table
    return _expansion(_expansion_weights(n, rho, q), B_seq, H_seq)
