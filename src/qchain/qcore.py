"""q-deformed combinatorial primitives and three-term-recurrence evaluation
of four polynomial families, generic over the scalar backend.

All evaluators are written once against plain arithmetic operators and
work unchanged for float, complex, Fraction, QuadraticNumber and mpmath
scalars.  The four families share one three-term driver,
y_{n+1} = a_n y_n - b_n y_{n-1}, and differ only in (a_n, b_n):

    H_n(x|q)        monic q-Hermite:      x H_n = H_{n+1} + [n]_q H_{n-1}
    h_n(x|q)        continuous q-Hermite: 2x h_n = h_{n+1} + (1-q^n) h_{n-1}
    B_n(y|q)        connection family:    B_{n+1} = -q^n y B_n + q^{n-1} [n]_q B_{n-1}
    p_n(x|y,rho,q)  Al-Salam-Chihara:
        p_{n+1} = (x - rho y q^n) p_n - (1 - rho^2 q^{n-1}) [n]_q p_{n-1}

with H_{-1} = h_{-1} = B_{-1} = p_{-1} = 0 and unit initial values; float or
complex inputs must be finite.  The Gaussian binomials have one source, the
q-Pascal row of _q_binomial_row, read by q_binomial, the connection sum, the
addition formula and the kernel masses.  Pure functions; no global state.
"""

from __future__ import annotations

import cmath
import operator
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
        raise ValueError("q_bracket needs n >= 0")
    total = 0
    power = 1
    for _ in range(n):
        total = total + power
        power = power * q
    return total


def q_factorial(n: int, q):
    """[n]_q! = [1]_q [2]_q ... [n]_q, empty product for n = 0."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    out, bracket, power = 1, 0, 1  # [i]_q and q^i, summed as in q_bracket
    for _ in range(n):
        bracket, power = bracket + power, power * q
        out = out * bracket
    return out


def _q_binomial_row(n: int, q) -> list:
    """[n choose k]_q for k = 0..n by the q-Pascal rule [i+1 choose k] =
    [i choose k-1] + q^k [i choose k], updated in place from the top.  Sums
    and products only: defined at every q, an int q stays int and q = 1
    gives C(n, k)."""
    row, powers = [1] * (n + 1), list(accumulate([q] * n, operator.mul, initial=1))
    for i in range(1, n):  # row[k] = [i choose k] for k <= i
        for k in range(i, 0, -1):
            row[k] = row[k - 1] + powers[k] * row[k]
    return row


def q_binomial(n: int, k: int, q):
    """Gaussian binomial [n choose k]_q, an entry of _q_binomial_row; 0 when k > n."""
    if k < 0:
        raise ValueError("q_binomial needs k >= 0")
    return _q_binomial_row(n, q)[k] if k <= n else 0


def q_pochhammer(a, q, n: int):
    """(a;q)_n = prod_{i=0}^{n-1} (1 - a q^i); supports complex a."""
    if n < 0:
        raise ValueError("q_pochhammer needs n >= 0")
    out = 1
    power = 1
    for _ in range(n):
        out = out * (1 - a * power)
        power = power * q
    return out


def _three_term(n: int, q, family: str, coefficients, **inputs) -> list:
    """y_0 .. y_n of y_{i+1} = a_i y_i - b_i y_{i-1}, y_{-1} = 0, y_0 = 1.

    `coefficients(q^{i-1}, q^i, [i]_q)` returns (a_i, b_i); the powers and
    brackets are carried here, summed as in q_bracket.  q^{-1} is never
    formed: at i = 0 it meets [0]_q = 0, and 0 stands in for it (keeps
    integer q exact).  q and the family's named `inputs` must not be a
    non-finite float or complex (ValueError naming the input).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    for name, value in {**inputs, "q": q}.items():
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ValueError(f"{family} recurrence needs finite inputs, got {name} = {value}")
    seq = [1]
    prev, cur = 0, 1
    power_prev, power, bracket = 0, 1, 0
    try:
        for _ in range(n):
            a, b = coefficients(power_prev, power, bracket)
            prev, cur = cur, a * cur - b * prev
            seq.append(cur)
            power_prev, power, bracket = power, power * q, bracket + power
    finally:  # also on an early exit, e.g. an int coefficient too large for an overflowed float
        _check_finite(seq, family)
    return seq


def eval_H_seq(n: int, x, q) -> list:
    """All monic q-Hermite values H_0(x|q) .. H_n(x|q) in one forward pass."""
    return _three_term(n, q, "H", lambda power_prev, power, bracket: (x, bracket), x=x)


def eval_H(n: int, x, q):
    """H_n(x|q) by forward recurrence."""
    return eval_H_seq(n, x, q)[n]


def eval_h_seq(n: int, x, q) -> list:
    """All continuous q-Hermite values h_0(x|q) .. h_n(x|q)."""
    two_x = 2 * x
    return _three_term(n, q, "h", lambda power_prev, power, bracket: (two_x, 1 - power), x=x)


def eval_h(n: int, x, q):
    """h_n(x|q) by forward recurrence; h_0 = 1, h_1 = 2x."""
    return eval_h_seq(n, x, q)[n]


def eval_B_seq(n: int, y, q) -> list:
    """All connection-family values B_0(y|q) .. B_n(y|q)."""
    return _three_term(n, q, "B", lambda power_prev, power, bracket: (-(power * y), -(power_prev * bracket)), y=y)


def eval_B(n: int, y, q):
    """B_n(y|q) by forward recurrence; B_1 = -y."""
    return eval_B_seq(n, y, q)[n]


def eval_p_seq(n: int, x, y, rho, q) -> list:
    """All Al-Salam-Chihara values p_0 .. p_n at (x | y, rho, q)."""
    rho_y, rho_sq = rho * y, rho * rho
    return _three_term(
        n, q, "p", lambda power_prev, power, bracket: (x - rho_y * power, (1 - rho_sq * power_prev) * bracket),
        x=x, y=y, rho=rho,
    )


def eval_p(n: int, x, y, rho, q):
    """p_n(x|y,rho,q) by forward recurrence; p_1 = x - rho y."""
    return eval_p_seq(n, x, y, rho, q)[n]


def eval_p_expansion(n: int, x, y, rho, q):
    """p_n(x|y,rho,q) through its connection-coefficient expansion

        sum_{k=0}^{n} qbinom(n,k) rho^{n-k} B_{n-k}(y|q) H_k(x|q),

    the binomials from one q-Pascal row: an evaluation route independent of
    the three-term recurrence; the two must agree identically on exact scalars.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    B_seq = eval_B_seq(n, y, q)
    H_seq = eval_H_seq(n, x, q)
    binomials = _q_binomial_row(n, q)
    total = 0
    rho_pow = 1
    for j in range(n + 1):  # j = n - k counts the rho/B exponent
        k = n - j
        total = total + binomials[k] * rho_pow * B_seq[j] * H_seq[k]
        rho_pow = rho_pow * rho
    _check_finite([total], "p-expansion", n)
    return total

