"""q-combinatorics and the four recurrence families.

Derived expectations are frozen from independent oracles: direct sums and
products for the q-symbols, finite differences for leading coefficients,
and the connection-coefficient expansion as a second route to p_n.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.qcore import (
    eval_B,
    eval_B_seq,
    eval_H,
    eval_H_seq,
    eval_h,
    eval_h_seq,
    eval_p,
    eval_p_expansion,
    eval_p_seq,
    q_binomial,
    q_bracket,
    q_factorial,
    q_pochhammer,
)
from qchain.qcore import _exact_q_binomial_row, _q_binomial_row, _q_pascal_row

rational_q = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=12)
rational_pts = st.fractions(min_value=-4, max_value=4, max_denominator=12)


class TestQSymbols:
    def test_bracket_base_cases(self):
        q = Fraction(9, 4)
        assert q_bracket(0, q) == 0
        assert q_bracket(1, q) == 1

    def test_bracket_direct_sum(self):
        assert q_bracket(3, 2) == 1 + 2 + 4

    def test_bracket_negative_degree(self):
        with pytest.raises(ValueError):
            q_bracket(-1, Fraction(2))

    def test_factorial(self):
        # [3]_2! = 1 * 3 * 7
        assert q_factorial(3, 2) == 21
        assert q_factorial(0, Fraction(5)) == 1

    def test_binomial_edges(self):
        q = Fraction(3, 2)
        assert q_binomial(7, 0, q) == 1
        assert q_binomial(4, 7, q) == 0
        with pytest.raises(ValueError):
            q_binomial(4, -1, q)

    def test_binomial_two_choose_one(self):
        for q in (Fraction(5), Fraction(2, 3)):
            assert q_binomial(2, 1, q) == 1 + q

    def test_binomial_four_choose_two(self):
        # brute force: (q,q)_4 / (q,q)_2^2 at q = 2 gives 35
        q = 2
        brute = q_pochhammer(q, q, 4) / q_pochhammer(q, q, 2) ** 2
        assert brute == 35
        assert q_binomial(4, 2, 2) == 35

    def test_binomial_at_q_one(self):
        assert q_binomial(6, 2, Fraction(1)) == math.comb(6, 2)

    @given(q=rational_q)
    @settings(max_examples=30, deadline=None)
    def test_pochhammer_factorial_identity(self, q):
        # (q;q)_n = (1-q)^n [n]_q!
        for n in range(17):
            assert q_pochhammer(q, q, n) == (1 - q) ** n * q_factorial(n, q)

    @given(q=rational_q)
    @settings(max_examples=30, deadline=None)
    def test_binomial_pochhammer_form(self, q):
        if q == 1:
            return
        for n in range(9):
            for k in range(n + 1):
                poch = q_pochhammer(q, q, n) / (q_pochhammer(q, q, k) * q_pochhammer(q, q, n - k))
                assert q_binomial(n, k, q) == poch

    def test_pochhammer_base_cases(self):
        q = Fraction(3, 7)
        assert q_pochhammer(Fraction(11, 2), q, 0) == 1
        assert q_pochhammer(1, q, 3) == 0
        assert q_pochhammer(2, 3, 2) == (1 - 2) * (1 - 6)


class TestHermiteFamily:
    def test_base(self):
        assert eval_H(0, Fraction(7, 3), Fraction(2)) == 1

    @given(x=rational_pts, q=rational_q)
    @settings(max_examples=30, deadline=None)
    def test_degree_two(self, x, q):
        assert eval_H(2, x, q) == x * x - 1

    def test_degree_three_frozen(self):
        # H_3(x|q) = x^3 - (2+q) x; the recurrence gives 8 - 4*2 = 0 at x=2, q=2
        assert eval_H(3, 2, 2) == 0
        assert eval_H(3, Fraction(2), Fraction(2)) == Fraction(2) ** 3 - (2 + 2) * 2

    def test_classical_limit_values(self):
        # at q = 1 these are the probabilists' Hermite polynomials
        x = Fraction(5, 3)
        one = Fraction(1)
        assert eval_H(2, x, one) == x**2 - 1
        assert eval_H(3, x, one) == x**3 - 3 * x
        assert eval_H(4, x, one) == x**4 - 6 * x**2 + 3

    @given(q=rational_q)
    @settings(max_examples=20, deadline=None)
    def test_monic_by_finite_differences(self, q):
        # n-th forward difference of a monic degree-n polynomial is n!
        for n in range(9):
            diff = sum((-1) ** (n - i) * math.comb(n, i) * eval_H(n, Fraction(i), q) for i in range(n + 1))
            assert diff == math.factorial(n)

    def test_seq_matches_point_eval(self):
        q, x = Fraction(9, 4), Fraction(-5, 7)
        seq = eval_H_seq(12, x, q)
        assert [eval_H(n, x, q) for n in range(13)] == seq

    def test_float_overflow_is_an_error(self):
        with pytest.raises(OverflowError, match="degree 57;"):
            eval_H(60, 3.0, 2.5)
        # the error names the first degree that overflowed, also for complex input
        with pytest.raises(OverflowError, match="degree 45;"):
            eval_h(400, 50j, 4.0)
        # exact inputs are immune
        assert eval_H(60, Fraction(3), Fraction(5, 2)) != 0


class TestContinuousFamily:
    @given(x=rational_pts, q=rational_q)
    @settings(max_examples=30, deadline=None)
    def test_low_degrees(self, x, q):
        assert eval_h(1, x, q) == 2 * x
        assert eval_h(2, x, q) == 4 * x * x - (1 - q)

    def test_degree_two_at_point(self):
        assert eval_h(2, 1, 1) == 4

    @given(x=st.floats(min_value=-3, max_value=3), q=st.floats(min_value=0.1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_parity(self, x, q):
        for n in range(9):
            left = eval_h(n, -x, q)
            right = (-1) ** n * eval_h(n, x, q)
            assert left == pytest.approx(right, rel=1e-9, abs=1e-9)

    @given(q=rational_q)
    @settings(max_examples=20, deadline=None)
    def test_leading_coefficient_by_finite_differences(self, q):
        # leading coefficient 2^n, so the n-th difference is 2^n n!
        for n in range(9):
            diff = sum((-1) ** (n - i) * math.comb(n, i) * eval_h(n, Fraction(i), q) for i in range(n + 1))
            assert diff == 2**n * math.factorial(n)

    def test_seq_matches_point_eval(self):
        q, x = Fraction(1, 3), Fraction(2, 5)
        assert eval_h_seq(10, x, q) == [eval_h(n, x, q) for n in range(11)]


class TestConnectionFamily:
    @given(y=rational_pts, q=rational_q)
    @settings(max_examples=30, deadline=None)
    def test_low_degrees(self, y, q):
        assert eval_B(1, y, q) == -y
        assert eval_B(2, y, q) == q * y * y + 1

    def test_degree_two_at_point(self):
        assert eval_B(2, 1, 4) == 5

    def test_integer_q_stays_exact(self):
        assert isinstance(eval_B(5, 2, 3), int)

    def test_seq_matches_point_eval(self):
        q, y = Fraction(4), Fraction(-3, 7)
        assert eval_B_seq(9, y, q) == [eval_B(n, y, q) for n in range(10)]


class TestAlSalamChiharaFamily:
    @given(x=rational_pts, y=rational_pts, rho=rational_pts, q=rational_q)
    @settings(max_examples=30, deadline=None)
    def test_low_degrees(self, x, y, rho, q):
        assert eval_p(1, x, y, rho, q) == x - rho * y
        assert eval_p(2, x, y, rho, q) == (x - rho * q * y) * (x - rho * y) - (1 - rho * rho)

    def test_degree_two_at_special_rho(self):
        # rho = q^{-1/2}: p_2 = x^2 + y^2 - xy(q^{1/2} + q^{-1/2}) - (1 - 1/q)
        q, sq = Fraction(4), Fraction(2)
        x, y = Fraction(3, 5), Fraction(-7, 2)
        expect = x * x + y * y - x * y * (sq + 1 / sq) - (1 - 1 / q)
        assert eval_p(2, x, y, 1 / sq, q) == expect

    @given(x=rational_pts, y=rational_pts, rho=rational_pts, q=rational_q)
    @settings(max_examples=25, deadline=None)
    def test_expansion_matches_recurrence_exactly(self, x, y, rho, q):
        for n in (0, 1, 2, 5, 9, 16):
            assert eval_p_expansion(n, x, y, rho, q) == eval_p(n, x, y, rho, q)

    def test_expansion_matches_recurrence_float(self):
        rng = random.Random(20260810)
        for _ in range(60):
            n = rng.randint(0, 12)
            x, y, rho = (rng.uniform(-2, 2) for _ in range(3))
            q = rng.uniform(0.2, 3.0)
            a = eval_p(n, x, y, rho, q)
            b = eval_p_expansion(n, x, y, rho, q)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    def test_expansion_base_case(self):
        assert eval_p_expansion(0, Fraction(1), Fraction(2), Fraction(3), Fraction(4)) == 1

    def test_seq_matches_point_eval(self):
        args = (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(9, 4))
        assert eval_p_seq(8, *args) == [eval_p(n, *args) for n in range(9)]


class TestOneBinomialRow:
    def test_binomial_at_q_minus_one(self):
        # [3 choose 1] = 1 + q + q^2 and [4 choose 2] = (1 + q^2)(1 + q + q^2)
        # at q = -1, where the q-factorial quotient divides by [2]_{-1} = 0
        assert q_binomial(3, 1, -1) == 1
        assert q_binomial(4, 2, -1) == 2

    def test_one_row_across_backends(self):
        exact = Fraction(9, 4)
        for n in range(9):
            for k in range(n + 1):
                poch = q_pochhammer(exact, exact, n)
                expected = poch / (q_pochhammer(exact, exact, k) * q_pochhammer(exact, exact, n - k))
                assert q_binomial(n, k, exact) == expected
                for q in (2.25, mpmath.mpf(2.25)):
                    assert float(q_binomial(n, k, q)) == pytest.approx(float(expected), rel=1e-14)

    @pytest.mark.parametrize("order", [(4.0, Fraction(4), 4), (4, Fraction(4), 4.0), (Fraction(4), 4, 4.0)])
    def test_the_row_memo_keeps_each_lane_apart(self, order):
        # whichever q comes first, a float q gives floats, Fraction(4) Fractions and int 4 ints
        _exact_q_binomial_row.cache_clear()
        for q in order:
            for n in range(2, 9):
                row = _q_binomial_row(n, q)
                assert [type(v) for v in row[1:-1]] == [type(q)] * (n - 1), (q, n)
                exact = _q_pascal_row(n, Fraction(4))
                assert list(row) == (pytest.approx(exact, rel=1e-15) if type(q) is float else exact)
                assert isinstance(row, list if type(q) is float else tuple)

    def test_the_rows_at_q_one_are_the_binomials(self):
        for n in range(12):
            for q in (1, Fraction(1)):
                row = _q_binomial_row(n, q)
                assert row == tuple(math.comb(n, k) for k in range(n + 1))
                assert all(type(v) is type(q) for v in row[1:-1])

    def test_mpmath_rows_follow_the_working_precision(self):
        rows = {}
        for dps in (15, 50):
            with mpmath.workdps(dps):
                rows[dps] = _q_binomial_row(8, 1 + mpmath.mpf(1) / 3)
        assert rows[15] != rows[50]
        with mpmath.workdps(60):
            gaps = [abs(v - mpmath.mpf(b.numerator) / b.denominator) / b for v, b in zip(rows[50], _q_binomial_row(8, Fraction(4, 3)))]
            assert max(gaps) < 1e-45


class TestNonFiniteInputs:
    def test_nan_state_is_named(self):
        with pytest.raises(ValueError, match="x = nan"):
            eval_p(3, math.nan, 0.5, 0.5, 4.0)

    def test_infinite_q_is_named(self):
        with pytest.raises(ValueError, match="q = inf"):
            eval_H(3, 1.0, math.inf)

    def test_nan_float_with_mpmath_q(self):
        with pytest.raises(ValueError, match="x = nan"):
            eval_H(3, math.nan, mpmath.mpf(4))
