"""q-combinatorics and the four recurrence families.

Derived expectations are frozen from independent oracles: direct sums and
products for the q-symbols, finite differences for leading coefficients,
and the connection-coefficient expansion as a second route to p_n.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.exactnum import NotAPerfectSquare
from qchain.qcore import (
    QParams,
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


class TestQParams:
    def test_exact_square(self):
        params = QParams.create(Fraction(4), 3)
        assert params.sqrt_q == 2
        assert params.rho == Fraction(1, 4)

    def test_nine_quarters(self):
        params = QParams.create(Fraction(9, 4), 2)
        assert params.sqrt_q == Fraction(3, 2)
        assert params.rho == Fraction(2, 3)
        assert params.rho**2 * params.q ** (params.m - 1) == 1

    def test_int_promotes(self):
        assert QParams.create(4, 2).q == Fraction(4)

    def test_non_square_exact_rejected(self):
        with pytest.raises(NotAPerfectSquare):
            QParams.create(Fraction(2), 2)

    def test_float(self):
        params = QParams.create(2.25, 4)
        assert params.sqrt_q == pytest.approx(1.5)
        assert params.rho == pytest.approx(1.5**-3)

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            QParams.create(Fraction(4), 1)

    def test_inconsistent_sqrt_rejected(self):
        with pytest.raises(ValueError):
            QParams.create(Fraction(4), 2, sqrt_q=Fraction(3))
