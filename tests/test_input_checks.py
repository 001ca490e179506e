"""Every input check of the library raises, and names what it refused."""

import re
from fractions import Fraction

import pytest

from qchain.exactnum import QuadraticNumber, format_scalar, parse_exact
from qchain.markov import (
    ChainConfig,
    InsufficientSamples,
    build_distribution,
    empirical_conditional_moment,
    k_step_distribution,
    simulate,
    verify_chapman_kolmogorov,
)
from qchain.qcore import eval_H, q_binomial, q_bracket, q_factorial, q_pochhammer
from qchain.spectra import (
    NotRepresentable,
    chi,
    eval_product_form,
    eval_sum_form,
    hermite_limit_identity,
    t_factor,
    v_factor,
    verify_addition_formula,
    verify_B_H_relation,
    verify_chi_properties,
    verify_factorization,
    verify_h_H_relation,
)


def _paths(*ms):
    return [simulate(ChainConfig(q=4.0, m=m, initial_y=1.0, steps=3, seed=1)) for m in ms]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: q_bracket(-1, 2), ValueError, "q_bracket needs n >= 0, got n = -1"),
        (lambda: q_factorial(-1, 2), ValueError, "q_factorial needs n >= 0, got n = -1"),
        (lambda: q_binomial(3, -1, 2), ValueError, "q_binomial needs k >= 0, got k = -1"),
        (lambda: q_pochhammer(Fraction(1, 2), 2, -1), ValueError, "q_pochhammer needs n >= 0, got n = -1"),
        (lambda: eval_H(-1, 1, 2), ValueError, "_q_table needs degree n >= 0, got n = -1"),
        (lambda: v_factor(-1, 1, 1, 4), ValueError, "v_factor needs n >= 0, got n = -1"),
        (lambda: t_factor(-2, 1, 1, 4), ValueError, "t_factor needs n >= 0, got n = -2"),
        (lambda: v_factor(1, 1, 1, 1), ValueError, "v_factor needs q != 1 for n >= 1, got q = 1"),
        (lambda: eval_sum_form(-1, 1, 1, 4), ValueError, "eval_sum_form needs m >= 0, got m = -1"),
        (lambda: eval_product_form(0, 1, 1, 4), ValueError, "eval_product_form needs m >= 1, got m = 0"),
        (lambda: eval_product_form(2, 1, 1, 1), ValueError, "eval_product_form needs q != 1, got q = 1"),
        (lambda: verify_addition_formula(0, 0.4, 1.1, 4.0), ValueError, "verify_addition_formula needs n >= 1, got n = 0"),
        (lambda: verify_h_H_relation(-1, 0.3, 4.0), ValueError, "verify_h_H_relation needs degree m >= 0, got m = -1"),
        (lambda: verify_B_H_relation(-2, 0.3, 4.0), ValueError, "verify_B_H_relation needs degree n >= 0, got n = -2"),
        (lambda: hermite_limit_identity(0, 1, 2), ValueError, "hermite_limit_identity needs m >= 1, got m = 0"),
        (
            lambda: chi(0, chi(1, 1, 4), Fraction(9, 4)),
            NotRepresentable,
            "sqrt((5/4 + 3/4*sqrt(7/3))^2 + 4/(q-1)) at q = 9/4 leaves Q(sqrt(7/3))",
        ),
        (
            lambda: build_distribution(3, Fraction(1), QuadraticNumber(4, 0, Fraction(7, 3))),
            ValueError,
            "the exact lane needs an int or Fraction q, got q = 4 + 0*sqrt(7/3)",
        ),
        (
            lambda: chi(1, 1, QuadraticNumber(2, 1, 3)),
            ValueError,
            "the exact lane needs an int or Fraction q, got q = 2 + 1*sqrt(3)",
        ),
        (lambda: k_step_distribution(2, 0, 1, 4), ValueError, "step count k must be >= 1, got 0"),
        (
            lambda: verify_chapman_kolmogorov(2, 2, 1.0, 4, mode="exact"),
            ValueError,
            "exact mode needs rational q and y, got q = 4, y = 1.0",
        ),
        (
            lambda: verify_chapman_kolmogorov(2, 2, 1, 4, mode="float"),
            ValueError,
            "float mode needs a float q or y, got q = 4, y = 1",
        ),
        (
            lambda: verify_chapman_kolmogorov(2, 3, Fraction(2, 3), Fraction(9, 4), mode="float"),
            ValueError,
            "float mode needs a float q or y, got q = 9/4, y = 2/3",
        ),
        (lambda: ChainConfig(q=4.0, m=1, initial_y=1.0, steps=3), ValueError, "transition order m must be >= 2, got 1"),
        (lambda: empirical_conditional_moment([], 1), InsufficientSamples, "no trajectories supplied"),
        (lambda: empirical_conditional_moment(_paths(2), 1, lag=0), ValueError, "lag must be >= 1, got 0"),
        (
            lambda: empirical_conditional_moment(_paths(2, 3), 1),
            ValueError,
            "trajectories mix incompatible configs: (q, m) = (4.0, 2) and (4.0, 3)",
        ),
        (lambda: QuadraticNumber(1, 1, -2), ValueError, "negative discriminant -2: field must be real"),
        (lambda: parse_exact("1 + 2 sqrt(3)"), ValueError, "malformed quadratic literal: '1 + 2 sqrt(3)'"),
    ],
)
def test_input_check_raises_and_names_its_input(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


@pytest.mark.parametrize("text, b, D", [("2*sqrt(3)", 2, 3), ("-1/2*sqrt(5)", Fraction(-1, 2), 5)])
def test_parse_exact_reads_a_pure_radical(text, b, D):
    value = parse_exact(text)
    assert value == QuadraticNumber(0, b, D) and parse_exact(format_scalar(value)) == value


@pytest.mark.parametrize("m", [0, -1])
def test_verify_factorization_names_itself_and_its_degree(m):
    with pytest.raises(ValueError, match=re.escape(f"verify_factorization needs degree m >= 1, got m = {m}")):
        verify_factorization(m, 4)


@pytest.mark.parametrize("q", [1, Fraction(1), 1.0])
def test_verify_factorization_names_itself_at_q_one(q):
    # in both lanes, before the product route or the float-q check sees q
    with pytest.raises(ValueError, match=re.escape(f"verify_factorization needs q != 1, got q = {q}")):
        verify_factorization(3, q)


@pytest.mark.parametrize("m, n, k", [(1100, 1, 1100), (-1100, 1, -1100), (1000, 100, 1100), (1, 1100, 1100)])
def test_float_chi_past_the_double_range_names_its_index_and_q(m, n, k):
    # 2.0**1100 overflows and 2.0**-1100 underflows to a 0.0 divisor
    message = re.escape(f"chi_k needs q^(k/2) inside the double range, got k = {k}, q = 4.0")
    with pytest.raises(OverflowError, match=message):
        chi(k, 1.0, 4.0)
    with pytest.raises(OverflowError, match=message):
        verify_chi_properties(m, n, 1.0, 4.0)
