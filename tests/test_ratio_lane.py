"""The exact lane of verify_factorization on rational inputs: the same values,
the same report text and bounded denominators, on integers over one scale per
route, with the recurrence, the H table and the B table one integer recurrence."""

import cProfile
import pstats
import random
from fractions import Fraction

import pytest

from qchain import qcore
from qchain.exactnum import QuadraticNumber, rational_sqrt
from qchain.spectra import (
    VerificationFailed,
    VerificationReport,
    _integer_recurrences,
    eval_product_form,
    eval_sum_form,
    verify_factorization,
)

QS = (Fraction(4), Fraction(9, 4), Fraction(16))
REPORT_QS = (Fraction(4), Fraction(9, 4), Fraction(16), Fraction(1, 4), Fraction(4, 9))


def seeded_points(rng, count):
    """`count` distinct seeded rational (x, y), in the order drawn."""
    rational = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    points = {}
    while len(points) < count:
        points.setdefault((rational(), rational()))
    return list(points)


def fraction_routes(m, x, y, q, sqrt_q):
    """Recurrence (rho from sqrt_q), connection sum and v-factor product at one point, from the public
    Fraction evaluators."""
    return qcore.eval_p(m, x, y, sqrt_q ** (-(m - 1)), q), eval_sum_form(m, x, y, q), eval_product_form(m, x, y, q)


@pytest.mark.parametrize("q", REPORT_QS, ids=str)
def test_each_integer_table_is_its_fraction_sequence(q):
    # every degree 0..m of the integer p, H and B recurrences at x = X/L, y = Y/L, over E_k L^k, is the Fraction
    # evaluator's value, for the true rho and a planted one, at one, few-digit and 12-digit denominators L
    rng, sq = random.Random(3801), rational_sqrt(q)
    for m in range(1, 15):
        for rho in (sq ** (-(m - 1)), (3 * sq) ** (-(m - 1))):
            (p, p_E), (H, H_E), (B, B_E) = _integer_recurrences(m, rho, q)
            for L in (1, rng.randint(2, 12), rng.randint(10**11, 10**12)):
                X, Y = rng.randint(-40 * L, 40 * L), rng.randint(-40 * L, 40 * L)
                x, y = Fraction(X, L), Fraction(Y, L)
                tables = (
                    (p(X, Y, L), p_E, qcore.eval_p_seq(m, x, y, rho, q)),
                    (H(X, 0, L), H_E, qcore.eval_H_seq(m, x, q)),
                    (B(0, Y, L), B_E, qcore.eval_B_seq(m, y, q)),
                )
                for ints, E, fractions in tables:
                    assert all(type(v) is int for v in ints + E) and len(ints) == len(E) == m + 1
                    assert [Fraction(v, e * L**k) for k, (v, e) in enumerate(zip(ints, E))] == fractions, (m, x, y)


@pytest.mark.parametrize("q", QS, ids=str)
def test_a_failing_witness_prints_the_fraction_values(q):
    # sqrt_q = 3 sets the recurrence's rho for q = 9: every m >= 2 fails at some point
    rng = random.Random(2602)
    three = Fraction(3)
    for m in range(2, 13):
        points = seeded_points(rng, (m + 1) ** 2 + 1)
        with pytest.raises(VerificationFailed) as exc:
            verify_factorization(m, q, sample_points=points, sqrt_q=three)
        report = exc.value.report
        x, y = points[report.points_checked - 1]
        recurrence, summed, product = fraction_routes(m, x, y, q, three)
        assert not recurrence == summed == product
        expected = {"x": x, "y": y, "recurrence": recurrence, "sum_form": summed, "product_form": product}
        assert report.witness == {key: str(v) for key, v in expected.items()}, m
        assert report.parameters == {"m": m, "q": str(q), "mode": "exact"}


def integer_lane_calls(*args, **kwargs):
    """How many times one verify_factorization call runs its integer lane."""
    profile = cProfile.Profile()
    profile.runcall(verify_factorization, *args, **kwargs)
    stats = pstats.Stats(profile).stats.items()
    return sum(
        stat[1] for (path, _, name), stat in stats if path.endswith("spectra.py") and name == "_verify_on_integers"
    )


def test_only_rational_inputs_lift():
    axis = [Fraction(i, 3) for i in range(-3, 3)]
    grid = [(x, y) for x in axis for y in axis]
    assert integer_lane_calls(3, Fraction(9, 4), sample_points=grid) == 1
    assert integer_lane_calls(3, 4, sample_points=[(int(3 * x), int(3 * y)) for x, y in grid]) == 1
    assert integer_lane_calls(3, Fraction(4), sample_points=grid, sqrt_q=Fraction(2)) == 1
    quadratic = [(QuadraticNumber(x, 1, 2), y) for x, y in grid]
    assert integer_lane_calls(3, Fraction(9, 4), sample_points=quadratic) == 0
    assert integer_lane_calls(3, Fraction(4), sample_points=grid, sqrt_q=QuadraticNumber(0, 1, 4)) == 0
    assert integer_lane_calls(3, 2.25, sample_points=grid) == 0
    assert integer_lane_calls(3, Fraction(9, 4), sample_points=[(float(x), y) for x, y in grid]) == 0


def test_a_float_sqrt_q_puts_the_call_in_the_float_lane():
    # 2.0 is sqrt(4) exactly, but its float rho was once held exactly to the Fraction sums, and failed at (-2, -2)
    report = verify_factorization(12, Fraction(4), sqrt_q=2.0)
    assert report.passed and report.parameters["mode"] == "float" and 0 < report.max_residual < 1e-12
    with pytest.raises(VerificationFailed) as exc:
        verify_factorization(12, Fraction(4), sqrt_q=1.5)
    assert exc.value.report.parameters["mode"] == "float" and exc.value.report.witness["residual"] > 1e-8


def fraction_report(m, q, points, sqrt_q):
    """The exact report verify_factorization gives, built point by point from the public Fraction evaluators."""
    report = VerificationReport("factorization", {"m": m, "q": str(q), "mode": "exact"})
    for x, y in points:
        report.points_checked += 1
        routes = fraction_routes(m, x, y, q, Fraction(sqrt_q))
        if not routes[0] == routes[1] == routes[2]:
            report.passed = False
            names = ("x", "y", "recurrence", "sum_form", "product_form")
            report.witness = {name: str(v) for name, v in zip(names, (x, y, *routes))}
            break
    return report


def mixed_points(rng, count, kind):
    """`count` distinct seeded points whose coordinates are ints, ints and Fractions, or 12-digit Fractions."""
    draw = {
        "int": lambda: rng.randint(-30, 30),
        "mixed": lambda: rng.choice((rng.randint(-30, 30), Fraction(rng.randint(-40, 40), rng.randint(1, 12)))),
        "digits": lambda: Fraction(rng.randint(-10**12, 10**12), rng.randint(10**11, 10**12)),
    }[kind]
    points = {}
    while len(points) < count:
        points.setdefault((draw(), draw()))
    return list(points)


def report_or_failure(*args, **kwargs):
    try:
        return verify_factorization(*args, **kwargs)
    except VerificationFailed as exc:
        return exc.report


@pytest.mark.parametrize("q", REPORT_QS, ids=str)
def test_each_exact_report_is_the_one_the_fraction_evaluators_give(q):
    # int points (one common denominator), mixed int/Fraction points and 12-digit denominators, each checked in
    # full, and a wrong sqrt_q, as a Fraction and as an int, whose witness must print the Fraction route values
    rng, sq = random.Random(3701), rational_sqrt(q)
    for m in range(1, 15):
        points = mixed_points(rng, (m + 1) ** 2 + 1, ("digits", "int", "mixed")[m % 3])
        assert verify_factorization(m, q, sample_points=points).to_json() == fraction_report(m, q, points, sq).to_json()
        for plant in (sq * 3, 3):
            report = report_or_failure(m, q, sample_points=points, sqrt_q=plant)
            assert report.passed == (m == 1) and report.to_json() == fraction_report(m, q, points, plant).to_json()


def test_an_int_sqrt_q_stays_exact():
    # 3 ** -(m-1) is a float: it put a float rho into the exact recurrence, which failed at the first point
    assert verify_factorization(4, Fraction(9), sqrt_q=3).passed
    assert verify_factorization(4, 16, sqrt_q=4).passed
    with pytest.raises(VerificationFailed) as exc:
        verify_factorization(4, Fraction(9), sqrt_q=2)
    assert exc.value.report.witness["recurrence"] == "-8195789/4096" != exc.value.report.witness["sum_form"]


def test_equal_values_of_either_type_count_as_one_point():
    # the count runs on (numerator, denominator) pairs: -1 and Fraction(-2, 2) are one coordinate
    axis = [Fraction(i, 2) for i in range(-3, 1)]
    grid = [(x, y) for x in axis for y in axis]
    as_ints = [(int(x) if x.denominator == 1 else x, y) for x, y in grid]
    with pytest.raises(ValueError, match=r"^need more than 16 distinct sample points for degree 3, got 16$"):
        verify_factorization(3, Fraction(4), sample_points=grid + as_ints)
    assert verify_factorization(3, 4, sample_points=grid + as_ints + [(7, 7)]).points_checked == 33
