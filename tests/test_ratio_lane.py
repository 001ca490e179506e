"""The exact lane of verify_factorization on rational inputs: the same values,
the same report text and bounded denominators, whether on unreduced ratios or
on integers over one scale per route."""

import cProfile
import pstats
import random
from fractions import Fraction

import pytest

from qchain import qcore
from qchain.exactnum import QuadraticNumber, _Ratio, rational_sqrt
from qchain.spectra import (
    VerificationFailed,
    VerificationReport,
    _product,
    _product_terms,
    eval_product_form,
    eval_sum_form,
    verify_factorization,
)

QS = (Fraction(4), Fraction(9, 4), Fraction(16))
lift = _Ratio.lift


def seeded_points(rng, count):
    """`count` distinct seeded rational (x, y), in the order drawn."""
    rational = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    points = {}
    while len(points) < count:
        points.setdefault((rational(), rational()))
    return list(points)


def lifted_routes(m, x, y, q, sqrt_q):
    """Recurrence (rho from sqrt_q), connection sum and v-factor product at one point, every
    scalar a _Ratio, through the generic evaluators the verifier runs."""
    X, Y, Q = lift(x), lift(y), lift(q)
    terms = [None if t is None else tuple(map(lift, t)) for t in _product_terms(m, q)]
    return (
        qcore.eval_p(m, X, Y, lift(sqrt_q ** (-(m - 1))), Q),
        qcore.eval_p_expansion(m, X, Y, lift(rational_sqrt(q) ** (-(m - 1))), Q),
        _product(X, -Y, terms),
    )


def fraction_routes(m, x, y, q, sqrt_q):
    """The same three values from the public Fraction evaluators."""
    return qcore.eval_p(m, x, y, sqrt_q ** (-(m - 1)), q), eval_sum_form(m, x, y, q), eval_product_form(m, x, y, q)


@pytest.mark.parametrize("q", QS, ids=str)
def test_each_lifted_route_is_its_fraction_route(q):
    rng, sq = random.Random(2601), rational_sqrt(q)
    for m in range(1, 13):
        points = seeded_points(rng, (m + 1) ** 2 + 1)
        assert verify_factorization(m, q, sample_points=points).points_checked == len(points)
        for x, y in points[:6]:
            lifted, fractions = lifted_routes(m, x, y, q, sq), fraction_routes(m, x, y, q, sq)
            assert all(type(v) is _Ratio for v in lifted), (m, x, y)
            assert lifted == fractions and [str(v) for v in lifted] == [str(v) for v in fractions], (m, x, y)


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


def test_sums_over_the_lcm_bound_the_recurrence_denominator():
    # cross-multiplied sums would double the bit length about every two degrees
    m, q, x, y = 24, Fraction(9, 4), Fraction(-137, 23), Fraction(5, 11)
    rho = Fraction(2, 3) ** (m - 1)
    lifted = qcore.eval_p(m, lift(x), lift(y), lift(rho), lift(q))
    reduced = qcore.eval_p(m, x, y, rho, q)
    assert lifted == reduced and str(lifted) == str(reduced)
    assert lifted.d.bit_length() <= 3 * reduced.denominator.bit_length()


def ratio_sums(*args, **kwargs):
    """How many _Ratio sums one verify_factorization call makes."""
    profile = cProfile.Profile()
    profile.runcall(verify_factorization, *args, **kwargs)
    stats = pstats.Stats(profile).stats.items()
    return sum(stat[1] for (path, _, name), stat in stats if path.endswith("exactnum.py") and name == "_sum")


def test_only_rational_inputs_lift():
    axis = [Fraction(i, 3) for i in range(-3, 3)]
    grid = [(x, y) for x in axis for y in axis]
    assert ratio_sums(3, Fraction(9, 4), sample_points=grid) > 0
    assert ratio_sums(3, 4, sample_points=[(int(3 * x), int(3 * y)) for x, y in grid]) > 0
    assert ratio_sums(3, Fraction(4), sample_points=grid, sqrt_q=Fraction(2)) > 0
    quadratic = [(QuadraticNumber(x, 1, 2), y) for x, y in grid]
    assert ratio_sums(3, Fraction(9, 4), sample_points=quadratic) == 0
    assert ratio_sums(3, Fraction(4), sample_points=grid, sqrt_q=QuadraticNumber(0, 1, 4)) == 0
    assert ratio_sums(3, 2.25, sample_points=grid) == 0
    assert ratio_sums(3, Fraction(9, 4), sample_points=[(float(x), y) for x, y in grid]) == 0


REPORT_QS = (Fraction(4), Fraction(9, 4), Fraction(16), Fraction(1, 4), Fraction(4, 9))


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
