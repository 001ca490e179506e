"""The exact lane of verify_factorization on unreduced ratios: the same values,
the same report text and bounded denominators."""

import cProfile
import pstats
import random
from fractions import Fraction

import pytest

from qchain import qcore
from qchain.exactnum import QuadraticNumber, _Ratio, rational_sqrt
from qchain.spectra import (
    VerificationFailed,
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
