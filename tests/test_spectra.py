"""Index sets, the chi root family, factor families, and the identity
verifiers."""

import cProfile
import hashlib
import json
import math
import pstats
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.exactnum import NotAPerfectSquare, QuadraticNumber
from qchain.markov import build_distribution, verify_chapman_kolmogorov
from qchain.qcore import eval_h_seq, eval_p, q_binomial
from qchain.spectra import (
    IndexSetError,
    NotRepresentable,
    VerificationFailed,
    chi,
    eval_product_form,
    eval_sum_form,
    hermite_limit_identity,
    index_set,
    rational_grid,
    t_factor,
    v_factor,
    verify_addition_formula,
    verify_B_H_relation,
    verify_chi_properties,
    verify_factorization,
    verify_h_H_relation,
)
from qchain.spectra import _chi, _lift_state

D_REF = Fraction(7, 3)  # discriminant at y = 1, q = 4


def sumset(m, n):
    """The literal sumset {i + j : i in (m), j in (n)}: the support of order-m and order-n kernels composed."""
    return sorted({i + j for i in index_set(m) for j in index_set(n)})


def radical(y, q):
    """sqrt(y^2 + 4/(q-1)) in y's backend, the radical chi is built from."""
    return _lift_state(y, q)[1]


class TestIndexSets:
    def test_small_sets(self):
        assert index_set(1) == [0]
        assert index_set(2) == [-1, 1]
        assert index_set(3) == [-2, 0, 2]
        assert index_set(4) == [-3, -1, 1, 3]

    @pytest.mark.parametrize("m", range(1, 40))
    def test_shape(self, m):
        ks = index_set(m)
        assert len(ks) == m
        assert ks == sorted(ks)
        assert [-k for k in reversed(ks)] == ks  # symmetric about 0
        assert all(b - a == 2 for a, b in zip(ks, ks[1:]))

    def test_invalid(self):
        with pytest.raises(IndexSetError):
            index_set(0)

    def test_sumset_examples(self):
        assert sumset(2, 2) == [-2, 0, 2]
        assert sumset(3, 2) == [-3, -1, 1, 3]
        assert sumset(1, 5) == index_set(5)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_sumset_collapses(self, m, n):
        assert sumset(m, n) == index_set(m + n - 1)

    def test_parity_disjoint_neighbours(self):
        # (2) and (3) share no indices; nesting only holds two apart
        assert not set(index_set(2)) & set(index_set(3))
        assert set(index_set(2)) < set(index_set(4))
        assert set(index_set(3)) < set(index_set(5))


class TestChi:
    def test_identity_index(self):
        assert chi(0, Fraction(1), Fraction(4)) == 1
        assert chi(0, 0.37, 2.25) == pytest.approx(0.37)

    def test_exact_unit_state(self):
        plus = chi(1, Fraction(1), Fraction(4))
        minus = chi(-1, Fraction(1), Fraction(4))
        assert plus == QuadraticNumber(Fraction(5, 4), Fraction(3, 4), D_REF)
        assert minus == QuadraticNumber(Fraction(5, 4), Fraction(-3, 4), D_REF)

    def test_float_unit_state(self):
        assert chi(1, 1.0, 4.0) == pytest.approx(2.3956439237389597)
        assert chi(-1, 1.0, 4.0) == pytest.approx(0.10435607626104004)

    def test_second_index_closed_form(self):
        # chi_2(1,4) = (4 + 1/4)/2 + sqrt(7/3) (4 - 1/4)/2
        assert chi(2, Fraction(1), Fraction(4)) == QuadraticNumber(Fraction(17, 8), Fraction(15, 8), D_REF)

    def test_requires_q_above_one(self):
        with pytest.raises(ValueError):
            chi(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            chi(1, Fraction(1), Fraction(1, 2))

    def test_float_state_puts_a_rational_q_in_the_float_lane(self):
        # q = 2 is no rational square, but a float state takes q as a float,
        # the lane the kernel at that state already runs in
        assert chi(1, 1.0, Fraction(2)) == build_distribution(2, 1.0, Fraction(2)).atoms[1].value
        assert radical(1.0, Fraction(2)) == math.sqrt(5.0)

    def test_not_representable(self):
        # y = sqrt(7/3): y^2 + 4/3 = 11/3 has no root in Q(sqrt(7/3))
        y = QuadraticNumber(0, 1, D_REF)
        with pytest.raises(NotRepresentable):
            chi(1, y, Fraction(4))

    def test_degenerate_field_state(self):
        # q = 25/9, y = 2: the radical is rational (D = 25/4 is a square)
        value = chi(1, Fraction(2), Fraction(25, 9))
        assert value == Fraction(18, 5)

    def test_monotone_in_index(self):
        for y in (0.0, 1.0, -1.3):
            values = [float(chi(k, y, 4.0)) for k in range(-6, 7)]
            assert all(a < b for a, b in zip(values, values[1:]))
        # exact states, compared exactly: chi_k = y cosh(k a) + r sinh(k a) with a = ln sqrt(q) > 0 and
        # r = sqrt(y^2 + 4/(q-1)) > |y| rises in k, which is why kernels skip an exact support check
        rationals = [Fraction(0), Fraction(1), Fraction(-137, 23), Fraction(5, 2)]
        states = [(y, q) for q in (Fraction(4), Fraction(9, 4), Fraction(16)) for y in rationals]
        states.append((chi(1, 1, 4), Fraction(4)))  # a QuadraticNumber state in Q(sqrt(7/3))
        for y, q in states:
            values = [chi(k, y, q) for k in range(-12, 13)]
            assert all(a < b for a, b in zip(values, values[1:])), (y, q)
            for m in range(2, 13):
                support = [atom.value for _, atom in sorted(build_distribution(m, y, q).atoms.items())]
                assert all(a < b for a, b in zip(support, support[1:])), (y, q, m)

    def test_exact_chi_is_the_composite_formula(self):
        # (y (q^{k/2} + q^{-k/2}) + r (q^{k/2} - q^{-k/2})) / 2 by Fraction and QuadraticNumber operations:
        # the same reduced integers, and a QuadraticNumber at every k, k = 0 included
        for q in (Fraction(4), Fraction(9, 4), Fraction(25, 9), Fraction(100)):
            for y in (Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(2), chi(1, 1, q)):
                state = y, r, sq, _ = _lift_state(y, q)
                for k in range(-12, 13):
                    qk = sq**k
                    composite = (y * (qk + 1 / qk) + r * (qk - 1 / qk)) / 2
                    value = _chi(k, *state)
                    assert type(value) is QuadraticNumber and value == composite, (q, y, k)
                    assert repr(value) == repr(composite) and value.D == composite.D, (q, y, k)

    def test_roots_of_v(self):
        y, q = Fraction(1), Fraction(4)
        for n in (1, 2, 3, 5):
            for k in (n, -n):
                assert v_factor(n, chi(k, y, q), -y, q) == 0

    def test_radical(self):
        assert radical(Fraction(1), Fraction(4)) == QuadraticNumber(0, 1, D_REF)
        assert radical(1.0, 4.0) == pytest.approx(math.sqrt(7 / 3))

    @pytest.mark.parametrize("q", [2.25, 4.0, 16.0])
    def test_float_accuracy_against_reference(self, q):
        # relative error within 16 * 2^-53 * max(1, kappa), where kappa is
        # the condition number |y chi_k'(y) / chi_k(y)| of chi_k in y;
        # the reference is chi_k at the same float inputs in 200-bit mpmath
        ys = sorted({i / 8 for i in range(-80, 81)} | {i / 10 for i in range(-100, 101)})
        assert 1.0 in ys
        unit = mpmath.mpf(2) ** -53
        with mpmath.workprec(200):
            mq = mpmath.mpf(q)
            for k in range(-6, 7):
                half = mpmath.sqrt(mq) ** k
                plus, minus = half + 1 / half, half - 1 / half
                for y in ys:
                    my = mpmath.mpf(y)
                    radical = mpmath.sqrt(my * my + 4 / (mq - 1))
                    exact = (my * plus + radical * minus) / 2
                    if exact == 0:  # chi_0(0) = 0, where kappa is unbounded
                        continue
                    kappa = abs(my * (plus + my / radical * minus) / 2 / exact)
                    err = abs((mpmath.mpf(chi(k, y, q)) - exact) / exact)
                    assert err <= 16 * unit * max(1, kappa), (k, y, q, float(err / unit))


class TestFactors:
    def test_v0_t0(self):
        x, y = Fraction(3), Fraction(-1, 2)
        assert v_factor(0, x, y, Fraction(4)) == x + y
        assert t_factor(0, x, y, Fraction(4)) == x + y

    def test_v1_at_q4(self):
        # (q + 1/q - 2)/(q - 1) = 3/4 at q = 4
        x, y = Fraction(2, 7), Fraction(-5, 3)
        expect = x * x + y * y + x * (-y) * Fraction(5, 2) - Fraction(3, 4)
        assert v_factor(1, x, -y, Fraction(4)) == expect

    def test_v_needs_q_not_one(self):
        with pytest.raises(ValueError):
            v_factor(1, 1.0, 1.0, 1.0)

    def test_t1_float(self):
        q = 0.7
        assert t_factor(1, 0.0, 0.0, q) == pytest.approx((q + 1 / q - 2) / 4)


class TestFactorizationForms:
    def test_sum_form_degree_one(self):
        x, y = Fraction(5, 2), Fraction(1, 3)
        assert eval_sum_form(1, x, y, Fraction(4)) == x - y

    def test_product_form_small_orders(self):
        x, y, q = Fraction(1, 2), Fraction(-2, 5), Fraction(4)
        assert eval_product_form(1, x, y, q) == x - y
        assert eval_product_form(2, x, y, q) == v_factor(1, x, -y, q)
        assert eval_product_form(3, x, y, q) == (x - y) * v_factor(2, x, -y, q)

    def test_sum_form_equals_recurrence(self):
        q, sq = Fraction(4), Fraction(2)
        for x in rational_grid(3):
            for y in rational_grid(3):
                assert eval_sum_form(2, x, y, q) == eval_p(2, x, y, 1 / sq, q)

    def test_verify_exact(self):
        report = verify_factorization(2, Fraction(4))
        assert report.passed and report.max_residual == 0.0
        assert report.points_checked > 9

    def test_verify_degree_one(self):
        assert verify_factorization(1, Fraction(4)).passed

    def test_verify_float(self):
        report = verify_factorization(5, 2.25)
        assert report.passed
        assert report.max_residual < 1e-8

    def test_exact_counterexample_names_the_point_and_routes(self):
        # sqrt_q = 3 sets the recurrence's rho for q = 9, not q = 4
        with pytest.raises(VerificationFailed) as exc:
            verify_factorization(3, Fraction(4), sqrt_q=Fraction(3))
        report = exc.value.report
        assert report.passed is False and report.points_checked == 1
        assert set(report.witness) == {"x", "y", "recurrence", "sum_form", "product_form"}
        assert report.witness["sum_form"] == report.witness["product_form"] != report.witness["recurrence"]

    def test_rational_grid_spans_minus_two_to_two(self):
        assert rational_grid(1) == [-2]
        assert rational_grid(5) == [-2, -1, 0, 1, 2]
        assert rational_grid(4) == [-2, Fraction(-2, 3), Fraction(2, 3), 2]
        assert all(type(v) is Fraction for v in rational_grid(1) + rational_grid(4))
        with pytest.raises(ValueError, match=r"^grid side must be >= 1, got 0$"):
            rational_grid(0)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("q", [0, Fraction(-4), Fraction(-1, 4), 0.0, -4.0, -0.25])
    def test_q_at_most_zero_is_refused_in_both_lanes(self, m, q):
        # checked before rho = sqrt(q)^(1-m): at q = 0 that divides by 0 (or is 1 at m = 1), at -4 it has no square root
        with pytest.raises(ValueError, match=rf"^needs q in \(0,1\) or \(1,inf\), got {re.escape(str(q))}$"):
            verify_factorization(m, q)

    def test_verify_rejects_small_grids(self):
        with pytest.raises(ValueError):
            verify_factorization(3, Fraction(4), sample_points=[(Fraction(0), Fraction(0))] * 16)

    def test_failure_carries_witness(self):
        with pytest.raises(VerificationFailed) as exc:
            verify_factorization(3, 2.5, rel_tol=-1.0)
        report = exc.value.report
        assert not report.passed
        assert report.witness is not None
        assert "x" in report.witness

    def test_verify_counts_distinct_points(self):
        # 17 copies of one point exceed (3+1)^2 = 16 but pin nothing
        with pytest.raises(ValueError, match=r"^need more than 16 distinct sample points for degree 3, got 1$"):
            verify_factorization(3, Fraction(4), sample_points=[(Fraction(1), Fraction(2))] * 17)

    def test_verify_counts_every_point_it_checks(self):
        axis = rational_grid(5)
        points = [(x, y) for x in axis for y in axis]
        assert verify_factorization(3, Fraction(4), sample_points=points + points[:3]).points_checked == 28

    def test_verify_reads_a_one_shot_iterable_once(self):
        # counting the distinct points must not use up the points to check
        axis = rational_grid(4)
        report = verify_factorization(2, Fraction(4), sample_points=((x, y) for x in axis for y in axis))
        assert report.passed and report.points_checked == 16

    def test_verify_accepts_quadratic_number_points(self):
        axis = [QuadraticNumber(i, Fraction(1, 2), D_REF) for i in range(-2, 2)]
        report = verify_factorization(2, Fraction(9, 4), sample_points=[(x, y) for x in axis for y in axis])
        assert report.passed and report.points_checked == 16 and report.parameters["mode"] == "exact"

    def test_verify_forms_point_free_work_once_per_call(self):
        # a 10x10 grid has 10 distinct x and 10 distinct y: one H sequence per
        # x, one B sequence per y, one q-Pascal row and one sqrt(q) per route
        axis = rational_grid(10)
        grid = [(x, y) for x in axis for y in axis]
        profile = cProfile.Profile()
        profile.runcall(verify_factorization, 5, Fraction(4), sample_points=grid)
        calls = {}
        for (_, _, name), stat in pstats.Stats(profile).stats.items():
            calls[name] = calls.get(name, 0) + stat[1]
        assert [calls.get(name, 0) for name in ("eval_H_seq", "eval_B_seq", "_q_binomial_row")] == [10, 10, 1]
        assert calls["scalar_sqrt"] <= 3


class TestRootCompleteness:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_chi_exhausts_the_roots(self, m):
        # m distinct support points, each a root of the degree-m polynomial
        y, q, sq = Fraction(1), Fraction(4), Fraction(2)
        rho = sq ** (-(m - 1))
        values = [chi(k, y, q) for k in index_set(m)]
        for left, right in zip(values, values[1:]):
            assert left < right
        for v in values:
            assert eval_p(m, v, y, rho, q) == 0


class TestAdditionFormula:
    def test_degree_one_is_twice_the_sum(self):
        theta, phi, q = 0.9, 1.7, 0.7
        report = verify_addition_formula(1, theta, phi, q)
        assert report.passed
        # A_1 = 2(x + y) = 2 t_0
        x, y = math.cos(theta), math.cos(phi)
        total = sum(
            float(q_binomial(1, k, q)) * eval_h_seq(1, x, q)[k] * eval_h_seq(1, y, 1 / q)[1 - k]
            for k in range(2)
        )
        assert total == pytest.approx(2 * (x + y))

    def test_degree_two_at_right_angles(self):
        # x = y = 0 collapses the identity to q + 1/q - 2
        q = 0.7
        report = verify_addition_formula(2, math.pi / 2, math.pi / 2, q)
        assert report.passed
        x = y = 0.0
        total = sum(
            float(q_binomial(2, k, q))
            * q ** (-k * (2 - k) / 2)
            * eval_h_seq(2, x, q)[k]
            * eval_h_seq(2, y, 1 / q)[2 - k]
            for k in range(3)
        )
        assert total == pytest.approx(q + 1 / q - 2)

    def test_three_way_agreement(self):
        for q in (0.7, 2.5):
            report = verify_addition_formula(4, 0.61, 2.03, q)
            assert report.passed
            assert report.max_residual < 1e-8

    def test_forced_failure(self):
        with pytest.raises(VerificationFailed):
            verify_addition_formula(3, 0.5, 0.5, 0.5, rel_tol=-1.0)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            verify_addition_formula(2, 0.1, 0.2, 1.0)

    def test_imaginary_part_is_held_to_the_common_scale(self):
        # the sides reach 1.0e43 here, and rounding leaves the Pochhammer side
        # an imaginary part of 3e-8: 3e-51 of the sides
        report = verify_addition_formula(12, 2.4108844952150457, 0.023663148975593375, 16.0)
        assert report.passed and report.max_residual < 1e-40

    @pytest.mark.parametrize("n", [3, 8, 12])
    @pytest.mark.parametrize("q", [1.5, 4.0, 16.0])
    def test_residual_stays_at_the_working_precision(self, n, q):
        # every side, the t-factor product's sqrt(q) included, is formed at
        # 50 digits: a 53-bit sqrt(q) would leave residuals near 1e-16
        assert verify_addition_formula(n, 1.1, 0.4, q).max_residual < 1e-48


class TestHermiteRelations:
    def test_trivial_degree(self):
        assert verify_h_H_relation(0, 0.4, 0.5).passed

    @pytest.mark.parametrize("q", [0.5, 4.0])
    @pytest.mark.parametrize("relation", [verify_h_H_relation, verify_B_H_relation])
    def test_degree_zero_sides_are_exactly_one(self, relation, q):
        # the general expressions give (1+0j) at degree 0, as the forced witness shows side by side
        assert relation(0, 0.3, q).max_residual == 0.0
        with pytest.raises(VerificationFailed) as failed:
            relation(0, 0.3, q, rel_tol=-1.0)
        sides = {key: value for key, value in failed.value.report.witness.items() if key != "residual"}
        assert len(sides) in (3, 4) and all(repr(complex(side)) == "(1+0j)" for side in sides.values()), sides

    def test_below_one(self):
        report = verify_h_H_relation(3, 0.3, 0.5)
        assert report.passed and report.max_residual < 1e-8

    def test_above_one_complex_path(self):
        for m in range(1, 9):
            assert verify_h_H_relation(m, 0.7, 4.0).passed

    def test_B_H_at_known_point(self):
        # B_2(1|4) = 5 must survive the complex route
        report = verify_B_H_relation(2, 1.0, 4.0)
        assert report.passed

    def test_B_H_sweep(self):
        for q in (0.5, 2.25, 4.0):
            for n in range(0, 9):
                assert verify_B_H_relation(n, 0.8, q).passed


class TestChiProperties:
    def test_cancelling_indices(self):
        report = verify_chi_properties(1, -1, Fraction(1), Fraction(4))
        assert report.passed
        assert chi(1, chi(-1, Fraction(1), Fraction(4)), Fraction(4)) == 1

    def test_doubling(self):
        assert verify_chi_properties(1, 1, Fraction(1), Fraction(4)).passed

    def test_square_identity_value(self):
        # quad_sqrt(chi_1^2 + 4/3) at y=1, q=4 is 3/4 + 5/4 sqrt(7/3)
        from qchain.exactnum import quad_sqrt

        chi1 = chi(1, Fraction(1), Fraction(4))
        assert quad_sqrt(chi1 * chi1 + Fraction(4, 3)) == QuadraticNumber(
            Fraction(3, 4), Fraction(5, 4), D_REF
        )

    @pytest.mark.parametrize("m,n", [(2, 3), (-2, 5), (4, -1), (0, 3), (2, 0), (-3, -2)])
    def test_exact_sweep(self, m, n):
        for y in (Fraction(0), Fraction(1), Fraction(-3, 7)):
            assert verify_chi_properties(m, n, y, Fraction(4)).passed

    def test_float_mode(self):
        assert verify_chi_properties(2, -3, 0.37, 2.25).passed

    def test_nesting_of_support(self):
        # (n) is contained in (n+2), and the kernels of orders n and n + 2 at
        # one state carry identical support values on the shared indices
        y, q = Fraction(1), Fraction(4)
        for n in (2, 3, 4):
            inner, outer = build_distribution(n, y, q), build_distribution(n + 2, y, q)
            assert set(inner.indices()) < set(outer.indices())
            for k in inner.indices():
                assert inner.atoms[k].value == outer.atoms[k].value == chi(k, y, q)


class TestHermiteLimit:
    def test_degree_one(self):
        assert hermite_limit_identity(1, Fraction(1, 2), Fraction(1, 3)).passed

    def test_degree_two_term_expansion(self):
        # (y^2+1) - 2xy + (x^2-1) = (x-y)^2
        x, y = Fraction(3, 4), Fraction(-2, 5)
        assert (y * y + 1) - 2 * x * y + (x * x - 1) == (x - y) ** 2
        assert hermite_limit_identity(2, x, y).passed

    def test_degree_six(self):
        assert hermite_limit_identity(6, Fraction(2, 3), Fraction(-1, 5)).passed

    @given(
        m=st.integers(min_value=1, max_value=10),
        x=st.fractions(min_value=-3, max_value=3, max_denominator=10),
        y=st.fractions(min_value=-3, max_value=3, max_denominator=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_property(self, m, x, y):
        assert hermite_limit_identity(m, x, y).passed

    def test_report_serializes(self):
        import json

        doc = json.loads(hermite_limit_identity(2, Fraction(1), Fraction(0)).to_json())
        assert doc["identity"] == "hermite-limit"
        assert doc["passed"] is True
        assert "witness" not in doc


class TestVerdicts:
    """One lane rule and one verdict across the verifiers."""

    def test_exact_lane_reports_are_pinned(self):
        # sha256 of the concatenated exact-lane report JSON over a seeded
        # sweep: any change to a verdict, count or parameter shows here
        rng = random.Random(7)

        def rational():
            return Fraction(rng.randint(-30, 30), rng.randint(1, 9))

        reports = []
        for q in (Fraction(4), Fraction(9, 4), Fraction(16)):
            for m in range(1, 5):
                points = [(rational(), rational()) for _ in range((m + 1) ** 2 + 1)]
                reports.append(verify_factorization(m, q, sample_points=points))
            for _ in range(6):
                reports.append(verify_chi_properties(rng.randint(-4, 4), rng.randint(-4, 4), rational(), q))
            for m, n in ((2, 2), (2, 3), (3, 2)):
                reports.append(verify_chapman_kolmogorov(m, n, rational(), q))
        for m in range(1, 9):
            reports.append(hermite_limit_identity(m, rational(), rational()))
        digest = hashlib.sha256("".join(r.to_json() for r in reports).encode()).hexdigest()
        assert digest == "bb26d36179601b9013b394fc67f65a191e7c11d42487c308b92222b98e8d35e3"

    def test_float_lane_factorization_reports_are_pinned(self):
        # sha256 of the concatenated float-lane report JSON over a seeded
        # sweep, reports failed at rel_tol = -1 included: a change to any
        # residual, or to a route's value in a witness, shows to the last bit
        rng = random.Random(15)
        reports = []
        for q in (2.25, 4.0, 16.0):
            for m in range(1, 7):
                points = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range((m + 1) ** 2 + 1)]
                reports.append(verify_factorization(m, q, sample_points=points))
                reports.append(verify_factorization(m, q))
                with pytest.raises(VerificationFailed) as exc:
                    verify_factorization(m, q, sample_points=points[::-1], rel_tol=-1.0)
                reports.append(exc.value.report)
        digest = hashlib.sha256("".join(r.to_json() for r in reports).encode()).hexdigest()
        assert digest == "2409a7a91dcf2d8d2fba3b2bbd1d4efa06db3166b50d09b5bd9e0f201c8aeeed"

    def test_float_lane_chapman_kolmogorov_reports_are_pinned(self):
        # sha256 of the concatenated float-lane report JSON over a seeded sweep,
        # one-step and multi-step stages both: a change to any float support
        # point, mass or composed sum moves a recorded worst residual
        rng = random.Random(27)
        reports = []
        for q in (2.25, 4.0, 16.0):
            for m, n in ((2, 2), (2, 3), (3, 2), (4, 3)):
                for _ in range(3):
                    report = verify_chapman_kolmogorov(m, n, rng.uniform(-5, 5), q)
                    assert report.points_checked == (m + n - 1) + (3 * m - 2)  # every atom of both stages
                    reports.append(report)
        digest = hashlib.sha256("".join(r.to_json() for r in reports).encode()).hexdigest()
        assert digest == "d4a68ca08c8a09b235eec86958b3d238a47f4a0dd586d2fa112358286c313e8c"

    def test_addition_formula_reports_are_pinned(self):
        # sha256 over a seeded sweep, reports failed at rel_tol = -1 included:
        # the residual is a difference of 50-digit sides, so any change in
        # how a side is summed or multiplied shows here
        rng = random.Random(5)
        reports = []
        for n in range(1, 13):
            for q in (2.25, 4.0, 16.0, 0.5, 0.9):
                theta, phi = rng.uniform(0, 3.14), rng.uniform(0, 3.14)
                reports.append(verify_addition_formula(n, theta, phi, q))
                with pytest.raises(VerificationFailed) as exc:
                    verify_addition_formula(n, theta, phi, q, rel_tol=-1.0, dps=30)
                reports.append(exc.value.report)
        digest = hashlib.sha256("".join(r.to_json() for r in reports).encode()).hexdigest()
        assert digest == "23fea6a0940972292b2660932740ad8276c805eec309aaabe3aa98c2a5a8a55a"

    @pytest.mark.parametrize(
        "name,call",
        [
            ("theta", lambda: verify_addition_formula(3, math.nan, 0.5, 4.0)),
            ("phi", lambda: verify_addition_formula(3, 0.5, math.inf, 4.0)),
            ("q", lambda: verify_addition_formula(3, 0.5, 0.5, math.inf)),
            ("q", lambda: verify_addition_formula(3, 0.5, 0.5, math.nan)),
            ("q", lambda: verify_h_H_relation(3, 0.3, math.nan)),
            ("x", lambda: verify_h_H_relation(3, -math.inf, 4.0)),
            ("y", lambda: verify_B_H_relation(3, math.nan, 4.0)),
        ],
    )
    def test_non_finite_inputs_name_their_parameter(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: chi(1, Fraction(1), Fraction(2)),
            lambda: v_factor(1, Fraction(1), Fraction(1), Fraction(2)),
            lambda: eval_sum_form(3, Fraction(1), Fraction(1), Fraction(2)),
            lambda: eval_product_form(2, Fraction(1), Fraction(1), Fraction(2)),
            lambda: verify_chi_properties(1, 1, Fraction(1), Fraction(2)),
            lambda: verify_factorization(2, Fraction(2)),
        ],
    )
    def test_a_non_square_exact_q_is_named(self, call):
        with pytest.raises(NotAPerfectSquare, match=r"^exact mode needs q to be a perfect rational square, got 2$"):
            call()

    @pytest.mark.parametrize(
        "y, q",
        [(Fraction(1), 1), (Fraction(1), Fraction(1, 4)), (Fraction(1), Fraction(1, 2)),
         (1.0, 1.0), (1.0, 0.25), (1.0, 0.5), (1.0, math.nan), (Fraction(1), math.nan)],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda y, q: build_distribution(2, y, q),
            lambda y, q: chi(1, y, q),
            lambda y, q: _lift_state(y, q),
            lambda y, q: verify_chi_properties(1, 1, y, q),
        ],
        ids=["build_distribution", "chi", "_lift_state", "verify_chi_properties"],
    )
    def test_one_q_range_error_names_q(self, call, y, q):
        with pytest.raises(ValueError, match=rf"^needs q > 1, got q = {re.escape(str(q))}$"):
            call(y, q)

    def test_float_points_put_factorization_in_the_float_lane(self):
        # at q = 4 the sum form lands two ulps off the recurrence at (-2, -1.2)
        axis = [float(v) for v in rational_grid(6)]
        report = verify_factorization(3, Fraction(4), sample_points=[(x, y) for x in axis for y in axis])
        assert report.passed and report.parameters["mode"] == "float"
        assert 0 < report.max_residual < 1e-8

    @pytest.mark.parametrize("name,point", [("x", (math.nan, 0.5)), ("y", (0.5, -math.inf))])
    def test_non_finite_factorization_points_are_named(self, name, point):
        axis = [0.25 * i for i in range(6)]
        points = [(x, y) for x in axis for y in axis][:-1] + [point]
        with pytest.raises(ValueError, match=rf"^{name} of sample point \({point[0]}, {point[1]}\) must be finite"):
            verify_factorization(3, 4.0, sample_points=points)

    def test_nan_residual_fails_and_is_reported(self):
        with pytest.raises(VerificationFailed) as exc:
            verify_chi_properties(2, 1, math.nan, 4.0)
        assert math.isnan(exc.value.report.max_residual)
        assert math.isnan(exc.value.report.witness["residual"])

    @pytest.mark.parametrize("m,n,y,q", [(2, -1, 0.37, Fraction(9, 4)), (2, 1, Fraction(1), 4.0)])
    def test_mixed_lanes_run_chi_in_the_float_lane(self, m, n, y, q):
        report = verify_chi_properties(m, n, y, q)
        assert report.passed and report.parameters["mode"] == "float"
        assert report.max_residual < 1e-9

    @pytest.mark.parametrize(
        "call",
        [
            lambda: verify_h_H_relation(3, 0.3, 4.0, rel_tol=-1.0),
            lambda: verify_B_H_relation(3, 0.3, 4.0, rel_tol=-1.0),
            lambda: verify_addition_formula(3, 0.5, 0.5, 0.5, rel_tol=-1.0),
        ],
    )
    def test_failed_float_reports_serialize(self, call):
        # complex witness values are written as strings
        with pytest.raises(VerificationFailed) as exc:
            call()
        doc = json.loads(exc.value.report.to_json())
        assert doc["passed"] is False and "residual" in doc["witness"]
