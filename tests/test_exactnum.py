"""Exact arithmetic backbone: quadratic field elements, square roots,
float conversion and serialization."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchain.exactnum import (
    DiscriminantMismatch,
    NotAPerfectSquare,
    QuadraticNumber,
    _quad_product,
    _Ratio,
    format_scalar,
    parse_exact,
    quad_sqrt,
    rational_sqrt,
    scalar_sqrt,
)
from qchain.markov import build_distribution

D = Fraction(7, 3)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def qn(a, b, disc=D):
    return QuadraticNumber(a, b, disc)


class TestRationalSqrt:
    def test_perfect_squares(self):
        assert rational_sqrt(Fraction(4)) == 2
        assert rational_sqrt(Fraction(9, 16)) == Fraction(3, 4)
        assert rational_sqrt(Fraction(0)) == 0

    def test_non_squares(self):
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(4, 3)) is None
        assert rational_sqrt(Fraction(-4)) is None


class TestQuadraticArithmetic:
    def test_multiplicative_identity(self):
        u = qn(Fraction(3, 7), Fraction(-2, 5))
        assert qn(1, 0) * u == u

    def test_conjugate_product_is_rational(self):
        u = qn(Fraction(5, 4), Fraction(3, 4))
        prod = u * qn(u.a, -u.b, u.D)
        # 25/16 - (9/16)(7/3) = 1/4
        assert prod == qn(Fraction(1, 4), 0)

    def test_division_round_trip(self):
        u = qn(Fraction(5, 4), Fraction(3, 4))
        v = qn(Fraction(-1, 3), Fraction(2))
        assert (u / v) * v == u

    def test_integer_and_fraction_mixing(self):
        u = qn(1, 1)
        assert u + 1 == qn(2, 1)
        assert 1 + u == qn(2, 1)
        assert Fraction(1, 2) * u == qn(Fraction(1, 2), Fraction(1, 2))
        assert 3 - u == qn(2, -1)
        assert (1 / qn(0, 1)) * qn(0, 1) == 1

    def test_negative_powers(self):
        u = qn(Fraction(5, 4), Fraction(3, 4))
        assert u**3 * u**-3 == 1
        assert u**0 == 1

    @pytest.mark.parametrize("n", [-64, 33, 64])
    @pytest.mark.parametrize(
        "u", [qn(Fraction(5, 4), Fraction(3, 4)), qn(Fraction(-2, 9), Fraction(7, 5), 8), qn(0, Fraction(1, 3)), qn(-3, 0)]
    )
    def test_a_power_is_its_repeated_product(self, u, n):
        # |n| factors multiplied one at a time: the same value, written the same way
        product = qn(1, 0, u.D)
        for _ in range(abs(n)):
            product = product * u
        expected = 1 / product if n < 0 else product
        assert u**n == expected and str(u**n) == str(expected)

    def test_non_integer_power_is_refused(self):
        with pytest.raises(TypeError):
            qn(Fraction(5, 4), Fraction(3, 4)) ** 0.5

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            qn(1, 1) / qn(0, 0)

    def test_discriminant_mismatch(self):
        with pytest.raises(DiscriminantMismatch):
            qn(1, 1, Fraction(2)) + qn(1, 1, Fraction(3))

    @given(a1=rationals, b1=rationals, a2=rationals, b2=rationals, a3=rationals, b3=rationals)
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, a1, b1, a2, b2, a3, b3):
        u, v, w = qn(a1, b1), qn(a2, b2), qn(a3, b3)
        assert (u + v) + w == u + (v + w)
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        if v != 0:
            assert (u / v) * v == u

    @given(a=rationals, b=rationals)
    @settings(max_examples=80, deadline=None)
    def test_sign_agrees_with_float(self, a, b):
        u = qn(a, b)
        approx = float(a) + float(b) * math.sqrt(float(D))
        if abs(approx) > 1e-9:
            assert u.sign() == (1 if approx > 0 else -1)

    def test_ordering(self):
        small = qn(Fraction(5, 4), Fraction(-3, 4))
        big = qn(Fraction(5, 4), Fraction(3, 4))
        assert small < big
        assert big > small
        assert small <= small
        assert not small < small


# non-integer, non-squarefree and non-square D, then two square fields
ORACLE_DISCRIMINANTS = [8, Fraction(12, 5), Fraction(50, 27), Fraction(7, 3), Fraction(9, 4), 0]
plain_operands = st.one_of(st.integers(-30, 30), st.booleans(), rationals)


class Pair:
    """a + b*sqrt(D) as a pair of Fractions, folded to (a + b*sqrt(D), 0)
    when D is a rational square: an oracle for the integer coordinates."""

    def __init__(self, a, b, D):
        self.a, self.b, self.D = Fraction(a), Fraction(b), Fraction(D)
        n, d = self.D.numerator, self.D.denominator
        if math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d:
            self.a, self.b = self.a + self.b * Fraction(math.isqrt(n), math.isqrt(d)), Fraction(0)

    def lift(self, x):
        return x if isinstance(x, Pair) else Pair(x, 0, self.D)

    def __add__(self, other):
        o = self.lift(other)
        return Pair(self.a + o.a, self.b + o.b, self.D)

    def __neg__(self):
        return Pair(-self.a, -self.b, self.D)

    def __mul__(self, other):
        o = self.lift(other)
        return Pair(self.a * o.a + self.b * o.b * self.D, self.a * o.b + self.b * o.a, self.D)

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.D
        return Pair(self.a / norm, -self.b / norm, self.D)

    def sign(self):
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sb == 0 or sa in (0, sb):
            return sb or sa
        return sa if self.a * self.a > self.b * self.b * self.D else sb


def _pair_of(x, D):
    return Pair(x.a, x.b, x.D) if isinstance(x, QuadraticNumber) else Pair(x, 0, D)


def _reference(op, x, y, D):
    rx, ry = _pair_of(x, D), _pair_of(y, D)
    if op == "+":
        return rx + ry
    if op == "-":
        return rx + -ry
    if op == "*":
        return rx * ry
    return rx * ry.inverse()


OPERATIONS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y, "/": lambda x, y: x / y}


class TestAgainstFractionPairs:
    """The integer-coordinate arithmetic against the Pair oracle, over
    fields with N = D.numerator * D.denominator far from D itself."""

    @staticmethod
    def assert_matches(value, ref, D):
        assert isinstance(value, QuadraticNumber)
        assert all(type(x) is Fraction for x in (value.a, value.b, value.D))
        assert value.D == D and (value.a, value.b) == (ref.a, ref.b), (value, ref.a, ref.b)
        # the same value built from outside is equal, with the same sign
        assert value == qn(ref.a, ref.b, D) and value.sign() == ref.sign()

    @given(a1=rationals, b1=rationals, a2=rationals, b2=rationals, p=plain_operands, D=st.sampled_from(ORACLE_DISCRIMINANTS))
    @settings(max_examples=150, deadline=None)
    def test_field_operations(self, a1, b1, a2, b2, p, D):
        u, v = qn(a1, b1, D), qn(a2, b2, D)
        for x, y in ((u, v), (u, p), (p, u), (u, u)):
            for op, apply in OPERATIONS.items():
                if op == "/" and _pair_of(y, D).sign() == 0:
                    with pytest.raises(ZeroDivisionError):
                        apply(x, y)
                    continue
                self.assert_matches(apply(x, y), _reference(op, x, y, D), D)
        self.assert_matches(-u, -_pair_of(u, D), D)
        irrational = Pair(0, 1, D).b != 0  # over a square D the field is Q and conjugation is the identity
        self.assert_matches(qn(u.a, -u.b, D), Pair(a1, -b1 if irrational else b1, D), D)

    @given(a=rationals, b=rationals, n=st.integers(-5, 5), D=st.sampled_from(ORACLE_DISCRIMINANTS))
    @settings(max_examples=100, deadline=None)
    def test_powers(self, a, b, n, D):
        u, ref = qn(a, b, D), Pair(a, b, D)
        if n < 0 and ref.sign() == 0:
            with pytest.raises(ZeroDivisionError):
                u**n
            return
        expected = Pair(1, 0, D)
        for _ in range(abs(n)):
            expected = expected * ref
        self.assert_matches(u**n, expected if n >= 0 else expected.inverse(), D)

    @given(a1=rationals, b1=rationals, a2=rationals, b2=rationals, p=plain_operands, D=st.sampled_from(ORACLE_DISCRIMINANTS))
    @settings(max_examples=150, deadline=None)
    def test_sign_and_order(self, a1, b1, a2, b2, p, D):
        u, v = qn(a1, b1, D), qn(a2, b2, D)
        assert u.sign() == Pair(a1, b1, D).sign()
        assert bool(u) == (Pair(a1, b1, D).sign() != 0)
        for x, y in ((u, v), (u, p), (p, u), (v, v)):
            gap = _reference("-", x, y, D).sign()
            assert (x < y, x <= y, x == y, x >= y, x > y) == (gap < 0, gap <= 0, gap == 0, gap >= 0, gap > 0)

    @given(a=rationals, b=rationals, D=st.sampled_from(ORACLE_DISCRIMINANTS), other=st.sampled_from(ORACLE_DISCRIMINANTS))
    @settings(max_examples=40, deadline=None)
    def test_fields_do_not_mix(self, a, b, D, other):
        if Fraction(D) == Fraction(other):
            return
        u, w = qn(a, b, D), qn(a, b, other)
        for apply in [*OPERATIONS.values(), lambda x, y: x == y, lambda x, y: x < y]:
            with pytest.raises(DiscriminantMismatch):
                apply(u, w)


class TestDegenerateDiscriminant:
    # D = 25/4 is a perfect square, so Q(sqrt(D)) is just Q
    def test_value_equality(self):
        assert qn(1, 1, Fraction(25, 4)) == qn(Fraction(7, 2), 0, Fraction(25, 4))

    def test_equal_values_hash_alike(self):
        # a value with no sqrt(D) part equals a Fraction, so it hashes as one
        assert hash(qn(1, 1, Fraction(25, 4))) == hash(Fraction(7, 2))
        assert hash(qn(Fraction(3, 2), 0)) == hash(Fraction(3, 2))
        assert len({qn(1, 2), qn(Fraction(2, 2), 2), qn(1, 0), Fraction(1), 1, qn(1, -2)}) == 3

    def test_sign_uses_value(self):
        assert qn(5, -2, Fraction(25, 4)).sign() == 0
        assert qn(5, -1, Fraction(25, 4)).sign() == 1

    def test_quad_sqrt_collapses_to_rational(self):
        v = qn(0, 1, Fraction(25, 4))  # = 5/2
        with pytest.raises(NotAPerfectSquare):
            quad_sqrt(v)
        w = quad_sqrt(qn(Fraction(25, 4), 0, Fraction(25, 4)))
        assert w * w == qn(Fraction(25, 4), 0, Fraction(25, 4))

    def test_one_representation_per_value(self):
        # 1 + 1*sqrt(25/4) is stored as 7/2, so equal values agree everywhere
        u, v = qn(1, 1, Fraction(25, 4)), qn(Fraction(7, 2), 0, Fraction(25, 4))
        assert u.b == 0 and u.a == Fraction(7, 2)
        assert qn(u.a, -u.b, u.D) == qn(v.a, -v.b, v.D) == Fraction(7, 2)
        assert format_scalar(u) == format_scalar(v) == "7/2"
        with pytest.raises(ZeroDivisionError):
            v / qn(5, -2, Fraction(25, 4))


class TestQuadSqrt:
    def test_rational_square(self):
        assert quad_sqrt(qn(4, 0)) == qn(2, 0)

    def test_pure_radical_square(self):
        # sqrt(D * 1) = sqrt(D)
        assert quad_sqrt(qn(D, 0)) == qn(0, 1)

    def test_constructed_square(self):
        w = qn(1, 1)
        assert quad_sqrt(w * w) == w

    def test_support_point_radical(self):
        # (5/4 + 3/4 sqrt(7/3))^2 + 4/3 = (3/4 + 5/4 sqrt(7/3))^2
        chi1 = qn(Fraction(5, 4), Fraction(3, 4))
        v = chi1 * chi1 + Fraction(4, 3)
        root = quad_sqrt(v)
        assert root == qn(Fraction(3, 4), Fraction(5, 4))
        assert root * root == v

    @given(a=rationals, b=rationals)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, a, b):
        w = qn(a, b)
        assert quad_sqrt(w * w) == abs(w)

    def test_not_a_perfect_square(self):
        with pytest.raises(NotAPerfectSquare):
            quad_sqrt(qn(2, 0))  # sqrt(2) not in Q(sqrt(7/3))
        with pytest.raises(NotAPerfectSquare):
            quad_sqrt(qn(1, 1))

    def test_negative_input(self):
        with pytest.raises(NotAPerfectSquare):
            quad_sqrt(qn(-4, 0))

    def test_nonnegative_root_returned(self):
        w = qn(Fraction(-5, 4), Fraction(-3, 4))
        assert quad_sqrt(w * w) == -w


class TestScalarSqrt:
    def test_dispatch(self):
        assert scalar_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert scalar_sqrt(4) == 2
        assert scalar_sqrt(2.25) == 1.5
        assert scalar_sqrt(complex(-1, 0)) == 1j
        assert scalar_sqrt(qn(4, 0)) == qn(2, 0)

    def test_exact_failure(self):
        with pytest.raises(NotAPerfectSquare):
            scalar_sqrt(Fraction(2))

    def test_mpmath_keeps_the_working_precision(self):
        with mpmath.mp.workdps(50):
            root = scalar_sqrt(mpmath.mpf(2))
            assert isinstance(root, mpmath.mpf)
            assert root == mpmath.sqrt(2)

    @pytest.mark.parametrize("dps", [6, 15, 30, 50, 80])
    def test_mpf_root_is_mpmath_sqrt_bit_for_bit(self, dps):
        rng = random.Random(dps)
        with mpmath.mp.workdps(dps):
            prec = mpmath.mp.prec
            values = [mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(2)]
            values += [mpmath.mpf(rng.getrandbits(prec) | 1) * mpmath.mpf(2) ** rng.randint(-300, 300) for _ in range(300)]
            for v in values:
                root = scalar_sqrt(v)
                assert isinstance(root, mpmath.mpf)
                assert root._mpf_ == mpmath.sqrt(v)._mpf_, (dps, v)


class TestFloatConversion:
    @staticmethod
    def reference(v: QuadraticNumber, prec: int = 200):
        with mpmath.workprec(prec):
            a, b, d = (mpmath.mpf(x.numerator) / x.denominator for x in (v.a, v.b, v.D))
            return a + b * mpmath.sqrt(d)

    @pytest.mark.parametrize("m", [8, 10, 12])
    @pytest.mark.parametrize("q", [Fraction(4), Fraction(16), 4])  # an int q builds the exact kernel too
    def test_kernel_atoms_round_to_a_few_ulps(self, m, q):
        # support values and masses of exact kernels: a and b*sqrt(D) of
        # opposite signs cancel to many digits here
        for y in (Fraction(1), Fraction(-3, 7), Fraction(5, 2)):
            for atom in build_distribution(m, y, q).atoms.values():
                for v in atom:
                    ref = self.reference(v)
                    assert abs(float(v) - ref) <= 4 * 2**-53 * abs(ref), (m, q, y, v)

    def test_underflowing_parts_round_to_subnormal_or_zero(self):
        # every part of these masses underflows a float, so only a scaled
        # conversion reaches the correctly rounded value; a and b*sqrt(D)
        # cancel to hundreds of digits, hence the wide reference
        dist = build_distribution(8, Fraction(10**60), Fraction(9, 4))
        tiny = qn(Fraction(3, 10**322), Fraction(-1, 10**322))  # 1.5e-322, subnormal
        for v in [dist.atoms[k].mass for k in dist.indices()] + [tiny]:
            ref = self.reference(v, prec=4000)
            assert abs(float(v) - ref) <= max(4 * 2**-53 * abs(ref), 2**-1074), v
        assert float(dist.atoms[1].mass) == 0.0 and float(dist.atoms[-3].mass) > 0 and float(tiny) > 0

    @given(rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, a, b):
        v = qn(a, b)
        ref = self.reference(v)
        assert abs(float(v) - ref) <= 4 * 2**-53 * abs(ref)

    # float() is the reference the float lane is held to, so it must be the
    # correctly rounded value: equal to a 4000-bit reference rounded once
    def test_kernel_atoms_round_correctly(self):
        values = [
            v
            for m in (8, 10, 12)
            for q in (Fraction(4), Fraction(16), Fraction(9, 4))
            for y in (Fraction(1), Fraction(-3, 7), Fraction(5, 2), Fraction(-137, 23))
            for atom in build_distribution(m, y, q).atoms.values()
            for v in atom
        ]
        underflowing = build_distribution(8, Fraction(10**60), Fraction(9, 4))  # and the subnormal cases above
        values += [underflowing.atoms[k].mass for k in underflowing.indices()] + [qn(Fraction(3, 10**322), Fraction(-1, 10**322))]
        for v in values:
            assert float(v) == float(self.reference(v, prec=4000)), v

    @pytest.mark.parametrize(
        "a, b, disc",
        [
            (Fraction(-3, 17), Fraction(-229, 23), 19),
            (Fraction(253, 48), Fraction(111, 13), 2),
            (Fraction(126, 95), Fraction(-723, 83), Fraction(25, 2)),
            (Fraction(349, 30), -3, Fraction(50, 3)),
        ],
    )
    def test_values_next_to_a_rounding_boundary_round_correctly(self, a, b, disc):
        # |b| sqrt(D) to 64 bits leaves these on both sides of a boundary
        # between doubles: its floor alone rounds to the wrong neighbour
        v = qn(a, b, disc)
        assert float(v) == float(self.reference(v, prec=4000))

    @given(rationals, rationals, st.sampled_from(ORACLE_DISCRIMINANTS))
    @settings(max_examples=300, deadline=None)
    def test_pairs_round_correctly(self, a, b, disc):
        v = qn(a, b, disc)
        assert float(v) == float(self.reference(v, prec=4000))


class TestSerialization:
    @pytest.mark.parametrize(
        "value",
        [
            Fraction(5),
            Fraction(-3, 7),
            qn(Fraction(5, 4), Fraction(3, 4)),
            qn(Fraction(5, 4), Fraction(-3, 4)),
            qn(Fraction(-1, 2), Fraction(2, 9)),
            qn(0, Fraction(-3, 4)),
            qn(Fraction(2), 0),
        ],
    )
    def test_round_trip(self, value):
        parsed = parse_exact(format_scalar(value))
        assert parsed == value

    def test_float_format(self):
        assert format_scalar(0.25) == "0.25"

    def test_repr_names_the_coordinates(self):
        assert repr(qn(Fraction(1, 2), -2)) == "QuadraticNumber(1/2, -2, 7/3)"

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_exact("sqrt(")


class TestOneReduction:
    @staticmethod
    def seeded(rng, disc=D):
        fraction = lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 30))
        return qn(fraction(), fraction(), disc)

    @pytest.mark.parametrize("disc", [D, Fraction(9, 4)])  # 9/4: a square field, folded into Q
    def test_the_fold_is_the_product(self, disc):
        rng = random.Random(13)
        for start in (1, -3, 0, Fraction(-5, 7), Fraction(22, 3), qn(Fraction(1, 2), Fraction(-3, 5), disc)):
            for n in range(1, 9):
                factors = [self.seeded(rng, disc) for _ in range(n)]
                folded, product = _quad_product(start, factors), math.prod(factors, start=start)
                assert folded == product and str(folded) == str(product), (start, n)

    def test_text_is_the_text_of_its_fraction_parts(self):
        rng = random.Random(17)
        values = [qn(Fraction(-3, 4), Fraction(5, 6)), qn(Fraction(5, 2), Fraction(-7, 3)), qn(0, Fraction(2, 9))]
        values += [qn(3, -2), qn(Fraction(-7), Fraction(1, 2)), qn(Fraction(1, 3), 4), qn(0, -1), qn(-6, 0)]
        values += [self.seeded(rng, Fraction(rng.randint(1, 50), rng.randint(1, 9))) for _ in range(300)]
        for v in values:
            assert str(v) == f"{v.a} {'-' if v.b < 0 else '+'} {abs(v.b)}*sqrt({v.D})"


operands = st.one_of(
    st.integers(-60, 60),
    rationals,
    rationals.map(lambda f: ("ratio", f)),  # the same value as a _Ratio
)


class TestUnreducedRatio:
    """_Ratio against Fraction: the same value and the same text after every step."""

    @staticmethod
    def as_ratio(operand):
        return _Ratio.lift(operand[1]) if isinstance(operand, tuple) else operand

    @staticmethod
    def as_fraction(operand):
        return operand[1] if isinstance(operand, tuple) else operand

    @settings(max_examples=120, deadline=None, derandomize=True)  # derandomized: a seeded run
    @given(rationals, st.lists(st.tuples(st.sampled_from("+-*"), st.booleans(), operands), min_size=1, max_size=12))
    def test_a_sequence_of_steps_is_the_fraction_sequence(self, start, steps):
        apply = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}
        ratio, fraction = _Ratio.lift(start), start
        for op, ratio_on_the_left, operand in steps:
            left, right = (ratio, self.as_ratio(operand)) if ratio_on_the_left else (self.as_ratio(operand), ratio)
            ratio = apply[op](left, right)
            a, b = (fraction, self.as_fraction(operand))[:: 1 if ratio_on_the_left else -1]
            fraction = apply[op](a, b)
            assert type(ratio) is _Ratio and ratio.d > 0
            assert ratio == fraction and fraction == ratio and str(ratio) == str(fraction)
        assert ratio != fraction + 1 and -ratio == -fraction

    def test_an_operand_outside_the_rationals_is_not_implemented(self):
        r = _Ratio(3, 6)
        for other in (0.5, 1j, QuadraticNumber(1, 1, D), "1/2"):
            assert r.__add__(other) is NotImplemented and r.__mul__(other) is NotImplemented
            assert r.__sub__(other) is NotImplemented and r.__rsub__(other) is NotImplemented
            assert r.__eq__(other) is NotImplemented
        assert r != 0.5  # no float comparison: == falls back to identity

    def test_sums_take_the_lcm_and_products_do_not_reduce(self):
        a, b = _Ratio(1, 6), _Ratio(1, 10)
        assert ((a + b).n, (a + b).d) == (8, 30) and ((a - b).n, (a - b).d) == (2, 30)
        assert ((a * b).n, (a * b).d) == (1, 60) and ((2 - a).n, (2 - a).d) == (11, 6)
        assert str(_Ratio(8, 30)) == "4/15" and str(_Ratio(-30, 6)) == "-5" and str(_Ratio(0, 7)) == "0"
