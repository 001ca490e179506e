"""Transition kernels: construction, moment laws, composition, sampling."""

import cProfile
import hashlib
import json
import math
import pstats
import random
import re
import sys
import warnings
from fractions import Fraction

import pytest

from qchain.exactnum import QuadraticNumber
from qchain.markov import (
    Atom,
    ChainConfig,
    CompositionMismatch,
    ConditionalDistribution,
    DegenerateSupport,
    InsufficientSamples,
    InvalidKernel,
    NegativeMassError,
    StateOverflow,
    Trajectory,
    build_distribution,
    compose,
    conditional_moment_residual,
    empirical_conditional_moment,
    k_step_distribution,
    sample_step,
    simulate,
    verify_chapman_kolmogorov,
)
from qchain.qcore import eval_H_seq, q_binomial
from qchain.spectra import IndexSetError, VerificationFailed, VerificationReport, _lift_state, chi, index_set

Y1, Q4 = Fraction(1), Fraction(4)


def calls_of(name, fn):
    """How many times a function named `name` runs during fn()."""
    profile = cProfile.Profile()
    profile.runcall(fn)
    return sum(stat[1] for (_, _, func), stat in pstats.Stats(profile).stats.items() if func == name)


class TestBuildDistribution:
    def test_two_point_closed_form(self):
        # independent oracle: lambda_{+1} = (rho y - chi_{-1}) / (chi_1 - chi_{-1})
        dist = build_distribution(2, Y1, Q4)
        rho = Fraction(1, 2)
        plus, minus = chi(1, Y1, Q4), chi(-1, Y1, Q4)
        lam_plus = (rho * Y1 - minus) / (plus - minus)
        assert dist.mass(1) == lam_plus
        assert dist.mass(-1) == 1 - lam_plus
        assert dist.value(1) == plus
        assert dist.value(-1) == minus

    def test_two_point_float_frozen(self):
        dist = build_distribution(2, 1.0, 4.0)
        assert dist.mass(1) == pytest.approx(0.17267316464601146, abs=1e-12)
        assert dist.mass(-1) == pytest.approx(0.8273268353539885, abs=1e-12)
        assert dist.value(1) == pytest.approx(2.3956439237389597)
        assert dist.value(-1) == pytest.approx(0.10435607626104004)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_mass_normalization_exact(self, m):
        dist = build_distribution(m, Fraction(-3, 7), Fraction(9, 4))
        assert dist.mass_total() == 1

    def test_support_indices(self):
        dist = build_distribution(4, Y1, Q4)
        assert dist.indices() == index_set(4)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_distribution(1, Y1, Q4)
        with pytest.raises(ValueError):
            build_distribution(2, Y1, Fraction(1))

    def test_float_state_forces_float_lane(self):
        dist = build_distribution(2, 1.0, Fraction(4))
        assert not dist.exact
        assert isinstance(dist.q, float)

    def test_strict_accepts_clean_kernels(self):
        dist = build_distribution(3, Y1, Q4, strict=True)
        assert dist.negative_atoms() == []

    def test_exact_atoms_live_in_one_field(self):
        dist = build_distribution(3, Y1, Q4)
        for atom in dist.atoms.values():
            assert isinstance(atom.value, QuadraticNumber)
            assert atom.value.D == Fraction(7, 3)

    @pytest.mark.parametrize("q", [Fraction(9, 4), Q4, Fraction(16)])
    def test_float_masses_match_rounded_exact_masses(self, q):
        rng = random.Random(2026)
        for m in range(2, 17):
            for _ in range(2):
                y = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                exact = build_distribution(m, y, q)
                approx = build_distribution(m, float(y), float(q))
                for k in exact.indices():
                    ref = float(exact.mass(k))
                    assert abs(approx.mass(k) - ref) <= 1e-12 * ref, (m, y, k)

    @pytest.mark.parametrize("q", [Fraction(9, 4), Q4, Fraction(16)])
    def test_float_masses_match_rounded_exact_masses_at_large_states(self, q):
        # |y| log-uniform up to 1e100, both signs, y a multiple of 1/8 so
        # the float and the exact kernel sit at the same state
        rng = random.Random(2027)
        for m in (2, 3, 4, 8, 12, 16):
            for sign in (1, -1) * 2:
                y = sign * round(8 * 10 ** rng.uniform(0, 100)) / 8
                exact = build_distribution(m, Fraction(y), q)
                approx = build_distribution(m, y, float(q))
                for k in exact.indices():
                    ref = float(exact.mass(k))
                    if ref >= 1e-290:
                        assert abs(approx.mass(k) - ref) <= 1e-12 * ref, (m, y, k)

    @pytest.mark.parametrize("q", [2.25, 4.0, 16.0])
    def test_float_masses_stay_normalized_until_chi_overflows(self, q):
        # z = e^{2 theta} overflows near |y| = 1e153 while chi does not
        for m in (2, 3, 4, 8, 12, 16):
            for y in [sign * 10.0**e for e in range(0, 154, 3) for sign in (1, -1)] + [1e153, -1e153]:
                masses = [build_distribution(m, y, q).mass(k) for k in index_set(m)]
                assert all(math.isfinite(lam) and lam >= 0 for lam in masses), (m, y)
                assert abs(math.fsum(masses) - 1) <= 1e-12, (m, y)

    def test_degenerate_support_names_its_parameters(self):
        with pytest.raises(DegenerateSupport, match=r"y=1e\+200.*m=2.*q=4\.0"):
            build_distribution(2, 1e200, 4.0)

    @pytest.mark.parametrize(
        "build, args, order",
        [
            (build_distribution, (320, 0.0, 16.0), 320),  # q^e overflows in a mass factor
            (build_distribution, (160, 0.0, 100.0), 160),
            (build_distribution, (320, 2.5, 16.0), 320),  # support points overflow to -inf
            (k_step_distribution, (3, 200, 1.0, 16.0), 401),
            (k_step_distribution, (3, 400, 1.0, 16.0), 801),  # q^{k/2} underflows to a 0.0 divisor
        ],
    )
    def test_support_past_the_double_range_is_named(self, build, args, order):
        y, q = args[-2:]
        pattern = rf"leaves the double range.*y={re.escape(repr(y))}.*m={order}.*q={re.escape(repr(q))}"
        with pytest.raises(DegenerateSupport, match=pattern):
            build(*args)

    @pytest.mark.parametrize(
        "build, args, order, quantity, index",
        [
            (build_distribution, (320, 0.0, 16.0), 320, "power", -318),  # 16^-318 underflows to 0.0
            (build_distribution, (160, 0.0, 100.0), 160, "power", 155),  # 100^155 overflows
            (build_distribution, (320, 2.5, 16.0), 320, "point", -319),
            (k_step_distribution, (3, 200, 1.0, 16.0), 401, "point", -400),
            (k_step_distribution, (3, 400, 1.0, 16.0), 801, "point", -800),
        ],
    )
    def test_support_past_the_double_range_names_the_first_index_out(self, build, args, order, quantity, index):
        # the named index is the first, ascending, whose support point chi_k raises or is not
        # finite, or, with every point finite, whose power q^e overflows or underflows to 0.0
        y, q = args[-2:]

        def point_out(k):
            try:
                return not math.isfinite(chi(k, y, q))
            except OverflowError:
                return True

        def power_out(e):
            try:
                return q**e == 0.0
            except OverflowError:
                return True

        if quantity == "point":
            out, indices, text = point_out, index_set(order), f"the support point chi_(i+k) at k = {index}, i = 0"
        else:
            assert not any(map(point_out, index_set(order)))
            out, indices, text = power_out, range(2 - order, order - 1), f"the mass-factor power q^(i+e) at e = {index}, i = 0"
        assert [j for j in indices if out(j)][0] == index
        with pytest.raises(DegenerateSupport) as exc:
            build(*args)
        assert str(exc.value).endswith(f"; the first out is {text}")

    def test_float_masses_hold_the_stated_bound(self):
        # the module docstring's contract: every float mass whose exact value
        # is a normal double lies within 2e-14 relative of it correctly rounded
        for q in (Fraction(9, 4), Q4, Fraction(16), Fraction(100)):
            for y in (Fraction(0), Fraction(5, 2), Fraction(-1000), Fraction(1, 3)):
                for m in range(2, 25):
                    exact, approx = build_distribution(m, y, q), build_distribution(m, float(y), float(q))
                    for k in exact.indices():
                        ref = float(exact.mass(k))
                        if ref >= sys.float_info.min:
                            assert abs(approx.mass(k) - ref) <= 2e-14 * ref, (m, q, y, k)

    def test_exact_lane_is_pinned(self):
        # sha256 of the concatenated exact kernel JSON: any change to an
        # exact support point or mass shows here
        qs = (Q4, Fraction(9, 4), Fraction(16))
        ys = (Fraction(0), Y1, Fraction(-3, 7), Fraction(2, 3), Fraction(5, 2), Fraction(-7, 3), Fraction(11, 12))
        text = "".join(build_distribution(m, y, q).to_json() for q in qs for y in ys for m in range(2, 10))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "b434697c65d5a44d45bb1a38925b8f4385da81b3d7c9093cb64d1938663f6168"

    def test_exact_lane_is_pinned_where_the_field_is_rational(self):
        # D = y^2 + 4/(q-1) is a perfect square at these states (9/4, 25/4
        # and 16/9), so every support point and mass is rational
        states = ((Fraction(25, 9), Fraction(0)), (Fraction(25, 9), Fraction(2)), (Q4, Fraction(2, 3)))
        text = "".join(build_distribution(m, y, q).to_json() for q, y in states for m in range(2, 9))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "f5caac15b4288b5a74d1d0a20df2af60acdd5d0161d64e6e8329b25806d60bf6"

    def test_exact_lane_is_pinned_at_the_benchmark_orders(self):
        # the orders m = 10..12 that exact builds reach beyond the pin above
        qs = (Q4, Fraction(9, 4))
        ys = (Fraction(-137, 23), Y1, Fraction(-3, 7), Fraction(5, 2))
        text = "".join(build_distribution(m, y, q).to_json() for q in qs for y in ys for m in range(10, 13))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "7a9955a16975ef5756e84530e2c8eb4db63b13becbb629499a37446ca8027318"

    def test_float_lane_is_pinned(self):
        # sha256 of the concatenated float kernel JSON over y in [-10, 10]:
        # any change to a float support point or mass shows here
        ys = [i / 4 for i in range(-40, 41)]
        text = "".join(build_distribution(m, y, q).to_json() for q in (2.25, 4.0, 16.0) for y in ys for m in (2, 3, 4, 7))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "95477a7517fd35521a8f18e9c9778dae70560b0ec9dea226fb39f580035354b1"

    @pytest.mark.parametrize("m, y, q", [(3, 1.3, 4.0), (12, Fraction(-137, 23), Fraction(9, 4))])
    def test_state_is_lifted_once_per_kernel(self, m, y, q):
        # every support point and z are read from one lift of y
        assert calls_of("_lift_state", lambda: build_distribution(m, y, q)) == 1

    @pytest.mark.parametrize("m, y, q", [(3, 1.3, 4.0), (12, Fraction(-137, 23), Fraction(9, 4))])
    def test_sqrt_q_is_formed_once_per_kernel(self, m, y, q):
        assert calls_of("scalar_sqrt", lambda: build_distribution(m, y, q)) == 1

    @pytest.mark.parametrize(
        "name, call",
        [
            ("m", lambda: build_distribution(3.0, Y1, Q4)),
            ("n", lambda: compose(build_distribution(2, Y1, Q4), 2.0)),
            ("k", lambda: k_step_distribution(2, 1.5, Y1, Q4)),
        ],
    )
    def test_a_non_int_order_is_named(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got"):
            call()

    def test_a_non_int_m_of_k_step_is_named_as_given(self):
        # not through the derived order k(m-1) + 1 = 2.0
        with pytest.raises(ValueError, match=r"^m must be an int, got 1\.5$"):
            k_step_distribution(1.5, 2, Fraction(1), Fraction(4))

    @pytest.mark.parametrize("y, q, name", [(math.nan, 4.0, "y"), (1.0, math.inf, "q"), (math.inf, 4.0, "y")])
    def test_float_lane_names_a_non_finite_input(self, y, q, name):
        with pytest.raises(ValueError, match=rf"{name} must be finite"):
            build_distribution(2, y, q)


class TestLatticeKernels:
    """The kernel at lattice index i of a start y, read from the builder of
    y's lattice, is the kernel at chi_i(y): chi_k o chi_i = chi_{i+k} on the
    path build_distribution, compose and simulate take."""

    @staticmethod
    def at_index(m, i, y, q):
        import qchain.markov as markov_mod
        from qchain.spectra import _lift_state

        return markov_mod._lattice_kernels(m, _lift_state(y, q))(i)

    def test_exact_kernel_at_an_index_is_the_kernel_at_its_state(self):
        for q in (Q4, Fraction(9, 4)):
            for y in (Y1, Fraction(-3, 7), Fraction(5, 2)):
                for m in range(2, 7):
                    for i in range(-4, 5):
                        direct = build_distribution(m, chi(i, y, q), q)
                        lattice = self.at_index(m, i, y, q)
                        assert lattice.y == direct.y and lattice.atoms == direct.atoms, (q, y, m, i)

    def test_float_kernel_at_an_index_holds_the_stated_bound(self):
        # the module docstring's 2e-14 relative bound for normal masses
        for q in (2.25, 4.0, 16.0):
            for y in (1.0, -3 / 7, 2.5):
                for m in range(2, 13):
                    for i in range(-8, 9):
                        direct = build_distribution(m, chi(i, y, q), q)
                        lattice = self.at_index(m, i, y, q)
                        assert lattice.y == direct.y and lattice.indices() == direct.indices()
                        for k, atom in direct.atoms.items():
                            mine = lattice.atoms[k]
                            assert abs(mine.value - atom.value) <= 2e-14 * max(1.0, abs(atom.value)), (q, y, m, i, k)
                            if atom.mass >= sys.float_info.min:
                                assert abs(mine.mass - atom.mass) <= 2e-14 * atom.mass, (q, y, m, i, k)

    @staticmethod
    def folded_masses(m, i, y, q):
        """Each mass as a left fold from [m-1 choose j]_{1/q}, one product at a time, with both
        reciprocals per e = i + (k+h)/2: 1/(1 + z q^e) for h < k, 1/(1 + z^{-1} q^{-e}) for h > k."""
        z = (q - 1) / 4 * (y + _lift_state(y, q)[1]) ** 2  # e^{2 theta}
        factors = {e: (1 / (1 + z * q**e), 1 / (1 + 1 / (z * q**e))) for e in range(i + 2 - m, i + m - 1)}
        masses = {}
        for k in index_set(m):
            mass = q_binomial(m - 1, (m - 1 - k) // 2, 1 / q)
            for h in index_set(m):
                if h != k:
                    mass = mass * factors[i + (k + h) // 2][h > k]
            masses[k] = mass
        return masses

    def test_exact_masses_are_the_fold_with_both_reciprocals(self):
        for q in (Q4, Fraction(9, 4), Fraction(9), Fraction(25, 16)):
            for y in (Fraction(0), Y1, Fraction(-137, 23), Fraction(-1000), chi(1, Y1, q)):
                for m in range(2, 17):
                    for i in (0, 3, -5):
                        masses = {k: atom.mass for k, atom in self.at_index(m, i, y, q).atoms.items()}
                        assert masses == self.folded_masses(m, i, y, q), (q, y, m, i)

    def test_errors_name_the_state_at_the_index(self):
        state = repr(float(chi(510, 1.0, 16.0)))
        with pytest.raises(DegenerateSupport, match=f"at state y={re.escape(state)} "):
            self.at_index(3, 510, 1.0, 16.0)
        kernel = self.at_index(3, 2, Y1, Q4)
        assert kernel.y == chi(2, Y1, Q4) != Y1
        kernel.atoms[0] = kernel.atoms[0]._replace(mass=kernel.atoms[0].mass + 1)
        with pytest.raises(InvalidKernel, match=re.escape(f"y={chi(2, Y1, Q4)},")):
            kernel.check_masses()


class TestMomentLaw:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_defining_rows_vanish_exactly(self, m):
        dist = build_distribution(m, Y1, Q4)
        for j in range(1, m):
            assert conditional_moment_residual(dist, j) == 0

    def test_diagnostic_orders_also_vanish(self):
        # the kernel matches conditional moments of every order, not just
        # the m-1 defining ones (the composition proof relies on this)
        dist = build_distribution(2, Y1, Q4)
        for j in range(2, 7):
            residual = conditional_moment_residual(dist, j)
            direct = sum(
                (atom.mass * eval_H_seq(j, atom.value, Q4)[j] for atom in dist.atoms.values()),
                start=QuadraticNumber(0, 0, Fraction(7, 3)),
            ) - Fraction(1, 2) ** j * eval_H_seq(j, Y1, Q4)[j]
            assert residual == direct
            assert residual == 0

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            conditional_moment_residual(build_distribution(2, Y1, Q4), 0)

    def test_float_rows_vanish_to_rounding(self):
        # the float lane's rho = sqrt(q)^{1-m} = 1/4 at q = 4, m = 3
        dist = build_distribution(3, 1.3, 4.0)
        for j in (1, 2):
            assert abs(conditional_moment_residual(dist, j)) <= 1e-12


class TestComposition:
    def test_two_after_two_is_three(self):
        composed = compose(build_distribution(2, Y1, Q4), 2)
        direct = build_distribution(3, Y1, Q4)
        assert composed.atoms == direct.atoms
        assert composed.m == 3

    def test_three_after_two_is_four(self):
        composed = compose(build_distribution(2, Y1, Q4), 3)
        assert composed.atoms == build_distribution(4, Y1, Q4).atoms

    def test_support_is_the_sumset(self):
        composed = compose(build_distribution(3, Y1, Q4), 2, check=False)
        assert composed.indices() == sorted({i + j for i in index_set(3) for j in index_set(2)})

    def test_k_step_shortcuts(self):
        one = k_step_distribution(2, 1, Y1, Q4)
        assert one.atoms == build_distribution(2, Y1, Q4).atoms
        two = k_step_distribution(3, 2, Y1, Q4)
        assert two.atoms == build_distribution(5, Y1, Q4).atoms

    def test_k_step_equals_composition_chain(self):
        chained = compose(compose(build_distribution(2, Y1, Q4), 2), 2)
        assert chained.atoms == k_step_distribution(2, 3, Y1, Q4).atoms

    def test_composed_kernels_are_pinned(self):
        # inner kernels sit at lattice indices of the start, read from its one
        # lift: any change to a composed support point or mass shows here
        qs = (Q4, Fraction(9, 4))
        ys = (Y1, Fraction(-3, 7), Fraction(5, 2))
        orders = ((2, 2), (3, 2), (2, 3))
        text = "".join(
            compose(build_distribution(m, y, q), n, check=False).to_json() for q in qs for y in ys for m, n in orders
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "f9d3becdd65c87f79dff2138120efbd77edfa8b7be17757d61e6bfa2323a6e4f"

    def test_inner_order_validated(self):
        with pytest.raises(ValueError):
            compose(build_distribution(2, Y1, Q4), 1)

    @pytest.mark.parametrize("y, q", [(Y1, Q4), (1.0, 4.0)])
    def test_check_holds_the_outer_values_to_the_direct_kernel(self, y, q):
        import qchain.markov as markov_mod

        # compose takes its support values from the lattice of dist.y, so an
        # outer atom's edited value shows only against the direct kernel
        dist = build_distribution(3, y, q)
        dist.atoms[-2] = dist.atoms[-2]._replace(value=dist.atoms[-2].value + 1)
        with pytest.raises(CompositionMismatch, match=r"^compose\(3,2\) outer kernel at "):
            compose(dist, 2, check=True)
        unchecked = compose(dist, 2, check=False)  # reads only the outer indices and masses
        markov_mod._check_direct(VerificationReport("composition", {}), unchecked, "unchecked")

    def test_one_q_pascal_row_per_order(self):
        # the outer build and the inner builder each form one row, however
        # many outer atoms read it
        check = lambda: compose(build_distribution(3, Y1, Q4), 3, check=False)
        assert calls_of("_q_binomial_row", check) == 2

    def test_mismatch_detected(self):
        dist = build_distribution(2, Y1, Q4)
        tampered = ConditionalDistribution(
            m=2,
            y=dist.y,
            q=dist.q,
            atoms={k: Atom(a.value, a.mass + (Fraction(1, 10) if k == 1 else Fraction(-1, 10))) for k, a in dist.atoms.items()},
        )
        with pytest.raises(CompositionMismatch):
            compose(tampered, 2)

    def test_check_holds_exact_kernels_to_identity(self):
        # two end masses moved by +-1e-400: the gap rounds to 0.0 as a float,
        # yet the composed atoms are not the direct ones
        dist = build_distribution(3, Y1, Q4)
        low, high = dist.indices()[0], dist.indices()[-1]
        nudge = Fraction(1, 10**400)
        dist.atoms[low] = dist.atoms[low]._replace(mass=dist.atoms[low].mass + nudge)
        dist.atoms[high] = dist.atoms[high]._replace(mass=dist.atoms[high].mass - nudge)
        unchecked = compose(dist, 2, check=False)
        direct = build_distribution(4, Y1, Q4)
        assert unchecked.atoms != direct.atoms
        assert all(float(a.mass) == float(direct.mass(k)) for k, a in unchecked.atoms.items())
        with pytest.raises(CompositionMismatch, match=r"^compose\(3,2\) outer kernel at y=1, q=4: .*'k': '-2'"):
            compose(dist, 2, check=True)

    def test_check_refuses_an_outer_kernel_off_its_index_set(self):
        # (-4, 4) + (5) covers (9), so only the direct match sees the missing atoms
        dist = build_distribution(5, Y1, Q4)
        dist.atoms = {k: dist.atoms[k] for k in (-4, 4)}
        with pytest.raises(CompositionMismatch, match=r"outer kernel at .*'indices': '\[-4, 4\]'"):
            compose(dist, 5)

    def test_nan_masses_fail_the_direct_match(self, monkeypatch):
        import qchain.markov as markov_mod

        real = build_distribution(2, 1.0, 4.0)
        nan_copy = ConditionalDistribution(
            m=2, y=real.y, q=real.q, atoms={k: Atom(a.value, math.nan) for k, a in real.atoms.items()}
        )
        with pytest.raises(VerificationFailed):
            markov_mod._check_direct(VerificationReport("composition", {}), nan_copy, "outer")
        with pytest.raises(CompositionMismatch):
            compose(nan_copy, 2)  # nan outer masses in the composed kernel
        real_build = markov_mod.build_distribution

        def nan_direct(m, y, q, strict=False):
            dist = real_build(m, y, q, strict)
            if m == 3:  # the direct kernel is the nan one
                dist.atoms = {k: Atom(a.value, math.nan) for k, a in dist.atoms.items()}
            return dist

        monkeypatch.setattr(markov_mod, "build_distribution", nan_direct)
        with pytest.raises(CompositionMismatch):
            markov_mod.compose(real, 2)

    def test_atoms_off_the_index_set_do_not_compose(self):
        # every atom moved one index up: the composed support misses (3)
        dist = build_distribution(2, Y1, Q4)
        shifted = ConditionalDistribution(m=2, y=Y1, q=Q4, atoms={k + 1: a for k, a in dist.atoms.items()})
        with pytest.raises(CompositionMismatch, match=re.escape("composed support [-1, 1, 3] != (3) = [-2, 0, 2]")):
            compose(shifted, 2, check=False)


class TestChapmanKolmogorov:
    def test_exact_pass(self):
        report = verify_chapman_kolmogorov(2, 2, Y1, Q4, mode="exact")
        assert report.passed
        assert report.max_residual == 0.0

    def test_float_pass(self):
        # wide supports (q = 16, m >= 3 over |y| <= 10) must compose to 1e-9 too
        cases = [(4, 3, 2.25, [0.37]), (4, 2, 16.0, [1.0])]
        # (5, 2) and (6, 2) at q = 16 reach |chi| ~ 1e8, where one ulp of a
        # support value is far above 1e-9 absolute
        sweeps = ((3, 2, 4.0, 3, 100), (4, 3, 2.25, 4, 100), (5, 2, 16.0, 11, 150), (6, 2, 16.0, 11, 150))
        for m, n, q, seed, count in sweeps:
            rng = random.Random(seed)
            cases.append((m, n, q, [rng.uniform(-10.0, 10.0) for _ in range(count)]))
        for m, n, q, ys in cases:
            for y in ys:
                report = verify_chapman_kolmogorov(m, n, y, q, mode="float")
                assert report.passed
                assert report.max_residual < 1e-9, (m, n, q, y, report.max_residual)

    def test_mode_label_follows_the_kernels(self):
        # a float state makes float kernels even when q is rational
        assert verify_chapman_kolmogorov(2, 2, 0.3, Q4).parameters["mode"] == "float"
        assert verify_chapman_kolmogorov(2, 2, Fraction(3, 10), Q4).parameters["mode"] == "exact"
        with pytest.raises(ValueError):
            verify_chapman_kolmogorov(2, 2, 0.3, Q4, mode="exact")

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            verify_chapman_kolmogorov(2, 2, 1.0, 4.0, mode="exact")

    def test_an_unknown_mode_is_named(self):
        with pytest.raises(ValueError, match="'bogus'"):
            verify_chapman_kolmogorov(2, 2, Fraction(1), Fraction(4), mode="bogus")

    def test_inner_kernels_are_read_from_one_lift(self):
        # inner kernels sit at lattice indices of the start, so no radical is
        # extracted in Q(sqrt(D)); each stage lifts the start three times:
        # the outer build, the composition and the direct build
        check = lambda: verify_chapman_kolmogorov(3, 3, Fraction(2, 3), Fraction(4), mode="exact")
        assert calls_of("quad_sqrt", check) == 0
        assert calls_of("_lift_state", check) == 2 * 3

    def test_one_q_pascal_row_per_builder(self):
        # each stage forms one row for the outer kernel, one for the inner
        # builder and one for the direct kernel
        check = lambda: verify_chapman_kolmogorov(3, 3, Fraction(2, 3), Fraction(4), mode="exact")
        assert calls_of("_q_binomial_row", check) == 2 * 3

    def test_failure_report(self, monkeypatch):
        import qchain.markov as markov_mod

        real_build = markov_mod.build_distribution

        def corrupted(m, y, q, strict=False):
            dist = real_build(m, y, q, strict)
            if m == 3:  # poison the direct kernel only
                k = dist.indices()[0]
                atoms = dict(dist.atoms)
                atoms[k] = Atom(atoms[k].value, atoms[k].mass + Fraction(1, 100))
                return ConditionalDistribution(m=dist.m, y=dist.y, q=dist.q, atoms=atoms)
            return dist

        monkeypatch.setattr(markov_mod, "build_distribution", corrupted)
        with pytest.raises(VerificationFailed) as exc:
            markov_mod.verify_chapman_kolmogorov(2, 2, Y1, Q4)
        assert not exc.value.report.passed
        assert exc.value.report.witness is not None

    def test_nan_direct_kernel_reports_a_nan_residual(self, monkeypatch):
        import qchain.markov as markov_mod

        real_build = markov_mod.build_distribution

        def nan_direct(m, y, q, strict=False):
            dist = real_build(m, y, q, strict)
            if m == 4:  # the direct kernel of the multi-step stage
                dist.atoms[1] = dist.atoms[1]._replace(mass=math.nan)
            return dist

        monkeypatch.setattr(markov_mod, "build_distribution", nan_direct)
        with pytest.raises(VerificationFailed) as exc:
            markov_mod.verify_chapman_kolmogorov(2, 2, 0.3, 4.0)
        report = exc.value.report
        assert math.isnan(report.max_residual) and math.isnan(report.witness["residual"])
        assert (report.witness["stage"], report.witness["k"]) == ("multi-step", "1")
        assert report.points_checked == 3 + 3  # the one-step kernel's atoms, then -3, -1 and 1


class TestSampling:
    def test_deterministic_replay(self):
        dist = build_distribution(2, 1.0, 4.0)
        draws1 = [sample_step(dist, random.Random(7)) for _ in range(5)]
        draws2 = [sample_step(dist, random.Random(7)) for _ in range(5)]
        assert draws1 == draws2

    def test_forced_walk_composes_chi(self):
        # all mass on index +1: the walk visits chi_t(y) step by step
        q, state = 4.0, 1.0
        rng = random.Random(0)
        for t in range(1, 7):
            base = build_distribution(2, state, q)
            forced = ConditionalDistribution(
                m=2, y=state, q=q, atoms={-1: Atom(base.value(-1), 0.0), 1: Atom(base.value(1), 1.0)}
            )
            state = sample_step(forced, rng)
            assert state == pytest.approx(float(chi(t, 1.0, 4.0)), rel=1e-12)

    def test_zero_mass_leading_atom_never_selected(self):
        dist = ConditionalDistribution(m=2, y=0.0, q=4.0, atoms={-1: Atom(-1.0, 0.0), 1: Atom(1.0, 1.0)})

        class ZeroRandom(random.Random):
            def random(self):
                return 0.0

        assert sample_step(dist, ZeroRandom()) == 1.0

    def test_refuses_negative_mass(self):
        dist = ConditionalDistribution(m=2, y=0.0, q=4.0, atoms={-1: Atom(-1.0, -0.2), 1: Atom(1.0, 1.2)})
        with pytest.raises(NegativeMassError):
            sample_step(dist, random.Random(1))

    def test_draw_past_a_short_mass_sum_takes_the_last_atom(self):
        # the masses sum to 1 - 4e-13, within check_masses' tolerance, and the
        # draw lies above that sum
        dist = ConditionalDistribution(m=2, y=0.0, q=4.0, atoms={-1: Atom(-1.0, 0.5), 1: Atom(1.0, 0.5 - 4e-13)})

        class HighRandom(random.Random):
            def random(self):
                return 1 - 1e-13

        assert sample_step(dist, HighRandom()) == 1.0


    def test_a_draw_equal_to_a_cdf_step_takes_the_next_atom(self):
        # an atom is drawn where u < its CDF, not u <= it: u at exactly the
        # first atom's mass draws the second atom
        dist = build_distribution(3, 0.7, 4.0)
        first = float(dist.mass(-2))

        class TieRandom(random.Random):
            def random(self):
                return first

        assert 0.0 < first < 1.0
        assert sample_step(dist, TieRandom()) == dist.value(0)


class TestSimulate:
    def test_zero_steps(self):
        traj = simulate(ChainConfig(q=4.0, m=2, initial_y=1.0, steps=0, seed=7))
        assert traj.states == [1.0]
        assert traj.to_csv() == "step,state\n0,1\n"

    def test_reproducible(self):
        cfg = ChainConfig(q=4.0, m=2, initial_y=1.0, steps=25, seed=42)
        assert simulate(cfg).to_csv() == simulate(cfg).to_csv()

    def test_states_are_support_points(self):
        cfg = ChainConfig(q=4.0, m=3, initial_y=1.0, steps=8, seed=11)
        traj = simulate(cfg)
        for prev, nxt in zip(traj.states, traj.states[1:]):
            candidates = [float(chi(k, prev, 4.0)) for k in index_set(3)]
            assert any(nxt == pytest.approx(c, rel=1e-12) for c in candidates)

    def test_overflow_diagnostic(self):
        cfg = ChainConfig(q=4.0, m=2, initial_y=1.0, steps=500, seed=1, max_state=2.0)
        with pytest.raises(StateOverflow):
            simulate(cfg)

    def test_start_beyond_the_bound_overflows_on_its_first_revisit(self):
        # seed 2 draws k = 0 first, so step 1 lands on index 0, the start
        # itself, which already exceeds max_state
        cfg = ChainConfig(q=4.0, m=3, initial_y=5.0, steps=10, seed=2, max_state=4.0)
        start = build_distribution(3, 5.0, 4.0)
        assert start.mass(-2) <= random.Random(2).random() < start.mass(-2) + start.mass(0)
        with pytest.raises(StateOverflow, match=r"^\|state\| = 5 exceeded bound 4 at step 1$"):
            simulate(cfg)

    def test_float_paths_are_pinned(self):
        # sha256 of the concatenated trajectory CSVs: any change to a
        # sampled index or a recorded float shows here
        text = "".join(
            simulate(ChainConfig(q=q, m=m, initial_y=1.3, steps=2000, seed=seed)).to_csv()
            for m in (2, 3, 4) for q in (4.0, 16.0) for seed in range(5)
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "01cd68872882ac8f017316f490f7bb300b90969f9451e49beb179f2ec2064e96"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(q=0.5, m=2, initial_y=1.0, steps=1)
        with pytest.raises(ValueError):
            ChainConfig(q=4.0, m=2, initial_y=1.0, steps=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("q", math.inf), ("q", math.nan), ("initial_y", math.nan), ("initial_y", -math.inf),
         ("max_state", math.nan), ("max_state", 0.0)],
    )
    def test_config_names_a_bad_bound_or_non_finite_input(self, field, value):
        kwargs = {"q": 4.0, "m": 2, "initial_y": 1.0, "steps": 1, field: value}
        with pytest.raises(ValueError, match=field):
            ChainConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", None), ("seed", 1.0), ("seed", True), ("m", 2.5), ("m", "3"), ("steps", 2.0), ("steps", False)],
    )
    def test_config_names_a_non_integer_count_or_seed(self, field, value):
        # a None seed would draw from the OS and break reproducibility
        kwargs = {"q": 4.0, "m": 2, "initial_y": 1.0, "steps": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            ChainConfig(**kwargs)

    def test_csv_files_and_metadata(self, tmp_path):
        cfg = ChainConfig(q=4.0, m=2, initial_y=1.0, steps=3, seed=5)
        traj = simulate(cfg)
        csv_path = tmp_path / "traj.csv"
        meta_path = tmp_path / "traj.meta.json"
        traj.write_csv(csv_path)
        traj.write_metadata(meta_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "step,state"
        assert len(lines) == 5
        meta = json.loads(meta_path.read_text())
        assert meta["seed"] == 5 and meta["m"] == 2 and meta["states_recorded"] == 4
        # CSV states parse back to the exact floats
        for line, state in zip(lines[1:], traj.states):
            assert float(line.split(",")[1]) == state

    def test_metadata_of_exact_config_values(self, tmp_path):
        # simulate runs on the floats of exact config values; the sidecar records them
        cfg = ChainConfig(q=Fraction(4), m=2, initial_y=Fraction(1, 3), steps=3)
        meta_path = tmp_path / "traj.meta.json"
        simulate(cfg).write_metadata(meta_path)
        meta = json.loads(meta_path.read_text())
        assert meta["q"] == 4.0 and meta["initial_y"] == float(Fraction(1, 3)) and meta["states_recorded"] == 4

    @staticmethod
    def lattice_indices(traj):
        # y = (2/sqrt(q-1)) sinh(theta), and chi_i moves theta by i ln(q)/2
        q = traj.config.q
        theta = [math.asinh(y * math.sqrt(q - 1) / 2) for y in traj.states]
        return [round((t - theta[0]) / (math.log(q) / 2)) for t in theta]

    def test_states_are_chi_of_an_index_path(self):
        for m, q, y0 in [(2, 4.0, 1.0), (3, 4.0, -0.7), (4, 16.0, 2.5)]:
            traj = simulate(ChainConfig(q=q, m=m, initial_y=y0, steps=300, seed=m))
            indices = self.lattice_indices(traj)
            assert all(j - i in index_set(m) for i, j in zip(indices, indices[1:]))
            assert traj.states == [float(chi(i, y0, q)) for i in indices]

    def test_distinct_states_are_distinct_indices(self):
        # m = 4, q = 4, y0 = 1, seed 3 visits seven lattice indices
        traj = simulate(ChainConfig(q=4.0, m=4, initial_y=1.0, steps=20000, seed=3))
        assert len(set(traj.states)) == len(set(self.lattice_indices(traj)))

    def test_one_kernel_build_per_visited_index(self, monkeypatch):
        import qchain.markov as markov_mod

        calls = []
        lattice_kernels = markov_mod._lattice_kernels

        def counting_lattice_kernels(*args):
            kernel_at = lattice_kernels(*args)

            def counting_kernel_at(i):
                calls.append(i)
                return kernel_at(i)

            return counting_kernel_at

        monkeypatch.setattr(markov_mod, "_lattice_kernels", counting_lattice_kernels)
        traj = simulate(ChainConfig(q=4.0, m=3, initial_y=0.3, steps=2000, seed=8))
        sources = set(self.lattice_indices(traj)[:-1])  # the last state draws nothing
        assert len(calls) == len(set(calls)) == len(sources)

    def test_one_q_pascal_row_per_run(self):
        cfg = ChainConfig(q=4.0, m=3, initial_y=0.3, steps=2000, seed=8)
        assert calls_of("_q_binomial_row", lambda: simulate(cfg)) == 1

    def test_moment_groups_are_lattice_sources(self):
        cfgs = [ChainConfig(q=4.0, m=2, initial_y=1.0, steps=6, seed=s) for s in range(300)]
        trajectories = [simulate(c) for c in cfgs]
        report = empirical_conditional_moment(trajectories, j=1, lag=1, min_samples=1)
        sources = {i for traj in trajectories for i in self.lattice_indices(traj)[:-1]}
        assert sorted(g.source for g in report.groups) == sorted(float(chi(i, 1.0, 4.0)) for i in sources)


class TestEmpiricalMoments:
    def test_deterministic_stub_has_zero_variance(self):
        # a forced single-destination kernel: the empirical machinery must
        # report the destination's moment exactly, with zero spread
        cfg = ChainConfig(q=4.0, m=2, initial_y=1.0, steps=1, seed=0)
        dest = float(chi(1, 1.0, 4.0))
        trajectories = [Trajectory(states=[1.0, dest], config=cfg) for _ in range(150)]
        report = empirical_conditional_moment(trajectories, j=1, lag=1)
        group = report.groups[0]
        assert group.n_samples == 150
        assert group.empirical_std == pytest.approx(0.0, abs=1e-12)
        assert group.empirical_mean == pytest.approx(dest, abs=1e-12)

    def test_single_step_statistics(self):
        cfgs = [ChainConfig(q=4.0, m=2, initial_y=1.0, steps=1, seed=s) for s in range(400)]
        trajectories = [simulate(c) for c in cfgs]
        report = empirical_conditional_moment(trajectories, j=1, lag=1)
        assert report.passed  # |z| <= 4 for the frozen seed batch
        group = report.groups[0]
        assert group.expected == pytest.approx(0.5)
        assert group.kernel_std == pytest.approx(math.sqrt(0.75))

    def test_report_json_carries_verdict_and_groups(self):
        cfgs = [ChainConfig(q=4.0, m=2, initial_y=1.0, steps=3, seed=s) for s in range(100)]
        report = empirical_conditional_moment([simulate(c) for c in cfgs], j=1, lag=2, min_samples=10)
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert (doc["j"], doc["lag"], doc["threshold"]) == (1, 2, 4.0)
        assert doc["max_abs_z"] == report.max_abs_z > 0 and doc["passed"] is report.passed
        assert len(doc["groups"]) == len(report.groups) > 1
        for entry, group in zip(doc["groups"], report.groups):
            assert entry == vars(group) and entry["n_samples"] >= 10

    def test_insufficient_samples(self):
        cfg = ChainConfig(q=4.0, m=2, initial_y=1.0, steps=1, seed=0)
        with pytest.raises(InsufficientSamples):
            empirical_conditional_moment([simulate(cfg)], j=1, lag=1)

    def test_moment_order_validated(self):
        cfg = ChainConfig(q=4.0, m=2, initial_y=1.0, steps=1, seed=0)
        with pytest.raises(ValueError):
            empirical_conditional_moment([simulate(cfg)], j=2, lag=1)

    def test_zero_variance_group_far_out(self):
        # at source 1e9 the float kernel's variance of H_1 rounds to 0.0, and
        # every path lands on the expected mean
        cfgs = [ChainConfig(q=4.0, m=2, initial_y=1e9, steps=1, seed=s) for s in range(100)]
        report = empirical_conditional_moment([simulate(c) for c in cfgs], j=1, lag=1)
        (group,) = report.groups
        assert (group.source, group.kernel_std, group.z_score) == (1e9, 0.0, 0.0)
        assert group.empirical_mean == group.expected and report.passed


class TestSerialization:
    def test_exact_round_trip(self):
        dist = build_distribution(3, Y1, Q4)
        clone = ConditionalDistribution.from_json_dict(json.loads(dist.to_json()))
        assert clone.atoms == dist.atoms
        assert clone.m == dist.m and clone.q == dist.q and clone.y == dist.y

    def test_float_round_trip(self):
        dist = build_distribution(4, 0.37, 2.25)
        clone = ConditionalDistribution.from_json_dict(json.loads(dist.to_json()))
        assert clone.atoms == dist.atoms
        # the exact kernel rounds to the float one: values relative to max(1, |value|), masses absolute
        exact = build_distribution(4, Fraction(37, 100), Fraction(9, 4))
        for k, atom in exact.atoms.items():
            assert all(abs(float(a) - b) < 1e-14 * max(1.0, abs(b)) for a, b in zip(atom, dist.atoms[k]))

    def test_json_shape(self):
        doc = build_distribution(2, Y1, Q4).to_json_dict()
        assert doc["mode"] == "exact"
        assert doc["q"] == "4" and doc["y"] == "1"
        assert [entry["k"] for entry in doc["atoms"]] == [-1, 1]
        assert all(isinstance(entry["value"], str) for entry in doc["atoms"])

    def test_digit_limit_names_the_kernel(self):
        # an exact kernel whose integers pass the int/str digit limit, lowered
        # to its minimum so that a small kernel reaches it
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int/str digit limit")
        dist = build_distribution(28, Fraction(-137, 23), Fraction(9, 4))
        doc = json.loads(dist.to_json())
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for call in (dist.to_json, lambda: ConditionalDistribution.from_json_dict(doc)):
                with pytest.raises(ValueError, match=r"m=28, y=-137/23, q=9/4 .*sys\.set_int_max_str_digits"):
                    call()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_float_json_uses_numbers(self):
        doc = build_distribution(2, 1.0, 4.0).to_json_dict()
        assert all(isinstance(entry["mass"], float) for entry in doc["atoms"])

    def test_malformed_literal_is_raised_unchanged(self):
        doc = build_distribution(2, Y1, Q4).to_json_dict()
        doc["atoms"][0]["value"] = "1 + 2 sqrt(3)"
        with pytest.raises(ValueError) as info:
            ConditionalDistribution.from_json_dict(doc)
        assert str(info.value) == "malformed quadratic literal: '1 + 2 sqrt(3)'"

    @pytest.mark.parametrize("y, q", [(Y1, Q4), (1.0, 4.0)])
    def test_load_refuses_atoms_off_the_index_set(self, y, q):
        shifted = build_distribution(2, y, q).to_json_dict()
        for entry in shifted["atoms"]:
            entry["k"] += 1
        extra = build_distribution(3, y, q).to_json_dict() | {"m": 2}
        repeated = build_distribution(2, y, q).to_json_dict()
        repeated["atoms"].append(repeated["atoms"][-1])
        for doc, ks in [(shifted, [0, 2]), (extra, [-2, 0, 2]), (repeated, [-1, 1, 1])]:
            with pytest.raises(IndexSetError, match=re.escape(f"at m=2 has its atoms at (2) = [-1, 1], got indices {ks}")):
                ConditionalDistribution.from_json_dict(doc)


    @pytest.mark.parametrize("m", range(2, 13))
    def test_json_is_the_indented_dump_of_its_dict_in_the_exact_lane(self, m):
        states = (Fraction(0), Y1, Fraction(-137, 23), Fraction(5, 2), chi(1, Y1, Q4))
        for q in (Q4, Fraction(9, 4)):
            for y in states[:-1] if q != Q4 else states:
                dist = build_distribution(m, y, q)
                assert dist.to_json() == json.dumps(dist.to_json_dict(), indent=2), (m, y, q)

    @pytest.mark.parametrize("q", [2.25, 4.0, 16.0])
    def test_json_is_the_indented_dump_of_its_dict_in_the_float_lane(self, q):
        for y in (0.0, -0.0, 1e-300, -9.99, 1e150):
            for m in (2, 3, 4, 7):
                dist = build_distribution(m, y, q)
                assert dist.to_json() == json.dumps(dist.to_json_dict(), indent=2), (m, y, q)

    def test_json_writes_non_finite_and_signed_zero_masses_as_the_dump_does(self):
        base = build_distribution(4, 1.0, 4.0)
        masses = dict(zip(base.indices(), (math.nan, math.inf, -math.inf, -0.0)))
        edited = ConditionalDistribution(
            m=4, y=1.0, q=4.0, atoms={k: Atom(base.value(k), mass) for k, mass in masses.items()}
        )
        empty = ConditionalDistribution(m=2, y=0.0, q=4.0, atoms={})
        for dist in (edited, empty):
            text = dist.to_json()
            assert text == json.dumps(dist.to_json_dict(), indent=2)
        assert '"mass": NaN' in edited.to_json() and '"mass": -0.0' in edited.to_json()

    def test_csv_formats_each_state_as_the_per_row_writer(self):
        from qchain.markov import _fmt_state

        nan, other_nan = math.nan, float("nan")
        config = ChainConfig(q=4.0, m=2, initial_y=1.0, steps=0)
        paths = (
            [1.0, 0.0, -0.0, 0.0, nan, 2.5, nan, other_nan, 3, 3.0, 2.5, -0.0, 1e-300, -1e300, 1],
            [-0.0, 0, 0.0],
            [nan],
            [],
        )
        for states in paths:
            old = "\n".join(["step,state"] + [f"{i},{_fmt_state(s)}" for i, s in enumerate(states)]) + "\n"
            assert Trajectory(states=states, config=config).to_csv() == old, states


class TestKernelValidity:
    @pytest.mark.parametrize("masses", [(math.nan, math.nan), (0.9, math.inf), (0.1, 0.1)])
    def test_sampling_refuses_masses_that_are_not_a_probability_vector(self, masses):
        dist = ConditionalDistribution(m=2, y=0.0, q=4.0, atoms={-1: Atom(-1.0, masses[0]), 1: Atom(1.0, masses[1])})
        with pytest.raises(InvalidKernel, match="m=2, y=0.0, q=4.0"):
            sample_step(dist, random.Random(1))

    def test_sampling_refuses_a_slightly_negative_float_mass(self):
        dist = ConditionalDistribution(m=2, y=0.0, q=4.0, atoms={-1: Atom(-1.0, -5e-11), 1: Atom(1.0, 1 + 5e-11)})
        with pytest.raises(NegativeMassError):
            sample_step(dist, random.Random(1))

    def test_exact_masses_must_sum_to_exactly_one(self):
        built = build_distribution(3, Y1, Q4, strict=True)
        short = ConditionalDistribution(
            m=3, y=Y1, q=Q4, atoms={**built.atoms, 2: Atom(built.value(2), built.mass(2) - Fraction(1, 10**30))}
        )
        with pytest.raises(InvalidKernel):
            short.check_masses()

    @pytest.mark.parametrize("q", [2.25, 4.0, 16.0])
    def test_built_float_kernels_pass(self, q):
        for m in range(2, 17):
            for y in (0.0, -3.5, 1e50, -1e153):
                assert build_distribution(m, y, q, strict=True).mass_total() == pytest.approx(1.0, abs=1e-12)
