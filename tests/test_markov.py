"""Transition kernels: construction, moment laws, composition, sampling."""

import cProfile
import hashlib
import json
import math
import pstats
import random
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
from qchain.qcore import eval_H_seq
from qchain.spectra import VerificationFailed, chi, index_set, index_sumset

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

    @pytest.mark.parametrize("y, q", [(1.0, 4.0), (Y1, Q4)])
    def test_inconsistent_sqrt_q_is_refused_in_both_lanes(self, y, q):
        with pytest.raises(ValueError):
            build_distribution(3, y, q, Fraction(3))

    @pytest.mark.parametrize("y, q, name", [(math.nan, 4.0, "y"), (1.0, math.inf, "q"), (math.inf, 4.0, "y")])
    def test_float_lane_names_a_non_finite_input(self, y, q, name):
        with pytest.raises(ValueError, match=rf"{name} must be finite"):
            build_distribution(2, y, q)


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


class TestComposition:
    def test_two_after_two_is_three(self):
        composed = compose(build_distribution(2, Y1, Q4), 2)
        direct = build_distribution(3, Y1, Q4)
        assert composed.max_deviation(direct) == 0.0
        assert composed.m == 3

    def test_three_after_two_is_four(self):
        composed = compose(build_distribution(2, Y1, Q4), 3)
        assert composed.max_deviation(build_distribution(4, Y1, Q4)) == 0.0

    def test_support_is_the_sumset(self):
        composed = compose(build_distribution(3, Y1, Q4), 2, check=False)
        assert composed.indices() == index_sumset(3, 2)

    def test_k_step_shortcuts(self):
        one = k_step_distribution(2, 1, Y1, Q4)
        assert one.max_deviation(build_distribution(2, Y1, Q4)) == 0.0
        two = k_step_distribution(3, 2, Y1, Q4)
        assert two.max_deviation(build_distribution(5, Y1, Q4)) == 0.0

    def test_k_step_equals_composition_chain(self):
        chained = compose(compose(build_distribution(2, Y1, Q4), 2), 2)
        assert chained.max_deviation(k_step_distribution(2, 3, Y1, Q4)) == 0.0

    def test_composed_kernels_are_pinned(self):
        # inner kernels sit at quadratic states, whose radicals come from
        # quad_sqrt: any change to a composed support point or mass shows here
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

    def test_nan_masses_fail_the_direct_match(self, monkeypatch):
        import qchain.markov as markov_mod

        real = build_distribution(2, 1.0, 4.0)
        nan_copy = ConditionalDistribution(
            m=2, y=real.y, q=real.q, atoms={k: Atom(a.value, math.nan) for k, a in real.atoms.items()}
        )
        assert math.isnan(nan_copy.max_deviation(real)) and math.isnan(real.max_deviation(nan_copy))
        assert not markov_mod._matches_direct(nan_copy)[1]
        with pytest.raises(CompositionMismatch):
            compose(nan_copy, 2)  # nan outer masses in the composed kernel
        real_build = markov_mod.build_distribution

        def nan_direct(m, y, q, sqrt_q=None, strict=False):
            dist = real_build(m, y, q, sqrt_q, strict)
            if m == 3:  # the direct kernel is the nan one
                dist.atoms = {k: Atom(a.value, math.nan) for k, a in dist.atoms.items()}
            return dist

        monkeypatch.setattr(markov_mod, "build_distribution", nan_direct)
        with pytest.raises(CompositionMismatch):
            markov_mod.compose(real, 2)


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

    def test_each_inner_kernel_extracts_one_radical(self):
        # inner kernels sit at quadratic states: 3 after the order-3 kernel
        # and 5 after the order-5 one, each taking its radical by quad_sqrt once
        check = lambda: verify_chapman_kolmogorov(3, 3, Fraction(2, 3), Fraction(4), mode="exact")
        assert calls_of("quad_sqrt", check) == 3 + 5

    def test_failure_report(self, monkeypatch):
        import qchain.markov as markov_mod

        real_build = markov_mod.build_distribution

        def corrupted(m, y, q, sqrt_q=None, strict=False):
            dist = real_build(m, y, q, sqrt_q, strict)
            if m == 3:  # poison the direct kernel only
                k = dist.indices()[0]
                atoms = dict(dist.atoms)
                atoms[k] = Atom(atoms[k].value, atoms[k].mass + Fraction(1, 100))
                return ConditionalDistribution(m=dist.m, y=dist.y, q=dist.q, atoms=atoms)
            return dist

        monkeypatch.setattr(markov_mod, "build_distribution", corrupted)
        with pytest.raises(VerificationFailed) as exc:
            markov_mod.verify_chapman_kolmogorov(2, 2, Y1, Q4, multi_step=False)
        assert not exc.value.report.passed
        assert exc.value.report.witness is not None


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
        calls = []

        def counting_build(m, y, *args, **kwargs):
            calls.append(y)
            return build_distribution(m, y, *args, **kwargs)

        monkeypatch.setattr("qchain.markov.build_distribution", counting_build)
        traj = simulate(ChainConfig(q=4.0, m=3, initial_y=0.3, steps=2000, seed=8))
        sources = set(self.lattice_indices(traj)[:-1])  # the last state draws nothing
        assert len(calls) == len(set(calls)) == len(sources)

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

    def test_insufficient_samples(self):
        cfg = ChainConfig(q=4.0, m=2, initial_y=1.0, steps=1, seed=0)
        with pytest.raises(InsufficientSamples):
            empirical_conditional_moment([simulate(cfg)], j=1, lag=1)

    def test_moment_order_validated(self):
        cfg = ChainConfig(q=4.0, m=2, initial_y=1.0, steps=1, seed=0)
        with pytest.raises(ValueError):
            empirical_conditional_moment([simulate(cfg)], j=2, lag=1)


class TestSerialization:
    def test_exact_round_trip(self):
        dist = build_distribution(3, Y1, Q4)
        clone = ConditionalDistribution.from_json_dict(json.loads(dist.to_json()))
        assert clone.max_deviation(dist) == 0.0
        assert clone.m == dist.m and clone.q == dist.q and clone.y == dist.y

    def test_float_round_trip(self):
        dist = build_distribution(4, 0.37, 2.25)
        clone = ConditionalDistribution.from_json_dict(json.loads(dist.to_json()))
        assert clone.max_deviation(dist) == 0.0
        # an exact kernel against a float one is compared in floats
        exact = build_distribution(4, Fraction(37, 100), Fraction(9, 4))
        assert exact.max_deviation(dist) == dist.max_deviation(exact) < 1e-14

    def test_json_shape(self):
        doc = build_distribution(2, Y1, Q4).to_json_dict()
        assert doc["mode"] == "exact"
        assert doc["q"] == "4" and doc["y"] == "1"
        assert [entry["k"] for entry in doc["atoms"]] == [-1, 1]
        assert all(isinstance(entry["value"], str) for entry in doc["atoms"])

    def test_float_json_uses_numbers(self):
        doc = build_distribution(2, 1.0, 4.0).to_json_dict()
        assert all(isinstance(entry["mass"], float) for entry in doc["atoms"])


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
