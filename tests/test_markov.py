"""Transition kernels: construction, moment laws, composition, sampling."""

import json
import math
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

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            verify_chapman_kolmogorov(2, 2, 1.0, 4.0, mode="exact")

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(q=0.5, m=2, initial_y=1.0, steps=1)
        with pytest.raises(ValueError):
            ChainConfig(q=4.0, m=2, initial_y=1.0, steps=-1)

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
