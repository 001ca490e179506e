"""Command-line surface: output formats, exit-code contract, determinism."""

import json
import math
from fractions import Fraction

import pytest

import qchain.cli as cli
from qchain.markov import ConditionalDistribution, NegativeMassError, build_distribution


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_H(self, capsys):
        code, out, _ = run(capsys, "eval", "H", "2", "--x", "3", "--q", "2")
        assert code == 0 and out.strip() == "8"

    def test_B(self, capsys):
        code, out, _ = run(capsys, "eval", "B", "1", "--y", "5", "--q", "4")
        assert code == 0 and out.strip() == "-5"

    def test_p(self, capsys):
        code, out, _ = run(capsys, "eval", "p", "1", "--x", "1", "--y", "1", "--rho", "1/2", "--q", "4")
        assert code == 0 and out.strip() == "1/2"

    def test_h_float_mode(self, capsys):
        code, out, _ = run(capsys, "eval", "h", "2", "--x", "1", "--q", "1", "--mode", "float")
        assert code == 0 and float(out) == 4.0

    def test_missing_point_is_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "H", "2", "--q", "2")
        assert code == 2 and "--x" in err


class TestVerify:
    def test_ck_exact(self, capsys):
        code, out, _ = run(capsys, "verify", "ck", "--m", "2", "--n", "2", "--y", "1", "--q", "4", "--mode", "exact")
        assert code == 0
        doc = json.loads(out)
        assert doc["identity"] == "chapman-kolmogorov"
        assert doc["passed"] is True and doc["max_residual"] == 0.0
        # float mode: support values near 1e8 compose to within an ulp, not 1e-9 absolute
        code, out, _ = run(capsys, "verify", "ck", "--m", "5", "--n", "2", "--y", "8", "--q", "16", "--mode", "float")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_factorization_degree_one(self, capsys):
        code, out, _ = run(capsys, "verify", "factorization", "--m", "1", "--q", "4")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_factorization_custom_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "factorization", "--m", "2", "--q", "9/4", "--grid-side", "5")
        assert code == 0
        assert json.loads(out)["points_checked"] == 25

    def test_hermite_limit(self, capsys):
        code, out, _ = run(capsys, "verify", "hermite-limit", "--m", "2", "--x", "1/2", "--y", "1/3")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_chi(self, capsys):
        code, out, _ = run(capsys, "verify", "chi", "--m", "2", "--n", "-1", "--y", "1", "--q", "4")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_addition(self, capsys):
        code, out, _ = run(capsys, "verify", "addition", "--n", "3", "--theta", "0.4", "--phi", "1.1", "--q", "0.7")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_h_H_and_B_H(self, capsys):
        code, out, _ = run(capsys, "verify", "h-H", "--m", "4", "--x", "0.3", "--q", "4")
        assert code == 0
        code, out, _ = run(capsys, "verify", "B-H", "--n", "3", "--y", "0.8", "--q", "2.25")
        assert code == 0

    def test_non_finite_angle_is_domain_error(self, capsys):
        code, out, err = run(capsys, "verify", "addition", "--n", "3", "--theta", "nan", "--phi", "0.5", "--q", "4")
        assert code == 3 and out == "" and "theta" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        # poison the direct kernel so the consistency check must fail
        import qchain.markov as markov_mod

        real = markov_mod.build_distribution

        def poisoned(m, y, q, sqrt_q=None, strict=False):
            dist = real(m, y, q, sqrt_q, strict)
            if m == 3:
                from qchain.markov import Atom

                k = dist.indices()[0]
                atoms = dict(dist.atoms)
                atoms[k] = Atom(atoms[k].value, atoms[k].mass + Fraction(1, 50))
                return ConditionalDistribution(m=dist.m, y=dist.y, q=dist.q, atoms=atoms)
            return dist

        monkeypatch.setattr(markov_mod, "build_distribution", poisoned)
        code, out, _ = run(capsys, "verify", "ck", "--m", "2", "--n", "2", "--y", "1", "--q", "4")
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestDist:
    def test_float_output(self, capsys):
        code, out, _ = run(capsys, "dist", "--m", "2", "--y", "1", "--q", "4", "--mode", "float")
        assert code == 0
        doc = json.loads(out)
        by_k = {entry["k"]: entry for entry in doc["atoms"]}
        assert by_k[-1]["value"] == pytest.approx(0.10435607626104004)
        assert by_k[-1]["mass"] == pytest.approx(0.8273268353539885)
        assert by_k[1]["value"] == pytest.approx(2.3956439237389597)
        assert by_k[1]["mass"] == pytest.approx(0.17267316464601146)

    def test_float_high_order(self, capsys):
        code, out, _ = run(capsys, "dist", "--m", "10", "--y=-2.5", "--q", "16", "--mode", "float")
        assert code == 0
        masses = [entry["mass"] for entry in json.loads(out)["atoms"]]
        assert len(masses) == 10 and min(masses) > 0
        assert abs(math.fsum(masses) - 1) <= 1e-12

    def test_exact_round_trip(self, capsys):
        code, out, _ = run(capsys, "dist", "--m", "3", "--y=-3/7", "--q", "9/4")
        assert code == 0
        clone = ConditionalDistribution.from_json_dict(json.loads(out))
        direct = build_distribution(3, Fraction(-3, 7), Fraction(9, 4))
        assert clone.max_deviation(direct) == 0.0

    def test_domain_error_exit_three(self, capsys):
        code, _, err = run(capsys, "dist", "--m", "2", "--y", "1", "--q", "1")
        assert code == 3 and "q > 1" in err

    def test_non_square_exact_q_exit_three(self, capsys):
        code, _, err = run(capsys, "dist", "--m", "2", "--y", "1", "--q", "2", "--mode", "exact")
        assert code == 3

    def test_unparseable_scalar_exit_two(self, capsys):
        code, _, err = run(capsys, "dist", "--m", "2", "--y", "1", "--q", "abc")
        assert code == 2

    def test_negative_mass_exit_four(self, capsys, monkeypatch):
        def refuse(m, y, q, sqrt_q=None, strict=False):
            raise NegativeMassError(-1, -0.25)

        monkeypatch.setattr(cli, "build_distribution", refuse)
        code, _, err = run(capsys, "dist", "--m", "2", "--y", "1", "--q", "4", "--strict")
        assert code == 4 and "negative" in err


class TestSimulate:
    def test_zero_steps_row(self, capsys):
        code, out, _ = run(capsys, "simulate", "--m", "2", "--y", "1", "--q", "4", "--steps", "0", "--seed", "7")
        assert code == 0
        assert out == "step,state\n0,1\n"

    def test_stdout_determinism(self, capsys):
        argv = ["simulate", "--m", "2", "--y", "1", "--q", "4", "--steps", "40", "--seed", "42"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_file_output_with_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, out, _ = run(
            capsys, "simulate", "--m", "2", "--y", "1", "--q", "4", "--steps", "5", "--seed", "3",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.exists()
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["seed"] == 3
        assert len(out_path.read_text().splitlines()) == 7

    def test_byte_identical_files(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(
                capsys, "simulate", "--m", "2", "--y", "1", "--q", "4", "--steps", "60", "--seed", "42",
                "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--m", "2", "--y", "1", "--q", "4"])  # missing --steps
        assert exc.value.code == 2


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
