"""Command-line surface: output formats, exit-code contract, determinism."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qchain.cli as cli
from qchain.markov import ConditionalDistribution, InvalidKernel, NegativeMassError, build_distribution


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

    @pytest.mark.parametrize("m", ["1", "2"])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_factorization_refuses_q_zero_in_both_lanes(self, capsys, m, mode):
        code, out, err = run(capsys, "verify", "factorization", "--m", m, "--q", "0", "--mode", mode)
        assert code == 3 and out == "" and "needs q in (0,1) or (1,inf), got 0" in err

    def test_factorization_custom_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "factorization", "--m", "2", "--q", "9/4", "--grid-side", "5")
        assert code == 0
        assert json.loads(out)["points_checked"] == 25

    def test_factorization_float_grid(self, capsys):
        argv = ("verify", "factorization", "--m", "3", "--q", "4", "--mode", "float", "--grid-side", "6")
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is True and doc["parameters"]["mode"] == "float"
        assert doc["points_checked"] == 36 and 0 < doc["max_residual"] < 1e-8

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

        def poisoned(m, y, q):
            dist = real(m, y, q)
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

    def test_non_finite_residuals_print_as_strict_json(self, capsys):
        # y^2 overflows, so the float residual is nan and the witness holds infinities
        def refuse(name):
            raise ValueError(f"bare {name} is not strict JSON")

        code, out, _ = run(capsys, "verify", "chi", "--m", "2", "--n", "1", "--y", "1e300", "--q", "4", "--mode", "float")
        doc = json.loads(out, parse_constant=refuse)
        assert code == 1 and doc["passed"] is False
        assert doc["max_residual"] == "NaN" and doc["witness"]["residual"] == "NaN"
        assert doc["witness"]["lhs"] == "Infinity"


VALUES = {"m": "3", "n": "2", "x": "1/2", "y": "1/3", "rho": "1/2", "q": "4", "theta": "0.4", "phi": "1.1"}
# each eval family and verify identity with the flags it needs, in the order they are checked
NEEDS = {
    ("eval", "H", "3"): ["q", "x"],
    ("eval", "h", "3"): ["q", "x"],
    ("eval", "B", "3"): ["q", "y"],
    ("eval", "p", "3"): ["q", "x", "y", "rho"],
    ("verify", "factorization"): ["m", "q"],
    ("verify", "addition"): ["n", "theta", "phi", "q"],
    ("verify", "h-H"): ["m", "x", "q"],
    ("verify", "B-H"): ["n", "y", "q"],
    ("verify", "chi"): ["m", "n", "y", "q"],
    ("verify", "hermite-limit"): ["m", "x", "y"],
    ("verify", "ck"): ["m", "n", "y", "q"],
}


class TestRequiredFlags:
    def test_every_verb_is_listed(self):
        assert {verb for _, verb, *_ in NEEDS} == set(cli.FAMILIES) | set(cli.VERIFIERS)

    @pytest.mark.parametrize("head", list(NEEDS), ids="-".join)
    def test_each_missing_flag_is_named(self, capsys, head):
        flags = NEEDS[head]
        code, out, _ = run(capsys, *head, *(arg for flag in flags for arg in (f"--{flag}", VALUES[flag])))
        assert code == 0 and out
        for missing in flags:
            argv = [arg for flag in flags if flag != missing for arg in (f"--{flag}", VALUES[flag])]
            code, out, err = run(capsys, *head, *argv)
            assert (code, out, err) == (2, "", f"error: --{missing} is required here\n")
        assert run(capsys, *head)[2] == f"error: --{flags[0]} is required here\n"

    def test_first_missing_flag_in_order_is_named(self, capsys):
        code, _, err = run(capsys, "verify", "ck", "--m", "3", "--n", "3", "--q", "4")
        assert code == 2 and err == "error: --y is required here\n"


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
        assert clone.atoms == direct.atoms

    def test_exact_kernel_past_the_digit_limit(self, capsys):
        # a valid kernel whose masses print integers longer than Python's
        # default int-to-str limit: the command lifts it for its own run only
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run(capsys, "dist", "--m", "68", "--y=-137/23", "--q", "9/4")
        assert code == 0
        atoms = json.loads(out)["atoms"]
        assert len(atoms) == 68 and max(len(atom["mass"]) for atom in atoms) > 4300
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

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
        def refuse(m, y, q, strict=False):
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

    @pytest.mark.parametrize("y, q", [("abc", "4"), ("1", "1/0")])
    def test_malformed_scalar_exits_two(self, capsys, y, q):
        code, _, err = run(capsys, "simulate", "--m", "2", "--y", y, "--q", q, "--steps", "3")
        assert code == 2 and "cannot parse scalar" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dist", "--m", "2", "--y", "1e400", "--q", "4", "--mode", "float"],
            ["dist", "--m", "2", "--y", "1", "--q", "1e400", "--mode", "float"],
            ["simulate", "--m", "2", "--y", "1e400", "--q", "4", "--steps", "3"],
            ["simulate", "--m", "2", "--y", "1", "--q", "1e400", "--steps", "3"],
        ],
    )
    def test_out_of_range_scalar_exits_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "cannot parse scalar '1e400'" in err

    def test_a_path_whose_support_leaves_the_double_range_exits_three(self, capsys):
        code, out, err = run(capsys, "simulate", "--m", "4", "--y", "1e150", "--q", "16", "--steps", "20000")
        msg = (
            "error: support leaves the double range at state y=-13.961693255622238 (m=4, q=16.0); "
            "the first out is the support point chi_(i+k) at k = -3, i = -253\n"
        )
        assert (code, out, err) == (3, "", msg)

    def test_no_state_bound_flag_or_sidecar_key(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--m", "2", "--y", "1", "--q", "4", "--steps", "3", "--max-state", "1"])
        assert exc.value.code == 2 and "unrecognized arguments: --max-state 1" in capsys.readouterr().err
        out_path = tmp_path / "run.csv"
        assert run(capsys, "simulate", "--m", "2", "--y", "1e145", "--q", "4", "--steps", "3", "--out", str(out_path))[0] == 0
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert list(meta) == ["q", "m", "initial_y", "steps", "seed", "states_recorded"]


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "separate, joined, want",
        [
            ("eval p 3 --x -1/3 --y -2/5 --rho -1/2 --q -3/2", "eval p 3 --x=-1/3 --y=-2/5 --rho=-1/2 --q=-3/2", 0),
            ("eval H 2 --x -.5 --q -1e-3 --mode float", "eval H 2 --x=-.5 --q=-1e-3 --mode float", 0),
            ("dist --m 3 --y -3/7 --q 4", "dist --m 3 --y=-3/7 --q 4", 0),
            ("simulate --m 2 --y -1/2 --q 4 --steps 5", "simulate --m 2 --y=-1/2 --q 4 --steps 5", 0),
            ("verify chi --m 2 --n -1 --y -5/2 --q 9/4", "verify chi --m 2 --n -1 --y=-5/2 --q 9/4", 0),
            ("verify factorization --m 2 --q -1/4", "verify factorization --m 2 --q=-1/4", 3),
            ("verify addition --n 4 --theta -1e-3 --phi 0.4 --q 16", "verify addition --n 4 --theta=-1e-3 --phi 0.4 --q 16", 0),
        ],
    )
    def test_a_separate_negative_value_parses_as_the_equals_form(self, capsys, separate, joined, want):
        # argparse alone reads -1/4, -.5 or -1e-3 after a flag as an option and exits 2
        code, out, err = run(capsys, *separate.split())
        assert (code, out, err) == run(capsys, *joined.split()) and code == want, err

    @pytest.mark.parametrize(
        "argv", ["dist --m 3 --q 4 --y", "dist --m 3 --y --q 4", "eval p 3 --x 1 --y 1 --rho --q 4", "dist --m 3 --y -a --q 4"]
    )
    def test_a_flag_without_its_value_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err


IMPORT_SET = """
import contextlib, io, sys
from qchain.cli import main

def loaded(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    return "mpmath" in sys.modules

print(any(loaded(argv.split()) for argv in [
    "dist --m 4 --y 1 --q 4",
    "simulate --m 3 --y 1 --q 4 --steps 20",
    "verify factorization --m 3 --q 4 --mode float",
    "verify ck --m 2 --n 2 --y 1 --q 4",
]))
print(loaded("verify addition --n 4 --theta 1.1 --phi 0.4 --q 16".split()))
"""


def test_only_the_addition_verifier_loads_mpmath():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", IMPORT_SET], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "True"]


class TestInvalidKernelExit:
    def test_unnormalized_kernel_exit_four(self, capsys, monkeypatch):
        def refuse(m, y, q, strict=False):
            raise InvalidKernel("masses of the kernel at m=2, y=1, q=4 sum to 0.5, not 1")

        monkeypatch.setattr(cli, "build_distribution", refuse)
        code, _, err = run(capsys, "dist", "--m", "2", "--y", "1", "--q", "4", "--strict")
        assert code == 4 and "sum to 0.5" in err

    def test_strict_checks_the_kernel_the_builder_returns(self, capsys, monkeypatch):
        # the builder hands back a kernel whose masses sum to 1/2: only --strict refuses it
        def halved(m, y, q):
            dist = build_distribution(m, y, q)
            atoms = {k: atom._replace(mass=atom.mass / 2) for k, atom in dist.atoms.items()}
            return ConditionalDistribution(m=dist.m, y=dist.y, q=dist.q, atoms=atoms)

        monkeypatch.setattr(cli, "build_distribution", halved)
        argv = ["dist", "--m", "2", "--y", "1", "--q", "4", "--mode", "float"]
        code, _, err = run(capsys, *argv, "--strict")
        assert code == 4 and err == "error: masses of the kernel at m=2, y=1.0, q=4.0 sum to 0.5, not 1\n"
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize(
        "argv", [["--m", "12", "--y=-137/23", "--q", "9/4"], ["--m", "4", "--y", "2.5", "--q", "16", "--mode", "float"]]
    )
    def test_strict_prints_the_same_kernel(self, capsys, argv):
        plain, strict = run(capsys, "dist", *argv), run(capsys, "dist", *argv, "--strict")
        assert plain == strict and plain[0] == 0 and plain[1]

    def test_strict_accepts_a_float_kernel_near_q_one(self, capsys):
        # q = (513/512)^2 at m = 513: the masses sum to 1 - 1.17e-12, within the float contract
        argv = ["dist", "--m", "513", "--y", "0", "--q", "263169/262144", "--mode", "float"]
        plain, strict = run(capsys, *argv), run(capsys, *argv, "--strict")
        assert strict == plain and plain[0] == 0 and plain[1]


@pytest.mark.parametrize("argv", [["dist", "--m", "3", "--mode", "float"], ["simulate", "--m", "4", "--steps", "10"]])
def test_a_start_whose_z0_overflows_exits_three(capsys, argv):
    code, out, err = run(capsys, *argv, "--y", "4e153", "--q", "16")
    msg = f"z0 = e^(2 theta) leaves the double range at state y=4e+153 (m={argv[2]}, q=16.0)"
    assert (code, out, err) == (3, "", f"error: {msg}\n")


@pytest.mark.parametrize("argv", [["dist", "--mode", "float"], ["simulate", "--steps", "300"]])
def test_a_float_q_pascal_row_past_the_double_range_exits_three(capsys, argv):
    # refused before any kernel is built: simulate takes no step
    code, out, err = run(capsys, *argv, "--m", "1051", "--y", "0", "--q", "1.0001")
    msg = "q-Pascal row [m-1 choose j]_(1/q) leaves the double range at j = 507 (m=1051, q=1.0001)"
    assert (code, out, err) == (3, "", f"error: {msg}\n")


def test_a_closed_stdout_exits_141_without_a_traceback():
    # the kernel's 81 kB of JSON outlast one read and the pipe's buffer, so the writer meets the closed end
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "qchain.cli", "dist", "--m", "40", "--y", "1/3", "--q", "4"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (first, proc.wait(timeout=60), err) == (b"{\n", 141, b"")


@pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_a_simulation_with_141(unbuffered):
    # 1.6 MB of CSV: under PYTHONUNBUFFERED a single write of it all comes back short without an error
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(unbuffered, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "qchain.cli", "simulate", "--m", "3", "--y", "1", "--q", "4", "--steps", "100000"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (first, proc.wait(timeout=60), err) == (b"step,state\n", 141, b"")
