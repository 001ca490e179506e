"""Tests of the benchmark itself: each checker rejects a corrupted output,
and the tracer's self-time arithmetic is right on a hand-built span tree.

    python3 -m pytest bench/selftest.py -q
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from qchain import exactnum, markov, spectra  # noqa: E402
from reference import (  # noqa: E402
    CheckFailed,
    RegressionStats,
    check_kernel_json,
    check_lattice,
    check_report,
    parse_csv,
)
from run import Run, layer_metrics, traced_run  # noqa: E402
from tracing import Tracer, covered_length, self_times  # noqa: E402
from workloads import WORKLOADS, check_planted_inputs  # noqa: E402


def chi_ref(k, y, q):
    """chi_k(y) through the sinh parametrization."""
    c = 2 / math.sqrt(q - 1)
    return c * math.sinh(math.asinh(y / c) + k * math.log(q) / 2)


# -- self time ---------------------------------------------------------------


def test_self_times_on_hand_built_tree():
    spans = [
        ("A", 0.0, 10.0, -1),
        ("B", 1.0, 4.0, 0),
        ("E", 2.0, 3.0, 1),
        ("C", 5.0, 7.0, 0),
        ("D", 5.5, 6.5, 3),
        ("B", 8.0, 9.0, 0),
        ("A", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx({"A": 10 - 3 - 2 - 1 + 1, "B": 2 + 1, "E": 1, "C": 1, "D": 1})


def test_covered_length_takes_the_union_clipped_to_the_parent():
    assert covered_length([(1, 3), (2, 4), (6, 12)], 0, 10) == pytest.approx(3 + 4)
    assert covered_length([], 0, 10) == 0


def test_tracer_counts_calls_and_restores_the_program():
    original = markov.linear_solve
    with Tracer() as tracer:
        assert markov.linear_solve is not original
        markov.build_distribution(3, 1.0, 4.0).to_json()
        markov.build_distribution(3, 1.0, 4.0)
    assert markov.linear_solve is original and exactnum.linear_solve is original
    table = tracer.table()
    assert table["markov.build_distribution"]["calls"] == 2
    assert table["markov.build_distribution"]["distinct"] == 1
    assert table["exactnum.linear_solve"]["calls"] == 2
    assert table["spectra.chi"]["calls"] == 6
    assert table["markov.serialize"]["calls"] == 1
    assert "self_ms" not in table["qcore.q_bracket"]  # counted, not spanned


# -- kernels -----------------------------------------------------------------


def nudged(text: str, index: int, field: str, change) -> str:
    doc = json.loads(text)
    doc["atoms"][index][field] = change(doc["atoms"][index][field])
    return json.dumps(doc)


def test_float_kernel_check_rejects_a_mass_nudged_by_1e_9():
    text = markov.build_distribution(4, 1.3, 4.0).to_json()
    check_kernel_json(text, 4, 1.3, 4.0)
    with pytest.raises(CheckFailed):
        check_kernel_json(nudged(text, 1, "mass", lambda v: v + 1e-9), 4, 1.3, 4.0)
    with pytest.raises(CheckFailed):
        check_kernel_json(nudged(text, 2, "value", lambda v: v * (1 + 1e-9)), 4, 1.3, 4.0)


def test_float_kernel_check_rejects_a_nudged_mass_where_the_support_spreads_most():
    y = -9.97  # (m, q) = (4, 16) near |y| = 10: the loosest mass bound of kernels-float
    text = markov.build_distribution(4, y, 16.0).to_json()
    check_kernel_json(text, 4, y, 16.0)
    with pytest.raises(CheckFailed):
        check_kernel_json(nudged(text, 3, "mass", lambda v: v + 1e-9), 4, y, 16.0)


def test_exact_kernel_check_rejects_a_mass_nudged_by_1e_9():
    y, q = Fraction(-3, 7), Fraction(9, 4)
    text = markov.build_distribution(3, y, q).to_json()
    check_kernel_json(text, 3, y, q)

    def nudge(mass):
        a, sep, rest = mass.partition(" ")
        return str(Fraction(a) + Fraction(1, 10**9)) + sep + rest

    with pytest.raises(CheckFailed):
        check_kernel_json(nudged(text, 0, "mass", nudge), 3, y, q)


# -- trajectories --------------------------------------------------------------


def path(m=2, q=4.0, steps=60):
    config = markov.ChainConfig(q=q, m=m, initial_y=0.75, steps=steps, seed=5)
    return parse_csv(markov.simulate(config).to_csv(), steps)


def test_lattice_check_rejects_a_state_off_the_lattice():
    states = path()
    check_lattice(states, 2, 4.0)
    states[30] *= 1 + 1e-7
    with pytest.raises(CheckFailed):
        check_lattice(states, 2, 4.0)


def test_lattice_check_rejects_a_step_outside_the_index_set():
    states = path(m=2)
    states[31] = chi_ref(3, states[30], 4.0)  # on the lattice, but a jump of 3
    with pytest.raises(CheckFailed):
        check_lattice(states[:32], 2, 4.0)


def test_csv_parse_rejects_a_missing_row():
    text = markov.simulate(markov.ChainConfig(q=4.0, m=2, initial_y=1.0, steps=5)).to_csv()
    assert len(parse_csv(text, 5)) == 6
    with pytest.raises(CheckFailed):
        parse_csv(text.replace("3,", "4,", 1), 5)


def test_regression_law_rejects_a_path_without_the_pull_to_zero():
    stats = RegressionStats(4, 4.0)
    stats.add_path(path(m=4, steps=2000))
    stats.check()
    bad = RegressionStats(4, 4.0)
    bad.add_path([chi_ref(k % 3, 0.5, 4.0) for k in range(2000)])  # E[X'|X] far from rho X
    with pytest.raises(CheckFailed):
        bad.check()


# -- verifiers ---------------------------------------------------------------


def test_report_check_rejects_a_report_flipped_to_failed():
    report = spectra.verify_chi_properties(2, 3, Fraction(1, 3), Fraction(4))
    check_report(report, "chi-properties", 2, 0.0)
    report.passed = False
    with pytest.raises(CheckFailed):
        check_report(report, "chi-properties", 2, 0.0)


def test_report_check_rejects_a_residual_above_tolerance():
    report = spectra.verify_addition_formula(6, 0.4, 1.1, 4.0)
    check_report(report, "addition-formula", 3, 1e-8)
    report.max_residual = 2e-8
    with pytest.raises(CheckFailed):
        check_report(report, "addition-formula", 3, 1e-8)


def test_planted_wrong_inputs_are_refused():
    check_planted_inputs()


# -- the run -----------------------------------------------------------------


def test_failed_operations_are_counted_per_round():
    workload = WORKLOADS["kernels-float"]()
    counts = []
    for rounds in (1, 3):
        run = Run(workload)
        rng = random.Random(4)
        for index in range(rounds):
            ops = workload.round(rng)[:5]
            outputs, _, _ = run.execute(ops)
            run.judge(index, ops, outputs)
        counts.append((run.attempted, run.failed, run.problems))
    assert counts[0] == counts[1] == (5 + 2, 2, [])


def test_a_traced_run_gives_every_declared_per_layer_metric():
    workload = WORKLOADS["kernels-float"]()
    workload.round = lambda rng, whole=workload.round: whole(rng)[:3]
    result = traced_run(workload, seed=1, seconds=0.0)
    assert result["correct"] and (result["attempted"], result["failed"]) == (3 + 2, 2)
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == layer_metrics()
    assert result["metrics"]["markov.build_distribution.calls"]["value"] == 3 * workload.traced_rounds


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_round_of_each_workload_passes_its_checks(name):
    workload = WORKLOADS[name]()
    for op in workload.round(random.Random(3))[:4]:
        op.check(op.call())
