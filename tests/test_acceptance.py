"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Tolerances are pinned here and nowhere else:

  * exact criteria assert identical equality in Q(sqrt(D));
  * the kernel's regression mean E[X_1 | X_0 = y] = rho y holds identically
    on the exact kernel and within 4 ulps of rho y on the float kernel at
    y = 1;
  * over 500 seeded uniform y in [-10, 10] per (m, q), m in {2, 3, 4, 8},
    q in {9/4, 4, 16}, the float regression mean is within
    16 ulps of sum_k mass_k |chi_k| of rho y;
  * statistical criteria use four standard errors under the exact kernel;
  * the addition formula allows 1e-8 relative with imaginary residue
    below 1e-10.
"""

import math
import random
import time
from fractions import Fraction

from qchain.markov import (
    ChainConfig,
    build_distribution,
    compose,
    conditional_moment_residual,
    sample_step,
    simulate,
)
from qchain.spectra import (
    hermite_limit_identity,
    rational_grid,
    verify_addition_formula,
    verify_chi_properties,
    verify_factorization,
)

EXACT_QS = (Fraction(4), Fraction(9, 4))
EXACT_YS = (Fraction(0), Fraction(1), Fraction(-3, 7))


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_exact_factorization():
    started = time.perf_counter()
    axis = rational_grid(10)
    grid = [(x, y) for x in axis for y in axis]
    for q in EXACT_QS:
        for m in range(1, 9):
            result = verify_factorization(m, q, sample_points=grid)
            assert result.passed and result.max_residual == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"factorization suite took {elapsed:.1f}s"
    report(1, f"sum/product/recurrence identical on 10x10 grids, m<=8, both q ({elapsed:.1f}s)")


def test_criterion_2_exact_chapman_kolmogorov():
    started = time.perf_counter()
    checked = 0
    for q in EXACT_QS:
        for y in EXACT_YS:
            for m in (2, 3, 4):
                for n in (2, 3, 4):
                    composed = compose(build_distribution(m, y, q), n, check=False)
                    direct = build_distribution(m + n - 1, y, q)
                    assert composed.atoms == direct.atoms
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"Chapman-Kolmogorov suite took {elapsed:.1f}s"
    report(2, f"{checked} exact kernel compositions match atom-for-atom ({elapsed:.1f}s)")


def test_criterion_3_moment_law():
    for q in EXACT_QS:
        for y in EXACT_YS:
            for m in range(2, 7):
                dist = build_distribution(m, y, q)
                for j in range(1, m):
                    assert conditional_moment_residual(dist, j) == 0
    report(3, "all conditional q-Hermite moments j <= m-1 vanish identically, m <= 6")


def test_criterion_4_root_composition_identities():
    q = Fraction(4)
    for y in EXACT_YS:
        for m in range(-5, 6):
            for n in range(-5, 6):
                assert verify_chi_properties(m, n, y, q).passed
    report(4, "chi composition and radical-square identities exact for |m|,|n| <= 5")


def test_criterion_5_addition_formula():
    started = time.perf_counter()
    rng = random.Random(20260810)  # 50 seeded (theta, phi) in (0, pi)^2
    pairs = [(rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)) for _ in range(50)]
    worst = 0.0
    for q in (0.3, 0.7, 2.5):
        for n in range(1, 11):
            for theta, phi in pairs:
                result = verify_addition_formula(n, theta, phi, q)
                worst = max(worst, result.max_residual)
    elapsed = time.perf_counter() - started
    assert worst < 1e-8
    assert elapsed < 5.0, f"addition suite took {elapsed:.1f}s"
    report(5, f"three-way agreement, worst residual {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_6_hermite_limit():
    axis = rational_grid(5)
    for m in range(1, 11):
        for x in axis:
            for y in axis:
                assert hermite_limit_identity(m, x, y).passed
    report(6, "q=1 connection sum equals (x-y)^m exactly for m <= 10")


def test_criterion_7_monte_carlo_kernel_consistency():
    started = time.perf_counter()
    draws = 100_000
    rng = random.Random(42)
    kernel = build_distribution(2, 1.0, 4.0)
    lam_plus = kernel.atoms[1].mass
    chi_plus = kernel.atoms[1].value

    firsts = [sample_step(kernel, rng) for _ in range(draws)]
    hits_plus = sum(1 for v in firsts if v == chi_plus)
    freq_se = math.sqrt(lam_plus * (1 - lam_plus) / draws)
    freq_err = abs(hits_plus / draws - lam_plus)
    assert freq_err <= 4 * freq_se, f"atom frequency off by {freq_err / freq_se:.2f} SE"

    mean_one = kernel.kernel_moment(lambda v: v)
    var_one = kernel.kernel_moment(lambda v: v * v) - mean_one**2
    # rho * y with rho = 1/2, y = 1: identically on the exact kernel, and to
    # a few ulps on the float kernel, whose mean is a rounded sum of products
    exact_mean = build_distribution(2, Fraction(1), Fraction(4)).kernel_moment(lambda v: v)
    assert exact_mean == Fraction(1, 2)
    assert abs(mean_one - 0.5) <= 4 * math.ulp(0.5)
    uniform = random.Random(7)  # apart from the sampling stream
    for m in (2, 3, 4, 8):
        for q in (2.25, 4.0, 16.0):
            rho = math.sqrt(q) ** -(m - 1)
            for _ in range(500):
                y = uniform.uniform(-10.0, 10.0)
                dist = build_distribution(m, y, q)
                gap = abs(dist.kernel_moment(lambda v: v) - rho * y)
                assert gap <= 16 * math.ulp(dist.kernel_moment(abs)), (m, q, y, gap)
    emp_one = math.fsum(firsts) / draws
    assert abs(emp_one - mean_one) <= 4 * math.sqrt(var_one / draws)

    two_step = build_distribution(3, 1.0, 4.0)
    mean_two = two_step.kernel_moment(lambda v: v)
    var_two = two_step.kernel_moment(lambda v: v * v) - mean_two**2
    inner = {}
    seconds = []
    for v in firsts:
        if v not in inner:
            inner[v] = build_distribution(2, v, 4.0)
        seconds.append(sample_step(inner[v], rng))
    emp_two = math.fsum(seconds) / draws
    assert abs(emp_two - mean_two) <= 4 * math.sqrt(var_two / draws)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"Monte Carlo suite took {elapsed:.1f}s"
    report(
        7,
        f"10^5 draws: atom freq {freq_err / freq_se:.2f} SE, lag-1 mean "
        f"{abs(emp_one - mean_one) / math.sqrt(var_one / draws):.2f} SE, lag-2 mean "
        f"{abs(emp_two - mean_two) / math.sqrt(var_two / draws):.2f} SE ({elapsed:.1f}s)",
    )


def test_criterion_8_determinism(tmp_path):
    config = ChainConfig(q=4.0, m=2, initial_y=1.0, steps=200, seed=42)
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        simulate(config).write_csv(path)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first.startswith(b"step,state\n0,1\n")
    report(8, f"two runs, {config.steps} steps, byte-identical CSVs ({len(first)} bytes)")
