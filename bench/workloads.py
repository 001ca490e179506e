"""The benchmark's workloads: seeded inputs, the operations a round times,
and the checks run on their outputs outside every timed region.

A round is a fixed list of operations whose inputs are drawn from the run's
`random.Random(seed)`.  Every round of a workload has the same make-up, so
the share of failed operations is the same in every run.  A workload's
`failing` operations fail every time today; they use fixed inputs, run
outside the timed region and count as failed.

The workloads call what `qchain simulate | dist | verify` call, without
argparse, which would swamp a 0.05 ms kernel build.  Create one workload
object per run: it holds that run's check state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from qchain import markov, qcore, spectra
from reference import (
    CheckFailed,
    RegressionStats,
    check_kernel_json,
    check_lattice,
    check_report,
    parse_csv,
    product_form,
)

Q4, Q9_4 = Fraction(4), Fraction(9, 4)


@dataclass
class Op:
    """One operation: `call()` runs the program, `check(output)` judges it,
    `units` is the work it counts towards ops_per_ref_s."""

    call: Callable[[], object]
    check: Callable[[object], None]
    units: int = 1


class Workload:
    name: str
    unit: str  # what one unit of ops_per_ref_s is
    setup_argv: list[str]  # the `qchain` command whose first call setup_s times
    traced_rounds: int  # rounds in each pass of a traced run
    failing: tuple[Op, ...] = ()

    def round(self, rng) -> list[Op]:
        raise NotImplementedError

    def after_round(self, index: int, ops: list[Op], outputs: list) -> None:
        """Checks over a whole round, run after the per-operation checks."""

    def finish(self) -> None:
        """Checks over the whole run."""


def small_rational(rng) -> Fraction:
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def kernel_op(m: int, y, q) -> Op:
    return Op(
        call=lambda: markov.build_distribution(m, y, q).to_json(),
        check=lambda text: check_kernel_json(text, m, y, q),
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class Simulate(Workload):
    name = "simulate"
    unit = "chain step"
    setup_argv = ["simulate", "--m", "2", "--y", "1", "--q", "4", "--steps", "20"]
    traced_rounds = 3
    configs = ((2, 4.0), (2, 16.0), (4, 4.0), (4, 16.0))
    steps = 400

    def __init__(self):
        self.stats = {(m, q): RegressionStats(m, q) for m, q in self.configs}

    def round(self, rng) -> list[Op]:
        ops = []
        for m, q in self.configs:
            config = markov.ChainConfig(
                q=q, m=m, initial_y=rng.uniform(-10.0, 10.0), steps=self.steps, seed=rng.getrandbits(32)
            )
            ops.append(
                Op(
                    call=lambda config=config: markov.simulate(config).to_csv(),
                    check=lambda text, config=config: self._check_path(config, text),
                    units=self.steps,
                )
            )
        return ops

    def _check_path(self, config, text: str) -> None:
        states = parse_csv(text, config.steps)
        if states[0] != config.initial_y:
            raise CheckFailed(f"path starts at {states[0]!r}, not {config.initial_y!r}")
        check_lattice(states, config.m, config.q)
        self.stats[(config.m, config.q)].add_path(states)

    def after_round(self, index: int, ops: list[Op], outputs: list) -> None:
        if index == 0:  # one path per (m, q) re-runs to the same bytes
            for op, text in zip(ops, outputs):
                if op.call() != text:
                    raise CheckFailed("a re-run of a seeded path gave a different CSV")

    def finish(self) -> None:
        for stats in self.stats.values():
            stats.check()


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class FloatKernels(Workload):
    name = "kernels-float"
    unit = "float kernel build"
    setup_argv = ["dist", "--m", "4", "--y", "1", "--q", "4", "--mode", "float"]
    traced_rounds = 3
    failing = (kernel_op(9, 1.0, 16.0), kernel_op(10, -2.5, 16.0))  # SingularMatrix today
    classes = tuple((m, q) for m in (2, 3, 4) for q in (2.25, 4.0, 16.0))
    per_class = 20

    def round(self, rng) -> list[Op]:
        return [kernel_op(m, rng.uniform(-10.0, 10.0), q) for _ in range(self.per_class) for m, q in self.classes]


class ExactKernels(Workload):
    name = "kernels-exact"
    unit = "exact kernel build"
    setup_argv = ["dist", "--m", "4", "--y", "1", "--q", "4"]
    traced_rounds = 1
    classes = tuple((m, q) for q in (Q4, Q9_4) for m in range(2, 13))

    def round(self, rng) -> list[Op]:
        return [kernel_op(m, small_rational(rng), q) for m, q in self.classes]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def report_op(call, identity: str, points: int, tol: float, extra=None) -> Op:
    def check(report):
        check_report(report, identity, points, tol)
        if extra is not None:
            extra()

    return Op(call=call, check=check)


def ck_points(m: int, n: int) -> int:
    """Atoms compared by verify_chapman_kolmogorov: one step, then the
    two-step kernel lifted to three steps."""
    return (m + n - 1) + (3 * (m - 1) + 1)


def check_p_values(m: int, q: Fraction, points) -> None:
    """eval_p at (x, y) against our own product of v-factors."""
    sq = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    for x, y in points:
        got, expected = qcore.eval_p(m, x, y, sq ** (-(m - 1)), q), product_form(m, x, y, sq)
        if got != expected:
            raise CheckFailed(f"p_{m}({x} | {y}, q={q}) = {got}, v-factor product {expected}")


def check_q1_limit(m: int, x: Fraction, y: Fraction) -> None:
    """Both p routes at q = rho = 1 against (x - y)^m."""
    one = Fraction(1)
    expected = (x - y) ** m
    got = (qcore.eval_p(m, x, y, one, one), qcore.eval_p_expansion(m, x, y, one, one))
    if got != (expected, expected):
        raise CheckFailed(f"q = 1 limit of p_{m}({x}, {y}) gave {got}, not (x - y)^m = {expected}")


class Certify(Workload):
    name = "certify"
    unit = "verifier call"
    setup_argv = ["verify", "factorization", "--m", "3", "--q", "4"]
    traced_rounds = 1
    failing = (  # SingularMatrix today
        report_op(
            lambda: markov.verify_chapman_kolmogorov(4, 2, 1.0, 16.0, mode="float"),
            "chapman-kolmogorov",
            ck_points(4, 2),
            1e-9,
        ),
    )
    factorizations = ((5, Q4), (4, Q9_4))
    additions = tuple((n, q) for n in (3, 6, 10) for q in (4.0, 2.25))
    chi_qs = (Q4, Q9_4, Q4, Q9_4)
    hermite_degrees = (4, 8, 12)
    exact_cks = ((2, 2, Q4), (3, 3, Q4), (2, 3, Q9_4))
    # float CK at m >= 3 misses its 1e-9 bound at about a third of states
    float_cks = tuple((2, n, q) for n in (2, 3) for q in (4.0, 2.25, 16.0))

    def round(self, rng) -> list[Op]:
        ops = []
        for m, q in self.factorizations:
            axis_x = [small_rational(rng) for _ in range(10)]
            axis_y = [small_rational(rng) for _ in range(10)]
            grid = [(x, y) for x in axis_x for y in axis_y]
            ops.append(
                report_op(
                    lambda m=m, q=q, grid=grid: spectra.verify_factorization(m, q, sample_points=grid),
                    "factorization",
                    len(grid),
                    0.0,
                    extra=lambda m=m, q=q, grid=grid: check_p_values(m, q, grid[::25]),
                )
            )
        for n, q in self.additions:
            theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)
            ops.append(
                report_op(
                    lambda n=n, theta=theta, phi=phi, q=q: spectra.verify_addition_formula(n, theta, phi, q),
                    "addition-formula",
                    3,
                    1e-8,
                )
            )
        for q in self.chi_qs:
            m, n, y = rng.randint(0, 5), rng.randint(0, 5), small_rational(rng)
            ops.append(
                report_op(
                    lambda m=m, n=n, y=y, q=q: spectra.verify_chi_properties(m, n, y, q),
                    "chi-properties",
                    2,
                    0.0,
                )
            )
        for m in self.hermite_degrees:
            x, y = small_rational(rng), small_rational(rng)
            ops.append(
                report_op(
                    lambda m=m, x=x, y=y: spectra.hermite_limit_identity(m, x, y),
                    "hermite-limit",
                    1,
                    0.0,
                    extra=lambda m=m, x=x, y=y: check_q1_limit(m, x, y),
                )
            )
        for m, n, q in self.exact_cks:
            y = small_rational(rng)
            ops.append(
                report_op(
                    lambda m=m, n=n, y=y, q=q: markov.verify_chapman_kolmogorov(m, n, y, q, mode="exact"),
                    "chapman-kolmogorov",
                    ck_points(m, n),
                    0.0,
                )
            )
        for m, n, q in self.float_cks:
            y = rng.uniform(-10.0, 10.0)
            ops.append(
                report_op(
                    lambda m=m, n=n, y=y, q=q: markov.verify_chapman_kolmogorov(m, n, y, q, mode="float"),
                    "chapman-kolmogorov",
                    ck_points(m, n),
                    1e-9,
                )
            )
        return ops

    def after_round(self, index: int, ops: list[Op], outputs: list) -> None:
        if index == 0:
            check_planted_inputs()


def _must_fail(label: str, call, errors) -> None:
    try:
        call()
    except errors:
        return
    raise CheckFailed(f"planted wrong input was accepted: {label}")


def check_planted_inputs() -> None:
    """One wrong input per verifier must make it fail.

    Both chi properties hold for every value of sqrt_q (chi_k is
    c sinh(theta + k a) with a = ln sqrt_q), so an inconsistent sqrt_q is no
    wrong input there; a tolerance below the residual the verifier itself
    reports is (check_chi_tolerance_plant).  verify_chapman_kolmogorov
    builds every kernel it compares, so its wrong input goes one level down:
    a kernel with nudged masses handed to compose(check=True).
    hermite_limit_identity holds for every rational (x, y) and has no wrong
    input; its inputs go through check_q1_limit instead."""
    failed = spectra.VerificationFailed
    _must_fail(
        "factorization with sqrt_q = 3 for q = 4",
        lambda: spectra.verify_factorization(3, Q4, sqrt_q=Fraction(3)),
        failed,
    )
    check_chi_tolerance_plant()
    _must_fail(
        "addition formula evaluated at 6 digits",
        lambda: spectra.verify_addition_formula(10, 1.0, 2.0, 16.0, dps=6),
        failed,
    )
    kernel = markov.build_distribution(3, Fraction(1), Q4)
    low, high = kernel.indices()[0], kernel.indices()[-1]
    nudge = Fraction(1, 10**9)
    kernel.atoms[low] = kernel.atoms[low]._replace(mass=kernel.atoms[low].mass + nudge)
    kernel.atoms[high] = kernel.atoms[high]._replace(mass=kernel.atoms[high].mass - nudge)
    _must_fail(
        "composition of a kernel with two masses nudged by 1e-9",
        lambda: markov.compose(kernel, 2, check=True),
        markov.CompositionMismatch,
    )


# float states for the chi-properties plant, tried in order
CHI_PLANT_STATES = ((5, 3, -2.3, 16.0), (4, 2, 7.9, 4.0), (3, 6, 0.3, 2.25), (6, 1, -9.1, 4.0))


def check_chi_tolerance_plant() -> None:
    """Float verify_chi_properties must fail when its tolerance is half the
    residual it reports at the same state.  A state where float chi happens
    to be exact (residual 0) has no such tolerance; the next one is tried,
    and the plant is skipped, with a note, only if every one is exact."""
    for m, n, y, q in CHI_PLANT_STATES:
        residual = spectra.verify_chi_properties(m, n, y, q).max_residual
        if residual > 0:
            _must_fail(
                f"chi properties at (m, n, y, q) = {(m, n, y, q)} held to half their residual {residual:.3g}",
                lambda: spectra.verify_chi_properties(m, n, y, q, rel_tol=residual / 2),
                spectra.VerificationFailed,
            )
            return
    print("chi-properties plant skipped: every plant state has residual 0", file=sys.stderr)


WORKLOADS = {cls.name: cls for cls in (Simulate, FloatKernels, ExactKernels, Certify)}
