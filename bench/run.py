"""Benchmark of `qchain`: one workload per run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the `src/` directory next
to this one, never from an installed copy.

--trace 0 runs whole rounds of the workload until S seconds have passed,
timing each round's operations apart from their checks, and between rounds
sets up the CLI in fresh interpreters.  It prints the end-to-end metrics:
setup_s (median set-up), peak_rss_mb, and ops_per_ref_s, the median over
rounds of the round's units of work per reference second (see
calibration_pass).

--trace 1 runs a fixed number of rounds untraced and then under the tracer,
in pairs on the same inputs until S seconds have passed, checks that both
passes give the same outputs, and prints per-layer counts and self times
with the tracer's overhead.  The first traced pass's per-function table
goes to bench/out/.

Every output is checked outside the timed regions (see reference.py); a
failed check makes "correct" false.  Operations that raise count as failed;
"attempted" and "failed" describe one round (see Run).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from reference import CheckFailed
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
# A reference second is the time of this many calibration passes.
CALIBRATION_PASSES_PER_REF_S = 150


class Run:
    """Tallies of one run: operations per round, failures, failed checks.

    Every round holds the same operations, the known-failing ones included,
    so attempted and failed are reported per round: attempted is a round's
    number of operations and failed the most of them that raised in any
    round of the run.  Both are then the same in every run, however many
    rounds fit in it."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, ops) -> tuple[list, float, int]:
        """Run ops back to back under one timer; (outputs, seconds, units done)."""
        outputs = []
        start = time.perf_counter()
        for op in ops:
            try:
                outputs.append(op.call())
            except Exception as exc:  # an operation that fails is counted, not fatal
                outputs.append(exc)
        seconds = time.perf_counter() - start
        units = sum(op.units for op, out in zip(ops, outputs) if not isinstance(out, Exception))
        return outputs, seconds, units

    def judge(self, index: int, ops, outputs) -> None:
        """Count and check a round's outputs, run the round's known-failing
        operations outside every timer, then run the round-level checks."""
        failing = list(self.workload.failing)
        failing_outputs, _, _ = self.execute(failing)
        failed = self.tally(ops, outputs) + self.tally(failing, failing_outputs, expected=True)
        self.attempted = len(ops) + len(failing)
        self.failed = max(self.failed, failed)
        self.guard(self.workload.after_round, index, ops, outputs)

    def tally(self, ops, outputs, expected: bool = False) -> int:
        """Check each output that is not an exception; return how many are."""
        failed = 0
        for op, out in zip(ops, outputs):
            if isinstance(out, Exception):
                failed += 1
                if not expected:
                    print(f"{self.workload.name}: operation raised {type(out).__name__}: {out}", file=sys.stderr)
            else:
                self.guard(op.check, out)
        return failed

    def guard(self, check, *args) -> None:
        try:
            check(*args)
        except CheckFailed as exc:
            self.note(f"check failed: {exc}")

    def note(self, text: str) -> None:
        if len(self.problems) < 20:
            print(f"{self.workload.name}: {text}", file=sys.stderr)
        self.problems.append(text)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of each per-layer metric BENCHMARK.json declares: a
    traced function's name and one of its fields (calls, created, self_ms,
    distinct_ratio), or trace.overhead_ratio."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["unit"]) for metric in spec["per_layer"]]


def setup_seconds(argv: list[str]) -> float:
    """Wall time of a fresh interpreter that imports qchain.cli and returns
    from its first call of `qchain <argv>`."""
    code = (
        "import contextlib, io, sys\n"
        "import qchain.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    sys.exit(qchain.cli.main({argv!r}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=SETUP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"qchain {' '.join(argv)} exited {done.returncode}: {done.stderr.decode()}")
    return elapsed


def calibration_pass() -> float:
    """Seconds taken by a fixed piece of pure-Python work that runs no
    qchain code: Fraction sums, float arithmetic, dict stores, str and sort.

    The host's speed drifts by a quarter and more over minutes, and a
    round's wall time drifts with it.  A pass timed just before and just
    after each round measures the host's speed at that moment, and the
    round's time divided by it does not drift: no change to qchain can
    change a pass, so a slower program still reads slower."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i * i + 1)
    x, table = 0.0, {}
    for i in range(20000):
        x += (i * 0.5) ** 0.5
        table[i & 255] = x
    text = sorted(str(v) for v in table.values())
    seconds = time.perf_counter() - start
    if total <= 0 or len(text) != 256:
        raise AssertionError("calibration pass went wrong")
    return seconds


def timed_run(workload, seed: int, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed.  The set-ups are spread
    evenly over the same window, so that a slow spell of the host, which
    lasts seconds here, weighs on setup_s no more than on the rate."""
    rng = random.Random(seed)
    run = Run(workload)
    rates, wall_rates, setups = [], [], []
    started = time.perf_counter()
    index = 0
    while True:
        ops = workload.round(rng)
        gc.collect()
        before = calibration_pass()
        outputs, elapsed, units = run.execute(ops)
        pass_s = (before + calibration_pass()) / 2
        wall_rates.append(units / elapsed)
        rates.append(units / elapsed * pass_s * CALIBRATION_PASSES_PER_REF_S)
        run.judge(index, ops, outputs)
        index += 1
        elapsed = time.perf_counter() - started
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_seconds(workload.setup_argv))
        elif elapsed >= seconds and len(setups) == SETUP_REPEATS:
            break
    run.guard(workload.finish)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{workload.name}: {index} rounds of {run.attempted} operations; {workload.unit}s per round, "
        f"per reference second: min {min(rates):.6g}, median {statistics.median(rates):.6g}, max {max(rates):.6g}; "
        f"per wall second: median {statistics.median(wall_rates):.6g}; setup_s {min(setups):.4g}..{max(setups):.4g}",
        file=sys.stderr,
    )
    return run.result(
        {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_ref_s": {"value": statistics.median(rates), "unit": "1/ref_s"},
        }
    )


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Fixed rounds, run untraced and then traced, in pairs until `seconds`
    have passed.  Counts come from the first traced pass (every pass does the
    same work), self times and the overhead are medians over the pairs."""
    rng = random.Random(seed)
    run = Run(workload)
    rounds = [workload.round(rng) for _ in range(workload.traced_rounds)]

    def one_pass():
        outputs, total = [], 0.0
        for ops in rounds:
            gc.collect()
            out, elapsed, _ = run.execute(ops)
            outputs.append(out)
            total += elapsed
        return outputs, total

    tables, ratios = [], []
    started = time.perf_counter()
    while not tables or time.perf_counter() - started < seconds:
        untraced, plain_s = one_pass()
        with Tracer() as tracer:
            traced, traced_s = one_pass()
        tables.append(tracer.table())
        ratios.append(traced_s / plain_s)
        if repr(traced) != repr(untraced):
            run.note("traced outputs differ from untraced outputs")
        if len(tables) == 1:
            for index, (ops, outputs) in enumerate(zip(rounds, untraced)):
                run.judge(index, ops, outputs)
            run.guard(workload.finish)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{workload.name}-{seed}.json").write_text(json.dumps(tables[0], indent=1, sort_keys=True))
    metrics = {}
    for metric, unit in layer_metrics():
        name, field = metric.rsplit(".", 1)
        row = tables[0].get(name, {})
        if metric == "trace.overhead_ratio":
            value = statistics.median(ratios)
        elif field == "self_ms":
            value = statistics.median(t.get(name, {}).get("self_ms", 0.0) for t in tables)
        elif field == "distinct_ratio":
            value = row["distinct"] / row["calls"] if row.get("calls") else 0.0
        elif field in ("calls", "created"):
            value = row.get("calls", 0)
        else:
            raise ValueError(f"BENCHMARK.json names per-layer metric {metric!r}, which the tracer does not give")
        metrics[metric] = {"value": value, "unit": unit}
    print(f"{workload.name}: {len(tables)} traced passes of {len(rounds)} rounds", file=sys.stderr)
    return run.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qchain" / "__init__.py").is_file():
        print(f"no qchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qchain
    from workloads import WORKLOADS

    if Path(qchain.__file__).resolve().parent != SRC / "qchain":
        print(f"imported qchain from {qchain.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.trace:
        result = traced_run(workload, args.seed, args.seconds)
    else:
        result = timed_run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
