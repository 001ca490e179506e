"""Correctness references for the benchmark, written apart from `qchain`.

Nothing here imports the package under test.  Each checker takes the
program's *serialized* output (kernel JSON, trajectory CSV) or its public
report objects and compares it with a computation made here:

  * kernels against Christoffel numbers computed in mpmath,
    lambda_k = 1 / sum_{j<m} p_j(chi_k)^2 / h_j,
    h_j = [j]_q! prod_{i<j} (1 - rho^2 q^i),  rho = q^{-(m-1)/2};
  * exact kernels against the identities sum lambda = 1 and
    sum lambda chi = rho y, in our own Q(sqrt D) pair arithmetic;
  * trajectories against the lattice chi_k(y0) = (2/sqrt(q-1)) sinh(theta0 + k ln(q)/2)
    and the regression laws E[X'|X] = rho X, E[H2(X')|X] = rho^2 H2(X);
  * the factorization against our own product of v-factors.

Every failed comparison raises CheckFailed with the offending values.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import mpmath

REF_DPS = 50  # digits for every mpmath reference (>= 40 asked of the reference)
# absolute, per mass, times max(1, the largest size of chi's terms in the
# kernel): the moment solve loses digits as the support spreads.  Over
# 20 000 uniform y in [-10, 10] at (m, q) = (4, 16) the worst error was
# 2.7e-15 of that size, at (4, 4) 9.9e-16.
FLOAT_MASS_TOL = 1e-13
FLOAT_VALUE_TOL = 1e-12  # relative to the magnitude of chi's two terms
EXACT_TOL = mpmath.mpf(10) ** -40  # exact outputs evaluated at REF_DPS digits
LATTICE_TOL = 1e-9  # |k - round(k)| for a state's lattice index
Z_LIMIT = 5.0  # self-normalized martingale statistic


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def index_set(m: int) -> list[int]:
    """(m) = {-(m-1), -(m-3), ..., m-1}."""
    return list(range(-(m - 1), m, 2))


def _mpf(v):
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(v)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def kernel_reference(m: int, y, q) -> list[tuple[int, object, object, object]]:
    """[(k, chi_k, lambda_k, scale_k)] in mpmath at REF_DPS digits.

    scale_k is |y|(q^{k/2} + q^{-k/2})/2 + R|q^{k/2} - q^{-k/2}|/2, the size of
    chi's two terms, against which a float support point is judged.
    """
    with mpmath.mp.workdps(REF_DPS):
        q, y = _mpf(q), _mpf(y)
        sq = mpmath.sqrt(q)
        rho = sq ** (-(m - 1))
        radical = mpmath.sqrt(y * y + 4 / (q - 1))
        brackets = [(q**j - 1) / (q - 1) for j in range(m)]  # [j]_q
        norms = [mpmath.mpf(1)]
        for j in range(1, m):
            norms.append(norms[-1] * brackets[j] * (1 - rho * rho * q ** (j - 1)))
        out = []
        for k in index_set(m):
            up, down = sq**k, sq ** (-k)
            x = (y * (up + down) + radical * (up - down)) / 2
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            total = cur * cur / norms[0]
            for j in range(1, m):
                back = (1 - rho * rho * q ** (j - 2)) * brackets[j - 1] if j >= 2 else 0
                prev, cur = cur, (x - rho * y * q ** (j - 1)) * cur - back * prev
                total += cur * cur / norms[j]
            scale = abs(y) * (up + down) / 2 + radical * abs(up - down) / 2
            out.append((k, x, 1 / total, scale))
        return out


_QUAD = re.compile(r"^(-?\d+(?:/\d+)?) ([+-]) (\d+(?:/\d+)?)\*sqrt\((\d+(?:/\d+)?)\)$")


def parse_quadratic(text: str) -> tuple[Fraction, Fraction, Fraction]:
    """"p/q" -> (p/q, 0, 0); "a + b*sqrt(D)" -> (a, b, D)."""
    match = _QUAD.match(text)
    if match is None:
        try:
            return Fraction(text), Fraction(0), Fraction(0)
        except ValueError:
            raise CheckFailed(f"not an exact scalar: {text!r}") from None
    a, sign, b, D = match.groups()
    b = Fraction(b)
    return Fraction(a), (-b if sign == "-" else b), Fraction(D)


def _rational_root(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(rn, rd) if rn * rn == x.numerator and rd * rd == x.denominator else None


def _quad_sign(a: Fraction, b: Fraction, D: Fraction) -> int:
    """Sign of a + b sqrt(D) from rational comparisons alone."""
    if b == 0 or D == 0:
        return (a > 0) - (a < 0)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    lead = 1 if a > 0 else -1  # opposite signs: the larger square wins
    diff = a * a - b * b * D
    return lead * ((diff > 0) - (diff < 0))


def _field_pairs(atoms: list[dict]) -> tuple[list, list, Fraction]:
    """Values and masses of an exact kernel as (a, b) pairs over one Q(sqrt D).

    A field whose D is a perfect square collapses to Q, where the pair form
    is not unique; the pairs are then folded to (a + b sqrt D, 0).
    """
    parsed = [(parse_quadratic(a["value"]), parse_quadratic(a["mass"])) for a in atoms]
    fields = {D for pair in parsed for (_, b, D) in pair if b != 0}
    if len(fields) > 1:
        raise CheckFailed(f"exact kernel mixes fields sqrt({sorted(fields)})")
    D = fields.pop() if fields else Fraction(0)
    root = _rational_root(D)

    def fold(a, b, _D):
        return (a + b * root, Fraction(0)) if root is not None else (a, b)

    return [fold(*v) for v, _ in parsed], [fold(*w) for _, w in parsed], D


def _quad_mpf(a: Fraction, b: Fraction, D: Fraction):
    return _mpf(a) + _mpf(b) * mpmath.sqrt(_mpf(D))


def check_kernel_json(text: str, m: int, y, q) -> None:
    """Check one `ConditionalDistribution.to_json()` output.

    Float kernels: support and masses against the Christoffel reference
    within FLOAT_VALUE_TOL times the size of chi_k's terms and FLOAT_MASS_TOL
    times the largest such size in the kernel.  Exact kernels: the same
    reference to EXACT_TOL after evaluating a + b sqrt(D) in mpmath, plus
    sum lambda = 1, sum lambda chi = rho y identically and every mass > 0.
    """
    doc = json.loads(text)
    exact = isinstance(q, Fraction)
    if doc["mode"] != ("exact" if exact else "float") or doc["m"] != m:
        raise CheckFailed(f"kernel header {doc['mode']}, m={doc['m']} for m={m}, q={q}")
    atoms = doc["atoms"]
    ref = kernel_reference(m, y, q)
    if [a["k"] for a in atoms] != [k for k, *_ in ref]:
        raise CheckFailed(f"kernel(m={m}, y={y}, q={q}) indices {[a['k'] for a in atoms]}")
    if not exact:
        mass_tol = FLOAT_MASS_TOL * max(1, max(scale for *_, scale in ref))
        for atom, (k, x, lam, scale) in zip(atoms, ref):
            value_err = abs(atom["value"] - x)
            if value_err > FLOAT_VALUE_TOL * max(1, scale):
                raise CheckFailed(f"kernel(m={m}, y={y!r}, q={q}) chi_{k} = {atom['value']!r}, reference {x}")
            if abs(atom["mass"] - lam) > mass_tol:
                raise CheckFailed(f"kernel(m={m}, y={y!r}, q={q}) mass_{k} = {atom['mass']!r}, reference {lam}")
        return

    values, masses, D = _field_pairs(atoms)
    with mpmath.mp.workdps(REF_DPS):
        for (k, x, lam, _), value, mass in zip(ref, values, masses):
            if abs(_quad_mpf(*value, D) - x) > EXACT_TOL * max(1, abs(x)):
                raise CheckFailed(f"exact kernel(m={m}, y={y}, q={q}) chi_{k} = {value}, reference {x}")
            if abs(_quad_mpf(*mass, D) - lam) > EXACT_TOL:
                raise CheckFailed(f"exact kernel(m={m}, y={y}, q={q}) mass_{k} = {mass}, reference {lam}")
    if any(_quad_sign(a, b, D) <= 0 for a, b in masses):
        raise CheckFailed(f"exact kernel(m={m}, y={y}, q={q}) has a mass <= 0")
    total = (sum(a for a, _ in masses), sum(b for _, b in masses))
    if total != (1, 0):
        raise CheckFailed(f"exact kernel(m={m}, y={y}, q={q}) masses sum to {total}")
    root_q = _rational_root(q)
    rho = root_q ** (-(m - 1))
    mean = (
        sum(la * va + lb * vb * D for (la, lb), (va, vb) in zip(masses, values)),
        sum(la * vb + lb * va for (la, lb), (va, vb) in zip(masses, values)),
    )
    if mean != (rho * y, 0):
        raise CheckFailed(f"exact kernel(m={m}, y={y}, q={q}) mean {mean} != rho y = {rho * y}")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def parse_csv(text: str, steps: int) -> list[float]:
    """States of a `Trajectory.to_csv()` output, with its framing checked."""
    lines = text.split("\n")
    if lines[0] != "step,state" or lines[-1] != "" or len(lines) != steps + 3:
        raise CheckFailed(f"trajectory CSV framing: {len(lines)} lines for {steps} steps")
    states = []
    for i, line in enumerate(lines[1:-1]):
        step, _, state = line.partition(",")
        if step != str(i):
            raise CheckFailed(f"trajectory CSV row {i} is numbered {step!r}")
        states.append(float(state))
    return states


class RegressionStats:
    """Pooled self-normalized martingale statistics for one (m, q).

    D_t = g(X_{t+1}) - r g(X_t) has conditional mean zero under the kernel,
    for g(x) = x with r = rho and, when m >= 3, g(x) = H2(x) = x^2 - 1 with
    r = rho^2; z = sum D / sqrt(sum D^2) is then approximately N(0, 1).
    """

    def __init__(self, m: int, q: float):
        self.m, self.q = m, q
        self.rho = math.sqrt(q) ** (-(m - 1))
        self.sums = {"x": [0.0, 0.0, 0], "H2": [0.0, 0.0, 0]}

    def add_path(self, states: list[float]) -> None:
        laws = [("x", lambda v: v, self.rho)]
        if self.m >= 3:
            laws.append(("H2", lambda v: v * v - 1.0, self.rho**2))
        for name, g, r in laws:
            acc = self.sums[name]
            for prev, nxt in zip(states, states[1:]):
                d = g(nxt) - r * g(prev)
                acc[0] += d
                acc[1] += d * d
                acc[2] += 1

    def z_scores(self) -> dict[str, float]:
        return {
            name: (s / math.sqrt(s2) if s2 > 0 else 0.0)
            for name, (s, s2, n) in self.sums.items()
            if n
        }

    def check(self) -> None:
        for name, z in self.z_scores().items():
            if not abs(z) <= Z_LIMIT:
                raise CheckFailed(f"regression law {name} at m={self.m}, q={self.q}: z = {z:.2f}")


def check_lattice(states: list[float], m: int, q: float) -> None:
    """Every state is chi_k(y0) for an integer k, and each step moves k by an
    element of (m); the index is read off the sinh parametrization."""
    c = math.sqrt(q - 1) / 2
    half_log_q = math.log(q) / 2
    theta0 = math.asinh(states[0] * c)
    allowed = set(index_set(m))
    prev = 0
    for t, x in enumerate(states):
        k = (math.asinh(x * c) - theta0) / half_log_q
        index = round(k)
        if abs(k - index) > LATTICE_TOL:
            raise CheckFailed(f"state {t} = {x!r} is off the lattice of {states[0]!r} (index {k!r})")
        if t and index - prev not in allowed:
            raise CheckFailed(f"step {t} moves the index by {index - prev}, outside ({m})")
        prev = index


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def v_factor(n: int, x: Fraction, y: Fraction, sq: Fraction) -> Fraction:
    """v_n(x, y, q) over the rationals, q = sq^2; v_0 = x + y."""
    if n == 0:
        return x + y
    q = sq * sq
    return x * x + y * y + x * y * (sq**n + sq**-n) - (q**n + q**-n - 2) / (q - 1)


def product_form(m: int, x: Fraction, y: Fraction, sq: Fraction) -> Fraction:
    """p_m(x | y, q^{-(m-1)/2}, q) as the product of v-factors at (x, -y)."""
    out = Fraction(1)
    for n in range(1 - m % 2, m, 2):
        out *= v_factor(n, x, -y, sq)
    return out


def check_report(report, identity: str, points: int, tol: float) -> None:
    """A verifier report passed, over the expected number of points, with
    its worst residual within the stated tolerance."""
    doc = report.to_json_dict()
    if doc["identity"] != identity or doc["passed"] is not True:
        raise CheckFailed(f"{identity} report did not pass: {doc}")
    if doc["points_checked"] != points:
        raise CheckFailed(f"{identity} report checked {doc['points_checked']} points, expected {points}")
    if not 0 <= doc["max_residual"] <= tol:
        raise CheckFailed(f"{identity} report residual {doc['max_residual']} above {tol}")
