"""Discrete one-step transition kernels with m-point support, their
composition algebra, and seeded Monte Carlo simulation of the chain they
generate (q > 1).

Given a state y = (2/sqrt(q-1)) sinh(theta), the next state lives on the
m support points chi_k(y, q), k in (m): the zeros of the Al-Salam-Chihara
polynomial p_m(x | y, rho, q) at rho = q^{-(m-1)/2}.  The masses are that
family's Christoffel numbers (Gauss-quadrature weights), which here close
into one product in z = e^{2 theta} = ((q-1)/4) (y + sqrt(y^2 + 4/(q-1)))^2:
with j = (m-1-k)/2,

    mass_k = [m-1 choose j]_{1/q} prod_{i in (m), i<k} 1 / (1 + z q^{(k+i)/2})
                                  prod_{i in (m), i>k} 1 / (1 + z^{-1} q^{-(k+i)/2}).

(k+i)/2 is an integer and every factor lies in (0, 1], so no mass is
negative and nothing cancels: the exact lane stays in Q(sqrt(D)), and
float masses are within 1e-12 relative of the correctly rounded exact
ones for |y| up to 1e100 (from about 1.3e154, y^2 overflows and the build
raises DegenerateSupport).  The masses satisfy the moment law

    sum_k mass_k = 1
    sum_k mass_k H_j(chi_k | q) = q^{-j(m-1)/2} H_j(y | q),   j = 1..m-1.

Atoms are keyed by the integer index k, never by floating value: the
composition law accumulates mass by index sum i + j, which stays exact
even when values collide numerically.  Composing an order-m kernel with
order-n kernels lands exactly on the order-(m+n-1) kernel — the
consistency property the verifier checks atom by atom.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .exactnum import _is_exact, format_scalar, parse_exact
from .qcore import QParams, _q_binomial_row, eval_H_seq
from .spectra import VerificationReport, _chi, _fail, _float_q, _lift_state, chi, index_set

__all__ = [
    "DEFAULT_SEED",
    "Atom",
    "ConditionalDistribution",
    "ChainConfig",
    "Trajectory",
    "DegenerateSupport",
    "InvalidKernel",
    "NegativeMassError",
    "CompositionMismatch",
    "StateOverflow",
    "InsufficientSamples",
    "build_distribution",
    "conditional_moment_residual",
    "compose",
    "k_step_distribution",
    "verify_chapman_kolmogorov",
    "sample_step",
    "simulate",
    "empirical_conditional_moment",
]

DEFAULT_SEED = 42


class DegenerateSupport(ArithmeticError):
    """Support points collided; the kernel needs m distinct points."""


class InvalidKernel(ArithmeticError):
    """The masses of a kernel are not a probability vector: a mass is negative
    (NegativeMassError) or the total is not 1 (see check_masses)."""


class NegativeMassError(InvalidKernel):
    """A kernel mass is below 0.  A built kernel has none (every mass is a
    product of factors in (0, 1]); kernels loaded through from_json or
    edited by hand can carry them."""

    def __init__(self, index: int, value):
        self.index = index
        self.value = value
        super().__init__(f"mass at index {index} is negative: {value}")


class CompositionMismatch(ArithmeticError):
    """Composed kernel disagrees with the directly built one."""


class StateOverflow(RuntimeError):
    """A simulated state left the configured magnitude bound."""


class InsufficientSamples(ValueError):
    """Not enough grouped transitions for an empirical moment check."""


class Atom(NamedTuple):
    value: object
    mass: object


@dataclass
class ConditionalDistribution:
    """The one-step conditional law at state y: atoms keyed by k in (m),
    each carrying the support value chi_k(y, q) and its mass."""

    m: int
    y: object
    q: object
    atoms: dict[int, Atom]

    @property
    def exact(self) -> bool:
        return _is_exact(self.q)

    def indices(self) -> list[int]:
        return sorted(self.atoms)

    def value(self, k: int):
        return self.atoms[k].value

    def mass(self, k: int):
        return self.atoms[k].mass

    def mass_total(self):
        return sum(atom.mass for atom in self.atoms.values())

    def negative_atoms(self) -> list[int]:
        return sorted(k for k, atom in self.atoms.items() if atom.mass < 0)

    def check_masses(self) -> "ConditionalDistribution":
        """Return self if the masses are a probability vector: none negative
        (else NegativeMassError) and summing to 1, exactly in the exact lane
        and within 1e-12 in the float lane, so nan and inf fail (InvalidKernel)."""
        negatives = self.negative_atoms()
        if negatives:
            raise NegativeMassError(negatives[0], self.atoms[negatives[0]].mass)
        total = self.mass_total()
        if not (total == 1 if self.exact else abs(total - 1) <= 1e-12):
            raise InvalidKernel(f"masses of the kernel at m={self.m}, y={self.y}, q={self.q} sum to {total}, not 1")
        return self

    def kernel_moment(self, g) -> object:
        """sum_k mass_k * g(value_k) for a scalar function g."""
        return sum(atom.mass * g(atom.value) for atom in self.atoms.values())

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        mode, scalar = ("exact", format_scalar) if self.exact else ("float", float)
        atoms = [{"k": k, "value": scalar(a.value), "mass": scalar(a.mass)} for k, a in sorted(self.atoms.items())]
        return {"q": str(self.q), "m": self.m, "y": format_scalar(self.y), "atoms": atoms, "mode": mode}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ConditionalDistribution":
        exact = doc["mode"] == "exact"
        scalar = (lambda text: parse_exact(str(text))) if exact else float
        atoms = {entry["k"]: Atom(scalar(entry["value"]), scalar(entry["mass"])) for entry in doc["atoms"]}
        return cls(m=int(doc["m"]), y=scalar(doc["y"]), q=(Fraction if exact else float)(doc["q"]), atoms=atoms)

    def max_deviation(self, other: "ConditionalDistribution") -> float:
        """Largest atom-wise gap against another kernel sharing the same
        index set (inf when the supports differ): value gaps relative to
        max(1, |value|), mass gaps absolute.  Equal atoms are skipped and
        unequal exact ones are differenced exactly, so 0.0 means identical;
        a nan gap makes the result nan, which no tolerance accepts."""
        if self.indices() != other.indices():
            return math.inf
        worst = 0.0
        for k, mine in self.atoms.items():
            theirs = other.atoms[k]
            if mine == theirs:
                continue
            if self.exact != other.exact:  # an exact kernel against a float one
                mine, theirs = Atom(*map(float, mine)), Atom(*map(float, theirs))
            scale = max(1, abs(mine.value), abs(theirs.value))
            for gap in (float(abs(mine.value - theirs.value) / scale), float(abs(mine.mass - theirs.mass))):
                if gap > worst or math.isnan(gap):  # max() would drop a nan gap
                    worst = gap
        return worst


def build_distribution(m: int, y, q, sqrt_q=None, strict: bool = False) -> ConditionalDistribution:
    """Construct the one-step kernel at state y.

    One spectra._lift_state of y gives every support point (through
    spectra._chi) and z; masses are the Christoffel numbers
    [m-1 choose j]_{1/q} prod_{i<k} 1/(1 + z q^{(k+i)/2})
    prod_{i>k} 1/(1 + z^{-1} q^{-(k+i)/2}) of the module docstring, one
    loop for both lanes, the binomials read from one q-Pascal row
    (qcore._q_binomial_row at 1/q).  Every factor lies in (0, 1]: float
    masses are within 1e-12 relative of the rounded exact ones up to
    |y| = 1e100, and from about |y| = 1.3e154 the build raises
    DegenerateSupport.  `strict` runs check_masses on the result; a given
    sqrt_q is only checked against q (QParams.create), in both lanes.
    """
    if m < 2:
        raise ValueError(f"transition order m must be >= 2, got {m}")
    lifted, radical, sq, q = _lift_state(y, q)
    exact = _is_exact(q)
    if not exact:  # a float q or state puts the whole kernel in the float lane
        y = lifted
        _float_q(q, y=y)
    QParams.create(q, m, sqrt_q)

    ks = index_set(m)
    values = [_chi(k, lifted, radical, sq, q) for k in ks]

    # support must consist of m distinct points (strictly increasing in k)
    for left, right in zip(values, values[1:]):
        if not (left < right if exact else right - left > 1e-12 * max(1.0, abs(left), abs(right))):
            raise DegenerateSupport(f"support points collide at state y={y} (m={m}, q={q})")

    # z = e^{2 theta} and 1/z, with e^{2|theta|} >= 1 formed from |y| so that
    # y + sqrt(D) never cancels; the factors depend on e = (k+i)/2 alone
    s = abs(y) + radical
    big = (q - 1) / 4 * s * s
    z, z_inv = (big, 1 / big) if y >= 0 else (1 / big, big)
    below = {e: 1 / (1 + z * q**e) for e in range(2 - m, m - 1)}  # factors for i < k
    above = {e: 1 / (1 + z_inv / q**e) for e in range(2 - m, m - 1)}  # factors for i > k
    masses = {}
    binomials = _q_binomial_row(m - 1, 1 / q)  # [m-1 choose j]_{1/q}, j = 0 at k = m-1
    for j, k in enumerate(reversed(ks)):
        mass = binomials[j]
        for i in ks:
            if i != k:
                mass = mass * (below if i < k else above)[(k + i) // 2]
        masses[k] = mass

    dist = ConditionalDistribution(m=m, y=y, q=q, atoms={k: Atom(v, masses[k]) for k, v in zip(ks, values)})
    return dist.check_masses() if strict else dist


def conditional_moment_residual(dist: ConditionalDistribution, j: int):
    """sum_k mass_k H_j(value_k | q) - q^{-j(m-1)/2} H_j(y | q).

    Zero (identically, in exact mode) for j = 1..m-1; j >= m is allowed as
    a diagnostic and is generally nonzero.
    """
    if j < 1:
        raise ValueError("moment order j must be >= 1")
    params = QParams.create(dist.q, dist.m)
    moment = dist.kernel_moment(lambda v: eval_H_seq(j, v, dist.q)[j])
    return moment - params.rho**j * eval_H_seq(j, dist.y, dist.q)[j]


def compose(dist: ConditionalDistribution, n: int, check: bool = True) -> ConditionalDistribution:
    """Chain an order-n kernel after every atom of `dist`: mass at index
    i flows to indices i + j, j in (n), weighted by the inner kernel
    built at the atom's value.

    The result is supported on (m + n - 1) and, when `check` is set, is
    asserted to coincide atom-for-atom with the directly built
    order-(m+n-1) kernel (CompositionMismatch otherwise).
    """
    if n < 2:
        raise ValueError(f"inner kernel order must be >= 2, got {n}")
    m, y, q = dist.m, dist.y, dist.q
    out_values: dict[int, object] = {}
    out_masses: dict[int, object] = {}
    for i in sorted(dist.atoms):
        outer = dist.atoms[i]
        inner = build_distribution(n, outer.value, q)
        for j in sorted(inner.atoms):
            inner_atom = inner.atoms[j]
            k = i + j
            if k in out_masses:
                out_masses[k] = out_masses[k] + outer.mass * inner_atom.mass
                # chi_j(chi_i(y)) = chi_{i+j}(y): collisions must agree
                if dist.exact and out_values[k] != inner_atom.value:
                    raise CompositionMismatch(
                        f"value collision at index {k}: {out_values[k]} vs {inner_atom.value}"
                    )
            else:
                out_masses[k] = outer.mass * inner_atom.mass
                out_values[k] = inner_atom.value

    expected_support = index_set(m + n - 1)
    if sorted(out_masses) != expected_support:
        raise CompositionMismatch(
            f"composed support {sorted(out_masses)} != ({m + n - 1}) = {expected_support}"
        )
    composed = ConditionalDistribution(
        m=m + n - 1,
        y=y,
        q=q,
        atoms={k: Atom(out_values[k], out_masses[k]) for k in expected_support},
    )
    if check:
        deviation, agrees = _matches_direct(composed)
        if not agrees:
            raise CompositionMismatch(
                f"compose({m},{n}) at y={y}, q={q}: max atom deviation {deviation}"
            )
    return composed


def _matches_direct(composed: ConditionalDistribution) -> tuple[float, bool]:
    """The composed-vs-direct test behind compose(check=True) and
    verify_chapman_kolmogorov: against the directly built kernel of the
    same order, exact kernels must be identical and float ones within
    1e-9 (see max_deviation).  Returns (deviation, passed)."""
    deviation = composed.max_deviation(build_distribution(composed.m, composed.y, composed.q))
    return deviation, deviation <= (0.0 if composed.exact else 1e-9)


def k_step_distribution(m: int, k: int, y, q) -> ConditionalDistribution:
    """The k-step kernel: k composed one-step kernels of order m collapse
    to the single kernel of order k(m-1) + 1."""
    if k < 1:
        raise ValueError("step count k must be >= 1")
    return build_distribution(k * (m - 1) + 1, y, q)


def verify_chapman_kolmogorov(
    m: int,
    n: int,
    y,
    q,
    mode: str | None = None,
    multi_step: bool = True,
) -> VerificationReport:
    """Check kernel consistency: compose(kernel_m, n) == kernel_{m+n-1},
    atom for atom (exact mode: identical; float mode: support values within
    1e-9 relative to max(1, |value|) and masses within 1e-9 absolute).
    With `multi_step`, additionally compose the 2-step kernel with a further
    order-m step and match it against the 3-step kernel.
    """
    if mode == "float":
        q, y = float(q), float(y)
    exact = _is_exact(q, y)  # the kernels' lane: a float y makes float kernels
    if mode == "exact" and not exact:
        raise ValueError("exact mode needs rational q and y")
    mode = "exact" if exact else "float"
    report = VerificationReport("chapman-kolmogorov", {"m": m, "n": n, "y": str(y), "q": str(q), "mode": mode})
    # (label, steps k of the outer kernel, order of the kernel composed after it)
    stages = [("one-step", 1, n), ("multi-step", 2, m)] if multi_step else [("one-step", 1, n)]
    for label, k, inner in stages:
        try:
            composed = compose(k_step_distribution(m, k, y, q), inner, check=False)
        except CompositionMismatch as exc:
            raise _fail(report, {"stage": label, "error": str(exc)}) from exc
        deviation, agrees = _matches_direct(composed)
        report.points_checked += composed.m
        report.max_residual = max(report.max_residual, deviation)
        if not agrees:
            raise _fail(report, {"stage": label, "max_deviation": deviation})
    return report


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainConfig:
    """Simulation parameters; identical configs reproduce identical runs."""

    q: float
    m: int
    initial_y: float
    steps: int
    seed: int = DEFAULT_SEED
    max_state: float = 1e100

    def __post_init__(self):
        for name in ("m", "steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not (self.q > 1 and math.isfinite(self.q)):
            raise ValueError(f"simulation needs a finite q > 1, got {self.q}")
        if not math.isfinite(self.initial_y):
            raise ValueError(f"initial_y must be finite, got {self.initial_y}")
        if not self.max_state > 0:
            raise ValueError(f"max_state must be > 0, got {self.max_state}")
        if self.m < 2:
            raise ValueError("transition order m must be >= 2")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


def _fmt_state(s: float) -> str:
    text = repr(float(s))
    return text[:-2] if text.endswith(".0") else text


@dataclass
class Trajectory:
    """A sampled path X_0 .. X_T plus the config that produced it."""

    states: list[float]
    config: ChainConfig

    def to_csv(self) -> str:
        lines = ["step,state"]
        lines.extend(f"{i},{_fmt_state(s)}" for i, s in enumerate(self.states))
        return "\n".join(lines) + "\n"

    def metadata(self) -> dict:
        return {**asdict(self.config), "states_recorded": len(self.states)}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    def write_metadata(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metadata(), fh, indent=2)
            fh.write("\n")


def _draw_index(dist: ConditionalDistribution, rng: random.Random) -> int:
    """One draw from `dist` by inverse CDF over its atoms in ascending index
    order, one rng.random() per draw: the drawn atom's index."""
    u, acc, ks = rng.random(), 0.0, dist.indices()
    for k in ks:
        acc += float(dist.atoms[k].mass)
        if u < acc:
            return k
    return ks[-1]  # mass sum rounded slightly under 1


def sample_step(dist: ConditionalDistribution, rng: random.Random):
    """Draw the next state from `dist` (see _draw_index), refusing a kernel
    whose masses are not a probability vector (check_masses)."""
    return dist.check_masses().atoms[_draw_index(dist, rng)].value


def simulate(config: ChainConfig) -> Trajectory:
    """Run the chain from y0 = config.initial_y for config.steps transitions.

    The state is a lattice index i, since chi_j o chi_i = chi_{i+j}: each
    step draws k in (m) from the kernel at i and records chi_{i+k}(y0),
    computed directly from y0 in the float lane, so a state's float is a
    function of its index.  Both the kernel and chi_i(y0) are formed once
    per visited index.  A recorded state beyond config.max_state, the start
    revisited included, raises StateOverflow rather than continuing with
    overflowing floats.
    """
    rng = random.Random(config.seed)
    q, y0 = float(config.q), float(config.initial_y)
    index, states, kernels, lattice = 0, [y0], {}, {}
    for step in range(config.steps):
        if index not in kernels:  # built at this index's state, states[-1]
            kernels[index] = build_distribution(config.m, states[-1], q)
        index += _draw_index(kernels[index], rng)  # built here: drawn without check_masses
        if index not in lattice:
            lattice[index] = float(chi(index, y0, q))
        state = lattice[index]
        if abs(state) > config.max_state:
            raise StateOverflow(
                f"|state| = {abs(state):.6g} exceeded bound {config.max_state:.6g} at step {step + 1}"
            )
        states.append(state)
    return Trajectory(states=states, config=config)


# ---------------------------------------------------------------------------
# empirical checks
# ---------------------------------------------------------------------------


@dataclass
class MomentGroupStats:
    source: float
    n_samples: int
    empirical_mean: float
    empirical_std: float
    expected: float
    kernel_std: float
    z_score: float


@dataclass
class MomentCheckReport:
    j: int
    lag: int
    groups: list[MomentGroupStats] = field(default_factory=list)
    threshold: float = 4.0

    @property
    def max_abs_z(self) -> float:
        return max((abs(g.z_score) for g in self.groups), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.threshold

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "lag": self.lag,
            "threshold": self.threshold,
            "max_abs_z": self.max_abs_z,
            "passed": self.passed,
            "groups": [vars(g) for g in self.groups],
        }


def empirical_conditional_moment(
    trajectories: list[Trajectory],
    j: int,
    lag: int = 1,
    min_samples: int = 100,
) -> MomentCheckReport:
    """Regression check of the conditional moment law on simulated paths:
    grouped by source state, the empirical mean of H_j at the lag-step
    destination is compared against rho^{lag*j} H_j(source), with z-scores
    using the lag-step kernel's variance.  simulate records each state as
    a function of its lattice index, so each lattice source is one group,
    whatever the path that reached it.
    """
    if not trajectories:
        raise InsufficientSamples("no trajectories supplied")
    if lag < 1:
        raise ValueError("lag must be >= 1")
    config = trajectories[0].config
    if j < 1 or j > config.m - 1:
        raise ValueError(f"moment order j must be in 1..{config.m - 1}")
    q = float(config.q)
    rho = math.sqrt(q) ** (-(config.m - 1))

    groups: dict[float, list[float]] = {}
    for traj in trajectories:
        if (traj.config.q, traj.config.m) != (config.q, config.m):
            raise ValueError("trajectories mix incompatible configs")
        for s in range(len(traj.states) - lag):
            groups.setdefault(traj.states[s], []).append(traj.states[s + lag])

    report = MomentCheckReport(j=j, lag=lag)
    for source, dests in sorted(groups.items()):
        if len(dests) < min_samples:
            continue
        h_dest = [eval_H_seq(j, d, q)[j] for d in dests]
        n = len(h_dest)
        mean = math.fsum(h_dest) / n
        var_emp = math.fsum((h - mean) ** 2 for h in h_dest) / n
        expected = rho ** (lag * j) * eval_H_seq(j, source, q)[j]
        kernel = k_step_distribution(config.m, lag, source, q)
        second = kernel.kernel_moment(lambda v: eval_H_seq(j, v, q)[j] ** 2)
        kernel_var = max(float(second) - expected**2, 0.0)
        if kernel_var == 0.0:
            z = 0.0 if mean == expected else math.inf
        else:
            z = (mean - expected) / math.sqrt(kernel_var / n)
        report.groups.append(
            MomentGroupStats(
                source=source,
                n_samples=n,
                empirical_mean=mean,
                empirical_std=math.sqrt(var_emp),
                expected=expected,
                kernel_std=math.sqrt(kernel_var),
                z_score=z,
            )
        )
    if not report.groups:
        raise InsufficientSamples(
            f"no source state reached {min_samples} transitions at lag {lag}"
        )
    return report
