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
negative and nothing cancels: the exact lane stays in Q(sqrt(D)).  A float
mass whose exact value is a normal double is within 2e-14 relative of it
for m = 2..24, q in {9/4, 4, 16, 100}, y in {0, 5/2, -1000, 1/3} (5.4e-15
measured; 1e-12 for |y| up to 1e100); below 2.2e-308 masses become 0.0 or
lose relative accuracy, there first at m = 19 (q = 16) and 16 (q = 100).
A support past the double range (|y| from about 1.3e154, where y^2
overflows, or q^{k/2} at large m) raises DegenerateSupport.  The masses
satisfy the moment law

    sum_k mass_k = 1
    sum_k mass_k H_j(chi_k | q) = q^{-j(m-1)/2} H_j(y | q),   j = 1..m-1.

Atoms are keyed by the integer index k, never by floating value.  As
chi_k o chi_i = chi_{i+k}, one builder per start y0 and order gives the
kernel at each lattice index i (support chi_{i+k}(y0), z = z0 q^i).
Accumulating mass by index sum i + j, an order-m kernel composed with
order-n ones lands exactly on the order-(m+n-1) kernel, atom by atom:
compose(check=True) and verify_chapman_kolmogorov hold it there through
spectra._check, the one verdict of every identity verifier.  Kernels are
compared that way or by their atoms dicts, whose == is exact-lane identity.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, NoReturn

from .exactnum import _is_exact, _quad_product, format_scalar, parse_exact, scalar_sqrt
from .qcore import _q_binomial_row, eval_H_seq
from .spectra import IndexSetError, VerificationFailed, VerificationReport, _check, _chi, _fail, _float_q
from .spectra import _lift_state, index_set

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
    """Support points collided or left the double range; a kernel needs m distinct, finite points."""


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
        try:
            atoms = [{"k": k, "value": scalar(a.value), "mass": scalar(a.mass)} for k, a in sorted(self.atoms.items())]
            return {"q": str(self.q), "m": self.m, "y": format_scalar(self.y), "atoms": atoms, "mode": mode}
        except ValueError as exc:
            _name_digit_limit(exc, self.m, self.y, self.q)

    def to_json(self) -> str:
        """to_json_dict() written by one template of its fixed layout: byte-identical
        to json.dumps(self.to_json_dict(), indent=2) without that pure-Python encoder."""
        doc, leaf = self.to_json_dict(), _json_leaf
        atoms = ",\n".join(
            f'    {{\n      "k": {leaf(a["k"])},\n      "value": {leaf(a["value"])},\n      "mass": {leaf(a["mass"])}\n    }}'
            for a in doc["atoms"]
        )
        head = f'{{\n  "q": {leaf(doc["q"])},\n  "m": {leaf(doc["m"])},\n  "y": {leaf(doc["y"])},\n  "atoms": '
        return head + (f"[\n{atoms}\n  ]" if atoms else "[]") + f',\n  "mode": {leaf(doc["mode"])}\n}}'

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ConditionalDistribution":
        """The kernel of a to_json_dict document, one atom per index of (m) (IndexSetError otherwise)."""
        exact = doc["mode"] == "exact"
        scalar = (lambda text: parse_exact(str(text))) if exact else float
        m, ks = int(doc["m"]), sorted(entry["k"] for entry in doc["atoms"])
        if ks != index_set(m):
            raise IndexSetError(f"a kernel at m={m} has its atoms at ({m}) = {index_set(m)}, got indices {ks}")
        try:
            atoms = {entry["k"]: Atom(scalar(entry["value"]), scalar(entry["mass"])) for entry in doc["atoms"]}
            return cls(m=m, y=scalar(doc["y"]), q=(Fraction if exact else float)(doc["q"]), atoms=atoms)
        except ValueError as exc:
            _name_digit_limit(exc, m, doc["y"], doc["q"])


def _json_leaf(x) -> str:
    """A str, int or float as json.dumps writes it: nan and +-inf as NaN, Infinity and -Infinity."""
    if isinstance(x, str):
        return json.encoder.encode_basestring_ascii(x)
    if isinstance(x, float) and not math.isfinite(x):
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    return repr(x)


def _name_digit_limit(exc: ValueError, m, y, q) -> NoReturn:
    """Raise a ValueError naming the kernel if exc is Python's int/str digit limit, else exc itself."""
    if "integer string conversion" in str(exc):
        msg = f"exact kernel at m={m}, y={y}, q={q} passes Python's int/str digit limit"
        raise ValueError(f"{msg}; raise it with sys.set_int_max_str_digits") from exc
    raise exc


def _require_int(name: str, value) -> None:
    """ValueError naming the parameter unless value is an int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def build_distribution(m: int, y, q, strict: bool = False) -> ConditionalDistribution:
    """Construct the one-step kernel at state y: index 0 of a fresh
    _lattice_kernels(m, lift) on y's lift, sqrt(q) formed there from q.
    `strict` runs check_masses on the result."""
    _require_int("m", m)
    if m < 2:
        raise ValueError(f"transition order m must be >= 2, got {m}")
    dist = _lattice_kernels(m, _lift_state(y, q))(0)
    return dist.check_masses() if strict else dist


def _lattice_kernels(m: int, lift) -> Callable[[int], ConditionalDistribution]:
    """kernel_at(i): the order-m kernel at lattice index i of the start y0, where
    lift = (y0, radical, sqrt_q, q) is spectra._lift_state's.  The lane check, z0,
    the index set and the q-Pascal row (qcore._q_binomial_row at 1/q) are formed
    once.  Kernel i's state is chi_i(y0), named in its errors; its support is
    chi_{i+k}(y0), k in (m), and with f_e = 1/(1 + z0 q^{i+e}) its masses are
    [m-1 choose j]_{1/q} prod_{h<k} f_{(k+h)/2} prod_{h>k} (1 - f_{(k+h)/2}).  The exact
    lane forms one reciprocal per e and one reduction per mass (exactnum._quad_product);
    the float lane takes 1 - f_e as 1/(1 + z0^{-1} q^{-(i+e)}), as 1 - f_e would cancel."""
    y0, radical, _, q = lift
    exact = _is_exact(q)
    if not exact:  # a float q or start puts the whole kernel in the float lane
        _float_q(q, y=y0)
    ks = index_set(m)
    # z0 = e^{2 theta_0} and 1/z0, with e^{2|theta_0|} >= 1 formed from |y0| so
    # that y0 + sqrt(D) never cancels; the factors depend on i + e, e = (k+h)/2, alone
    s = abs(y0) + radical
    big = (q - 1) / 4 * s * s
    z, z_inv = (big, 1 / big) if y0 >= 0 else (1 / big, big)
    binomials = _q_binomial_row(m - 1, 1 / q)  # [m-1 choose j]_{1/q}, j = 0 at k = m-1

    def kernel_at(i: int) -> ConditionalDistribution:
        y = _chi(i, *lift) if i else y0
        try:  # a float q^{k/2} or q^e past the double range overflows, or underflows to a 0.0 divisor
            values = [_chi(i + k, *lift) for k in ks]
            if exact:  # (factor for h < k, for h > k): 1/(1 + z^{-1} q^{-(i+e)}) is 1 - 1/(1 + z q^{i+e})
                factors = {e: (f, 1 - f) for e in range(2 - m, m - 1) for f in [1 / (1 + z * q ** (i + e))]}
            else:  # both from one power p = q^{i+e}, as 1 - f would cancel
                factors = {e: (1 / (1 + z * p), 1 / (1 + z_inv / p)) for e in range(2 - m, m - 1) for p in [q ** (i + e)]}
        except (OverflowError, ZeroDivisionError) as exc:
            where = f"at state y={y} (m={m}, q={q}){_first_out(m, i, lift)}"
            raise DegenerateSupport(f"support leaves the double range {where}") from exc

        # support must consist of m distinct, finite points (strictly increasing in k)
        for left, right in zip(values, values[1:]):
            if not (left < right if exact else right - left > 1e-12 * max(1.0, abs(left), abs(right))):
                cause = "points collide" if exact or all(map(math.isfinite, values)) else "leaves the double range"
                where = f"at state y={y} (m={m}, q={q}){'' if exact else _first_out(m, i, lift)}"
                raise DegenerateSupport(f"support {cause} {where}")

        atoms = {}
        if exact:  # each mass from its row entry and factors at once: one reduction
            for k, value, start in zip(ks, values, reversed(binomials)):
                atoms[k] = Atom(value, _quad_product(start, [factors[(k + h) // 2][h > k] for h in ks if h != k]))
        else:
            for k, value, mass in zip(ks, values, reversed(binomials)):  # mass starts at [m-1 choose j]_{1/q}
                for h in ks:
                    if h != k:
                        mass = mass * factors[(k + h) // 2][h > k]
                atoms[k] = Atom(value, mass)

        return ConditionalDistribution(m=m, y=y, q=q, atoms=atoms)

    return kernel_at


def _first_out(m: int, i: int, lift) -> str:
    """A float kernel's error path: the first support point chi_{i+k}, k ascending, that raises or is
    not finite, else the first mass-factor power q^{i+e}, e ascending, that overflows or is 0.0."""
    for k in index_set(m):
        with contextlib.suppress(OverflowError, ZeroDivisionError):
            if math.isfinite(_chi(i + k, *lift)):
                continue
        return f"; the first out is the support point chi_(i+k) at k = {k}, i = {i}"
    for e in range(2 - m, m - 1):
        with contextlib.suppress(OverflowError):
            if lift[3] ** (i + e):
                continue
        return f"; the first out is the mass-factor power q^(i+e) at e = {e}, i = {i}"
    return ""


def conditional_moment_residual(dist: ConditionalDistribution, j: int):
    """sum_k mass_k H_j(value_k | q) - q^{-j(m-1)/2} H_j(y | q).

    Zero (identically, in exact mode) for j = 1..m-1; j >= m is allowed as
    a diagnostic and is generally nonzero.
    """
    if j < 1:
        raise ValueError(f"moment order j must be >= 1, got {j}")
    rho = scalar_sqrt(dist.q) ** (1 - dist.m)
    moment = dist.kernel_moment(lambda v: eval_H_seq(j, v, dist.q)[j])
    return moment - rho**j * eval_H_seq(j, dist.y, dist.q)[j]


def compose(dist: ConditionalDistribution, n: int, check: bool = True) -> ConditionalDistribution:
    """Chain an order-n kernel after every atom of `dist`: mass at index
    i flows to indices i + j, j in (n), weighted by the inner kernel at
    lattice index i, read from one _lattice_kernels builder on dist.y.

    The result is supported on (m + n - 1).  With `check`, dist and the
    result must pass _check_direct against the directly built order-m and
    order-(m+n-1) kernels at dist.y (CompositionMismatch otherwise).
    """
    _require_int("n", n)
    if n < 2:
        raise ValueError(f"inner kernel order must be >= 2, got {n}")
    m, y, q = dist.m, dist.y, dist.q
    inner_at = _lattice_kernels(n, _lift_state(y, q))
    out = {}  # atoms by index i + j
    for i, outer in sorted(dist.atoms.items()):
        for j, inner_atom in sorted(inner_at(i).atoms.items()):
            k, mass = i + j, outer.mass * inner_atom.mass
            out[k] = Atom(inner_atom.value, out[k].mass + mass if k in out else mass)

    expected_support = index_set(m + n - 1)
    if sorted(out) != expected_support:
        raise CompositionMismatch(f"composed support {sorted(out)} != ({m + n - 1}) = {expected_support}")
    atoms = {k: out[k] for k in expected_support}
    composed = ConditionalDistribution(m=m + n - 1, y=y, q=q, atoms=atoms)
    for label, kernel in [(f"compose({m},{n}) outer kernel", dist), (f"compose({m},{n})", composed)] if check else []:
        try:
            _check_direct(VerificationReport("composition", {}), kernel, label)
        except VerificationFailed as exc:
            raise CompositionMismatch(f"{label} at y={y}, q={q}: {exc.report.witness}") from exc
    return composed


def _check_direct(report: VerificationReport, kernel: ConditionalDistribution, stage: str) -> None:
    """Hold `kernel` to the kernel build_distribution gives at its order and
    state, one spectra._check point per atom at 1e-9: values and masses
    identical in the exact lane; in the float lane values relative to
    max(1, |value|), masses (at most 1) absolute.  The witness names stage and k."""
    direct = build_distribution(kernel.m, kernel.y, kernel.q)
    if kernel.indices() != direct.indices():
        raise _fail(report, {"stage": stage, "indices": kernel.indices()})
    for k, theirs in sorted(direct.atoms.items()):
        mine = kernel.atoms[k]
        witness = {"stage": stage, "k": k, "value": mine.value, "mass": mine.mass}
        witness.update(direct_value=theirs.value, direct_mass=theirs.mass)
        _check(report, kernel.exact, list(zip(mine, theirs)), 1e-9, witness)


def k_step_distribution(m: int, k: int, y, q) -> ConditionalDistribution:
    """The k-step kernel: k composed one-step kernels of order m collapse
    to the single kernel of order k(m-1) + 1."""
    _require_int("m", m)
    _require_int("k", k)
    if k < 1:
        raise ValueError(f"step count k must be >= 1, got {k}")
    return build_distribution(k * (m - 1) + 1, y, q)


def verify_chapman_kolmogorov(m: int, n: int, y, q, mode: str | None = None) -> VerificationReport:
    """Check kernel consistency in two stages, both always run, each atom for
    atom through _check_direct, the verdict of every identity verifier (exact
    mode: identical; float mode: values within 1e-9 relative to max(1, |value|),
    masses within 1e-9 absolute): "one-step", compose(kernel_m, n) ==
    kernel_{m+n-1}; then "multi-step", the 2-step kernel composed with a
    further order-m step == the 3-step kernel.
    """
    if mode not in (None, "exact", "float"):
        raise ValueError(f"mode must be None, 'exact' or 'float', got {mode!r}")
    if mode == "float":
        q, y = float(q), float(y)
    exact = _is_exact(q, y)  # the kernels' lane: a float y makes float kernels
    if mode == "exact" and not exact:
        raise ValueError("exact mode needs rational q and y")
    mode = "exact" if exact else "float"
    report = VerificationReport("chapman-kolmogorov", {"m": m, "n": n, "y": str(y), "q": str(q), "mode": mode})
    # (label, steps k of the outer kernel, order of the kernel composed after it)
    for label, k, inner in [("one-step", 1, n), ("multi-step", 2, m)]:
        _check_direct(report, compose(k_step_distribution(m, k, y, q), inner, check=False), label)
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
            _require_int(name, getattr(self, name))
        if not (self.q > 1 and math.isfinite(self.q)):
            raise ValueError(f"simulation needs a finite q > 1, got {self.q}")
        if not math.isfinite(self.initial_y):
            raise ValueError(f"initial_y must be finite, got {self.initial_y}")
        if not self.max_state > 0:
            raise ValueError(f"max_state must be > 0, got {self.max_state}")
        if self.m < 2:
            raise ValueError(f"transition order m must be >= 2, got {self.m}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")


def _fmt_state(s: float) -> str:
    text = repr(float(s))
    return text[:-2] if text.endswith(".0") else text


@dataclass
class Trajectory:
    """A sampled path X_0 .. X_T plus the config that produced it."""

    states: list[float]
    config: ChainConfig

    def to_csv(self) -> str:
        """One "step,state" row per state, each distinct non-zero state
        formatted once; a zero every time, so 0.0 and -0.0 keep their own text."""
        text = {s: _fmt_state(s) for s in set(self.states) if s}  # a nan is found by identity
        return "step,state\n" + "".join(f"{i},{text[s] if s else _fmt_state(s)}\n" for i, s in enumerate(self.states))

    def metadata(self) -> dict:
        return {**asdict(self.config), "states_recorded": len(self.states)}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())

    def write_metadata(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metadata(), fh, indent=2, default=float)  # exact config values as simulate reads them
            fh.write("\n")


def _draw_table(dist: ConditionalDistribution) -> tuple[list[float], list[int]]:
    """The float CDF of `dist` over its atoms in ascending index order, with those indices."""
    cdf, acc, ks = [], 0.0, dist.indices()
    for k in ks:
        acc += float(dist.atoms[k].mass)
        cdf.append(acc)
    return cdf, ks


def _draw(table: tuple[list[float], list[int]], rng: random.Random) -> int:
    """One rng.random() u per draw: the index of the first atom whose CDF exceeds
    u (masses are non-negative), or the last atom if the mass sum rounded under u."""
    cdf, ks = table
    return ks[min(bisect_right(cdf, rng.random()), len(ks) - 1)]


def sample_step(dist: ConditionalDistribution, rng: random.Random):
    """Draw the next state from `dist` (see _draw), refusing a kernel
    whose masses are not a probability vector (check_masses)."""
    return dist.check_masses().atoms[_draw(_draw_table(dist), rng)].value


def simulate(config: ChainConfig) -> Trajectory:
    """Run the chain from y0 = config.initial_y for config.steps transitions.

    The state is a lattice index i, since chi_j o chi_i = chi_{i+j}: each
    step draws k in (m) from the kernel at i and records that atom's own
    support value chi_{i+k}(y0).  One _lattice_kernels builder on y0's lift
    gives every kernel, so a state's float is a function of its index; a
    functools.cache keeps each visited index's (_draw_table, atoms), built
    once.  A recorded state beyond config.max_state, the start revisited
    included, raises StateOverflow rather than continuing with overflowing floats.
    """
    rng = random.Random(config.seed)
    q, y0 = float(config.q), float(config.initial_y)
    kernel_at = _lattice_kernels(config.m, _lift_state(y0, q))  # built here: drawn without check_masses
    step_at = functools.cache(lambda i: (_draw_table(kernel := kernel_at(i)), kernel.atoms))
    index, states = 0, [y0]
    for step in range(config.steps):
        table, atoms = step_at(index)
        k = _draw(table, rng)
        index, state = index + k, atoms[k].value
        if abs(state) > config.max_state:
            raise StateOverflow(f"|state| = {abs(state):.6g} exceeded bound {config.max_state:.6g} at step {step + 1}")
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
        """The fields, then the verdict, with the groups last."""
        doc = asdict(self)
        groups = doc.pop("groups")
        return {**doc, "max_abs_z": self.max_abs_z, "passed": self.passed, "groups": groups}


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
        raise ValueError(f"lag must be >= 1, got {lag}")
    config = trajectories[0].config
    if j < 1 or j > config.m - 1:
        raise ValueError(f"moment order j must be in 1..{config.m - 1}, got {j}")
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
