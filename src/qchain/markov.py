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
negative and nothing cancels: the exact lane stays in Q(sqrt(D)), and a
float mass whose exact value at the doubles q and y is a normal double is
within c m 2^-53 relative of it, c <= 19 + min(1/ln q, (m-1)^2/(4m)) as _lattice_kernels
derives.  Below 2^-1022 the bound is absolute: a product or quotient that
lands there rounds on the subnormal grid, at most 2^-1075 off.  A mass takes
m-1 products, each then scaled by factors <= 1, and m-1 factor quotients,
each scaled by at most its q-Pascal entry b <= 1/(1/q; 1/q)_inf (1.08 at
q = 16), so it is within c m 2^-53 M + (m-1)(1+b) 2^-1075 of its exact M:
within (c+1+b) m 2^-1075 when M < 2^-1022.  A z q^{i+e} (or inverse) past the
double range makes its factor 0.0, and the masses it enters are then 0.0
against exact ones below b 2^-1024.  A float z0 overflows from |y0| about
1.3e154/max(1, sqrt(q-1)) (3.5e153 at q = 16), where normal masses would read
0.0 too, so such a start raises DegenerateSupport; a subnormal 1/z0 keeps the
bounds.  On y in {0, 1, 5/2, -3/8, 7, -9} exact masses below 2^-1022 first
appear at m = 22 (q = 16) and 18 (q = 100), 25 and 20 at y = 0; to 3 orders
past that the worst is 10.9 x 2^-1075 off (m = 21, q = 100).  A support point
past the double range raises it too, as does a q-Pascal row entry: near q = 1
the row stays finite up to m = 1030 at q = 1 + 2^-40, m = 1050 at q = 1.0001
and m = 1303 at q = 1.001.  The masses satisfy the moment law

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
import operator
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Callable, ClassVar, NamedTuple, NoReturn

from .exactnum import _factor_pair, _is_exact, _quad_product, format_scalar, parse_exact, scalar_sqrt
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

    def check_masses(self) -> "ConditionalDistribution":
        """Return self if the masses are a probability vector: none negative (else NegativeMassError at the lowest
        such index) and summing to 1: exactly in the exact lane; in the float lane within max(1e-12, c m 2^-53) at q > 1,
        c = 20 + min(1/ln q, (m-1)^2/(4m)): _lattice_kernels' bound, whose cap near q = 1 is a q-Pascal entry's mean
        exponent at q = 1, plus the sum's m roundings; else 1e-12.  So nan and inf fail (InvalidKernel naming the total)."""
        negatives = sorted(k for k, atom in self.atoms.items() if atom.mass < 0)
        if negatives:
            raise NegativeMassError(negatives[0], self.atoms[negatives[0]].mass)
        total = functools.reduce(operator.add, (atom.mass for atom in self.atoms.values()), 0)
        c = 20 + min(1 / math.log(self.q), (self.m - 1) ** 2 / (4 * self.m)) if not self.exact and self.q > 1 else 0
        bound = max(1e-12, c * self.m * 2**-53)
        if not (total == 1 if self.exact else abs(total - 1) <= bound):
            where = f"the kernel at m={self.m}, y={self.y}, q={self.q}"
            raise InvalidKernel(f"masses of {where} sum to {format_scalar(total)}, not 1")
        return self

    def kernel_moment(self, g) -> object:
        """sum_k mass_k * g(value_k) for a scalar function g, a left fold as in check_masses: same bits on every Python."""
        return functools.reduce(operator.add, (atom.mass * g(atom.value) for atom in self.atoms.values()), 0)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The kernel document, q, m, y, the atoms in ascending k and the mode, in one template of
        json.dumps(doc, indent=2)'s layout without that pure-Python encoder; exact scalars as format_scalar
        text.  to_json_dict parses it."""
        (mode, scalar), leaf = ("exact", format_scalar) if self.exact else ("float", float), _json_leaf
        try:
            atoms = ",\n".join(
                f'    {{\n      "k": {leaf(k)},\n      "value": {leaf(scalar(a.value))},\n'
                f'      "mass": {leaf(scalar(a.mass))}\n    }}'
                for k, a in sorted(self.atoms.items())
            )
            head = f'{{\n  "q": {leaf(str(self.q))},\n  "m": {leaf(self.m)},\n  "y": {leaf(format_scalar(self.y))},\n'
        except ValueError as exc:
            _name_digit_limit(exc, self.m, self.y, self.q)
        return head + (f'  "atoms": [\n{atoms}\n  ]' if atoms else '  "atoms": []') + f',\n  "mode": "{mode}"\n}}'

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ConditionalDistribution":
        """The kernel of a to_json_dict document, as `qchain dist` prints: one atom per index of (m), else IndexSetError."""
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


def build_distribution(m: int, y, q) -> ConditionalDistribution:
    """Construct the one-step kernel at state y: index 0 of a fresh
    _lattice_kernels(m, lift) on y's lift, sqrt(q) formed there from q."""
    _require_int("m", m)
    if m < 2:
        raise ValueError(f"transition order m must be >= 2, got {m}")
    return _lattice_kernels(m, _lift_state(y, q))(0)


def _lattice_kernels(m: int, lift) -> Callable[[int], ConditionalDistribution]:
    """kernel_at(i): the order-m kernel at lattice index i of the start y0, where lift = (y0, radical, sqrt_q, q) is
    spectra._lift_state's.  The index set, the q-Pascal row (qcore._q_binomial_row at 1/q) and z0 are formed once, and
    q's lane picks the path once.  Kernel i's state is chi_i(y0), named in its errors; its support is chi_{i+k}(y0),
    k in (m), and with f_e = 1/(1 + z0 q^{i+e}) its masses are [m-1 choose j]_{1/q} prod_{h<k} f_{(k+h)/2} prod_{h>k}
    (1 - f_{(k+h)/2}).  The exact path forms f_e and 1 - f_e as two quotients over one divisor (exactnum._factor_pair)
    and each mass by one reduction (exactnum._quad_product).  It refuses nothing: each factor lies in (0, 1), and
    chi_k = y cosh(k a) + r sinh(k a) rises in k (a = ln sqrt(q) > 0, r > |y|).  The float path takes 1 - f_e as
    1/(1 + z0^{-1} q^{-(i+e)}), as 1 - f_e would cancel, and owns every refusal of the float lane: spectra._float_q's,
    then a z0 or q-Pascal row entry past the double range, then per kernel a point or power q^{i+e} out or points
    within 1e-12 relative (_degenerate).  So a float kernel leaves it with finite masses.
    Float masses, to first order in u = 2^-53: z0's roundings leave it within 11u, a factor within 16u (a pow within
    2u, three roundings), m-1 factors and products 17(m-1)u and the q-Pascal row's m-2 steps 2(m-2)u: 19mu if 1/q is
    a double.  Else a term x^a of a row entry [n choose j]_x, n = m-1, from powers of the rounded x = 1/q, carries 2au
    more; the entry's x^a-weighted mean of a is sum_{h<m/2} h x^h/(1-x^h) < m/(2 ln q) and, as the weights fall in a, at
    most its x = 1 value j(n-j)/2 <= (m-1)^2/8: (19 + min(1/ln q, (m-1)^2/(4m)))mu.  Measured: 3mu to m = 65, and to
    m = 1000 for q in [1 + 2^-40, 2.25] at most 0.15 of check_masses' bound.
    A q or y off the doubles adds an input term: q^(i+e) carries |i+e| times q's rounding (5.5mu at q = (49/48)^2)."""
    y0, radical, _, q = lift
    ks, binomials = index_set(m), _q_binomial_row(m - 1, 1 / q)  # [m-1 choose j]_{1/q}, j = 0 at k = m-1
    # z0 = e^{2 theta_0}, from e^{2|theta_0|} >= 1 formed from |y0| so that y0 + sqrt(D) never cancels
    s = abs(y0) + radical
    big = (q - 1) / 4 * s * s
    if _is_exact(q):  # a float q or start puts the whole kernel in the float lane
        z = big if y0 >= 0 else 1 / big

        def kernel_at(i: int) -> ConditionalDistribution:  # (factor for h < k, for h > k), each mass one reduction
            factors = {e: _factor_pair(z, q, i + e) for e in range(2 - m, m - 1)}
            atoms = {
                k: Atom(_chi(i + k, *lift), _quad_product(start, [factors[(k + h) // 2][h > k] for h in ks if h != k]))
                for k, start in zip(ks, reversed(binomials))
            }
            return ConditionalDistribution(m=m, y=_chi(i, *lift) if i else y0, q=q, atoms=atoms)

        return kernel_at

    _float_q(q, y=y0)
    if not math.isfinite(big):  # each factor would read 0.0 or 1.0, a normal mass 0.0 with it
        raise DegenerateSupport(f"z0 = e^(2 theta) leaves the double range at state y={y0} (m={m}, q={q})")
    if not all(map(math.isfinite, binomials)):  # near q = 1 a large order overflows it (module docstring)
        j = next(j for j, b in enumerate(binomials) if not math.isfinite(b))
        raise DegenerateSupport(f"q-Pascal row [m-1 choose j]_(1/q) leaves the double range at j = {j} (m={m}, q={q})")
    z, z_inv = (big, 1 / big) if y0 >= 0 else (1 / big, big)

    def kernel_at(i: int) -> ConditionalDistribution:
        y = _chi(i, *lift) if i else y0
        try:  # q^{k/2} or q^e past the double range overflows, or underflows to a 0.0 divisor
            values = [_chi(i + k, *lift) for k in ks]
            factors = {e: (1 / (1 + z * p), 1 / (1 + z_inv / p)) for e in range(2 - m, m - 1) for p in [q ** (i + e)]}
        except (OverflowError, ZeroDivisionError) as exc:
            raise _degenerate(m, i, y, lift) from exc

        for left, right in zip(values, values[1:]):  # m distinct, finite points, strictly increasing in k
            if not right - left > 1e-12 * max(1.0, abs(left), abs(right)):
                raise _degenerate(m, i, y, lift)

        atoms = {}
        for k, value, mass in zip(ks, values, reversed(binomials)):  # mass starts at [m-1 choose j]_{1/q}
            for h in ks:
                if h != k:
                    mass = mass * factors[(k + h) // 2][h > k]
            atoms[k] = Atom(value, mass)
        return ConditionalDistribution(m=m, y=y, q=q, atoms=atoms)

    return kernel_at


def _degenerate(m: int, i: int, y, lift) -> DegenerateSupport:
    """A float kernel's support error at state y, naming the first point chi_{i+k}, k ascending, that raises or is not
    finite, else the first power q^{i+e}, e ascending, that overflows or is 0.0; with neither out, the points collide."""
    where = f"at state y={y} (m={m}, q={lift[3]})"
    out = f"support leaves the double range {where}; the first out is the"
    for k in index_set(m):
        with contextlib.suppress(OverflowError, ZeroDivisionError):
            if math.isfinite(_chi(i + k, *lift)):
                continue
        return DegenerateSupport(f"{out} support point chi_(i+k) at k = {k}, i = {i}")
    for e in range(2 - m, m - 1):
        with contextlib.suppress(OverflowError):
            if lift[3] ** (i + e):
                continue
        return DegenerateSupport(f"{out} mass-factor power q^(i+e) at e = {e}, i = {i}")
    return DegenerateSupport(f"support points collide {where}")


def conditional_moment_residual(dist: ConditionalDistribution, j: int):
    """sum_k mass_k H_j(value_k | q) - q^{-j(m-1)/2} H_j(y | q).

    Zero (identically, in exact mode) for j = 1..m-1; j >= m is allowed as a diagnostic
    and is generally nonzero.  The paper's moment law, one residual per j, for any kernel: built,
    composed or loaded."""
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
        for j, inner_atom in inner_at(i).atoms.items():  # built in ascending j
            k, mass = i + j, outer.mass * inner_atom.mass
            out[k] = Atom(inner_atom.value, out[k].mass + mass if k in out else mass)

    expected_support = index_set(m + n - 1)
    if list(out) != expected_support:  # ascending i and j add each new k above the last, so out is in k order
        raise CompositionMismatch(f"composed support {sorted(out)} != ({m + n - 1}) = {expected_support}")
    composed = ConditionalDistribution(m=m + n - 1, y=y, q=q, atoms=out)
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
    for k, theirs in direct.atoms.items():  # built in ascending k
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
    """Check kernel consistency in two stages, both always run, each atom for atom through _check_direct,
    the verdict of every identity verifier (exact mode: identical; float mode: values within 1e-9 relative
    to max(1, |value|), masses within 1e-9 absolute): "one-step", compose(kernel_m, n) == kernel_{m+n-1};
    then "multi-step", the 2-step kernel composed with a further order-m step == the 3-step kernel.  q and
    y set the mode, as for the kernels; `mode`, if given, must name it (ValueError otherwise).
    """
    if mode not in (None, "exact", "float"):
        raise ValueError(f"mode must be None, 'exact' or 'float', got {mode!r}")
    lane = "exact" if _is_exact(q, y) else "float"  # the kernels' lane: a float y makes float kernels
    if mode not in (None, lane):
        need = "rational q and y" if mode == "exact" else "a float q or y"
        raise ValueError(f"{mode} mode needs {need}, got q = {q}, y = {y}")
    report = VerificationReport("chapman-kolmogorov", {"m": m, "n": n, "y": str(y), "q": str(q), "mode": lane})
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

    def __post_init__(self):
        for name in ("m", "steps", "seed"):
            _require_int(name, getattr(self, name))
        if not (self.q > 1 and math.isfinite(self.q)):
            raise ValueError(f"simulation needs a finite q > 1, got {self.q}")
        if not math.isfinite(self.initial_y):
            raise ValueError(f"initial_y must be finite, got {self.initial_y}")
        if self.m < 2:
            raise ValueError(f"transition order m must be >= 2, got {self.m}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")


def _fmt_state(s: float) -> str:
    text = repr(float(s))
    return text[:-2] if text.endswith(".0") else text


@dataclass
class Trajectory:
    """A sampled path as lattice indices i_0 = 0 .. i_T of y0 = config.initial_y, plus that config.
    states are derived, not stored: state t is chi_{i_t}(y0) from y0's float lift, as simulate's
    kernels read their support, and state 0 is float(y0) itself, so a -0.0 start keeps its sign."""

    indices: list[int]
    config: ChainConfig

    def _state_of(self) -> dict[int, float]:
        """chi_i(y0) at each visited index i."""
        lift = _lift_state(float(self.config.initial_y), float(self.config.q))
        return {i: _chi(i, *lift) for i in set(self.indices)}

    @property
    def states(self) -> list[float]:
        state_of = self._state_of()
        return [float(self.config.initial_y)] + [state_of[i] for i in self.indices[1:]]

    def to_csv(self) -> str:
        """One "step,state" row per state, each visited index's state formatted once."""
        text = {i: _fmt_state(s) for i, s in self._state_of().items()}
        rows = "".join(f"{t},{text[i]}\n" for t, i in enumerate(self.indices[1:], 1))
        return f"step,state\n0,{_fmt_state(self.config.initial_y)}\n" + rows

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv(), newline="")

    def write_metadata(self, path) -> None:
        metadata = {**asdict(self.config), "states_recorded": len(self.indices)}
        Path(path).write_text(json.dumps(metadata, indent=2, default=float) + "\n")  # exact values as simulate reads them


def _draw_table(dist: ConditionalDistribution) -> tuple[list[float], list[int]]:
    """The float CDF of `dist` over its atoms in ascending index order, with those indices.  Its last entry is
    inf, so bisect_right(cdf, u) for u in [0, 1) is the index of the first atom whose CDF exceeds u (masses are
    non-negative), or the last atom if u is past the second-to-last entry: also where the sum rounded under u."""
    ks = dist.indices()
    return [*accumulate(float(dist.atoms[k].mass) for k in ks[:-1]), math.inf], ks


def sample_step(dist: ConditionalDistribution, rng: random.Random):
    """Draw the next state from `dist` with one rng.random() (see _draw_table), refusing a kernel whose masses
    are not a probability vector (check_masses): one step from any kernel, loaded or edited ones too."""
    cdf, ks = _draw_table(dist.check_masses())
    return dist.atoms[ks[bisect_right(cdf, rng.random())]].value


def simulate(config: ChainConfig) -> Trajectory:
    """Run the chain from y0 = config.initial_y for config.steps transitions.

    The state is a lattice index i, since chi_j o chi_i = chi_{i+j}: each
    step draws k in (m) from the kernel at i, as sample_step draws, and
    moves to i + k.  One _lattice_kernels builder on y0's lift gives every
    kernel, and a dict keeps each visited index's _draw_table, built once:
    its length is the kernels built.  The Trajectory records the indices.

    How far a float path can move from its start: _chi's conjugate branch
    squares q^{k/2} - q^{-k/2}, which leaves the double range from |k| =
    1024/log2(q) (256 at q = 16) even where chi_k itself is moderate, and
    the kernel whose support first reaches such a point raises
    DegenerateSupport naming it.  A large start drifts towards 0, i.e. to
    index about -log|y0| / log sqrt(q): from y0 = 1e150 at m = 4, q = 16 it
    stops at i = -253, its support point i - 3 out.  At m = 4 and the default
    seed, starts 10^e ran 20,000 steps for e <= 149 (q = 16) and 151 (q = 4).
    A start whose float z0 overflows (module docstring) raises before a step.
    """
    uniform = random.Random(config.seed).random
    lift = _lift_state(float(config.initial_y), float(config.q))  # as Trajectory reads the states
    kernel_at = _lattice_kernels(config.m, lift)  # drawn without check_masses: its masses leave it finite
    tables: dict[int, tuple[list[float], list[int]]] = {}
    index, indices = 0, [0]
    for _ in range(config.steps):
        cdf, ks = tables.get(index) or tables.setdefault(index, _draw_table(kernel_at(index)))
        index += ks[bisect_right(cdf, uniform())]
        indices.append(index)
    return Trajectory(indices=indices, config=config)


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
    threshold: ClassVar[float] = 4.0  # the |z| bound every group must meet

    @property
    def max_abs_z(self) -> float:
        return max((abs(g.z_score) for g in self.groups), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= self.threshold

    def to_json_dict(self) -> dict:
        """j, lag and the threshold, then the verdict, with the groups last."""
        verdict = {"threshold": self.threshold, "max_abs_z": self.max_abs_z, "passed": self.passed}
        return {"j": self.j, "lag": self.lag, **verdict, "groups": [asdict(group) for group in self.groups]}


def empirical_conditional_moment(
    trajectories: list[Trajectory],
    j: int,
    lag: int = 1,
    min_samples: int = 100,
) -> MomentCheckReport:
    """Regression check of the paper's conditional moment law on simulate's paths:
    grouped by (start, lattice index) of the source, in that order, the empirical
    mean of H_j at the lag-step destination is compared against rho^{lag*j}
    H_j(source), with z-scores using the lag-step kernel's variance.  That kernel
    is read at the source's index from one _lattice_kernels(lag*(m-1)+1, lift)
    per start, on the lift the path's states come from: its y is the source and
    its atoms are the destinations, the kernels the chain sampled.
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

    groups: dict[tuple[float, int], list[int]] = {}  # (start, source index): destination offsets
    for traj in trajectories:
        if (pair := (traj.config.q, traj.config.m)) != (config.q, config.m):
            raise ValueError(f"trajectories mix incompatible configs: (q, m) = {(config.q, config.m)} and {pair}")
        start, path = float(traj.config.initial_y), traj.indices
        for i, d in zip(path, path[lag:]):
            groups.setdefault((start, i), []).append(d - i)
    kernels_from = functools.cache(lambda start: _lattice_kernels(lag * (config.m - 1) + 1, _lift_state(start, q)))

    report = MomentCheckReport(j=j, lag=lag)
    for (start, i), offsets in sorted(groups.items()):
        if len(offsets) < min_samples:
            continue
        kernel = kernels_from(start)(i)
        h_at = {k: eval_H_seq(j, atom.value, q)[j] for k, atom in kernel.atoms.items()}
        h_dest = [h_at[k] for k in offsets]
        n = len(h_dest)
        mean = math.fsum(h_dest) / n
        var_emp = math.fsum((h - mean) ** 2 for h in h_dest) / n
        expected = rho ** (lag * j) * eval_H_seq(j, kernel.y, q)[j]
        second = functools.reduce(operator.add, (atom.mass * h_at[k] ** 2 for k, atom in kernel.atoms.items()), 0)
        kernel_var = max(float(second) - expected**2, 0.0)
        if kernel_var == 0.0:
            z = 0.0 if mean == expected else math.inf
        else:
            z = (mean - expected) / math.sqrt(kernel_var / n)
        report.groups.append(
            MomentGroupStats(
                source=kernel.y,
                n_samples=n,
                empirical_mean=mean,
                empirical_std=math.sqrt(var_emp),
                expected=expected,
                kernel_std=math.sqrt(kernel_var),
                z_score=z,
            )
        )
    if not report.groups:
        raise InsufficientSamples(f"no source state reached {min_samples} transitions at lag {lag}")
    return report
