"""Support-point combinatorics, the chi root family, the quadratic factor
families, and executable verifiers for the polynomial identities tying
them together.

The central objects:

  * the index set (m): the m same-parity integers, step 2, symmetric
    about 0, which label the atoms of the discrete transition kernel;
  * chi_k(y, q): the closed-form roots carrying those atoms, defined for
    any integer k through half-integer powers of q and the radical
    sqrt(y^2 + 4/(q-1));
  * v_n / t_n: the quadratic factors whose products reproduce the
    Al-Salam-Chihara polynomials at rho = q^{-(m-1)/2}.

Verifiers evaluate both sides of an identity on point grids that exceed
the polynomial degree bound — in exact arithmetic that certifies the
identity, without any symbolic algebra.  Complex arithmetic appears only
inside verifiers; the probabilistic pipeline stays real.

Every verifier runs in one of two lanes, by one rule: exact when q and
every input coordinate is an int, Fraction or QuadraticNumber, float as
soon as one of them is a float.  The exact lane demands that both sides
be identical; the float lane demands a relative residual <= rel_tol (a
nan residual fails) and reports the worst one.  The addition formula and
the h/H and B/H relations run in the float lane only and need finite
inputs.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from .exactnum import (
    NotAPerfectSquare,
    QuadraticNumber,
    _is_exact,
    _Ratio,
    quad_sqrt,
    scalar_sqrt,
)
from .qcore import (
    _expansion,
    _expansion_weights,
    _p_from_parts,
    _p_parts,
    _q_binomial_row,
    eval_B,
    eval_B_seq,
    eval_H,
    eval_H_seq,
    eval_h,
    eval_h_seq,
    eval_p_expansion,
    q_pochhammer,
)

__all__ = [
    "IndexSetError",
    "NotRepresentable",
    "VerificationFailed",
    "VerificationReport",
    "index_set",
    "chi",
    "v_factor",
    "t_factor",
    "eval_sum_form",
    "eval_product_form",
    "rational_grid",
    "verify_factorization",
    "verify_addition_formula",
    "verify_h_H_relation",
    "verify_B_H_relation",
    "verify_chi_properties",
    "hermite_limit_identity",
]


class IndexSetError(ValueError):
    """Invalid transition order for an index set."""


class NotRepresentable(ArithmeticError):
    """An exact chi evaluation needs a square root outside the run's field."""


@dataclass
class VerificationReport:
    """Outcome of one identity check over a family of sample points."""

    identity: str
    parameters: dict
    points_checked: int = 0
    max_residual: float = 0.0
    passed: bool = True
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        """The fields in declaration order (the key order), leaving out a None witness."""
        return {key: value for key, value in asdict(self).items() if key != "witness" or value is not None}

    def to_json(self) -> str:
        """Strict JSON: a non-finite float is written as the string "NaN", "Infinity" or "-Infinity"."""
        named = json.loads(json.dumps(self.to_json_dict()), parse_constant=str)
        return json.dumps(named, indent=2, allow_nan=False)


class VerificationFailed(Exception):
    """An identity check found a counterexample; carries the report."""

    def __init__(self, report: VerificationReport):
        self.report = report
        super().__init__(f"{report.identity}: {report.witness}")


def _fail(report: VerificationReport, witness: dict) -> VerificationFailed:
    """Mark the report failed with a JSON-ready witness: strings and floats
    as given, every other scalar (exact, complex) as its str()."""
    report.witness = {key: v if isinstance(v, (str, float)) else str(v) for key, v in witness.items()}
    report.passed = False
    return VerificationFailed(report)


def _rel_err(a, b) -> float:
    """|a - b| / max(1, |a|, |b|) as a float, the gap taken before rounding:
    an exact gap finer than a double's resolution of a or b is not lost."""
    return abs(complex(a - b)) / max(1.0, abs(complex(a)), abs(complex(b)))


def _worst(*residuals) -> float:
    """The largest residual, nan counting as larger than any number."""
    return max(residuals, key=lambda r: (math.isnan(r), r))


def _check(report: VerificationReport, exact: bool, pairs, rel_tol: float, witness: dict) -> None:
    """The verdict on one point, whose identity says each (lhs, rhs) in
    `pairs` agree: identical in the exact lane, within rel_tol relative in
    the float lane, where the worst residual is recorded in the report
    and, on a failure, in the witness."""
    report.points_checked += 1
    if exact:
        if not all(lhs == rhs for lhs, rhs in pairs):
            raise _fail(report, witness)
        return
    residual = _worst(*(_rel_err(lhs, rhs) for lhs, rhs in pairs))
    report.max_residual = _worst(report.max_residual, residual)
    if not residual <= rel_tol:
        raise _fail(report, {**witness, "residual": residual})


def _float_q(q, **coords) -> float:
    """q as a float for the float-only verifiers, after checking that q and
    each named coordinate is finite and that q lies in (0, 1) or (1, inf)."""
    for name, value in {"q": q, **coords}.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    q = float(q)
    if q <= 0 or q == 1:
        raise ValueError(f"needs q in (0,1) or (1,inf), got {q}")
    return q


def _normalize_q(q):
    return Fraction(q) if isinstance(q, int) else q


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------


def index_set(m: int) -> list[int]:
    """The m integers {-(m-1), -(m-3), ..., m-1}: same parity as m-1,
    step 2, symmetric about 0.  (1) = {0}, (2) = {-1, 1}, (3) = {-2, 0, 2}.
    """
    if m < 1:
        raise IndexSetError(f"index set needs m >= 1, got {m}")
    return list(range(-(m - 1), m, 2))


# ---------------------------------------------------------------------------
# chi and the quadratic factors
# ---------------------------------------------------------------------------


def _lift_state(y, q):
    """The one entry from a conditioning state to the coordinates chi reads:
    (y, radical, sqrt_q, q) with radical = sqrt(y^2 + 4/(q-1)) and q > 1
    (else a ValueError naming q), taken once per start: a
    markov._lattice_kernels builder reads every kernel on its lattice from
    it.  The returned y is the state in its lane, the kernel's state at
    index 0.  A float y or q puts both in the float lane (y a float, a nan
    y included).  In the exact lane a rational y stays its Fraction and
    its radical is sqrt(D) in Q(sqrt(D)), D = y^2 + 4/(q-1) (rational when
    D is a square); a QuadraticNumber state keeps its field and the
    radical is extracted there (NotRepresentable when it does not exist).
    """
    q = _normalize_q(q)
    if not q > 1:
        raise ValueError(f"needs q > 1, got q = {q}")
    if not _is_exact(y, q):
        y, q = float(y), float(q)
        return y, math.sqrt(y * y + 4.0 / (q - 1.0)), scalar_sqrt(q), q
    sq = scalar_sqrt(q)
    if isinstance(y, QuadraticNumber):
        try:
            return y, quad_sqrt(y * y + Fraction(4) / (q - 1)), sq, q
        except NotAPerfectSquare as exc:
            raise NotRepresentable(
                f"sqrt({y}^2 + 4/(q-1)) leaves Q(sqrt({y.D}))"
            ) from exc
    y = Fraction(y)
    return y, QuadraticNumber(0, 1, y * y + Fraction(4) / (q - 1)), sq, q


def _chi(k: int, y, radical, sq, q):
    """chi_k at a state already lifted by _lift_state (see chi)."""
    qk = sq**k
    qk_inv = 1 / qk
    even = y * (qk + qk_inv)
    odd = radical * (qk - qk_inv)
    if isinstance(radical, float) and even * odd < 0:
        spread = qk - qk_inv
        return 2 * (y * y - spread * spread / (q - 1)) / (even - odd)
    return (even + odd) / 2


def chi(k: int, y, q):
    """The support point with integer index k at conditioning state y:

        chi_k(y, q) = y (q^{k/2} + q^{-k/2}) / 2
                      + sqrt(y^2 + 4/(q-1)) (q^{k/2} - q^{-k/2}) / 2

    valid for every k in Z (k = 0 gives y back); chi_{+n} and chi_{-n}
    are the two roots of v_n(x, -y, q).  Requires q > 1.  q^{k/2} is
    scalar_sqrt(q)^k, so an exact q must be a perfect rational square.

    Exact states give the exact value in Q(sqrt(D)).  For float states,
    when the y term (even) and the radical term (odd) have opposite signs
    the sum is taken through its conjugate,
    2 (y^2 - (q^{k/2} - q^{-k/2})^2/(q-1)) / (even - odd), whose
    denominator does not cancel; the relative error is then within
    a small multiple of 2^-53 max(1, kappa), kappa being the condition
    number |y d(chi_k)/dy / chi_k| of chi_k in y.  A float q^{k/2} past the
    double range raises an OverflowError naming k and q.
    """
    state = _lift_state(y, q)
    try:  # a float q^{k/2} past the double range overflows, or underflows to a 0.0 divisor
        return _chi(k, *state)
    except (OverflowError, ZeroDivisionError) as exc:
        raise OverflowError(f"chi_k needs q^(k/2) inside the double range, got k = {k}, q = {state[3]}") from exc


def _factor_terms(degrees, q, divisor) -> list:
    """(q^{n/2} + q^{-n/2}, (q^n + q^{-n} - 2)/divisor) for each degree n >= 1,
    None for n = 0: the part of each quadratic factor free of x and y."""
    sq = scalar_sqrt(q) if any(degrees) else None  # x + y needs no sqrt(q)
    halves = [sq**n if n else None for n in degrees]
    return [None if h is None else (h + 1 / h, (h * h + 1 / (h * h) - 2) / divisor) for h in halves]


def _product(x, y, squares, terms: list):
    """prod over `terms` (_factor_terms) of squares + xy c + d, or x + y for None; squares = x^2 + y^2."""
    xy = x * y
    first, *rest = [x + y if t is None else squares + xy * t[0] + t[1] for t in terms]
    return math.prod(rest, start=first)


def _quadratic_factor(name: str, n: int, x, y, q, divisor):
    """x^2 + y^2 + xy (q^{n/2} + q^{-n/2}) + (q^n + q^{-n} - 2)/divisor(q)
    for n >= 1 and x + y for n = 0: v_factor and t_factor differ in divisor."""
    if n < 0:
        raise ValueError(f"{name} needs n >= 0")
    q = _normalize_q(q)
    if n and divisor(q) == 0:
        raise ValueError(f"{name} needs q != 1 for n >= 1")
    return _product(x, y, x * x + y * y, _factor_terms([n], q, divisor(q)))


def v_factor(n: int, x, y, q):
    """Quadratic factor v_n(x,y,q) = x^2 + y^2 + xy (q^{n/2} + q^{-n/2})
    - (q^n + q^{-n} - 2)/(q - 1) for n >= 1; v_0 = x + y."""
    return _quadratic_factor("v_factor", n, x, y, q, lambda q: 1 - q)


def t_factor(n: int, x, y, q):
    """Companion factor t_n(x,y,q) = x^2 + y^2 + xy (q^{n/2} + q^{-n/2})
    + (q^n + q^{-n} - 2)/4 for n >= 1; t_0 = x + y."""
    return _quadratic_factor("t_factor", n, x, y, q, lambda q: 4)


def eval_sum_form(m: int, x, y, q):
    """The degree-m connection sum

        sum_k qbinom(m,k) q^{-(m-1)(m-k)/2} B_{m-k}(y|q) H_k(x|q),

    i.e. the expansion route to p_m(x | y, q^{-(m-1)/2}, q)."""
    if m < 0:
        raise ValueError("eval_sum_form needs m >= 0")
    q = _normalize_q(q)
    return eval_p_expansion(m, x, y, scalar_sqrt(q) ** (-(m - 1)) if m >= 1 else 1, q)


def _product_terms(m: int, q) -> list:
    """_factor_terms of the v-factors of the degree-m product."""
    if m < 1:
        raise ValueError("eval_product_form needs m >= 1")
    if q == 1:
        raise ValueError("eval_product_form needs q != 1")
    return _factor_terms(_factor_degrees(m), q, 1 - q)


def eval_product_form(m: int, x, y, q):
    """The factorized route to p_m(x | y, q^{-(m-1)/2}, q):

        prod_{j=1..i} v_{2j-1}(x,-y,q)   for m = 2i,
        prod_{j=0..i} v_{2j}(x,-y,q)     for m = 2i+1.
    """
    return _product(x, -y, x * x + y * y, _product_terms(m, _normalize_q(q)))


def _factor_degrees(m: int) -> range:
    """Degrees of the quadratic factors in a degree-m product: the odd ones
    below an even m, the even ones below an odd m."""
    return range(1 - m % 2, m, 2)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def rational_grid(side: int) -> list[Fraction]:
    """side evenly spaced rationals covering [-2, 2] (just -2 at side 1)."""
    if side < 1:
        raise ValueError(f"grid side must be >= 1, got {side}")
    return [Fraction(4 * i, max(side - 1, 1)) - 2 for i in range(side)]


def verify_factorization(
    m: int,
    q,
    sample_points=None,
    sqrt_q=None,
    rel_tol: float = 1e-8,
) -> VerificationReport:
    """Check the three evaluation routes to p_m(x | y, q^{-(m-1)/2}, q)
    (recurrence, connection sum, v-factor product) against each other on a
    grid of more than (m+1)^2 distinct (x, y) points (ValueError otherwise),
    enough to pin a bivariate degree-m identity.  q must lie in (0, 1) or
    (1, inf) in both lanes.  The default grid is rational; in the float lane
    q and every point must be finite.  A given sqrt_q sets only the
    recurrence route's rho = sqrt_q^{-(m-1)}; the other routes form sqrt(q)
    from q, so a sqrt_q inconsistent with q shows as a counterexample.  Each route forms its x- and y-free part once per call
    (b_i, the sum's weights, the factors' q-terms), caches H_k(x|q) and x^2
    per x, rho y q^i, B_k(y|q) and y^2 per y for this call only, and reads
    no other route's values.  When q, rho and every coordinate is an int or
    Fraction, all three routes run on exactnum._Ratio, free of Fraction's
    gcds; its sums take the lcm of the denominators, without which the
    recurrence's denominators grow like Fibonacci numbers in bit length."""
    if m < 1:
        raise ValueError(f"verify_factorization needs degree m >= 1, got m = {m}")
    if q == 1:
        raise ValueError(f"verify_factorization needs q != 1, got q = {q}")
    q = _normalize_q(q)
    if sample_points is None:
        axis = rational_grid(m + 2)  # (m+2)^2 > (m+1)^2 points
        sample_points = [(x, y) for x in axis for y in axis]
    sample_points = [tuple(point) for point in sample_points]  # the count below must not use up an iterator
    if (distinct := len(set(sample_points))) <= (m + 1) ** 2:
        raise ValueError(f"need more than {(m + 1) ** 2} distinct sample points for degree {m}, got {distinct}")
    exact = _is_exact(q, *(coords := [c for point in sample_points for c in point]))
    if not exact:
        sample_points = [(float(x), float(y)) for x, y in sample_points]
        q = _float_q(q, **{f"{name} of sample point {p}": c for p in sample_points for name, c in zip("xy", p)})
    elif q <= 0:  # the float lane's _float_q refuses these too
        raise ValueError(f"needs q in (0,1) or (1,inf), got {q}")
    rho = (scalar_sqrt(q) if sqrt_q is None else sqrt_q) ** (-(m - 1))
    report = VerificationReport("factorization", {"m": m, "q": str(q), "mode": "exact" if exact else "float"})
    lift = _Ratio.lift if exact and all(type(v) in (int, Fraction) for v in (q, rho, *coords)) else lambda v: v
    weights, terms = _expansion_weights(m, lift(scalar_sqrt(q) ** (-(m - 1))), lift(q)), _product_terms(m, q)
    terms, rho, q = [None if t is None else tuple(map(lift, t)) for t in terms], lift(rho), lift(q)
    b, shifts_of = _p_parts(m, rho, q)
    b, shifts = list(b), functools.cache(lambda y: list(shifts_of(lift(y))))
    B_of, H_of = functools.cache(lambda y: eval_B_seq(m, lift(y), q)), functools.cache(lambda x: eval_H_seq(m, lift(x), q))
    square = functools.cache(lambda v: lift(v) * lift(v))
    for x, y in sample_points:
        X, Y = lift(x), lift(y)
        recur = _p_from_parts(X, shifts(y), b, x=X, y=Y, rho=rho, q=q)[m]
        summed = _expansion(weights, B_of(y), H_of(x))
        product = _product(X, -Y, square(x) + square(y), terms)
        witness = {"x": x, "y": y, "recurrence": recur, "sum_form": summed, "product_form": product}
        _check(report, exact, [(recur, summed), (recur, product)], rel_tol, witness)
    return report


def verify_addition_formula(
    n: int,
    theta: float,
    phi: float,
    q: float,
    rel_tol: float = 1e-8,
    dps: int = 50,
) -> VerificationReport:
    """Three-way check of the product representation of the binomial-type
    sum over continuous q-Hermite polynomials at x = cos(theta),
    y = cos(phi):

      (a)  sum_k qbinom(n,k) q^{-k(n-k)/2} h_k(x|q) h_{n-k}(y|1/q)
      (b)  e^{-i n phi} (-q^{(1-n)/2} e^{i(theta+phi)},
                         -q^{(1-n)/2} e^{i(-theta+phi)}; q)_n
      (c)  2^n * (t-factor product over odd or even degrees below n)

    The alternating sum (a) cancels catastrophically in doubles for q far
    from 1, so all three quantities are evaluated with mpmath at `dps`
    digits and compared at rel_tol against their common scale
    max(1, |sides|); the imaginary part of (b), held to the same scale,
    must vanish to 1e-10.
    """
    import mpmath  # the package's one use of mpmath: no other command loads it

    if n < 1:
        raise ValueError("verify_addition_formula needs n >= 1")
    q = _float_q(q, theta=theta, phi=phi)
    report = VerificationReport("addition-formula", {"n": n, "theta": theta, "phi": phi, "q": q}, points_checked=3)
    with mpmath.mp.workdps(dps):
        mq = mpmath.mpf(q)
        x, y = mpmath.cos(mpmath.mpf(theta)), mpmath.cos(mpmath.mpf(phi))
        h_x, h_y = eval_h_seq(n, x, mq), eval_h_seq(n, y, 1 / mq)
        binomials = _q_binomial_row(n, mq)
        summed = _expansion([binomials[k] * mq ** (mpmath.mpf(-k * (n - k)) / 2) for k in range(n + 1)], h_x, h_y)

        shift = mq ** (mpmath.mpf(1 - n) / 2)
        pochhammer = mpmath.e ** (-1j * n * mpmath.mpf(phi))
        for angle in (mpmath.mpf(theta) + mpmath.mpf(phi), -mpmath.mpf(theta) + mpmath.mpf(phi)):
            pochhammer *= q_pochhammer(-shift * mpmath.e ** (1j * angle), mq, n)

        product = mpmath.mpf(2) ** n * _product(x, y, x * x + y * y, _factor_terms(_factor_degrees(n), mq, 4))

        real, scale = pochhammer.real, max(1.0, abs(summed), abs(product))
        residual = float(max(abs(summed - real), abs(summed - product), abs(real - product)) / scale)
        imag = float(abs(pochhammer.imag) / scale)
        report.max_residual = _worst(residual, imag)
        if not (residual <= rel_tol and imag <= 1e-10):
            sides = {"sum": float(summed), "pochhammer_product": complex(pochhammer), "t_product": float(product)}
            raise _fail(report, {**sides, "residual": residual, "imag": imag})
    return report


def verify_h_H_relation(m: int, x: float, q: float, rel_tol: float = 1e-8) -> VerificationReport:
    """Check the change of normalization between the two q-Hermite families,

        h_m(x|q) = (1-q)^{m/2} H_m(2x / sqrt(1-q) | q),

    plus the companion display H_m(x|q) = (-i)^m h_m(i x sqrt(q-1)/2 | q)
    / (q-1)^{m/2}.  For q > 1 both routes run through complex floats with
    a shared branch of the square root.
    """
    if m < 0:
        raise ValueError(f"verify_h_H_relation needs degree m >= 0, got m = {m}")
    q = _float_q(q, x=x)
    x = float(x)
    report = VerificationReport("h-H-relation", {"m": m, "x": x, "q": q})
    w = cmath.sqrt(1 - q + 0j)
    lhs = eval_h(m, x, q)
    rhs = w**m * eval_H(m, 2 * x / w if m else 0j, q) if m else 1 + 0j
    u = cmath.sqrt(q - 1 + 0j)
    lhs2 = eval_H(m, x, q)
    rhs2 = (-1j) ** m * eval_h(m, 1j * x * u / 2, q) / u**m if m else 1 + 0j
    witness = {"h_side": lhs, "scaled_H": rhs, "H_side": lhs2, "scaled_h": rhs2}
    for pair in ((lhs, rhs), (lhs2, rhs2)):
        _check(report, False, [pair], rel_tol, witness)
    return report


def verify_B_H_relation(n: int, y: float, q: float, rel_tol: float = 1e-8) -> VerificationReport:
    """Check the two complex-substitution routes from B_n back to the
    Hermite families (q > 0 branch):

        B_n(y|q) = i^n q^{n(n-2)/2} H_n(i sqrt(q) y | 1/q)
        B_n(y|q) = i^n q^{n(n-1)/2} h_n(i y sqrt(q-1)/2 | 1/q) / (q-1)^{n/2}
    """
    if n < 0:
        raise ValueError(f"verify_B_H_relation needs degree n >= 0, got n = {n}")
    q = _float_q(q, y=y)
    y = float(y)
    report = VerificationReport("B-H-relation", {"n": n, "y": y, "q": q})
    lhs = eval_B(n, y, q)
    rhs_H = 1j**n * math.sqrt(q) ** (n * (n - 2)) * eval_H(n, 1j * math.sqrt(q) * y, 1 / q)
    u = cmath.sqrt(q - 1 + 0j)
    rhs_h = 1j**n * float(q) ** (n * (n - 1) // 2) * eval_h(n, 1j * y * u / 2, 1 / q) / u**n if n else 1 + 0j
    witness = {"B": lhs, "via_H": rhs_H, "via_h": rhs_h}
    for pair in ((lhs, rhs_H), (lhs, rhs_h)):
        _check(report, False, [pair], rel_tol, witness)
    return report


def verify_chi_properties(
    m: int,
    n: int,
    y,
    q,
    rel_tol: float = 1e-9,
) -> VerificationReport:
    """Check the two structural properties of the root family:

      (i)  chi_m(y,q)^2 + 4/(q-1) is the square of
           y (q^{m/2} - q^{-m/2})/2 + sqrt(y^2 + 4/(q-1)) (q^{m/2} + q^{-m/2})/2,
           which the exact lane also re-extracts with quad_sqrt;
      (ii) chi_m(chi_n(y,q), q) = chi_{m+n}(y,q).

    Index 0 is allowed (chi_0 is the identity map).  A float q^{k/2} past
    the double range raises chi's OverflowError naming k and q.
    """
    state = y, radical, sq, q = _lift_state(y, q)
    exact = _is_exact(q)
    report = VerificationReport(
        "chi-properties", {"m": m, "n": n, "y": str(y), "q": str(q), "mode": "exact" if exact else "float"}
    )
    composed, direct = chi(m, chi(n, y, q), q), chi(m + n, y, q)  # chi names an index past the double range

    qm = sq**m
    root = (y * (qm - 1 / qm) + radical * (qm + 1 / qm)) / 2
    chi_m = _chi(m, *state)
    lhs = chi_m * chi_m + 4 / (q - 1)
    pairs = [(root * root, lhs), (quad_sqrt(lhs), root)] if exact else [(lhs, root * root)]
    _check(report, exact, pairs, rel_tol, {"property": "radical-square", "lhs": lhs, "root": root})

    witness = {"property": "composition", "chi_m(chi_n)": composed, "chi_{m+n}": direct}
    _check(report, exact, [(composed, direct)], rel_tol, witness)
    return report


def hermite_limit_identity(m: int, x, y) -> VerificationReport:
    """The q = 1 collapse of the connection sum: with classical binomial
    weights,

        sum_k C(m,k) B_{m-k}(y|1) H_k(x|1) = (x - y)^m

    exactly over the rationals.  (The factor family at q = 1 gives
    v(x,-y,1) = (x-y)^2, so the product side forces the minus sign.)
    """
    if m < 1:
        raise ValueError(f"hermite_limit_identity needs m >= 1, got m = {m}")
    x, y = Fraction(x), Fraction(y)
    total = eval_p_expansion(m, x, y, 1, 1)  # the q-binomials at q = 1 are C(m, k)
    expected = (x - y) ** m
    report = VerificationReport("hermite-limit", {"m": m, "x": str(x), "y": str(y)})
    _check(report, True, [(total, expected)], 0.0, {"sum": total, "(x-y)^m": expected})
    return report


def random_angle_pairs(count: int, seed: int) -> list[tuple[float, float]]:
    """Deterministic (theta, phi) samples in (0, pi)^2 for the addition check."""
    rng = random.Random(seed)
    return [(rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi)) for _ in range(count)]
