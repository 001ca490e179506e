"""Command-line surface: evaluate polynomial families, verify identities,
build transition kernels, and simulate chains, with machine-readable
output.

Exit codes form a contract usable from CI:

    0  success / verification passed
    1  verification found a counterexample
    2  argument or scalar parse error
    3  domain error (q out of range, non-square q in exact mode, ...)
    4  kernel masses not a probability vector under --strict (InvalidKernel)
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import markov, spectra
from .exactnum import format_scalar
from .markov import (
    ChainConfig,
    CompositionMismatch,
    InvalidKernel,
    build_distribution,
    simulate,
    verify_chapman_kolmogorov,
)
from .qcore import eval_B, eval_H, eval_h, eval_p
from .spectra import (
    VerificationFailed,
    hermite_limit_identity,
    verify_addition_formula,
    verify_B_H_relation,
    verify_chi_properties,
    verify_factorization,
    verify_h_H_relation,
)


class CLIParseError(ValueError):
    """A flag value failed to parse as the requested scalar."""


def _scalar(text: str, mode: str):
    try:
        return Fraction(text) if mode == "exact" else float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CLIParseError(f"cannot parse scalar {text!r}: {exc}") from exc


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise CLIParseError(f"--{name.replace('_', '-')} is required here")


def cmd_eval(args) -> int:
    mode = args.mode
    _require(args, "q")
    q = _scalar(args.q, mode)
    if args.family in ("H", "h"):
        _require(args, "x")
        x = _scalar(args.x, mode)
        value = eval_H(args.n, x, q) if args.family == "H" else eval_h(args.n, x, q)
    elif args.family == "B":
        _require(args, "y")
        value = eval_B(args.n, _scalar(args.y, mode), q)
    else:
        _require(args, "x", "y", "rho")
        value = eval_p(args.n, _scalar(args.x, mode), _scalar(args.y, mode), _scalar(args.rho, mode), q)
    print(format_scalar(value))
    return 0


def cmd_verify(args) -> int:
    identity = args.identity
    mode = args.mode
    if identity == "factorization":
        _require(args, "m", "q")
        points = None
        if args.grid_side is not None:
            axis = spectra.rational_grid(args.grid_side)
            if mode == "float":
                axis = [float(v) for v in axis]
            points = [(x, y) for x in axis for y in axis]
        report = verify_factorization(args.m, _scalar(args.q, mode), sample_points=points)
    elif identity == "addition":
        _require(args, "n", "theta", "phi", "q")
        report = verify_addition_formula(args.n, args.theta, args.phi, _scalar(args.q, "float"))
    elif identity == "h-H":
        _require(args, "m", "x", "q")
        report = verify_h_H_relation(args.m, _scalar(args.x, "float"), _scalar(args.q, "float"))
    elif identity == "B-H":
        _require(args, "n", "y", "q")
        report = verify_B_H_relation(args.n, _scalar(args.y, "float"), _scalar(args.q, "float"))
    elif identity == "chi":
        _require(args, "m", "n", "y", "q")
        report = verify_chi_properties(args.m, args.n, _scalar(args.y, mode), _scalar(args.q, mode))
    elif identity == "hermite-limit":
        _require(args, "m", "x", "y")
        report = hermite_limit_identity(args.m, _scalar(args.x, "exact"), _scalar(args.y, "exact"))
    elif identity == "ck":
        _require(args, "m", "n", "y", "q")
        report = verify_chapman_kolmogorov(
            args.m, args.n, _scalar(args.y, mode), _scalar(args.q, mode), mode=mode
        )
    else:  # pragma: no cover - argparse restricts choices
        raise CLIParseError(f"unknown identity {identity!r}")
    print(report.to_json())
    return 0


def cmd_dist(args) -> int:
    dist = build_distribution(args.m, _scalar(args.y, args.mode), _scalar(args.q, args.mode), strict=args.strict)
    print(dist.to_json())
    return 0


def cmd_simulate(args) -> int:
    config = ChainConfig(
        q=_scalar(args.q, "float"),
        m=args.m,
        initial_y=_scalar(args.y, "float"),
        steps=args.steps,
        seed=args.seed,
        max_state=args.max_state,
    )
    trajectory = simulate(config)
    if args.out:
        trajectory.write_csv(args.out)
        trajectory.write_metadata(f"{args.out}.meta.json")
        print(f"wrote {len(trajectory.states)} states to {args.out}")
    else:
        sys.stdout.write(trajectory.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchain",
        description="q-Hermite / Al-Salam-Chihara families, exact identities, "
        "and the discrete transition kernels their zeros carry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one polynomial family at a point")
    pe.add_argument("family", choices=["H", "h", "B", "p"])
    pe.add_argument("n", type=int, help="degree")
    pe.add_argument("--x")
    pe.add_argument("--y")
    pe.add_argument("--rho")
    pe.add_argument("--q")
    pe.add_argument("--mode", choices=["exact", "float"], default="exact")
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run one identity verifier, print a JSON report")
    pv.add_argument(
        "identity",
        choices=["factorization", "addition", "h-H", "B-H", "chi", "hermite-limit", "ck"],
    )
    pv.add_argument("--m", type=int)
    pv.add_argument("--n", type=int)
    pv.add_argument("--x")
    pv.add_argument("--y")
    pv.add_argument("--q")
    pv.add_argument("--theta", type=float)
    pv.add_argument("--phi", type=float)
    pv.add_argument("--grid-side", type=int, help="side of the (x, y) sample grid")
    pv.add_argument("--mode", choices=["exact", "float"], default="exact")
    pv.set_defaults(func=cmd_verify)

    pd = sub.add_parser("dist", help="build a transition kernel, print its JSON")
    pd.add_argument("--m", type=int, required=True)
    pd.add_argument("--y", required=True)
    pd.add_argument("--q", required=True)
    pd.add_argument("--mode", choices=["exact", "float"], default="exact")
    pd.add_argument("--strict", action="store_true", help="error out on masses that are not a probability vector")
    pd.set_defaults(func=cmd_dist)

    ps = sub.add_parser("simulate", help="sample a trajectory, emit CSV (plus JSON sidecar with --out)")
    ps.add_argument("--m", type=int, required=True)
    ps.add_argument("--y", required=True, help="initial state")
    ps.add_argument("--q", required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--seed", type=int, default=markov.DEFAULT_SEED)
    ps.add_argument("--max-state", type=float, default=1e100)
    ps.add_argument("--out", help="CSV path; metadata sidecar goes to OUT.meta.json")
    ps.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:  # exact kernels of high order print integers past the default digit limit
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except VerificationFailed as exc:
        print(exc.report.to_json())
        return 1
    except CompositionMismatch as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except CLIParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidKernel as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, OverflowError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
