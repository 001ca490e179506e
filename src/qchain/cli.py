"""Command-line surface: evaluate polynomial families, verify identities,
build transition kernels, and simulate chains, with machine-readable
output.  Each `eval` family and each `verify` identity is one row of
FAMILIES or VERIFIERS: the flags it needs, the lane its scalars parse in
and the library call it makes, so a new verb is one new row.  The eval and
verify parsers take their --flags from those rows, each typed by its FLAGS
entry, so a verb that needs a new flag is one FLAGS entry more.

Exit codes form a contract usable from CI:

    0  success / verification passed
    1  verification found a counterexample
    2  argument or scalar parse error
    3  domain error (q out of range, non-square q in exact mode, ...)
    4  kernel masses not a probability vector under --strict (InvalidKernel)
  141  stdout closed early by its reader (`| head`): no traceback, SIGPIPE's shell code
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import markov, qcore, spectra
from .exactnum import format_scalar
from .markov import ChainConfig, InvalidKernel, build_distribution, simulate
from .spectra import VerificationFailed


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


def _grid(side):
    """The side x side (x, y) grid of spectra.rational_grid(side), or None for the verifier's own."""
    if side is None:
        return None
    axis = spectra.rational_grid(side)
    return [(x, y) for x in axis for y in axis]


# One row per verb: the flags _require checks, the lane its scalars parse in
# (None: --mode's) and a call given the args and s(text), that lane's parse.
# Each call looks its function up when it runs.
FAMILIES = {
    "H": (("q", "x"), None, lambda a, s: qcore.eval_H(a.n, s(a.x), s(a.q))),
    "h": (("q", "x"), None, lambda a, s: qcore.eval_h(a.n, s(a.x), s(a.q))),
    "B": (("q", "y"), None, lambda a, s: qcore.eval_B(a.n, s(a.y), s(a.q))),
    "p": (("q", "x", "y", "rho"), None, lambda a, s: qcore.eval_p(a.n, s(a.x), s(a.y), s(a.rho), s(a.q))),
}

VERIFIERS = {
    "factorization": (
        ("m", "q"), None, lambda a, s: spectra.verify_factorization(a.m, s(a.q), sample_points=_grid(a.grid_side))
    ),
    "addition": (
        ("n", "theta", "phi", "q"), "float", lambda a, s: spectra.verify_addition_formula(a.n, a.theta, a.phi, s(a.q))
    ),
    "h-H": (("m", "x", "q"), "float", lambda a, s: spectra.verify_h_H_relation(a.m, s(a.x), s(a.q))),
    "B-H": (("n", "y", "q"), "float", lambda a, s: spectra.verify_B_H_relation(a.n, s(a.y), s(a.q))),
    "chi": (("m", "n", "y", "q"), None, lambda a, s: spectra.verify_chi_properties(a.m, a.n, s(a.y), s(a.q))),
    "hermite-limit": (("m", "x", "y"), "exact", lambda a, s: spectra.hermite_limit_identity(a.m, s(a.x), s(a.y))),
    "ck": (("m", "n", "y", "q"), None, lambda a, s: markov.verify_chapman_kolmogorov(a.m, a.n, s(a.y), s(a.q))),
}


# The type of each --flag a row may need, in the order the parsers list them.
FLAGS = {"m": int, "n": int, "x": str, "y": str, "rho": str, "q": str, "theta": float, "phi": float}
VALUE_FLAGS = {f"--{name}" for name in FLAGS}  # --y and --q of dist and simulate too


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with --q -1/4 as --q=-1/4 for each VALUE_FLAGS flag: argparse reads a separate -1/4 as an option."""
    out = []
    for arg in argv:
        out.append(f"{out.pop()}={arg}" if out and out[-1] in VALUE_FLAGS and re.match(r"-\.?\d", arg) else arg)
    return out


def _add_flags(parser, table):
    """Add the FLAGS entries that some row of `table` needs, in FLAGS order."""
    needed = {flag for flags, _, _ in table.values() for flag in flags}
    for name, kind in FLAGS.items():
        if name in needed:
            parser.add_argument(f"--{name}", type=kind)


def _run(table, key, args):
    """Look up the row of `key`, check its flags and run its call."""
    flags, lane, call = table[key]
    _require(args, *flags)
    return call(args, lambda text: _scalar(text, lane or args.mode))


def cmd_eval(args) -> int:
    print(format_scalar(_run(FAMILIES, args.family, args)))
    return 0


def cmd_verify(args) -> int:
    print(_run(VERIFIERS, args.identity, args).to_json())
    return 0


def cmd_dist(args) -> int:
    dist = build_distribution(args.m, _scalar(args.y, args.mode), _scalar(args.q, args.mode))
    print((dist.check_masses() if args.strict else dist).to_json())
    return 0


def cmd_simulate(args) -> int:
    config = ChainConfig(
        q=_scalar(args.q, "float"),
        m=args.m,
        initial_y=_scalar(args.y, "float"),
        steps=args.steps,
        seed=args.seed,
    )
    trajectory = simulate(config)
    if args.out:
        trajectory.write_csv(args.out)
        trajectory.write_metadata(f"{args.out}.meta.json")
        print(f"wrote {len(trajectory.indices)} states to {args.out}")
    else:  # in 64 KiB writes: under an unbuffered stdout one write of it all ends quietly if the reader leaves
        text = trajectory.to_csv()
        sys.stdout.writelines(text[start : start + 65536] for start in range(0, len(text), 65536))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchain",
        description="q-Hermite / Al-Salam-Chihara families, exact identities, "
        "and the discrete transition kernels their zeros carry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one polynomial family at a point")
    pe.add_argument("family", choices=list(FAMILIES))
    pe.add_argument("n", type=int, help="degree")
    _add_flags(pe, FAMILIES)
    pe.add_argument("--mode", choices=["exact", "float"], default="exact")
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run one identity verifier, print a JSON report")
    pv.add_argument("identity", choices=list(VERIFIERS))
    _add_flags(pv, VERIFIERS)
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
    ps.add_argument("--out", help="CSV path; metadata sidecar goes to OUT.meta.json")
    ps.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:  # exact kernels of high order print integers past the default digit limit
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here rather than in the flush at exit
        return code
    except BrokenPipeError:  # not a failed identity: the reader stopped reading
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit stays quiet
        return 141
    except VerificationFailed as exc:
        print(exc.report.to_json())
        return 1
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CLIParseError) else 4 if isinstance(exc, InvalidKernel) else 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
