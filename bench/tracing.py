"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of `qchain.qcore`,
`qchain.exactnum`, `qchain.spectra` and `qchain.markov` and puts each
wrapper wherever a caller looks the name up: in the defining module and in
every `qchain` module that bound it with `from .x import name` (markov, for
one, binds `linear_solve`, `chi`, `eval_H_seq` and `eval_p_seq` at import).
`uninstall()` puts the originals back.

The functions in SPANNED record a span (name, start, end, parent); every
other public function is only counted, so its time stays in the self time
of the span that called it.  That keeps the hot leaves (`q_bracket`,
`rational_sqrt`, `v_factor`, ...) cheap to trace and makes, say,
`q_binomial`'s self time include the factorials it rebuilds.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("qcore", "exactnum", "spectra", "markov")

SPANNED = {
    "qcore": ("eval_H_seq", "eval_p_seq", "q_binomial", "eval_p_expansion"),
    "exactnum": ("linear_solve", "quad_sqrt"),
    "spectra": (
        "chi",
        "eval_sum_form",
        "eval_product_form",
        "verify_factorization",
        "verify_addition_formula",
        "verify_chi_properties",
        "hermite_limit_identity",
    ),
    "markov": ("build_distribution", "sample_step", "simulate", "compose", "verify_chapman_kolmogorov"),
}

# distinct argument lists are recorded for these, giving distinct inputs / calls
KEYED = ("markov.build_distribution",)

SERIALIZE = "markov.serialize"
CREATED = "exactnum.QuadraticNumber"  # counts instances created


def covered_length(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Seconds per span name of each span's duration minus the part of its
    interval that its child spans cover.  `spans[i][3]` is the index of the
    parent span, or -1 for a root."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered_length(children.get(i, ()), start, end)
    return dict(out)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        keys = self.distinct[name] if name in KEYED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if keys is not None:
                keys.add(repr((args, sorted(kwargs.items()))))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        from qchain import exactnum, markov

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qchain.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType):
                    name = f"{layer}.{attr}"
                    make = self._spanned if attr in SPANNED[layer] else self._counted
                    wrappers[fn] = make(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "qchain" or mod_name.startswith("qchain."):
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) and value in wrappers:
                        self._patch(module, attr, wrappers[value])
        for cls, method in ((markov.Trajectory, "to_csv"), (markov.ConditionalDistribution, "to_json")):
            self._patch(cls, method, self._spanned(SERIALIZE, cls.__dict__[method]))
        init = exactnum.QuadraticNumber.__init__
        self._patch(exactnum.QuadraticNumber, "__init__", self._counted(CREATED, init))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """{name: {"calls", "self_ms"[, "distinct"]}} for every traced name."""
        selfs = self_times(self.spans)
        out = {}
        for name in sorted(set(self.calls) | set(selfs)):
            row = {"calls": self.calls[name]}
            if name in selfs:
                row["self_ms"] = selfs[name] * 1e3
            if name in KEYED:
                row["distinct"] = len(self.distinct[name])
            out[name] = row
        return out
