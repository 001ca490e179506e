"""The public surface is declared once: the package re-exports each module's
__all__, and the eval/verify parsers list the flags their verb rows need."""

import argparse
import dataclasses
import inspect

import pytest

import qchain
import qchain.cli as cli
from qchain import exactnum, markov, qcore, spectra

MODULES = (exactnum, markov, qcore, spectra)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_package_exports_each_module_all_as_the_same_object(module):
    for name in module.__all__:
        assert getattr(qchain, name) is getattr(module, name), name


def test_package_exports_only_the_union_of_the_module_lists():
    public = {
        name for name, value in vars(qchain).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == {name for module in MODULES for name in module.__all__}


def test_no_helper_or_knob_that_only_tests_called():
    # a kernel is built from (m, y, q) alone, and verify_chapman_kolmogorov always runs both stages
    assert list(inspect.signature(markov.build_distribution).parameters) == ["m", "y", "q"]
    assert list(inspect.signature(markov.verify_chapman_kolmogorov).parameters) == ["m", "n", "y", "q", "mode"]
    for name in ("index_sumset", "chi_radical"):
        assert not hasattr(qchain, name) and not hasattr(spectra, name), name
    assert not hasattr(markov.ConditionalDistribution, "max_deviation")
    # a kernel is read through its atoms, and a report's z bound is a constant, not a field
    for name in ("value", "mass", "mass_total", "negative_atoms"):
        assert not hasattr(markov.ConditionalDistribution, name), name
    assert not hasattr(exactnum.QuadraticNumber, "conjugate")
    assert not hasattr(spectra, "random_angle_pairs")
    assert [field.name for field in dataclasses.fields(markov.MomentCheckReport)] == ["j", "lag", "groups"]


def test_a_trajectory_is_its_index_path():
    # simulate records lattice indices alone, and no float-era state bound is left
    assert [field.name for field in dataclasses.fields(markov.Trajectory)] == ["indices", "config"]
    assert [field.name for field in dataclasses.fields(markov.ChainConfig)] == ["q", "m", "initial_y", "steps", "seed"]
    assert not hasattr(markov, "StateOverflow") and not hasattr(qchain, "StateOverflow")


def _options(parser):
    """{--flag: (type, default)} of a parser's options, in the order --help lists them."""
    return {
        action.option_strings[-1]: (action.type, action.default)
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def _subparser(verb):
    (sub,) = (action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    return sub.choices[verb]


@pytest.mark.parametrize(
    "verb, table, extra",
    [
        ("eval", cli.FAMILIES, {"--mode": (None, "exact")}),
        ("verify", cli.VERIFIERS, {"--grid-side": (int, None), "--mode": (None, "exact")}),
    ],
    ids=["eval", "verify"],
)
def test_parser_flags_are_the_flags_its_rows_need(verb, table, extra):
    needed = {flag for flags, _, _ in table.values() for flag in flags}
    expected = {f"--{name}": (kind, None) for name, kind in cli.FLAGS.items() if name in needed}
    assert needed <= set(cli.FLAGS)
    assert list(_options(_subparser(verb)).items()) == list({**expected, **extra}.items())
