"""Every cross-check shown able to fail.

Each row of MUTANTS names a library function by its dotted path, a mutant
made from it, and a cross-check of tests/helpers.py on a small fixed sweep.
The check must pass on the library and raise AssertionError once the
mutant replaces the function.
"""

import importlib

import pytest

import helpers

MUTANTS = [
    pytest.param("twistedgl.qform._pivot_classes",
                 lambda f: lambda pivots, d, p: f(pivots, 1, p),
                 helpers.check_pivot_classes,
                 id="pivot classes without class(d)"),
]


@pytest.mark.parametrize("target, mutate, check", MUTANTS)
def test_a_cross_check_passes_and_kills_its_mutant(monkeypatch, target, mutate, check):
    check()
    module, name = target.rsplit(".", 1)
    monkeypatch.setattr(target, mutate(getattr(importlib.import_module(module), name)))
    with pytest.raises(AssertionError):
        check()
