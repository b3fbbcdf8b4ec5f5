"""Every cross-check shown able to fail.

Each row of MUTANTS names a library function by its dotted path, a mutant
made from it, and a cross-check of tests/helpers.py on a small fixed sweep.
The check must pass on the library and raise AssertionError once the
mutant replaces the function.
"""

import importlib

import pytest

import helpers


def _holding(form, classes):
    """form, made to hold these classes instead of its own."""
    vars(form)["classes"] = classes
    return form


MUTANTS = [
    pytest.param("twistedgl.qform._pivot_classes",
                 lambda f: lambda pivots, d, p: f(pivots, 1, p),
                 helpers.check_pivot_classes,
                 id="pivot classes without class(d)"),
    pytest.param("twistedgl.qform.scale",
                 lambda f: lambda c, q: _holding(f(c, q), q.classes),
                 helpers.check_scale_classes,
                 id="scale without class(c)"),
    pytest.param("twistedgl.qform.hyperbolic",
                 lambda f: lambda k, p: _holding(f(k, p), (0, 0) * k),
                 helpers.check_hyperbolic_classes,
                 id="hyperbolic planes held as <1, 1>"),
    pytest.param("twistedgl.weil._rank1",
                 lambda f: lambda bits, p: f(bits, p) + 2 * (p == 2 and bits & 1),
                 helpers.check_weil_rank1,
                 id="rank-1 exponent at p = 2 and odd valuation moved"),
]


@pytest.mark.parametrize("target, mutate, check", MUTANTS)
def test_a_cross_check_passes_and_kills_its_mutant(monkeypatch, target, mutate, check):
    check()
    module, name = target.rsplit(".", 1)
    monkeypatch.setattr(target, mutate(getattr(importlib.import_module(module), name)))
    with pytest.raises(AssertionError):
        check()
