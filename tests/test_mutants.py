"""Every cross-check shown able to fail.

Each row of MUTANTS names a library function by its dotted path, a mutant
made from it, and a cross-check of tests/helpers.py on a small fixed sweep.
The check must pass on the library and raise AssertionError once the
mutant replaces the function.
"""

import __future__
import importlib
import inspect
import textwrap

import pytest

import helpers


def _holding(form, classes):
    """form, made to hold these classes instead of its own."""
    vars(form)["classes"] = classes
    return form


def _edited(f, old, new=""):
    """f compiled again from its own source with old, which must occur
    exactly once, replaced by new."""
    source = textwrap.dedent(inspect.getsource(f))
    assert source.count(old) == 1, old
    code = compile(source.replace(old, new), inspect.getsourcefile(f), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    scope = {}
    exec(code, f.__globals__, scope)
    return scope[f.__name__]


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
    pytest.param("twistedgl.qform._witt_bits",
                 lambda f: _edited(f, "        h ^= _hilbert_bit(m1, dc, p)\n"),
                 helpers.check_witt_reduction,
                 id="Witt reduction without the Hasse update"),
]


@pytest.mark.parametrize("target, mutate, check", MUTANTS)
def test_a_cross_check_passes_and_kills_its_mutant(monkeypatch, target, mutate, check):
    check()
    module, name = target.rsplit(".", 1)
    monkeypatch.setattr(target, mutate(getattr(importlib.import_module(module), name)))
    with pytest.raises(AssertionError):
        check()
