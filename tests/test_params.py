"""Formal selfdual parameter bookkeeping."""

import random
import warnings

import pytest

from twistedgl.endoscopy import enumerate_elliptic_data
from twistedgl.localfield import square_class, square_class_table
from twistedgl.params import (FormalConstituent, FormalParameter, classify,
                              hypothesis_even_SO, is_elliptic_param)


def orth(dim, det, p, mult=1):
    return FormalConstituent(dim, True, 1, square_class(det, p), mult)


def symp(dim, p, mult=1):
    return FormalConstituent(dim, True, -1, square_class(1, p), mult)


def pair(dim, p, mult=1):
    return FormalConstituent(dim, False, None, None, mult)


def test_constituent_invariants():
    with pytest.raises(ValueError):
        FormalConstituent(2, True, -1, square_class(3, 3))  # sign -1 forces trivial det
    with pytest.raises(ValueError):
        FormalConstituent(3, True, -1, square_class(1, 3))  # sign -1 forces even dim
    with pytest.raises(ValueError):
        FormalConstituent(2, False, 1, None)  # non-selfdual has no sign


def test_total_dim_counts_pairs_twice():
    phi = FormalParameter((orth(2, 3, 3), pair(3, 3)))
    assert phi.total_dim == 2 + 6


def test_is_elliptic_param():
    p = 3
    assert is_elliptic_param(FormalParameter((orth(4, 3, p),)))
    assert not is_elliptic_param(FormalParameter((orth(2, 3, p, mult=2),)))
    assert not is_elliptic_param(FormalParameter((orth(2, 3, p), pair(1, p))))
    assert not is_elliptic_param(FormalParameter((orth(2, 3, p), orth(2, 3, p))))


def test_classify_simple_orthogonal():
    p = 3
    phi = FormalParameter((orth(4, 3, p),))
    datum = classify(phi)
    assert (datum.n_O, datum.n_S) == (4, 0)
    assert datum.chi == square_class(3, p)


def test_classify_simple_symplectic_side():
    p = 5
    phi = FormalParameter((symp(4, p),))
    datum = classify(phi)
    assert (datum.n_O, datum.n_S) == (0, 4)
    assert datum.chi.is_trivial()


def test_classify_composite():
    p = 3
    phi = FormalParameter((orth(2, 3, p), symp(2, p)))
    datum = classify(phi)
    assert (datum.n_O, datum.n_S) == (2, 2)
    assert datum.chi == square_class(3, p)


def test_classify_rejects_unrealizable():
    p = 3
    phi = FormalParameter((orth(2, 1, p), symp(2, p)))
    with pytest.raises(ValueError):
        classify(phi)  # n_O = 2 with trivial chi names no elliptic datum


def test_classify_lands_in_enumeration():
    rng = random.Random(0)
    for p in (2, 3, 5):
        classes = [c.representative for c in square_class_table(p)]
        nontrivial = [c for c in classes if c != 1]
        for _ in range(60):
            constituents = []
            dims_used = set()
            total = 0
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    dim = rng.choice((2, 4, 6))
                    if ("s", dim) in dims_used:
                        continue
                    dims_used.add(("s", dim))
                    constituents.append(symp(dim, p))
                else:
                    dim = rng.choice((1, 2, 3, 4))
                    det = rng.choice(nontrivial) if dim == 2 else rng.choice(classes)
                    if ("o", dim, det) in dims_used:
                        continue
                    dims_used.add(("o", dim, det))
                    constituents.append(orth(dim, det, p))
            phi = FormalParameter(tuple(constituents))
            if phi.total_dim % 2 or not is_elliptic_param(phi):
                continue
            try:
                datum = classify(phi)
            except ValueError:
                continue  # hit the unrealizable (2, *, trivial) corner
            n = phi.total_dim // 2
            assert datum in enumerate_elliptic_data(n, p)
            if datum.n_O == 0:
                assert all(c.sign == -1 for c in phi.constituents)
                assert datum.chi.is_trivial()


def test_classify_reads_the_dimension_sum_without_a_warning():
    # a sign -1 constituent has even dimension >= 2, so n_S = 6 below counts
    # dimensions, not the two sign -1 constituents
    p = 3
    phi = FormalParameter((symp(2, p), symp(4, p), orth(2, 3, p)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        datum = classify(phi)
    assert (datum.n_O, datum.n_S, datum.chi) == (2, 6, square_class(3, p))


def test_hypothesis_even_so():
    p = 3
    assert hypothesis_even_SO(FormalParameter((orth(4, 1, p),)))
    assert not hypothesis_even_SO(FormalParameter((symp(4, p),)))
    with pytest.raises(ValueError):
        hypothesis_even_SO(FormalParameter((pair(2, p),)))
    with pytest.raises(ValueError):
        hypothesis_even_SO(FormalParameter((orth(2, 3, p), symp(2, p))))
    # equivalence with classification for irreducibles
    for phi in (FormalParameter((orth(4, 3, p),)), FormalParameter((symp(4, p),))):
        datum = classify(phi)
        assert hypothesis_even_SO(phi) == (datum.n_O == phi.total_dim)
