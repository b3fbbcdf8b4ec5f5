"""Weil indices: table vs oracle, the Witt-character law, Hasse linkage."""

import random
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from twistedgl.localfield import square_class, square_class_table, valuation
from twistedgl.qform import (diag_form, direct_sum, hyperbolic, invariants,
                             norm_form, witt_decompose)
from twistedgl.oracles import MAX_PERIOD, gauss_oracle
from twistedgl.weil import Mu8, epsilon_half, weil_index


def small_rep(cls, p):
    """A small-valuation representative of the class, cheap for the oracle."""
    a = F(cls.representative)
    return a / p ** 2, valuation(a, p) - 2


def test_mu8_arithmetic():
    assert (Mu8(3) * Mu8(7)).exponent == 2
    assert Mu8(5).inverse() == Mu8(3)
    assert Mu8.from_sign(-1) == Mu8(4)
    assert str(Mu8(9)) == "zeta8^1"
    with pytest.raises(ValueError):
        Mu8.from_sign(0)


def test_rank1_square_class_invariance():
    rng = random.Random(0)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            a = F(rng.randint(1, 50)) * rng.choice((1, -1))
            b = F(rng.randint(1, 12))
            assert weil_index(diag_form([a * b * b], p)) == weil_index(diag_form([a], p))


def test_rank1_table_matches_oracle_exhaustively():
    """Acceptance-grade: every square class at p in {2,3,5,7,11}, stabilized."""
    for p in (2, 3, 5, 7, 11):
        for cls in square_class_table(p):
            rep, v = small_rep(cls, p)
            res = gauss_oracle(rep, p, v + 3)
            assert res.snap_distance < 1e-6
            assert res.snapped == weil_index(diag_form([cls.representative], p)), (p, cls)


def test_oracle_rejects_low_truncation():
    with pytest.raises(ValueError):
        gauss_oracle(3, 3, 3)  # needs k >= v + 3 = 4


def test_oracle_bounds_its_period():
    # the exhaustive table check above sums periods up to 11^7
    assert MAX_PERIOD >= 11 ** 7
    for a, p, k in ((1, 7, 8), (1, 7, 12), (1, 2, 10 ** 9), (F(1, 9), 3, 12)):
        with pytest.raises(ValueError, match="period"):
            gauss_oracle(a, p, k)


def test_oracle_product_rule_binary():
    """Oracle for <a, b> as a double sum factors into the rank-1 oracles."""
    p = 3
    for a, b in ((F(1, 9), F(2, 9)), (F(1, 3), F(2, 9))):
        k = 3
        za = gauss_oracle(a, p, k)
        zb = gauss_oracle(b, p, k)
        joint = (za.snapped * zb.snapped)
        form = diag_form([a, b], p)
        assert weil_index(form) == joint


def test_weil_index_examples():
    for p in (2, 3, 5, 7):
        assert weil_index(hyperbolic(1, p)) == Mu8(0)
        q = diag_form([1, -1], p)
        assert weil_index(q) == Mu8(0)
    # gamma(<1>) * gamma(<-1>) = 1
    for p in (2, 3, 5, 7):
        assert weil_index(diag_form([1], p)) * weil_index(diag_form([-1], p)) == Mu8(0)


def test_weil_index_character_law():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(40):
            e1 = [rng.choice((1, -1)) * rng.randint(1, 20) for _ in range(rng.randint(1, 3))]
            e2 = [rng.choice((1, -1)) * rng.randint(1, 20) for _ in range(rng.randint(1, 3))]
            q1, q2 = diag_form(e1, p), diag_form(e2, p)
            assert weil_index(direct_sum(q1, q2)) == weil_index(q1) * weil_index(q2)


def test_weil_index_witt_descent():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(30):
            entries = [rng.choice((1, -1)) * rng.randint(1, 20)
                       for _ in range(rng.randint(1, 4))]
            q = diag_form(entries, p)
            assert weil_index(direct_sum(q, hyperbolic(1, p))) == weil_index(q)
            assert weil_index(q) ** 8 == Mu8(0)


def test_weil_index_depends_only_on_kernel():
    rng = random.Random(3)
    for p in (2, 3, 5):
        seen = {}
        for _ in range(40):
            entries = [rng.choice((1, -1)) * rng.randint(1, 15)
                       for _ in range(rng.randint(1, 4))]
            q = diag_form(entries, p)
            _, kernel = witt_decompose(q)
            key = (kernel.aniso_dim, kernel.det.representative, kernel.hasse)
            idx = weil_index(q)
            if key in seen:
                assert seen[key] == idx
            seen[key] = idx


def test_hasse_linkage_exhaustive_odd():
    """Equal dim and det: the Hasse ratio equals the Weil-index ratio."""
    for p in (3, 5):
        reps = [c.representative for c in square_class_table(p)]
        for dim in (1, 2, 3, 4):
            forms = [diag_form(list(es), p)
                     for es in combinations_with_replacement(reps, dim)]
            data = [(invariants(q), weil_index(q)) for q in forms]
            for (i1, w1) in data:
                for (i2, w2) in data:
                    if i1.det != i2.det:
                        continue
                    ratio = w2 * w1.inverse()
                    assert ratio.exponent in (0, 4)
                    assert ratio == Mu8.from_sign(i2.hasse * i1.hasse), (p, dim)


def test_hasse_linkage_sampled_p2():
    rng = random.Random(4)
    reps = [c.representative for c in square_class_table(2)]
    for _ in range(150):
        dim = rng.randint(1, 4)
        e1 = [rng.choice(reps) for _ in range(dim)]
        e2 = [rng.choice(reps) for _ in range(dim)]
        q1, q2 = diag_form(e1, 2), diag_form(e2, 2)
        i1, i2 = invariants(q1), invariants(q2)
        if i1.det != i2.det:
            continue
        ratio = weil_index(q2) * weil_index(q1).inverse()
        assert ratio == Mu8.from_sign(i1.hasse * i2.hasse)


def test_epsilon_half():
    # split algebra: the norm form is hyperbolic, epsilon = 1
    for p in (2, 3, 5):
        assert epsilon_half(square_class(1, p), p) == Mu8(0)
    # unramified quadratic over Q_3: <1, -u> with both entries units
    assert epsilon_half(square_class(2, 3), 3) == Mu8(0)
    # ramified: <1, -3> picks up the odd-valuation entry
    assert epsilon_half(square_class(3, 3), 3) == \
        weil_index(diag_form([1], 3)) * weil_index(diag_form([-3], 3))
    for p in (2, 3, 5, 7):
        for cls in square_class_table(p):
            value = epsilon_half(cls, p)
            assert value == weil_index(norm_form(cls, p))


def test_p2_table_against_ratio_identity():
    """The p = 2 normalization is pinned by the Hasse linkage, not the oracle."""
    q1 = diag_form([1, 1], 2)
    q2 = diag_form([-1, -1], 2)
    assert invariants(q1).det == invariants(q2).det
    ratio = weil_index(q2) * weil_index(q1).inverse()
    assert invariants(q1).hasse * invariants(q2).hasse == -1
    assert ratio == Mu8.from_sign(-1)
