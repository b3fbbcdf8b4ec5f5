"""Class builders, twisted fingerprints, the correspondence."""

import random
from fractions import Fraction as F

from helpers import (hilbert90_x, mat_add, poly_eval, random_algebra,
                     random_fixed_invertible, random_generator,
                     random_invertible_element, random_norm_one_generator)
from twistedgl.classes import (ClassParameter, build_SO_even, build_SO_odd,
                               build_Sp, build_tGL_even, build_tGL_odd,
                               class_invariant, corresponds, is_elliptic,
                               twist_invariant)
from twistedgl.etale import (char_poly, is_generator, make_algebra, quadratic_tower,
                             split_tower, tau, trace_form_bilinear)
from twistedgl.linalg import (block_diag, charpoly, det, identity, mat_mul,
                              poly_squarefree, transpose)
from twistedgl.localfield import QP, square_class
from twistedgl.qform import diag_form

RNG = random.Random(20)


def split_alg(p):
    return make_algebra([split_tower(QP(p))])


def test_build_tgl_even_split_example():
    alg = split_alg(5)
    f = alg.factors[0]
    a, b = F(3), F(7)
    x = alg.element([(f.base.embed(a), f.base.embed(b))])
    param = ClassParameter("tGL-even", alg, x)
    delta = build_tGL_even(param)
    assert delta == ((F(0), b), (a, F(0)))


def test_build_tgl_even_transpose_and_symmetrization():
    for p in (2, 3, 5):
        for _ in range(10):
            alg = random_algebra(p, RNG)
            x = random_generator(alg, RNG)
            d1 = build_tGL_even(ClassParameter("tGL-even", alg, x))
            d2 = build_tGL_even(ClassParameter("tGL-even", alg, tau(x)))
            assert d2 == transpose(d1)
            s = x + tau(x)
            if s.is_invertible() and is_generator(x * tau(x).inverse()):
                assert mat_add(d1, transpose(d1)) == trace_form_bilinear(alg, s)


def test_build_tgl_odd():
    alg = split_alg(3)
    f = alg.factors[0]
    x = alg.element([(f.base.embed(2), f.base.embed(7))])
    param = ClassParameter("tGL-odd", alg, x, x_D=square_class(1, 3))
    delta = build_tGL_odd(param)
    assert len(delta) == 3 and delta[2][2] == 1
    even = build_tGL_even(ClassParameter("tGL-even", alg, x))
    assert delta == block_diag(even, ((F(1),),))
    # very-regularity ignores x_D
    assert param.is_very_regular() == is_generator(x * tau(x).inverse())


def test_build_so_even_rotation():
    alg = make_algebra([quadratic_tower(QP(3), 2)])
    f = alg.factors[0]
    # y = (1 + sqrt2)/(1 - sqrt2) has norm 1
    z = alg.element([(f.base.embed(1), f.base.embed(1))])
    y = z * tau(z).inverse()
    c = alg.one
    param = ClassParameter("SO-even", alg, y, c=c)
    q_c, gamma = build_SO_even(param)
    assert mat_mul(transpose(gamma), mat_mul(q_c.gram, gamma)) == q_c.gram
    assert det(gamma) == 1
    cp = charpoly(gamma)
    assert poly_eval(cp, 1) != 0 and poly_eval(cp, -1) != 0


def test_build_so_even_random():
    for p in (2, 3, 5):
        for _ in range(8):
            alg = random_algebra(p, RNG)
            y = random_norm_one_generator(alg, RNG)
            c = random_fixed_invertible(alg, RNG)
            q_c, gamma = build_SO_even(ClassParameter("SO-even", alg, y, c=c))
            assert mat_mul(transpose(gamma), mat_mul(q_c.gram, gamma)) == q_c.gram
            assert det(gamma) == 1


def test_build_so_odd():
    alg = make_algebra([quadratic_tower(QP(3), 2)])
    y = random_norm_one_generator(alg, RNG)
    c = random_fixed_invertible(alg, RNG)
    a = square_class(1, 3)
    param = ClassParameter("SO-odd", alg, y, c=c, a=a)
    q, gamma = build_SO_odd(param)
    assert q.dim == 3 and gamma[2][2] == 1
    assert mat_mul(transpose(gamma), mat_mul(q.gram, gamma)) == q.gram
    # -gamma has no eigenvalue +1: for a 3 x 3 gamma,
    # charpoly(-gamma)(1) = -charpoly(gamma)(-1)
    assert poly_eval(charpoly(gamma), -1) != 0


def test_a_squarefree_norm_one_element_has_no_eigenvalue_pm1():
    # y = z / tau(z) has tau(y) = 1/y, which pairs its eigenvalues as lambda
    # and 1/lambda: once char_poly(y) is squarefree, neither 1 nor -1 is a
    # root, so ClassParameter tests squarefreeness alone
    rng = random.Random(1904)
    squarefree = repeated_pm1 = 0
    for p in (2, 3, 5, 7):
        for _ in range(40):
            alg = random_algebra(p, rng)
            z = random_invertible_element(alg, rng, span=2)
            cp = char_poly(z * tau(z).inverse())
            if poly_squarefree(cp):
                squarefree += 1
                assert poly_eval(cp, 1) != 0 and poly_eval(cp, -1) != 0
            elif poly_eval(cp, 1) == 0 or poly_eval(cp, -1) == 0:
                repeated_pm1 += 1
    assert squarefree and repeated_pm1  # both sides of the lemma are drawn


def test_build_sp_split_block():
    alg = split_alg(5)
    f = alg.factors[0]
    y = alg.element([(f.base.embed(2), f.base.embed(F(1, 2)))])
    c = alg.element([(f.base.embed(1), f.base.embed(-1))])
    param = ClassParameter("Sp", alg, y, c=c)
    q, gamma = build_Sp(param)
    assert q.gram == ((F(0), F(-1)), (F(1), F(0)))
    assert mat_mul(transpose(gamma), mat_mul(q.gram, gamma)) == q.gram


def test_twist_invariant_symmetric_alternating():
    sym = diag_form([1, 2, 3], 5).gram
    assert twist_invariant(sym) == charpoly(identity(3))
    alt = ((F(0), F(1)), (F(-1), F(0)))
    cp = twist_invariant(alt)
    assert poly_eval(cp, -1) == 0 and cp == charpoly(((F(-1), F(0)), (F(0), F(-1))))


def test_twist_invariant_round_trip():
    for p in (2, 3, 5):
        for _ in range(25):
            alg = random_algebra(p, RNG)
            x = random_generator(alg, RNG)
            delta = build_tGL_even(ClassParameter("tGL-even", alg, x))
            assert twist_invariant(delta) == char_poly(tau(x) * x.inverse())


def test_corresponds():
    for p in (2, 3, 5):
        for _ in range(10):
            alg = random_algebra(p, RNG)
            y = random_norm_one_generator(alg, RNG)
            c = random_fixed_invertible(alg, RNG)
            gparam = ClassParameter("SO-even", alg, y, c=c)
            for _ in range(10):
                z = RNG and random_fixed_invertible(alg, RNG)
                x = hilbert90_x(y, random_generator(alg, RNG, require_very_regular=False))
                if (x.is_invertible() and is_generator(x * tau(x).inverse())
                        and is_generator(x)):
                    break
            else:
                continue
            dparam = ClassParameter("tGL-even", alg, x)
            assert corresponds(dparam, gparam)
            # tau(y) parametrizes the inverse class: still corresponds
            gparam2 = ClassParameter("SO-even", alg, tau(y), c=c)
            assert corresponds(dparam, gparam2)


def test_corresponds_mismatch():
    alg = split_alg(5)
    f = alg.factors[0]
    x = alg.element([(f.base.embed(3), f.base.embed(7))])
    y_good = -(x * tau(x).inverse())
    y_bad = alg.element([(f.base.embed(5), f.base.embed(F(1, 5)))])
    c = alg.one
    dparam = ClassParameter("tGL-even", alg, x)
    assert corresponds(dparam, ClassParameter("SO-even", alg, y_good, c=c))
    assert not corresponds(dparam, ClassParameter("SO-even", alg, y_bad, c=c))


def test_is_elliptic():
    quad = make_algebra([quadratic_tower(QP(3), 2), quadratic_tower(QP(3), 3)])
    y = random_norm_one_generator(quad, RNG)
    c = random_fixed_invertible(quad, RNG)
    assert is_elliptic(ClassParameter("SO-even", quad, y, c=c))
    mixed = make_algebra([split_tower(QP(3)), quadratic_tower(QP(3), 2)])
    y2 = random_norm_one_generator(mixed, RNG)
    c2 = random_fixed_invertible(mixed, RNG)
    assert not is_elliptic(ClassParameter("SO-even", mixed, y2, c=c2))


def test_is_elliptic_stable_under_twist_and_scaling():
    for _ in range(10):
        alg = random_algebra(5, RNG)
        x = random_generator(alg, RNG)
        t = random_fixed_invertible(alg, RNG)
        p1 = ClassParameter("tGL-even", alg, x)
        e = is_elliptic(p1)
        tx = t * x
        if tx.is_invertible() and is_generator(tx * tau(tx).inverse()) and is_generator(tx):
            assert is_elliptic(ClassParameter("tGL-even", alg, tx)) == e
        assert is_elliptic(ClassParameter("tGL-even", alg, tau(x))) == e


def test_class_invariant_squarefree_guard():
    alg = split_alg(5)
    f = alg.factors[0]
    x = alg.element([(f.base.embed(3), f.base.embed(7))])
    inv = class_invariant(ClassParameter("tGL-even", alg, x))
    assert inv.kind == "tGL-even"
    assert len(inv.char_poly) == 3
