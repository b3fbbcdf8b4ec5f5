"""Etale algebras with involution: arithmetic, traces, trace forms."""

import random
from fractions import Fraction as F

import pytest

from helpers import (poly_eval, random_algebra, random_fixed_invertible,
                     random_invertible_element, reference_trace)
from twistedgl.etale import (char_poly, is_generator, make_algebra,
                             quadratic_tower, split_tower, tau,
                             trace_form_bilinear, trace_form_quadratic)
from twistedgl.linalg import (block_diag, det, identity, inverse, mat_add, mat_mul,
                              poly_squarefree, transpose)
from twistedgl.localfield import (QP, LocalFieldDescriptor, Prime, is_square_in_field,
                                  least_nonresidue)
from twistedgl.qform import witt_decompose


def split_q(p):
    return make_algebra([split_tower(QP(p))])


def quad_q(p, d):
    return make_algebra([quadratic_tower(QP(p), d)])


def test_make_algebra_examples():
    a = split_q(5)
    assert a.dim_over_qp == 2
    b = quad_q(3, 2)
    assert b.dim_over_qp == 2
    c = make_algebra([split_tower(QP(3)), quadratic_tower(QP(3), 3)])
    assert c.dim_over_qp == 4


def test_square_step_rejected():
    with pytest.raises(ValueError):
        quadratic_tower(QP(3), 4)
    with pytest.raises(ValueError):
        quadratic_tower(QP(5), -1)  # -1 is a square in Q_5


def test_involution_and_traces():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for _ in range(20):
            alg = random_algebra(p, rng)
            x = random_invertible_element(alg, rng)
            assert tau(tau(x)) == x
            assert tau(x * tau(x)) == x * tau(x)
            assert reference_trace(tau(x)) == reference_trace(x)
            assert reference_trace(alg.one) == alg.dim_over_qp


def test_split_norm_and_char_poly():
    alg = split_q(5)
    f = alg.factors[0]
    a, b = F(3), F(7)
    x = alg.element([(f.base.embed(a), f.base.embed(b))])
    nf = x * tau(x)
    assert nf.parts[0][0].coeffs[0] == a * b
    y = alg.element([(f.base.embed(a), f.base.embed(1 / a))])
    cp = char_poly(y)
    assert poly_eval(cp, a) == 0 and poly_eval(cp, 1 / a) == 0


def test_mult_matrix_identity_and_det():
    rng = random.Random(1)
    for p in (2, 3, 5):
        alg = random_algebra(p, rng)
        one = alg.one
        assert one.mult_matrix() == identity(alg.dim_over_qp)
        assert char_poly(one) == tuple(
            _binom_poly(alg.dim_over_qp))


def _unramified_quadratic(p):
    u = least_nonresidue(p)
    return LocalFieldDescriptor(Prime(p), (F(-u), F(0), F(1)), "unramified-irreducible-mod-p")


def test_frozen_coordinates_over_qp_and_an_unramified_base():
    """mult_matrix is a representation in the frozen coordinates, and on a
    split factor those are the components (u, v) of F x F."""
    rng = random.Random(8)

    def rand(base):
        return base.element([F(rng.randint(-5, 5)) for _ in range(base.degree)])

    for p in (2, 3, 5, 7):
        for base in (QP(p),) if p == 2 else (QP(p), _unramified_quadratic(p)):
            for _ in range(6):
                towers = []
                for _ in range(rng.choice((1, 2))):
                    if rng.random() < 0.4:
                        towers.append(split_tower(base))
                        continue
                    d = rand(base)
                    while d.is_zero() or is_square_in_field(base, d):
                        d = rand(base)
                    towers.append(quadratic_tower(base, d))
                alg = make_algebra(towers)
                x, y = random_invertible_element(alg, rng), random_invertible_element(alg, rng)
                assert (x * y).mult_matrix() == mat_mul(x.mult_matrix(), y.mult_matrix())
                assert x.inverse().mult_matrix() == inverse(x.mult_matrix())
                assert alg.one.mult_matrix() == identity(alg.dim_over_qp)
                basis = alg.basis()
                assert trace_form_bilinear(alg, x) == tuple(
                    tuple(reference_trace(tau(bi) * x * bj) for bj in basis)
                    for bi in basis)
                split = make_algebra([split_tower(base)])
                u, v = rand(base), rand(base)
                z = split.element([(u, v)])
                assert z.mult_matrix() == block_diag(u.mult_matrix(), v.mult_matrix())
                assert tau(z) == split.element([(v, u)])
                assert reference_trace(z) == u.trace() + v.trace()


def _binom_poly(n):
    # (T - 1)^n ascending
    from math import comb
    return [F((-1) ** (n - i) * comb(n, i)) for i in range(n + 1)]


def test_cayley_hamilton_smoke():
    rng = random.Random(2)
    for _ in range(10):
        alg = random_algebra(3, rng)
        x = random_invertible_element(alg, rng)
        cp = char_poly(x)
        acc = alg.zero
        power = alg.one
        for c in cp:
            acc = acc + power * alg.embed(c)
            power = power * x
        assert acc.is_zero()


def test_is_generator():
    alg = split_q(7)
    assert not is_generator(alg.one)
    f = alg.factors[0]
    x = alg.element([(f.base.embed(2), f.base.embed(5))])
    assert is_generator(x)
    rng = random.Random(3)
    for _ in range(20):
        a2 = random_algebra(5, rng)
        x = random_invertible_element(a2, rng)
        assert is_generator(x) == is_generator(tau(x))


def test_very_regular():
    # x is very regular when r = x / tau(x) has distinct eigenvalues, none of
    # them +-1; the rule, of ClassParameter and gs_param_check, tests only
    # that r is a generator
    alg = split_q(5)
    f = alg.factors[0]
    fixed = alg.embed(3)
    assert not is_generator(fixed * tau(fixed).inverse())
    x = alg.element([(f.base.embed(2), f.base.embed(5))])
    assert is_generator(x * tau(x).inverse())
    # r = x / tau(x) = (1/2, 2, 1/2, 2): r - 1 and r + 1 are invertible, but
    # its eigenvalues repeat
    two = make_algebra([split_tower(QP(3)), split_tower(QP(3))])
    x = two.element([(g.base.embed(u), g.base.embed(v))
                     for g, (u, v) in zip(two.factors, ((1, 2), (3, 6)))])
    assert not is_generator(x * tau(x).inverse())
    rng = random.Random(4)
    for _ in range(30):
        a2 = random_algebra(3, rng)
        x = random_invertible_element(a2, rng)
        r = x * tau(x).inverse()
        want = det(mat_add(r.mult_matrix(), identity(a2.dim_over_qp))) != 0 and \
            det(mat_add(r.mult_matrix(), (-a2.one).mult_matrix())) != 0 and \
            poly_squarefree(char_poly(r))
        assert is_generator(r) == want


def test_trace_form_bilinear_transpose_and_symmetrization():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(15):
            alg = random_algebra(p, rng)
            x = random_invertible_element(alg, rng)
            g = trace_form_bilinear(alg, x)
            # the definition: the trace of the multiplication matrix of each
            # product, formed in full
            basis = alg.basis()
            assert g == tuple(tuple(reference_trace(tau(bi) * x * bj) for bj in basis)
                              for bi in basis)
            gt = trace_form_bilinear(alg, tau(x))
            assert gt == transpose(g)
            both = x + tau(x)
            if both.is_invertible():
                assert mat_add(g, gt) == trace_form_bilinear(alg, both)


def test_trace_form_nondegenerate_iff_invertible():
    rng = random.Random(6)
    alg = random_algebra(3, rng, n_factors=2)
    x = random_invertible_element(alg, rng)
    assert det(trace_form_bilinear(alg, x)) != 0
    f0 = alg.factors[0]
    parts = list(x.parts)
    parts[0] = (f0.base.zero, f0.base.zero)
    from twistedgl.etale import AlgebraElement
    xdeg = AlgebraElement(alg, tuple(parts))
    with pytest.raises(ValueError):
        trace_form_bilinear(alg, xdeg)


def test_trace_form_quadratic_split_is_hyperbolic_block():
    alg = split_q(3)
    q = trace_form_quadratic(alg, alg.one)
    assert q.gram == ((F(0), F(1)), (F(1), F(0)))


def test_trace_form_quadratic_field_is_2_minus_2d():
    for p, d in ((3, 2), (5, 2), (3, 3)):
        alg = quad_q(p, d)
        q = trace_form_quadratic(alg, alg.one)
        assert q.gram == ((F(2), F(0)), (F(0), F(-2 * d)))


def test_trace_form_quadratic_requires_fixed_twist():
    alg = quad_q(3, 2)
    x = alg.element([(alg.factors[0].base.embed(1), alg.factors[0].base.embed(1))])
    with pytest.raises(ValueError):
        trace_form_quadratic(alg, x)


def test_split_only_algebra_trace_form_witt_trivial():
    rng = random.Random(7)
    for p in (2, 3, 5):
        alg = make_algebra([split_tower(QP(p)), split_tower(QP(p))])
        for _ in range(10):
            c = random_fixed_invertible(alg, rng)
            q = trace_form_quadratic(alg, c)
            witt, kernel = witt_decompose(q)
            assert kernel.aniso_dim == 0 and witt == 2
