"""Valuations, square classes, Hilbert symbols and the solubility oracle."""

import itertools
import json
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from helpers import (field_gen, field_norm, field_valuation, hilbert_tame,
                     ramification_e, reference_eisenstein_tame_data,
                     reference_quadratic_tame_data, reference_trace, residue_f,
                     residue_q)
from twistedgl.localfield import (CERTIFICATES, PSI_13, QP, LocalFieldDescriptor,
                                  Prime, _residue_char_fq,
                                  as_prime, hilbert_qp,
                                  is_square_in_field, least_nonresidue,
                                  legendre, square_class, square_class_table,
                                  tame_data, valuation)
from twistedgl.localfield import _quadratic_model
from twistedgl.oracles import Solubility, solubility_budget, solubility_oracle


def test_as_prime_refuses_floats_and_booleans():
    assert as_prime(5) == as_prime("5") == as_prime(Prime(5)) == Prime(5)
    for bad in (3.7, 3.0, True, False):
        with pytest.raises(ValueError):
            as_prime(bad)


def test_prime_validation():
    Prime(2)
    Prime(97)
    with pytest.raises(ValueError):
        Prime(1)
    with pytest.raises(ValueError):
        Prime(91)  # 7 * 13


def test_prime_rejects_strong_pseudoprimes():
    # psi_12: a strong pseudoprime to every prime base up to 37
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="not prime"):
        Prime(psi_12)
    # psi_13 = 3317044064679887385961981 passes base 41 too; from it on the
    # test proves nothing, so it and everything above are refused
    assert PSI_13 == 3317044064679887385961981 and not sympy.isprime(PSI_13)
    for n in (PSI_13, sympy.nextprime(PSI_13)):
        with pytest.raises(ValueError, match="beyond the range"):
            Prime(n)
    below = sympy.prevprime(PSI_13)
    assert Prime(below) == below


def test_prime_is_the_int_it_names():
    p = Prime(7)
    assert isinstance(p, int) and p == 7 and hash(p) == hash(7)
    assert str(p) == repr(p) == f"{p}" == json.dumps(p) == "7"
    assert type(p + 1) is int and p ** 2 == 49
    for bad in (True, False, 7.0, "7", F(7)):
        with pytest.raises(ValueError, match="not prime"):
            Prime(bad)


def test_valuation_examples():
    assert valuation(1, 5) == 0
    assert valuation(F(4, 9), 3) == -2
    assert valuation(50, 5) == 2
    with pytest.raises(ValueError):
        valuation(0, 3)


def test_valuation_additive():
    rng = random.Random(0)
    for _ in range(100):
        a = F(rng.randint(1, 500), rng.randint(1, 500))
        b = F(rng.randint(1, 500), rng.randint(1, 500))
        for p in (2, 3, 5):
            assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


def test_square_class_examples():
    # 18 = 2 * 3^2 and 2 is a non-residue mod 3
    assert square_class(18, 3).representative == least_nonresidue(3) == 2
    assert square_class(49, 7).representative == 1
    assert square_class(-4, 2).representative == -1


def test_square_class_square_invariance():
    rng = random.Random(1)
    for p in (2, 3, 5, 7):
        for _ in range(50):
            a = F(rng.randint(1, 200), rng.randint(1, 200)) * rng.choice((1, -1))
            b = F(rng.randint(1, 30), rng.randint(1, 30))
            assert square_class(a * b * b, p) == square_class(a, p)


def test_square_class_idempotent():
    for p in (2, 3, 5, 7, 11):
        for cls in square_class_table(p):
            assert square_class(cls.representative, p) == cls


def test_hilbert_trivial_first_argument():
    for p in (2, 3, 5, 7):
        for b in (2, 3, -1, 10, F(7, 4)):
            assert hilbert_qp(1, b, p) == 1


def test_hilbert_examples():
    assert hilbert_qp(5, 2, 5) == -1
    assert hilbert_qp(-1, -1, 2) == -1


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = random.Random(2)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            a, b, a2 = (F(rng.randint(1, 60)) * rng.choice((1, -1)) for _ in range(3))
            assert hilbert_qp(a, b, p) == hilbert_qp(b, a, p)
            assert hilbert_qp(a * a2, b, p) == hilbert_qp(a, b, p) * hilbert_qp(a2, b, p)


NONZERO_RATIONALS = st.builds(
    F, st.integers(1, 10 ** 6).flatmap(lambda a: st.sampled_from((a, -a))),
    st.integers(1, 10 ** 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(NONZERO_RATIONALS, NONZERO_RATIONALS)
@example(F(-1), F(-1))
@example(F(2), F(3))
@example(F(5), F(2))
@example(F(-7, 12), F(18, -25))
def test_hilbert_reciprocity(a, b):
    # prod over v in {inf} and p | 2ab of (a, b)_v is 1 (Serre, ch. III)
    bad = {2}
    for x in (a.numerator, a.denominator, b.numerator, b.denominator):
        bad |= set(sympy.factorint(abs(x)))
    product = -1 if a < 0 and b < 0 else 1
    for p in bad:
        product *= hilbert_qp(a, b, p)
    assert product == 1
    good = next(p for p in sympy.primerange(3, 10 ** 4) if p not in bad)
    assert hilbert_qp(a, b, good) == 1


def test_hilbert_norm_relations():
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            a = F(rng.randint(1, 60)) * rng.choice((1, -1))
            assert hilbert_qp(a, -a, p) == 1
            if a not in (0, 1):
                assert hilbert_qp(a, 1 - a, p) == 1


def test_hilbert_nondegenerate_on_classes():
    for p in (2, 3, 5, 7, 11):
        for a in square_class_table(p):
            if a.representative == 1:
                continue
            assert any(hilbert_qp(a.representative, b.representative, p) == -1
                       for b in square_class_table(p))


def test_oracle_matches_closed_form_exhaustively():
    for p in (2, 3, 5, 7, 11):
        field = QP(p)
        for a in square_class_table(p):
            for b in square_class_table(p):
                ar, br = a.representative, b.representative
                depth = solubility_budget(ar, br, field)
                verdict = solubility_oracle(ar, br, field, depth)
                assert verdict != Solubility.INCONCLUSIVE
                assert (verdict == Solubility.SOLUBLE) == (hilbert_qp(ar, br, p) == 1)


def test_oracle_examples():
    assert solubility_oracle(1, -1, QP(3), 1) == Solubility.SOLUBLE
    assert solubility_budget(-1, -1, QP(2)) == 5  # v(4ab) + 2e + 1
    assert solubility_oracle(5, 2, QP(5), solubility_budget(5, 2, QP(5))) \
        == Solubility.INSOLUBLE
    assert solubility_oracle(-1, -1, QP(2), 5) == Solubility.INSOLUBLE


def test_oracle_inconclusive_below_budget():
    # (-1,-1) over Q_2 needs depth 5; a depth-1 search cannot conclude
    assert solubility_oracle(-1, -1, QP(2), 1) == Solubility.INCONCLUSIVE


# ---------------------------------------------------------------------------
# certified fields and tame symbols


def eisenstein_q3_sqrt3():
    return LocalFieldDescriptor(Prime(3), (F(-3), F(0), F(1)), "eisenstein")


def unramified_q3():
    u = least_nonresidue(3)
    return LocalFieldDescriptor(Prime(3), (F(-u), F(0), F(1)),
                                "unramified-irreducible-mod-p")


def test_certificates_reject_bad_polynomials():
    with pytest.raises(ValueError):
        # t^2 - 4 is reducible
        LocalFieldDescriptor(Prime(3), (F(-4), F(0), F(1)), "quadratic-nonsquare-disc")
    with pytest.raises(ValueError):
        # constant term valuation 2: not eisenstein
        LocalFieldDescriptor(Prime(3), (F(9), F(3), F(1)), "eisenstein")
    with pytest.raises(ValueError):
        # x^2 + 2 == (x+1)(x+2) mod 3
        LocalFieldDescriptor(Prime(3), (F(2), F(0), F(1)),
                             "unramified-irreducible-mod-p")


def test_an_empty_or_zero_defining_polynomial_is_not_monic():
    for poly in ((), (F(0),), (F(0), F(0))):
        for cert in CERTIFICATES:
            with pytest.raises(ValueError, match="monic"):
                LocalFieldDescriptor(Prime(3), poly, cert)


def test_field_names_its_polynomial_with_rational_literals():
    for p, poly, cert, text in (
            (3, (F(-2, 9), F(1), F(1)), "quadratic-nonsquare-disc", "Q_3[t]/(t^2 + t - 2/9)"),
            (3, (F(-9, 2), F(3), F(1)), "quadratic-nonsquare-disc", "Q_3[t]/(t^2 + 3 t - 9/2)"),
            (3, (F(3), F(-3, 2), F(0), F(1)), "eisenstein", "Q_3[t]/(t^3 - 3/2 t + 3)"),
            (2, (F(-2), F(0), F(1)), "eisenstein", "Q_2[t]/(t^2 - 2)"),
            (5, (F(-7), F(1)), "degree-one", "Q_5")):
        assert str(LocalFieldDescriptor(Prime(p), poly, cert)) == text


def certifies_unramified(poly, p):
    try:
        LocalFieldDescriptor(Prime(p), poly, "unramified-irreducible-mod-p")
    except ValueError as exc:
        assert "reducible modulo p" in str(exc)
        return False
    return True


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_unramified_certificate_is_irreducibility_mod_p(p):
    rng = random.Random(4100 + p)
    t = sympy.Symbol("T")
    outcomes = set()
    for _ in range(60):
        residues = [rng.randrange(p) for _ in range(rng.randint(2, 6))] + [1]
        # a p-integral lift of each residue r: (r d + p k) / d with p not | d
        dens = [d for d in (1, 2, 4, 7) if d % p]
        poly = []
        for r in residues[:-1]:
            d = rng.choice(dens)
            poly.append(F(r * d + p * rng.randint(-2, 2), d))
        poly.append(F(1))
        expected = sympy.Poly(residues[::-1], t, modulus=p).is_irreducible
        assert certifies_unramified(tuple(poly), p) == expected, (poly, p)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_unramified_certificate_reduces_fractions_mod_p():
    # T^2 + 3/2 is T^2 mod 3, and T^2 + T + 1/2 is T^2 + T + 2, irreducible
    assert not certifies_unramified((F(3, 2), F(0), F(1)), 3)
    fld = LocalFieldDescriptor(Prime(3), (F(1, 2), F(1), F(1)),
                               "unramified-irreducible-mod-p")
    assert residue_q(fld) == 9


def squares_in_fq(p, redpoly):
    """The squares of F_q = F_p[T]/(redpoly), by squaring every element."""
    k = len(redpoly) - 1

    def square(a):
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                out[i + j] += x * y
        for top in range(2 * k - 2, k - 1, -1):  # T^k = -(lower terms)
            c = out[top]
            for i, r in enumerate(redpoly):
                out[top - k + i] -= c * r
        return tuple(x % p for x in out[:k])

    return {square(a) for a in itertools.product(range(p), repeat=k)}


@pytest.mark.parametrize("p, redpoly", [
    (3, [1, 0, 1]), (5, [3, 0, 1]), (3, [2, 2, 0, 1]), (7, [1, 0, 1]),
    (5, [1, 1, 0, 1])])
def test_residue_character_is_the_table_of_squares(p, redpoly):
    k = len(redpoly) - 1
    assert sympy.Poly(redpoly[::-1], sympy.Symbol("T"), modulus=p).is_irreducible
    squares = squares_in_fq(p, redpoly)
    assert len(squares) == (p ** k - 1) // 2 + 1  # with zero
    for r in itertools.product(range(p), repeat=k):
        if any(r):
            expected = 1 if r in squares else -1
            assert _residue_char_fq(list(r), redpoly, p) == expected, r


def test_ramification_data():
    eis = eisenstein_q3_sqrt3()
    assert (ramification_e(eis), residue_f(eis), residue_q(eis)) == (2, 1, 3)
    unr = unramified_q3()
    assert (ramification_e(unr), residue_f(unr), residue_q(unr)) == (1, 2, 9)
    assert residue_q(QP(7)) == 7


def test_field_element_arithmetic():
    fld = eisenstein_q3_sqrt3()
    t = field_gen(fld)
    assert (t * t).coeffs == (F(3), F(0))
    assert field_valuation(t) == 1
    assert field_valuation(fld.embed(3)) == 2
    x = fld.element([2, 5])
    assert (x * x.inverse()).coeffs == (F(1), F(0))
    assert field_norm(x) == 4 - 3 * 25
    assert x.trace() == 4


@pytest.mark.parametrize("p, poly, cert, e", [
    (5, (0, 1), "degree-one", 1),
    (3, (-2, 0, 1), "quadratic-nonsquare-disc", 1),  # 2 is no square mod 3
    (2, (1, 1, 1), "quadratic-nonsquare-disc", 1),   # disc -3 = 5 mod 8
    (3, (-6, 3, 1), "quadratic-nonsquare-disc", 2),  # disc 33 = 3 * 11
    (2, (-1, 2, 1), "quadratic-nonsquare-disc", 2),  # disc 8
    (3, (-3, 6, 3, 1), "eisenstein", 3),
    (2, (2, 2, 0, 1), "eisenstein", 3),
    (2, (1, 1, 0, 1), "unramified-irreducible-mod-p", 1),
    (5, (1, 1, F(1, 2), 1), "unramified-irreducible-mod-p", 1),
])
def test_field_trace_reads_the_trace_vector(p, poly, cert, e):
    fld = LocalFieldDescriptor(p, tuple(F(c) for c in poly), cert)
    assert ramification_e(fld) == e
    rng = random.Random(p * 1000 + len(poly))
    for _ in range(20):
        x = fld.element([F(rng.randint(-40, 40), rng.randint(1, 9))
                         for _ in range(fld.degree)])
        assert x.trace() == reference_trace(x)
    for i in range(fld.degree):
        basis = fld.element([int(i == j) for j in range(fld.degree)])
        assert fld.trace_vector[i] == reference_trace(basis)


def test_tame_symbol_examples():
    eis = eisenstein_q3_sqrt3()
    t = field_gen(eis)
    # (t, -1): fixed by the residue symbol of -1 in F_3
    assert hilbert_tame(eis, t, eis.embed(-1)) == -1
    unr = unramified_q3()
    # unit pairs in the unramified quadratic: tame exponents vanish
    s = field_gen(unr)
    assert hilbert_tame(unr, s, unr.embed(-1)) == 1
    assert hilbert_tame(unr, s * s + 1, unr.embed(2)) == 1
    # trivial first argument
    assert hilbert_tame(eis, eis.one, t) == 1


def test_tame_symbol_against_oracle_on_extension():
    eis = eisenstein_q3_sqrt3()
    unr = unramified_q3()
    cases = [
        (eis, field_gen(eis), eis.embed(-1)),
        (eis, field_gen(eis), eis.embed(2)),
        (eis, eis.element([1, 1]), eis.embed(-1)),
        (eis, field_gen(eis), field_gen(eis)),
        (unr, field_gen(unr), unr.embed(3)),
        (unr, unr.embed(3), unr.element([1, 1])),
        (unr, unr.embed(3), unr.embed(3)),
    ]
    for fld, a, b in cases:
        depth = solubility_budget(a, b, fld)
        verdict = solubility_oracle(a, b, fld, depth)
        assert verdict != Solubility.INCONCLUSIVE
        assert (verdict == Solubility.SOLUBLE) == (hilbert_tame(fld, a, b) == 1), \
            (str(fld), str(a), str(b))


def test_tame_symbol_symmetry_and_bimultiplicativity():
    rng = random.Random(4)
    for fld in (eisenstein_q3_sqrt3(), unramified_q3(), QP(5)):
        for _ in range(30):
            def rand_elt():
                while True:
                    coeffs = [rng.randint(-6, 6) for _ in range(fld.degree)]
                    if any(coeffs):
                        x = fld.element(coeffs)
                        if not x.is_zero():
                            return x
            a, b, a2 = rand_elt(), rand_elt(), rand_elt()
            assert hilbert_tame(fld, a, b) == hilbert_tame(fld, b, a)
            assert hilbert_tame(fld, a * a2, b) == \
                hilbert_tame(fld, a, b) * hilbert_tame(fld, a2, b)


def test_tame_rejects_wild_extensions():
    fld = LocalFieldDescriptor(Prime(2), (F(-2), F(0), F(1)), "eisenstein")
    with pytest.raises(ValueError):
        hilbert_tame(fld, field_gen(fld), fld.one)
    with pytest.raises(ValueError):
        is_square_in_field(fld, field_gen(fld))


# ---------------------------------------------------------------------------
# quadratic fields certified by their discriminant


def quadratic_field(p, b, c):
    return LocalFieldDescriptor(Prime(p), (F(c), F(b), F(1)),
                                "quadratic-nonsquare-disc")


def random_quadratic_fields(p, rng, count):
    """Fields t^2 + b t + c, c = (b^2 - disc)/4, whose non-square discriminant
    has valuation cycling through -3..3."""
    fields = []
    for i in range(count):
        v = i % 7 - 3
        unit = F(rng.choice([k for k in range(-40, 41) if k % p]),
                 rng.choice([k for k in (1, 2, 3, 7) if k % p]))
        if v % 2 == 0 and legendre(unit, p) == 1:
            unit *= least_nonresidue(p)
        b = F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
        fields.append(quadratic_field(p, b, (b * b - unit * F(p) ** v) / 4))
    return fields


def random_element(fld, p, rng):
    while True:
        coeffs = [F(rng.randint(-20, 20), rng.randint(1, 5)) * F(p) ** rng.randint(-3, 3)
                  for _ in range(2)]
        if any(coeffs):
            return fld.element(coeffs)


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_quadratic_tame_data_matches_the_closed_forms(p):
    rng = random.Random(9100 + p)
    seen = set()
    for fld in random_quadratic_fields(p, rng, 14):
        disc_v = valuation(fld.defining_poly[1] ** 2 - 4 * fld.defining_poly[0], p)
        for _ in range(9):
            x = random_element(fld, p, rng)
            w, chi = tame_data(fld, x)
            assert (w, chi) == reference_quadratic_tame_data(fld, x), (str(fld), str(x))
            seen.add((disc_v % 2, disc_v < 0, w < 0, chi))
    # both ramification types, discriminants and elements of negative
    # valuation, both characters
    assert {(r, dn) for r, dn, _, _ in seen} >= {(0, True), (0, False), (1, True), (1, False)}
    assert {wn for _, _, wn, _ in seen} == {True, False}
    assert {chi for _, _, _, chi in seen} == {1, -1}


def random_p_unit(p, rng):
    return F(rng.choice([k for k in range(-30, 31) if k % p]),
             rng.choice([k for k in (1, 2, 3, 4, 7, 11) if k % p]))


@pytest.mark.parametrize("d, p", [(2, 3), (2, 5), (2, 7), (3, 5), (3, 7)])
def test_eisenstein_tame_data_reads_the_leading_term(d, p):
    rng = random.Random(9300 + 10 * d + p)
    seen = set()
    for _ in range(8):
        # t^d + a_(d-1) t^(d-1) + ... + a_0: v(a_0) = 1, inner a_i in pZ_p
        inner = [rng.choice((0, p * random_p_unit(p, rng), p * p * random_p_unit(p, rng)))
                 for _ in range(d - 1)]
        fld = LocalFieldDescriptor(Prime(p), (p * random_p_unit(p, rng), *inner, F(1)),
                                   "eisenstein")
        for _ in range(12):
            coeffs = [rng.choice((0, random_p_unit(p, rng) * F(p) ** rng.randint(-3, 3)))
                      for _ in range(d)]
            if not any(coeffs):
                continue
            x = fld.element(coeffs)
            w, chi = tame_data(fld, x)
            assert (w, chi) == reference_eisenstein_tame_data(fld, x), (str(fld), str(x))
            seen.add((w < 0, (w // d) % 2, chi))
    # negative and non-negative valuations, both parities of v(c_j), where
    # the factor (-p/a_0 | p) enters or not, and both characters
    assert {wn for wn, _, _ in seen} == {True, False}
    assert {odd for _, odd, _ in seen} == {0, 1}
    assert {chi for _, _, chi in seen} == {1, -1}


def test_quadratic_tame_symbol_against_oracle():
    fields = [quadratic_field(3, 1, F(-2, 9)),        # disc 17/9: unramified
              quadratic_field(3, 3, F(-9, 2)),        # disc 27: ramified
              quadratic_field(3, F(1, 2), F(1, 2)),   # disc -7/4: unramified
              quadratic_field(5, 2, -14)]             # disc 60: ramified
    rng = random.Random(51)
    seen = set()
    for fld in fields:
        p, u = fld.p, least_nonresidue(fld.p)
        c0, b = fld.defining_poly[:2]
        # s = (t + b/2)/p^k, s^2 of valuation 0 or 1: a uniformizer when ramified
        s = (field_gen(fld) + b / 2) * F(p) ** -(valuation(b * b / 4 - c0, p) // 2)
        pairs = [(s, fld.embed(u)), (fld.embed(p), fld.embed(u)),
                 (s, fld.embed(-1)), (s, s), (s + 1, fld.embed(p))]
        pairs += [(random_element(fld, p, rng), random_element(fld, p, rng))
                  for _ in range(6)]
        for a, b in pairs:
            depth = solubility_budget(a, b, fld)
            if depth > 7:
                continue
            verdict = solubility_oracle(a, b, fld, depth)
            assert verdict != Solubility.INCONCLUSIVE
            assert (verdict == Solubility.SOLUBLE) == (hilbert_tame(fld, a, b) == 1), \
                (str(fld), str(a), str(b))
            seen.add((ramification_e(fld), verdict))
    assert len(seen) == 4


@pytest.mark.parametrize("poly, e", [
    ((-3, 0, 1), 2), ((1, 0, 1), 2), ((-7, 0, 1), 2),   # Q_2(sqrt 3, -1, 7)
    ((-5, 0, 1), 1), ((1, 1, 1), 1),                    # Q_2(sqrt 5), Q_2(sqrt -3)
    ((-2, 0, 1), 2)])                                   # Q_2(sqrt 2)
def test_quadratic_ramification_at_two(poly, e):
    fld = LocalFieldDescriptor(Prime(2), tuple(F(c) for c in poly),
                               "quadratic-nonsquare-disc")
    assert (ramification_e(fld), residue_f(fld), residue_q(fld)) == (e, 2 // e, 4 // e)
    assert field_valuation(fld.embed(2)) == e
    if e == 2 and poly[0] != -2:
        assert field_valuation(field_gen(fld) + 1) == 1   # 1 + t is a uniformizer
    # the class-of-5 rule: Q_2(sqrt d) is unramified exactly when d is 5 mod squares
    disc = F(poly[1]) ** 2 - 4 * F(poly[0])
    assert (e == 1) == (square_class(disc, 2) == square_class(5, 2))


def test_quadratic_ramification_over_every_class_at_two():
    five = square_class(5, 2)
    for d in square_class_table(2):
        if not d.is_trivial():
            fld = quadratic_field(2, 0, -d.representative)
            assert ramification_e(fld) == (1 if d == five else 2), d


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_quadratic_ramification_is_the_model_certificate(p):
    rng = random.Random(9200 + p)
    for fld in random_quadratic_fields(p, rng, 40):
        model, _ = _quadratic_model(fld)
        disc_v = valuation(fld.defining_poly[1] ** 2 - 4 * fld.defining_poly[0], p)
        e = 2 if model.certificate == "eisenstein" else 1
        assert ramification_e(fld) == ramification_e(model) == e == (2 if disc_v % 2 else 1)
        assert field_valuation(fld.embed(p)) == e
