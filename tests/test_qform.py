"""Form invariants, the isotropy criterion, Witt theory, constructors."""

import math
import random
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (count_eliminations, diag_isotropy_bruteforce, form_data,
                     mat_scale, padic_congruence_witness, random_algebra,
                     random_antifixed_invertible, random_fixed_invertible,
                     random_symmetric_rows, reference_diagonalize,
                     reference_form_data, reference_quasisplit_space,
                     reference_witt_class_exists)
from twistedgl.endoscopy import quasisplit_space
from twistedgl.etale import (trace_form_alternating, trace_form_bilinear,
                             trace_form_quadratic)
from twistedgl.linalg import (block_diag, clear_denominators, det, identity, mat,
                              mat_mul, to_mat, transpose)
from twistedgl.localfield import as_prime, hilbert_qp, square_class, square_class_table
from twistedgl.qform import (QuadForm, WittClass, _diagonal, _eliminate_symmetric,
                             _minus_one, alternating_form, diag_form,
                             diagonalize, direct_sum, equivalent, hyperbolic,
                             invariants, is_isotropic, norm_form, quad_form,
                             represents, scale, witt_decompose)
from twistedgl.weil import weil_index


def rand_form(rng, p, dim, span=6):
    while True:
        g = [[rng.randint(-span, span) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(i):
                g[i][j] = g[j][i]
        try:
            return quad_form(g, p)
        except ValueError:
            continue


def test_container_validation():
    with pytest.raises(ValueError):
        quad_form([[0, 1], [2, 0]], 3)  # not symmetric
    with pytest.raises(ValueError):
        quad_form([[1, 1], [1, 1]], 3)  # degenerate
    with pytest.raises(ValueError):
        alternating_form([[0, 1], [1, 0]], 3)
    alternating_form([[0, 1], [-1, 0]], 3)


def test_symmetric_and_alternating_are_the_only_tags():
    with pytest.raises(ValueError, match="degenerate"):
        alternating_form([[0, 0], [0, 0]], 3)
    with pytest.raises(ValueError, match="unknown symmetry tag"):
        QuadForm([[1, 2], [3, 4]], 3, None, "general")


def test_a_label_names_a_form_and_takes_no_part_in_equality():
    for a, b in ((direct_sum(hyperbolic(1, 5), hyperbolic(1, 5)), hyperbolic(2, 5)),
                 (norm_form(3, 5), diag_form([1, -3], 5))):
        assert a.label != b.label and a.gram == b.gram
        assert a == b and hash(a) == hash(b)


def test_diagonalize_identity_and_diagonal():
    q = diag_form([1, 1, 1], 5)
    d, p = diagonalize(q)
    assert d == (1, 1, 1) and p == identity(3)
    q2 = diag_form([2, -3, F(1, 5)], 7)
    d2, _ = diagonalize(q2)
    assert d2 == (2, -3, F(1, 5))


def test_diagonalize_hyperbolic_plane():
    q = hyperbolic(1, 5)
    d, p = diagonalize(q)
    expected = tuple(tuple(d[i] if i == j else F(0) for j in range(2))
                     for i in range(2))
    assert mat_mul(transpose(p), mat_mul(q.gram, p)) == expected
    assert d == (2, F(-1, 2))
    classes = [square_class(x, 5).representative for x in d]
    assert classes == [square_class(2, 5).representative,
                       square_class(-2, 5).representative]


def test_diagonalize_random_congruence_identity():
    rng = random.Random(0)
    for p in (2, 3, 5):
        for _ in range(30):
            q = rand_form(rng, p, rng.randint(1, 5))
            d, pm = diagonalize(q)
            target = tuple(tuple(d[i] if i == j else F(0) for j in range(q.dim))
                           for i in range(q.dim))
            assert mat_mul(transpose(pm), mat_mul(q.gram, pm)) == target


def test_invariants_examples():
    inv = invariants(diag_form([1, 1], 5))
    assert inv.hasse == 1 and inv.det.representative == 1
    inv2 = invariants(diag_form([-1, -1], 2))
    assert inv2.hasse == -1
    hy = invariants(hyperbolic(1, 3))
    assert hy.det.representative == square_class(-1, 3).representative
    assert hy.dpm.representative == 1
    assert hy.hasse == 1


def test_invariants_congruence_invariance():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(8):
            q = rand_form(rng, p, rng.randint(2, 4))
            base = invariants(q)
            for _ in range(50):
                n = q.dim
                while True:
                    pm = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                    if det(pm) != 0:
                        break
                q2 = quad_form(mat_mul(transpose(pm), mat_mul(q.gram, pm)), p)
                assert invariants(q2) == base


def test_isotropy_examples():
    assert is_isotropic(hyperbolic(1, 3))
    assert not is_isotropic(diag_form([1, -3], 3))
    assert is_isotropic(diag_form([1, 1, 1, 1, 1], 2))  # any dim-5 form


def test_isotropy_against_bruteforce_class_table():
    for p in (2, 3, 5, 7):
        reps = [c.representative for c in square_class_table(p)]
        for dim in (1, 2, 3, 4):
            for entries in combinations_with_replacement(reps, dim):
                got = is_isotropic(diag_form(entries, p))
                want = diag_isotropy_bruteforce(entries, p)
                assert got == want, (p, entries)


def test_witt_decompose_hyperbolic():
    for k in (0, 1, 3):
        witt, kernel = witt_decompose(hyperbolic(k, 5))
        assert witt == k and kernel.aniso_dim == 0


def test_witt_decompose_dim4_example():
    witt, kernel = witt_decompose(diag_form([1, 1, 1, 1], 3))
    assert witt >= 1
    q = diag_form([1, 1, 1, 1], 3)
    assert invariants(q).det.representative == 1
    assert invariants(q).hasse == hilbert_qp(-1, -1, 3) == 1


def test_witt_decompose_binary_anisotropic():
    u = square_class(2, 5)
    witt, kernel = witt_decompose(diag_form([1, -u.representative], 5))
    assert witt == 0 and kernel.aniso_dim == 2


def test_witt_reconstruction():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(25):
            q = rand_form(rng, p, rng.randint(1, 5))
            witt, kernel = witt_decompose(q)
            assert q.dim == kernel.aniso_dim + 2 * witt
            if kernel.aniso_dim:
                recon = [1] * 0
                # rebuild some anisotropic form with the kernel's invariants
                rebuilt = _realize(kernel)
                full = direct_sum(rebuilt, hyperbolic(witt, p)) if witt else rebuilt
                assert equivalent(full, q)
            else:
                assert equivalent(hyperbolic(witt, p), q)


def _realize(kernel):
    """Some diagonal form realizing anisotropic invariants (search)."""
    p = kernel.p
    reps = [c.representative for c in square_class_table(p)]
    for entries in combinations_with_replacement(reps, kernel.aniso_dim):
        q = diag_form(entries, p)
        inv = invariants(q)
        if inv.det == kernel.det and inv.hasse == kernel.hasse \
                and inv.aniso_dim == kernel.aniso_dim:
            return q
    raise AssertionError("kernel invariants not realizable")


def test_equivalence_examples():
    q = diag_form([1, 1], 5)
    assert equivalent(q, q)
    assert equivalent(diag_form([1, 1], 5), diag_form([2, 2], 5))
    assert not equivalent(hyperbolic(1, 3), diag_form([1, 1], 3))


def test_equivalence_cross_checked_by_congruence_search():
    fixtures = {
        5: [diag_form([1, 1], 5), diag_form([2, 2], 5), diag_form([1, -1], 5),
            diag_form([1, 2, 5], 5), diag_form([2, 1, 5], 5),
            diag_form([1, 1, 1], 5), diag_form([1, 5, 5], 5), hyperbolic(1, 5)],
        3: [diag_form([1, 1], 3), diag_form([1, -1], 3), diag_form([1, 3], 3),
            diag_form([2, 6], 3), diag_form([1, 2, 3], 3), diag_form([1, 1, 1], 3),
            hyperbolic(1, 3)],
        2: [diag_form([1, 1], 2), diag_form([1, -1], 2), diag_form([1, 7], 2),
            diag_form([3, 3], 2), hyperbolic(1, 2)],
    }
    for p, forms in fixtures.items():
        for q1 in forms:
            for q2 in forms:
                if q1.dim != q2.dim:
                    continue
                eq = equivalent(q1, q2)
                witness = padic_congruence_witness(q1, q2)
                assert (witness is not None) == eq, (p, q1.gram, q2.gram)


def test_witt_equivalent_examples():
    rng = random.Random(4)
    q = rand_form(rng, 3, 3)
    # Witt equivalent: the same anisotropic kernel
    assert witt_decompose(direct_sum(q, hyperbolic(1, 3)))[1] == witt_decompose(q)[1]
    assert witt_decompose(diag_form([1], 5))[1] != witt_decompose(diag_form([5], 5))[1]
    # (n-1)Hy + cN_K against cN_K
    nk = scale(2, norm_form(square_class(3, 3), 3))
    assert witt_decompose(direct_sum(hyperbolic(2, 3), nk))[1] == witt_decompose(nk)[1]


def test_hasse_product_rule():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(80):
            q1 = rand_form(rng, p, rng.randint(1, 3))
            q2 = rand_form(rng, p, rng.randint(1, 3))
            i1, i2 = invariants(q1), invariants(q2)
            joint = invariants(direct_sum(q1, q2))
            assert joint.hasse == i1.hasse * i2.hasse * hilbert_qp(
                i1.det.representative, i2.det.representative, p)


def test_constructors():
    q = diag_form([1, -2], 7)
    assert scale(1, q).gram == q.gram
    assert norm_form(square_class(1, 3), 3).gram == hyperbolic(1, 3).gram
    assert norm_form(square_class(4, 3), 3).gram == hyperbolic(1, 3).gram
    assert direct_sum(q, q).dim == 4
    with pytest.raises(ValueError):
        scale(0, q)
    nf = norm_form(square_class(3, 3), 3)
    assert nf.gram == diag_form([1, -3], 3).gram


def test_represents():
    assert represents(diag_form([1], 5), 4)
    rng = random.Random(6)
    for p in (2, 3, 5):
        hy = hyperbolic(1, p)
        for _ in range(10):
            a = F(rng.randint(1, 30)) * rng.choice((1, -1))
            assert represents(hy, a)
    assert not represents(diag_form([1, -3], 3), 3)


def test_cross_prime_is_type_error():
    with pytest.raises(TypeError):
        equivalent(diag_form([1], 3), diag_form([1], 5))


def test_dimension_mismatch_is_false():
    assert not equivalent(diag_form([1], 3), diag_form([1, 1], 3))


# ---------------------------------------------------------------------------
# properties of the fraction-free kernel (hypothesis, derandomized)

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)
PRIMES = st.sampled_from((2, 3, 5, 7))
SMALL_RATIONALS = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 9)))


@st.composite
def nondegenerate_grams(draw, max_dim=8):
    """Symmetric rational Grams; a third have an all-zero diagonal, which
    forces the symmetrize step, and many have some zero diagonal entries,
    which force swaps."""
    n = draw(st.integers(1, max_dim))
    zero_diagonal = draw(st.integers(0, 2)) == 0
    entries = st.one_of(st.just(F(0)), SMALL_RATIONALS)
    g = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                continue
            g[i][j] = g[j][i] = draw(entries)
    assume(det(mat(g)) != 0)
    return tuple(tuple(row) for row in g)


@PROPERTY
@given(nondegenerate_grams(), PRIMES)
@example(((0, 1, 0), (1, 1, 0), (0, 0, 2)), 3)      # swap at step 0
@example(((0, 1), (1, 0)), 5)                       # symmetrize at step 0
@example(((1, 1, 0), (1, 1, 2), (0, 2, 0)), 2)      # symmetrize at step 1
@example(((0, 2, 1, 0), (2, 0, 0, 1), (1, 0, 0, 3), (0, 1, 3, 0)), 7)
def test_diagonalize_is_the_reference_congruence(gram, p):
    q = quad_form(gram, p)
    d, pm = diagonalize(q)
    assert (d, pm) == reference_diagonalize(q.gram)
    target = tuple(tuple(d[i] if i == j else F(0) for j in range(q.dim))
                   for i in range(q.dim))
    assert mat_mul(transpose(pm), mat_mul(q.gram, pm)) == target
    # the checked constructor holds the classes of this diagonal, in order
    assert q.classes == tuple(square_class(a, p).bits for a in d)


def test_the_upper_triangle_kernel_is_the_reference_congruence():
    # seeded Grams rows / d, most with a zero diagonal entry, so that the
    # kernel mirrors its trailing block before both pivot moves
    rng = random.Random(27)
    moves = {"swap": 0, "symmetrize": 0}
    degenerate = 0
    for _ in range(400):
        dim, d = rng.randint(1, 8), rng.choice((1, 2, 3, 6, 12, 35))
        rows = random_symmetric_rows(rng, dim)
        gram = to_mat(rows, d)
        if rows[0][0] == 0:
            moves["swap" if any(rows[i][i] for i in range(dim)) else "symmetrize"] += 1
        try:
            ref = reference_diagonalize(gram)
        except ValueError as exc:
            degenerate += 1
            assert det(gram) == 0
            for refused in (lambda: _eliminate_symmetric(rows, transform=True),
                            lambda: quad_form(gram, 5)):
                with pytest.raises(ValueError, match=str(exc)):
                    refused()
            continue
        pivots, pm = _eliminate_symmetric(rows, transform=True)
        assert (_diagonal(pivots, d), pm) == ref
        assert diagonalize(quad_form(gram, 5)) == ref
        target = tuple(tuple(ref[0][i] if i == j else F(0) for j in range(dim))
                       for i in range(dim))
        assert mat_mul(transpose(pm), mat_mul(gram, pm)) == target
    assert min(moves.values()) >= 40 and degenerate >= 20, (moves, degenerate)


@st.composite
def diagonals(draw):
    p = draw(PRIMES)
    n = draw(st.integers(1, 12))
    entries = []
    for _ in range(n):
        unit = draw(st.integers(1, 40)) * draw(st.sampled_from((1, -1)))
        entries.append(F(unit, draw(st.integers(1, 7))) * F(p) ** draw(st.integers(-3, 3)))
    return p, entries


@PROPERTY
@given(diagonals())
def test_hasse_running_product_equals_pairwise(case):
    p, entries = case
    pairwise = 1
    for a, b in combinations(entries, 2):
        pairwise *= hilbert_qp(a, b, p)
    assert invariants(diag_form(entries, p)).hasse == pairwise


@st.composite
def unimodular_congruences(draw):
    """(Gram, p, U) with U = L R times a signed permutation, det U = +-1."""
    gram = draw(nondegenerate_grams(max_dim=6))
    n = len(gram)
    coeff = st.integers(-3, 3)
    low = [[draw(coeff) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    up = [[draw(coeff) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    signs = [draw(st.sampled_from((1, -1))) for _ in range(n)]
    shuffle = [[signs[j] * int(perm[j] == i) for j in range(n)] for i in range(n)]
    u = mat_mul(mat_mul(mat(low), mat(up)), mat(shuffle))
    return gram, draw(PRIMES), u


@PROPERTY
@given(unimodular_congruences())
def test_invariants_under_unimodular_congruence(case):
    gram, p, u = case
    assert det(u) in (1, -1)
    q = quad_form(gram, p)
    q2 = quad_form(mat_mul(transpose(u), mat_mul(q.gram, u)), p)
    assert invariants(q2) == invariants(q)
    assert weil_index(q2) == weil_index(q)
    assert invariants(q) is invariants(q)  # kept on the form object


@st.composite
def symmetric_grams(draw, max_dim=6):
    """Symmetric rational Grams, rank-deficient ones included: a nondegenerate
    or degenerate Gram as in nondegenerate_grams, or one with an index
    repeated (row and column j copied, times c, into a new last index), which
    is congruent to G + <0>, or a product M^T diag(a) M with M of k < n rows."""
    n = draw(st.integers(1, max_dim))
    shape = draw(st.sampled_from(("entries", "entries", "repeated", "low rank")))
    if shape == "low rank":
        k = draw(st.integers(0, n - 1))
        m = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
        a = [draw(SMALL_RATIONALS) for _ in range(k)]
        return tuple(tuple(sum((a[r] * m[r][i] * m[r][j] for r in range(k)), F(0))
                           for j in range(n)) for i in range(n))
    zero_diagonal = draw(st.integers(0, 2)) == 0
    entries = st.one_of(st.just(F(0)), SMALL_RATIONALS)
    g = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                g[i][j] = g[j][i] = draw(entries)
    if shape == "repeated":
        j, c = draw(st.integers(0, n - 1)), draw(SMALL_RATIONALS)
        for row in g:
            row.append(c * row[j])
        g.append([c * x for x in g[j]])  # ends in c * (c g_jj)
    return tuple(tuple(row) for row in g)


@PROPERTY
@given(symmetric_grams(), PRIMES)
@example(((0, 1, 1), (1, 0, 0), (1, 0, 0)), 3)      # symmetrize, then all zero
@example(((1, 1, 0), (1, 1, 0), (0, 0, 0)), 2)
def test_quad_form_raises_exactly_on_a_zero_determinant(gram, p):
    singular = sympy.Matrix([[sympy.Rational(F(x).numerator, F(x).denominator)
                              for x in row] for row in gram]).det() == 0
    try:
        quad_form(gram, p)
    except ValueError as exc:
        assert singular and str(exc) == "degenerate Gram matrix"
    else:
        assert not singular


def test_a_symmetric_form_is_eliminated_once(monkeypatch):
    grams, dets = count_eliminations(monkeypatch)
    rng = random.Random(9)
    for p in (2, 3, 5, 7):
        for dim in (1, 2, 4, 7):
            gram = rand_form(rng, p, dim).gram
            del grams[:]
            q = quad_form(gram, p)
            assert grams == [q.rows]  # the constructor's check
            invariants(q)
            weil_index(q)
            witt_decompose(q)
            is_isotropic(q)
            equivalent(q, q)
            assert grams == [q.rows]
    assert dets == []


def test_forms_built_from_blocks_are_never_eliminated(monkeypatch):
    grams, dets = count_eliminations(monkeypatch)
    q = diag_form([1, 3, -2], 3)
    s = direct_sum(q, hyperbolic(1, 3))
    for f in (q, scale(F(2, 3), q), hyperbolic(2, 3), s, direct_sum(s, s)):
        invariants(f)
        weil_index(f)
        witt_decompose(f)
    assert grams == [] and dets == []
    # a diagonal form holds the classes of its entries, and a sum its
    # summands' classes side by side
    assert q.classes == tuple(square_class(a, 3).bits for a in (1, 3, -2))
    assert s.classes == q.classes + (0, square_class(-1, 3).bits)


def test_scale_carries_the_diagonal_of_a_fresh_elimination():
    rng = random.Random(23)
    for p in (2, 3, 5, 7):
        for dim in (1, 2, 3, 5, 8):
            # integer and fractional Grams, and one with a zero diagonal, which
            # the elimination symmetrizes before its first pivot
            fresh = rand_form(rng, p, dim)
            for q in (fresh, quad_form(scale(F(rng.randint(1, 9), 12), fresh).gram, p),
                      direct_sum(hyperbolic(1, p), fresh)):
                for c in (-1, 2, F(-3, 4), F(rng.randint(-20, -1), rng.randint(2, 9)),
                          F(rng.randint(1, 20), rng.randint(2, 9))):
                    cq = scale(c, q)
                    assert form_data(cq) == reference_form_data(cq.gram, p)
                    assert invariants(cq) == invariants(quad_form(cq.gram, p))
                    assert weil_index(cq) == weil_index(quad_form(cq.gram, p))
    # a scaling of a diagonal form holds the classes of the scaled entries
    cq = scale(3, diag_form([1, 2], 5))
    assert cq.classes == (square_class(3, 5).bits, square_class(6, 5).bits)


def _random_composition(rng, p, depth):
    """A form built by diag_form, hyperbolic, scale and direct_sum alone."""
    kind = rng.choice(("diag", "hyperbolic") if depth == 0 else
                      ("diag", "hyperbolic", "scale", "sum", "sum"))
    if kind == "diag":
        return diag_form([F(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 4))
                          for _ in range(rng.randint(1, 3))], p)
    if kind == "hyperbolic":
        return hyperbolic(rng.randint(1, 2), p)
    if kind == "scale":
        c = F(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 9))
        return scale(c, _random_composition(rng, p, depth - 1))
    return direct_sum(_random_composition(rng, p, depth - 1),
                      _random_composition(rng, p, depth - 1))


def test_every_composition_holds_the_diagonal_of_a_fresh_elimination():
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        for _ in range(250):
            f = _random_composition(rng, p, rng.randint(0, 3))
            assert form_data(f) == reference_form_data(f.gram, p)
            fresh = quad_form(f.gram, p)
            assert (invariants(f), weil_index(f)) == (invariants(fresh), weil_index(fresh))


def test_witt_class_existence_is_the_reference_table():
    for p in (2, 3, 5, 7):
        realized = 0
        for detc in square_class_table(p):
            for d in range(-1, 7):
                for hasse in (1, -1):
                    expected = reference_witt_class_exists(d, detc, hasse, p)
                    try:
                        WittClass(d, detc, hasse, p)
                    except ValueError:
                        assert not expected, (p, d, detc, hasse)
                    else:
                        assert expected, (p, d, detc, hasse)
                        realized += 1
        # one anisotropic kernel per Witt class: |W(Q_p)| = 16, or 32 at p = 2
        assert realized == (32 if p == 2 else 16)


def test_invariants_keep_the_anisotropic_kernel():
    rng = random.Random(4)
    for p in (2, 3, 5):
        for dim in range(1, 9):
            q = rand_form(rng, p, dim)
            inv = invariants(q)
            witt, kernel = witt_decompose(q)
            assert kernel is inv.kernel and witt == inv.witt_index
            assert is_isotropic(q) == (witt > 0)
            assert kernel.aniso_dim == inv.aniso_dim == dim - 2 * witt


def test_diag_form_shares_one_zero():
    entries = [F(1), F(-2, 3), F(5), F(7, 2), F(-11)]
    q = diag_form(entries, 3)
    n = len(entries)
    assert q.gram == tuple(tuple(entries[i] if i == j else F(0) for j in range(n))
                           for i in range(n))
    zeros = {id(x) for i, row in enumerate(q.gram) for j, x in enumerate(row) if i != j}
    assert len(zeros) == 1


def test_the_class_of_minus_one_is_taken_once_per_prime():
    for p in (2, 3, 5, 7, 11, 13, 17, 10007):
        prime = as_prime(p)
        assert _minus_one(prime) == square_class(-1, p).bits
        hits = _minus_one.cache_info().hits
        assert _minus_one(as_prime(p)) == _minus_one(prime)
        assert _minus_one.cache_info().hits == hits + 2


def _rand_rational_gram(rng, dim, alternating):
    """A random symmetric or alternating Gram with rational entries."""
    g = [[F(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i if alternating else i + 1):
            x = F(rng.randint(-9, 9), rng.randint(1, 6))
            g[i][j], g[j][i] = (-x, x) if alternating else (x, x)
    return g


def _every_constructor(rng, p):
    """(form, Gram) pairs, a form from each constructor on seeded inputs over
    Q_p and its Gram computed on Fractions."""
    plane = mat([[0, 1], [1, 0]])
    pairs = [(hyperbolic(k, p), block_diag(*[plane] * k)) for k in range(4)]
    for dim in (1, 2, 3, 5):
        for alternating in (False, True):
            if alternating and dim % 2:
                continue
            make = alternating_form if alternating else quad_form
            while True:
                g = _rand_rational_gram(rng, dim, alternating)
                try:
                    pairs.append((make(g, p), mat(g)))
                    break
                except ValueError:  # degenerate
                    continue
        entries = [F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 12))
                   for _ in range(dim)]
        pairs.append((diag_form(entries, p),
                      block_diag(*[mat([[a]]) for a in entries])))
    for q, g in pairs[:]:
        c = F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 12))
        pairs += [(scale(c, q), mat_scale(c, g)), (scale(1 / c, scale(c, q)), g)]
    for _ in range(12):
        (q1, g1), (q2, g2) = rng.sample(pairs, 2)
        if q1.symmetry == q2.symmetry:
            pairs.append((direct_sum(q1, q2), block_diag(g1, g2)))
    classes = square_class_table(p)
    for _ in range(6):
        args = (2 * rng.randint(1, 5), rng.choice(classes), rng.choice(classes), p)
        pairs.append((quasisplit_space(*args), reference_quasisplit_space(*args).gram))
    algebra = random_algebra(p, rng)
    for c, make in ((random_fixed_invertible(algebra, rng), trace_form_quadratic),
                    (random_antifixed_invertible(algebra, rng), trace_form_alternating)):
        pairs.append((make(algebra, c), trace_form_bilinear(algebra, c)))
    return pairs


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a_form_is_its_integer_rows_over_the_least_denominator(p):
    rng = random.Random(100 + p)
    pairs = _every_constructor(rng, p)
    for q, g in pairs:
        assert q.gram == g
        rows, den = clear_denominators(g)
        assert (q.rows, q.den) == (tuple(map(tuple, rows)), den)
        assert all(type(x) is int for row in q.rows for x in row)
        # no prime of den divides every entry: den is the least
        assert den > 0 and math.gcd(den, *(x for row in q.rows for x in row)) == 1
        # the checked form of its Gram is the same form
        checked = QuadForm(g, p, None, q.symmetry)
        assert checked == q and hash(checked) == hash(q)
    # == and hash agree with equality of the Gram, the prime and the tag
    for (a, _), (b, _) in combinations(pairs, 2):
        same = (a.gram, a.p, a.symmetry) == (b.gram, b.p, b.symmetry)
        assert (a == b) == same
        assert not same or hash(a) == hash(b)
    assert scale(2, diag_form([F(1, 2), F(3, 2)], p)) == diag_form([1, 3], p)
    assert hash(scale(2, diag_form([F(1, 2), F(3, 2)], p))) == hash(diag_form([1, 3], p))
    assert diag_form([1, 3], p) != diag_form([1, 3], 11)
    assert hyperbolic(1, p) != alternating_form([[0, 1], [-1, 0]], p)
