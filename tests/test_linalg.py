"""Differential tests of the exact kernels against sympy.Matrix.

Seeded random integer and rational matrices of size 1-12, with zero leading
entries that force row swaps, and singular inputs, both as Mats and as the
integer rows over a common denominator that the int_ kernels take (where
int_charpoly_mod must answer None when l divides the denominator).  The
kernels over F_l are checked against the rational characteristic polynomial
reduced mod l, against sympy's squarefree test over GF(l), and (int_solve_mod,
which must answer None when l divides det A) against sympy's inv_mod, and
the F_l polynomial remainder, gcd and power modulo f against sympy's
polynomials over GF(l).  The squarefree test over Q is
checked against sympy on products of rational linear and irreducible
quadratic factors with multiplicities, and on characteristic polynomials of
matrices with repeated eigenvalues.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
import sympy
from sympy.polys.galoistools import gf_pow_mod, gf_rem

from twistedgl import linalg
from twistedgl.linalg import (charpoly, clear_denominators, det, identity,
                              int_charpoly_mod, int_det, int_inverse, int_mul,
                              int_solve_mod, inverse, is_isometry, lowest_terms,
                              mat, mat_mul, poly_squarefree, poly_squarefree_mod,
                              transpose)
from twistedgl.gsnorm import ELL

SIZES = range(1, 13)
# a 61-bit prime, so that the kernels over F_l are also checked where a
# residue product spans several CPython digits; ELL is the certificate prime
MERSENNE = (1 << 61) - 1
PRIMES = (MERSENNE, 7, 13, ELL)


def to_sympy(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in a])


def to_fraction(x):
    x = sympy.Rational(x)
    return F(int(x.p), int(x.q))


def random_matrix(rng, n, rational):
    def entry():
        if rng.random() < 0.25:
            return 0
        num = rng.randint(-12, 12)
        return F(num, rng.choice((1, 2, 3, 4, 6, 9))) if rational else num
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    # zero leading entries: the first pivot, and for larger sizes a whole
    # leading column block above the diagonal, need row swaps
    rows[0][0] = 0
    if n > 2 and rng.random() < 0.5:
        rows[1][1] = 0
        rows[0][1] = 0
    return mat(rows)


def singular_matrix(rng, n, rational):
    """A random matrix whose last row is a combination of the others."""
    rows = [list(r) for r in random_matrix(rng, n, rational)]
    if n == 1:
        return mat([[0]])
    coeffs = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n - 1)]
    rows[-1] = [sum(c * rows[i][j] for i, c in enumerate(coeffs)) for j in range(n)]
    return mat(rows)


def cases(seed, make):
    rng = random.Random(seed)
    return [(n, rational, make(rng, n, rational))
            for n in SIZES for rational in (False, True) for _ in range(2)]


@pytest.mark.parametrize("n, rational, a", cases(20260, random_matrix))
def test_det_and_inverse_match_sympy(n, rational, a):
    s = to_sympy(a)
    d = det(a)
    assert d == to_fraction(s.det())
    if d == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            inverse(a)
        return
    sinv = s.inv()
    inv = inverse(a)
    assert inv == tuple(tuple(to_fraction(sinv[i, j]) for j in range(n))
                        for i in range(n))


@pytest.mark.parametrize("n, rational, a", cases(20261, singular_matrix))
def test_singular_inputs(n, rational, a):
    assert to_sympy(a).det() == 0
    assert det(a) == 0
    with pytest.raises(ValueError, match="singular matrix"):
        inverse(a)


@pytest.mark.parametrize("n, rational, a", cases(20262, random_matrix))
def test_charpoly_matches_sympy(n, rational, a):
    coeffs = to_sympy(a).charpoly(sympy.Symbol("T")).all_coeffs()
    assert charpoly(a) == tuple(to_fraction(c) for c in reversed(coeffs))


def reduce_mod(poly, ell):
    return [c.numerator * pow(c.denominator, -1, ell) % ell for c in poly]


# small primes make zero pivots, and so the Hessenberg row swaps, common
@pytest.mark.parametrize("ell", PRIMES)
@pytest.mark.parametrize("n, rational, a", cases(20263, random_matrix))
def test_charpoly_mod_is_charpoly_reduced(n, rational, a, ell):
    assert int_charpoly_mod(*clear_denominators(a), ell) == reduce_mod(charpoly(a), ell)


def random_int_rows(rng, n, m=None):
    """Integer rows with zero leading entries; a quarter of the entries 0."""
    m = n if m is None else m
    rows = [[0 if rng.random() < 0.25 else rng.randint(-12, 12) for _ in range(m)]
            for _ in range(n)]
    rows[0][0] = 0
    if n > 2 and m > 2 and rng.random() < 0.5:
        rows[1][1] = rows[0][1] = 0
    return rows


def int_cases(seed):
    """(n, rows, den): square integer rows of size 1-12, a third of them
    singular (the last row a combination of the others), and a denominator
    that some of the primes 7, 13 and MERSENNE divide."""
    rng = random.Random(seed)
    out = []
    for n in SIZES:
        for k in range(3):
            rows = random_int_rows(rng, n)
            if k == 2:
                coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
                rows[-1] = [sum(c * rows[i][j] for i, c in enumerate(coeffs))
                            for j in range(n)]
            out.append((n, rows, rng.choice((1, 2, 6, 35, 26, 3 * MERSENNE))))
    return out


def scaled_to_sympy(rows, den):
    return sympy.Matrix(rows) / den


def test_int_mul_matches_sympy():
    rng = random.Random(20267)
    for n in SIZES:
        k, m = rng.randint(1, 12), rng.randint(1, 12)
        a, b = random_int_rows(rng, n, k), random_int_rows(rng, k, m)
        expected = sympy.Matrix(a) * sympy.Matrix(b)
        assert int_mul(a, b) == expected.tolist()
        fa, fb = mat(a), mat([[F(x, 3) for x in row] for row in b])
        assert mat_mul(fa, fb) == tuple(tuple(F(int(x), 3) for x in row)
                                        for row in expected.tolist())


@pytest.mark.parametrize("n, rational, a", cases(20271, random_matrix))
def test_lowest_terms_is_the_least_denominator(n, rational, a):
    rows, den = clear_denominators(a)
    for k in (1, 6, 35):
        scaled = [[k * x for x in row] for row in rows]
        assert lowest_terms(scaled, k * den) == (rows, den)
    zero = [[0] * n for _ in range(n)]
    assert lowest_terms(zero, 12) == (zero, 1)


def isometry_group_element(rng, gram, alternating):
    """A product of three reflections x -> x - 2 B(x, v) / B(v, v) v of the
    symmetric gram, or of three transvections x -> x + c B(v, x) v of the
    alternating one, for random rational v (and c): an isometry of gram."""
    n = len(gram)
    g = identity(n)
    for _ in range(3):
        while True:
            v = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
            vs = [sum(v[i] * gram[i][j] for i in range(n)) for j in range(n)]
            q = sum(a * b for a, b in zip(vs, v))
            if alternating or q != 0:
                break
        c = F(rng.randint(1, 4), rng.choice((1, 3))) if alternating else -2 / q
        g = mat_mul(g, mat([[int(i == j) + c * v[i] * vs[j] for j in range(n)]
                            for i in range(n)]))
    return g


@pytest.mark.parametrize("alternating", (False, True))
def test_is_isometry_is_the_fraction_identity(alternating):
    # R^T S R == d^2 S on integer rows against g^T G g == G by Fractions,
    # for g = R / d over its least denominator and over a multiple of it,
    # and G = S / s over any denominator: isometries built from reflections
    # or transvections pass, and the same with one entry moved fail
    rng = random.Random(20272 + alternating)
    for n in (2, 3, 4, 6) if alternating else (1, 2, 3, 5):
        if alternating and n % 2:
            continue
        for _ in range(4):
            while True:
                g = [[F(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + alternating, n):
                        v = F(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                        g[i][j], g[j][i] = v, -v if alternating else v
                if det(mat(g)) != 0:
                    break
            gram = mat(g)
            s_rows, _ = clear_denominators(gram)
            iso = isometry_group_element(rng, gram, alternating)
            moved = [list(row) for row in iso]
            moved[rng.randrange(n)][rng.randrange(n)] += F(1, 2)
            for m, expected in ((iso, True), (mat(moved), False)):
                assert (mat_mul(transpose(m), mat_mul(gram, m)) == gram) is expected
                r, d = clear_denominators(m)
                assert is_isometry((r, d), s_rows) is expected
                assert is_isometry(([[3 * x for x in row] for row in r], 3 * d),
                                   s_rows) is expected


@pytest.mark.parametrize("n, rows, den", int_cases(20268))
def test_int_det_and_inverse_match_sympy(n, rows, den):
    s = sympy.Matrix(rows)
    before = [list(row) for row in rows]
    d = int_det(rows)
    assert d == s.det()
    if d == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            int_inverse(rows)
    else:
        r, pi = int_inverse(rows)
        assert pi == abs(d) and pi > 0
        assert sympy.Matrix(r) / pi == s.inv()
    assert rows == before  # the kernels leave their argument alone


@pytest.mark.parametrize("ell", PRIMES)
@pytest.mark.parametrize("n, rows, den", int_cases(20269))
def test_int_charpoly_mod_matches_sympy(n, rows, den, ell):
    f = int_charpoly_mod(rows, den, ell)
    if den % ell == 0:
        assert f is None
        return
    coeffs = scaled_to_sympy(rows, den).charpoly(sympy.Symbol("T")).all_coeffs()
    assert f == [int(c.p) * pow(int(c.q), -1, ell) % ell for c in reversed(coeffs)]
    least = clear_denominators(mat([[F(x, den) for x in row] for row in rows]))
    assert f == int_charpoly_mod(*least, ell)


@pytest.mark.parametrize("n, rows, den", int_cases(20270))
def test_int_charpoly_is_the_least_integral_multiple_of_the_charpoly(n, rows, den):
    coeffs = scaled_to_sympy(rows, den).charpoly(sympy.Symbol("T")).all_coeffs()
    f = [to_fraction(c) for c in reversed(coeffs)]
    least = math.lcm(*(c.denominator for c in f))
    before = [list(row) for row in rows]
    assert linalg.int_charpoly(rows, den) == [c * least for c in f]
    assert rows == before


def valid_cuts(rows):
    """Every k with rows[i][j] == rows[j][i] == 0 for all i < k <= j, and 0
    and n: by definition the finest split into contiguous diagonal blocks."""
    n = len(rows)
    inner = [k for k in range(1, n)
             if all(rows[i][j] == rows[j][i] == 0 for i in range(k) for j in range(k, n))]
    return [0] + inner + [n]


def random_block(rng, size, singular=False):
    """Integer rows of a size x size block with entries in [-5, 5], of
    nonzero determinant unless singular (then the last row is a multiple
    of the first, or 0 in a 1 x 1 block)."""
    while True:
        b = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        if singular:
            k = rng.randint(-2, 2) if size > 1 else 0
            b[-1] = [k * v for v in b[0]]
            return b
        if int_det(b):
            return b


def random_blocks(rng):
    """Blocks of size 1-3 that add up to at least a seeded size of 7-14."""
    blocks, target = [], rng.randint(7, 14)
    while sum(map(len, blocks)) < target:
        blocks.append(random_block(rng, rng.randint(1, 3)))
    return blocks


def block_diagonal(blocks):
    n = sum(map(len, blocks))
    rows, off = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[off + i][off:off + len(row)] = row
        off += len(b)
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_int_inverse_inverts_a_block_diagonal_matrix_block_by_block(seed, monkeypatch):
    # blocks of size 1-3, determinants of both signs: the split inverse is
    # the unsplit Gauss-Jordan's (R, pi), since pi = |det B| makes R unique;
    # only the 3 x 3 blocks are eliminated, the smaller ones by adjugate
    rng = random.Random(20280 + seed)
    signs, eliminated, gauss_jordan = set(), [], linalg._gauss_jordan

    def counted(rows):
        eliminated.append(len(rows))
        return gauss_jordan(rows)

    for _ in range(25):
        blocks = random_blocks(rng)
        rows = block_diagonal(blocks)
        n = len(rows)
        bounds = list(itertools.accumulate(map(len, blocks), initial=0))
        cuts = linalg._block_cuts(rows)
        assert cuts == valid_cuts(rows) and set(bounds) <= set(cuts)
        monkeypatch.setattr(linalg, "_gauss_jordan", counted)
        del eliminated[:]
        r, pi = int_inverse(rows)
        monkeypatch.setattr(linalg, "_gauss_jordan", gauss_jordan)
        assert eliminated == [e - s for s, e in zip(cuts, cuts[1:]) if e - s > 2]
        assert (r, pi) == gauss_jordan(rows)
        d = int_det(rows)
        signs.add(d > 0)
        assert pi == abs(d) == math.prod(abs(int_det(b)) for b in blocks)
        den = rng.choice((1, 2, 6))
        assert inverse(mat([[F(v, den) for v in row] for row in rows])) == \
            tuple(tuple(F(den * v, pi) for v in row) for row in r)
        assert sympy.Matrix(r) / pi == sympy.Matrix(rows).inv()
        # a block-diagonal matrix only after a permutation: when index 0 is
        # tied to index 1, 1 and the last index trade places, so index 0 is
        # tied to n - 1 and no contiguous split exists
        if rows[0][1] or rows[1][0]:
            perm = list(range(n))
            perm[1], perm[-1] = perm[-1], perm[1]
            mixed = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            assert linalg._block_cuts(mixed) == valid_cuts(mixed) == [0, n]
            rm, pim = int_inverse(mixed)
            assert (rm, pim) == linalg._gauss_jordan(mixed) and pim == pi
            assert rm == [[r[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    assert signs == {True, False}


def test_int_inverse_of_a_dense_matrix_is_not_split():
    rng = random.Random(20290)
    for n in SIZES:
        rows = random_block(rng, n)
        rows[0][-1] = rows[-1][0] = rng.choice((-3, 3))  # index 0 reaches n - 1
        assert linalg._block_cuts(rows) == valid_cuts(rows) == [0, n]
        assert int_inverse(rows) == linalg._gauss_jordan(rows)


def test_small_blocks_are_inverted_by_their_adjugate(monkeypatch):
    # seeded blocks of size 1-3 and determinants of both signs: the block
    # inverse is Gauss-Jordan's (R, pi), int_inverse's and sympy's inverse,
    # and a 1 x 1 or 2 x 2 block is not eliminated
    rng = random.Random(20293)
    gauss_jordan, eliminated = linalg._gauss_jordan, []

    def counted(rows):
        eliminated.append(len(rows))
        return gauss_jordan(rows)

    seen = set()
    for size in (1, 2, 3):
        for _ in range(200):
            b = random_block(rng, size)
            monkeypatch.setattr(linalg, "_gauss_jordan", counted)
            del eliminated[:]
            r, pi = linalg._block_inverse(b)
            monkeypatch.setattr(linalg, "_gauss_jordan", gauss_jordan)
            assert eliminated == ([] if size < 3 else [3])
            assert int_inverse(b) == (r, pi) == gauss_jordan(b) and pi == abs(int_det(b))
            assert sympy.Matrix(r) / pi == sympy.Matrix(b).inv()
            seen.add((size, int_det(b) > 0))
        with pytest.raises(ValueError, match="singular matrix"):
            linalg._block_inverse(random_block(rng, size, singular=True))
    assert len(seen) == 6  # both signs at every size


def test_int_inverse_refuses_a_singular_block():
    rng = random.Random(20291)
    for k in range(20):
        blocks = random_blocks(rng)
        i = k % len(blocks)
        blocks[i] = random_block(rng, len(blocks[i]), singular=True)
        rows = block_diagonal(blocks)
        assert int_det(rows) == 0
        with pytest.raises(ValueError, match="singular matrix"):
            int_inverse(rows)


def solve_cases(seed):
    """(n, a, b, ell): square integer rows a of size 1-12 with rows b of width
    1-12, over a prime ell of 7, 13 and ELL.  In a third of the cases ell
    divides det a: the last row is a combination of the others, plus ell
    times a random row in half of those, so that det a is nonzero."""
    rng = random.Random(seed)
    out = []
    for n in SIZES:
        for k in range(3):
            for ell in (7, 13, ELL):
                a = random_int_rows(rng, n)
                if k == 2:
                    coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
                    shift = rng.choice((0, ell))
                    a[-1] = [sum(c * a[i][j] for i, c in enumerate(coeffs))
                             + shift * rng.randint(-3, 3) for j in range(n)]
                out.append((n, a, random_int_rows(rng, n, rng.randint(1, 12)), ell))
    return out


@pytest.mark.parametrize("n, a, b, ell", solve_cases(20270))
def test_int_solve_mod_matches_sympy(n, a, b, ell):
    before = [list(row) for row in a], [list(row) for row in b]
    z = int_solve_mod(a, b, ell)
    if sympy.Matrix(a).det() % ell == 0:
        assert z is None
    else:
        expected = sympy.Matrix(a).inv_mod(ell) * sympy.Matrix(b)
        assert z == [[int(x) % ell for x in row] for row in expected.tolist()]
    assert (a, b) == before  # the kernel leaves its arguments alone


def test_charpoly_mod_needs_ell_integral_entries():
    # over the least common denominator of the entries
    for a, ell, want in ((mat([[1, F(1, 7)], [0, 2]]), 7, None),
                         (mat([[F(3, ELL)]]), ELL, None),
                         (mat([[F(ELL, 2)]]), ELL, [0, 1]), ((), ELL, [1])):
        assert int_charpoly_mod(*clear_denominators(a), ell) == want
    with pytest.raises(ValueError):
        int_charpoly_mod(*clear_denominators(mat([[1, 2]])), ELL)


@pytest.mark.parametrize("ell", PRIMES)
def test_poly_squarefree_mod_matches_sympy(ell):
    rng = random.Random(20264)
    t = sympy.Symbol("T")
    for _ in range(150):
        # monic products of a few small factors, often with a repeated one
        factors = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1]
                   for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            factors.append(rng.choice(factors))
        f = sympy.Integer(1)
        for g in factors:
            f *= sum(c * t ** i for i, c in enumerate(g))
        coeffs = [int(c) for c in reversed(sympy.Poly(f, t).all_coeffs())]
        expected = sympy.Poly(f, t, modulus=ell).is_sqf
        assert poly_squarefree_mod(coeffs, ell) == expected


def gf_poly(coeffs, ell):
    """The ascending residues as a sympy polynomial over GF(ell)."""
    return sympy.Poly(coeffs[::-1] or [0], sympy.Symbol("T"),
                      domain=sympy.GF(ell, symmetric=False))


def gf_residues(poly):
    """The ascending residues of a sympy polynomial over GF(ell), [] for 0."""
    return [] if poly.is_zero else [int(c) for c in reversed(poly.all_coeffs())]


def monic(f, ell):
    return [c * pow(f[-1], -1, ell) % ell for c in f]


@pytest.mark.parametrize("ell", (2, 3, 5, 7, ELL))
def test_gfp_mod_gcd_and_powmod_match_sympy(ell):
    # seeded operands of degree up to 12, unreduced and with top zeros,
    # among them the zero polynomial and nonzero constants
    rng = random.Random(20294 + ell)
    operands = [[], [0, 0], [ell], [1], [ell - 1, 0, ell]]
    for _ in range(120):
        f = [rng.randint(-ell, 2 * ell) for _ in range(rng.randint(1, 13))]
        if rng.random() < 0.3:
            f += [0] * rng.randint(1, 2)
        operands.append(f)
    for _ in range(300):
        a, b = rng.choice(operands), rng.choice(operands)
        pa, pb = gf_poly([x % ell for x in a], ell), gf_poly([x % ell for x in b], ell)
        g = linalg.gfp_gcd(a, b, ell)
        if pa.is_zero and pb.is_zero:
            assert g == []
        else:
            assert monic(g, ell) == gf_residues(pa.gcd(pb))
        if not pb.is_zero:
            assert linalg.gfp_mod(a, b, ell) == gf_residues(pa.rem(pb))
            e = rng.randint(0, 40)
            m = pb.rep.to_list()  # gf_pow_mod leaves a^0 = 1 unreduced
            expected = gf_rem(gf_pow_mod(pa.rep.to_list(), e, m, ell, sympy.ZZ), m,
                              ell, sympy.ZZ)
            assert linalg.gfp_powmod(a, e, b, ell) == [int(c) for c in reversed(expected)]


T = sympy.Symbol("T")


def random_rational(rng, span=6):
    return F(rng.randint(-span, span), rng.choice((1, 1, 2, 3, 5)))


def is_rational_square(x):
    return x >= 0 and all(math.isqrt(k) ** 2 == k for k in (x.numerator, x.denominator))


def sym(x):
    return sympy.Rational(x.numerator, x.denominator)


def random_factored_poly(rng):
    """A rational polynomial of degree <= 12 built from rational linear and
    irreducible quadratic factors, each raised to a multiplicity 1-3, times a
    nonzero rational constant; a factor may also be drawn twice."""
    f = sympy.Poly(sym(F(rng.choice((1, -2, 3)), rng.choice((1, 4, 7)))), T,
                   domain="QQ")
    degree, budget = 0, rng.randint(0, 12)
    while degree < budget:
        if rng.random() < 0.5:
            coeffs = [1, -random_rational(rng)]
        else:
            while True:  # T^2 + bT + c with b^2 - 4c not a rational square
                b, c = random_rational(rng, 4), random_rational(rng, 9)
                if not is_rational_square(b * b - 4 * c):
                    break
            coeffs = [1, b, c]
        deg = len(coeffs) - 1
        mult = rng.choice((1, 1, 2, 3))
        if degree + deg * mult > 12:
            mult = 1
            if degree + deg > 12:
                break
        f *= sympy.Poly([sym(F(x)) for x in coeffs], T, domain="QQ") ** mult
        degree += deg * mult
    return f


def ascending(poly):
    return tuple(to_fraction(c) for c in reversed(poly.all_coeffs()))


def test_poly_squarefree_matches_sympy():
    rng = random.Random(20265)
    polys = [random_factored_poly(rng) for _ in range(400)]
    assert {p.degree() for p in polys} == set(range(13))
    repeated = 0
    for f in polys:
        expected = f.is_sqf
        assert poly_squarefree(ascending(f)) == expected, f
        repeated += not expected
    assert 3 * repeated >= len(polys)


def test_poly_squarefree_of_charpolys_with_repeated_eigenvalues():
    rng = random.Random(20266)
    for _ in range(60):
        n = rng.randint(2, 7)
        eigen = [rng.randint(-3, 3) for _ in range(n)]
        if rng.random() < 0.7:
            eigen[rng.randrange(n)] = eigen[0]  # a repeated eigenvalue, often
        # Jordan blocks sometimes: a superdiagonal 1 under equal eigenvalues
        d = [[eigen[i] if i == j else int(j == i + 1 and eigen[i] == eigen[j]
                                          and rng.random() < 0.5)
              for j in range(n)] for i in range(n)]
        while True:
            g = random_matrix(rng, n, rational=True)
            if det(g) != 0:
                break
        a = mat_mul(inverse(g), mat_mul(mat(d), g))
        cp = to_sympy(a).charpoly(T)
        expected = sympy.Poly(cp.as_expr(), T, domain="QQ").is_sqf
        assert poly_squarefree(charpoly(a)) == expected
        assert expected == (len(set(eigen)) == n)


def test_poly_squarefree_small_degrees():
    assert poly_squarefree((F(0),)) and poly_squarefree((F(5),))
    assert poly_squarefree((F(1, 2), F(3)))
    assert poly_squarefree((F(1), F(0), F(1), F(0), F(0)))  # 1 + T^2, zeros on top
    assert not poly_squarefree((F(0), F(0), F(1), F(0), F(1)))  # T^2 (1 + T^2)
    assert not poly_squarefree((F(1), F(2), F(1), F(0)))  # (1 + T)^2


def test_inverse_of_permutation_needs_every_swap():
    # the anti-diagonal: every pivot column is zero on the diagonal
    for n in SIZES:
        a = mat([[int(i + j == n - 1) * (i + 1) for j in range(n)] for i in range(n)])
        sinv = to_sympy(a).inv()
        assert inverse(a) == tuple(tuple(to_fraction(sinv[i, j]) for j in range(n))
                                   for i in range(n))
        assert det(a) == to_fraction(to_sympy(a).det())


def test_non_square_and_empty():
    with pytest.raises(ValueError):
        det(mat([[1, 2]]))
    with pytest.raises(ValueError):
        inverse(mat([[1, 2]]))
    assert det(()) == 1 and inverse(()) == ()
