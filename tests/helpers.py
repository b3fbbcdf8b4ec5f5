"""Shared brute-force oracles and fixture generators for the test suite.

The oracles here are deliberately independent of the library's closed forms:
isotropy is decided by a Hensel-certified digit search, and equivalences are
witnessed by explicitly constructed congruence matrices.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import sympy

from twistedgl import gsnorm, linalg, qform
from twistedgl.etale import (AlgebraElement, EtaleAlgebraWithInvolution,
                             make_algebra, quadratic_tower, split_tower, tau,
                             is_generator)
from twistedgl.linalg import (clear_denominators, det, fr, identity, inverse, mat,
                              mat_mul, to_mat, transpose)
from twistedgl.localfield import (QP, FieldElement, SquareClass, _residue_char_fq,
                                  _unit_mod, hilbert_qp, legendre,
                                  square_class, square_class_table, tame_data,
                                  valuation)
from twistedgl.qform import (QuadForm, diagonalize, invariants, norm_form,
                             quad_form, scale, witt_decompose)
from twistedgl.weil import Mu8, weil_index


# ---------------------------------------------------------------------------
# Fraction matrix sums, for the references below and the tests


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = fr(c)
    return tuple(tuple(c * x for x in row) for row in a)


def _vp(n: int, p: int):
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def diag_isotropy_bruteforce(entries, p: int, max_depth: int = 12) -> bool:
    """Hensel-certified search for a primitive zero of sum a_i x_i^2 over Z_p.

    Independent of the isotropy criterion: digit-tree search with the
    certificate v(F) > 2 v(dF/dx_i), exhaustive to the budget depth
    2 v(2 a_i) + 1 over the coordinate with the smallest coefficient
    valuation.
    """
    coeffs = []
    for a in entries:
        a = Fraction(a)
        n = a.numerator * a.denominator  # same square class, integral
        coeffs.append(n)
    budget = 2 * min(_vp(2 * abs(c), p) for c in coeffs) + 1
    budget = min(budget + 0, max_depth)
    k = len(coeffs)

    def value(xs):
        return sum(c * x * x for c, x in zip(coeffs, xs))

    live = [tuple([0] * k)]
    for level in range(max(budget, 1)):
        new_live = []
        scale = p ** level
        for cand in live:
            for digits in _digit_tuples(k, p):
                xs = tuple(x + d * scale for x, d in zip(cand, digits))
                if level == 0 and all(x == 0 for x in xs):
                    continue
                f = value(xs)
                if f == 0:
                    return True
                wf = _vp(f, p)
                for c, x in zip(coeffs, xs):
                    part = 2 * c * x
                    wp = _vp(part, p)
                    if wp is not None and wf > 2 * wp:
                        return True
                if wf >= level + 1:
                    new_live.append(xs)
        live = new_live
        if not live:
            return False
    return False


def _digit_tuples(k: int, p: int):
    if k == 1:
        return [(d,) for d in range(p)]
    tails = _digit_tuples(k - 1, p)
    return [(d,) + t for d in range(p) for t in tails]


def _represent_padic(coeffs, target, p: int, precision: int):
    """A rational vector v with sum coeffs_i v_i^2 = target + O(p^precision).

    Digit search for a Hensel-certified candidate, then exact rational Newton
    refinement on the certified coordinate.  Returns None when no certified
    candidate exists within the exhaustion bound (the value is then not
    represented, by the same budget argument as the solubility oracle).
    """
    n = len(coeffs)
    den = 1
    for c in list(coeffs) + [target]:
        den = den * Fraction(c).denominator
    a = [int(Fraction(c) * den * den) for c in coeffs]
    t_int = int(Fraction(target) * den * den)
    # scaling x by p^-m trades target for p^2m * target; try a few shifts
    for shift in range(0, 3):
        tt = t_int * p ** (2 * shift)
        found = _certified_candidate(a, tt, p)
        if found is None:
            continue
        xs, i0 = found
        xs = [Fraction(x) for x in xs]
        # Newton on the certified coordinate: g(x) = a_i0 x^2 + rest - tt
        rest = sum(a[j] * xs[j] * xs[j] for j in range(n) if j != i0) - tt
        x = xs[i0]
        for _ in range(64):
            g = a[i0] * x * x + rest
            if g == 0 or valuation(g, p) >= precision + 2 * shift:
                break
            x = x - Fraction(g) / (2 * a[i0] * x)
        xs[i0] = x
        return tuple(v / p ** shift for v in xs)
    return None


def _certified_candidate(a, target, p: int):
    """Digit-tree search for a Hensel point of sum a_i x_i^2 = target."""
    n = len(a)
    vt = _vp(target, p) if target else 0
    bound = min(2 * max(_vp(2 * abs(c), p) for c in a) + 2 + (vt or 0), 10)
    live = [tuple([0] * n)]
    for level in range(bound):
        new_live = []
        scale = p ** level
        for cand in live:
            for digits in _digit_tuples(n, p):
                xs = tuple(x + d * scale for x, d in zip(cand, digits))
                f = sum(c * x * x for c, x in zip(a, xs)) - target
                if f == 0:
                    i0 = next((i for i in range(n) if xs[i]), None)
                    if i0 is not None:
                        return xs, i0
                    continue
                wf = _vp(f, p)
                for i in range(n):
                    part = 2 * a[i] * xs[i]
                    wp = _vp(part, p)
                    if wp is not None and wf > 2 * wp:
                        return xs, i
                if wf >= level + 1:
                    new_live.append(xs)
        live = new_live
        if not live:
            return None
    return None


def padic_congruence_witness(q1: QuadForm, q2: QuadForm):
    """A rational P with P^T G1 P = G2 + O(p^k), k past the lifting threshold.

    Constructive represent-and-recurse over Q_p with truncated vectors; the
    returned matrix has p-unit-bounded determinant defect and certifies
    genuine equivalence.  Returns None when some diagonal value is not
    represented, which certifies inequivalence.
    """
    if q1.dim != q2.dim or q1.p != q2.p:
        return None
    p = int(q1.p)
    n = q1.dim
    if n == 0:
        return ()
    kcert = valuation(4 * _det(q1.gram) * _det(q2.gram), p) + 3
    precision = kcert + 6
    d1, p1 = diagonalize(q1)
    d2, p2 = diagonalize(q2)
    w = _diag_to_diag(list(d1), list(d2), p, precision)
    if w is None:
        return None
    pm = mat_mul(p1, mat_mul(w, inverse(p2)))
    diff = mat_mul(transpose(pm), mat_mul(q1.gram, pm))
    for i in range(n):
        for j in range(n):
            delta = diff[i][j] - q2.gram[i][j]
            if delta != 0 and valuation(delta, p) < kcert:
                return None
    if valuation(_det(pm), p) != 0 and abs(valuation(_det(pm), p)) > 2:
        return None
    return pm


def _det(g):
    from twistedgl.linalg import det
    return det(g)


def _diag_to_diag(d1, d2, p, precision):
    n = len(d1)
    if n == 0:
        return ()
    v = _represent_padic(d1, d2[0], p, precision)
    if v is None:
        return None
    if n == 1:
        return ((v[0],),)

    def bval(x, y):
        return sum(a * xi * yi for a, xi, yi in zip(d1, x, y))

    nv = bval(v, v)
    # complement basis: e_j - (B(e_j, v)/B(v,v)) v, skipping the most
    # v-aligned coordinate
    pivot = max(range(n), key=lambda i: abs(Fraction(v[i])))
    comp = []
    for j in range(n):
        if j == pivot:
            continue
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        coef = d1[j] * v[j] / nv
        comp.append(tuple(e[i] - coef * v[i] for i in range(n)))
    cgram = [[bval(x, y) for y in comp] for x in comp]
    from twistedgl.qform import quad_form
    sub = quad_form(cgram, p)
    ds, ps = diagonalize(sub)
    wsub = _diag_to_diag(list(ds), d2[1:], p, precision)
    if wsub is None:
        return None
    inner = mat_mul(ps, wsub)  # columns express d2[1:] basis in comp coords
    cols = [tuple(v)]
    for c in range(n - 1):
        col = [Fraction(0)] * n
        for r, basis_vec in enumerate(comp):
            for i in range(n):
                col[i] += inner[r][c] * basis_vec[i]
        cols.append(tuple(col))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# fixture generators


def base_field(p, rng: random.Random):
    return QP(p)


def random_algebra(p, rng: random.Random, n_factors: int | None = None,
                   allow_split: bool = True) -> EtaleAlgebraWithInvolution:
    """A random product of towers over Q_p bases."""
    n_factors = n_factors or rng.choice((1, 1, 2))
    towers = []
    p = int(p)
    nonsquares = [c.representative for c in square_class_table(p)
                  if c.representative != 1]
    for _ in range(n_factors):
        if allow_split and rng.random() < 0.4:
            towers.append(split_tower(QP(p)))
        else:
            towers.append(quadratic_tower(QP(p), rng.choice(nonsquares)))
    return make_algebra(towers)


def random_invertible_element(algebra, rng: random.Random, span: int = 5):
    for _ in range(200):
        parts = []
        for f in algebra.factors:
            d = f.base.degree
            a = f.base.element([Fraction(rng.randint(-span, span)) for _ in range(d)])
            b = f.base.element([Fraction(rng.randint(-span, span)) for _ in range(d)])
            parts.append((a, b))
        x = algebra.element(parts)
        if x.is_invertible():
            return x
    raise RuntimeError("could not sample an invertible element")


def random_generator(algebra, rng: random.Random, require_very_regular=True):
    for _ in range(500):
        x = random_invertible_element(algebra, rng)
        if not is_generator(x):
            continue
        if require_very_regular and not is_generator(x * tau(x).inverse()):
            continue
        return x
    raise RuntimeError("could not sample a generator")


def random_norm_one_generator(algebra, rng: random.Random):
    """y = z / tau(z): norm one; retries until it generates.  A generator has
    no eigenvalue +-1: y tau(y) = 1 pairs its eigenvalues as lambda and
    1/lambda, so +-1 would come twice."""
    for _ in range(500):
        z = random_invertible_element(algebra, rng)
        tz = tau(z)
        if not tz.is_invertible():
            continue
        y = z * tz.inverse()
        if not is_generator(y):
            continue
        return y
    raise RuntimeError("could not sample a norm-one generator")


def random_fixed_invertible(algebra, rng: random.Random):
    for _ in range(200):
        vals = []
        for f in algebra.factors:
            d = f.base.degree
            vals.append(f.base.element([Fraction(rng.randint(-5, 5)) for _ in range(d)]))
        c = AlgebraElement(algebra, tuple((v, f.base.zero)
                                          for f, v in zip(algebra.factors, vals)))
        if c.is_invertible():
            return c
    raise RuntimeError("could not sample a fixed invertible element")


def random_antifixed_invertible(algebra, rng: random.Random):
    for _ in range(200):
        vals = []
        for f in algebra.factors:
            d = f.base.degree
            vals.append(f.base.element([Fraction(rng.randint(-5, 5)) for _ in range(d)]))
        c = AlgebraElement(algebra, tuple((f.base.zero, v)
                                          for f, v in zip(algebra.factors, vals)))
        if c.is_invertible():
            return c
    raise RuntimeError("could not sample an anti-fixed invertible element")


def hilbert90_x(y, z):
    """x with tau(x)/x = -y, given y of norm one and a generic z."""
    w = -y
    return z + w.inverse() * tau(z)


def reference_diagonalize(gram):
    """Congruence diagonalization by Fraction column operations: the reference
    for qform.diagonalize, which must return exactly this (diag, P).

    Pivot rule: first nonzero diagonal entry of the trailing block; if its
    diagonal vanishes entirely, symmetrize on the first nonzero off-diagonal
    pair before pivoting.  A degenerate Gram, whose trailing block vanishes
    at some step, raises the kernel's ValueError.
    """
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    pmat = [list(row) for row in identity(n)]

    def add_col(dst, src, c):
        for r in range(n):
            g[r][dst] += c * g[r][src]
        for r in range(n):
            g[dst][r] += c * g[src][r]
        for r in range(n):
            pmat[r][dst] += c * pmat[r][src]

    def swap_col(i, j):
        for r in range(n):
            g[r][i], g[r][j] = g[r][j], g[r][i]
        g[i], g[j] = g[j], g[i]
        for r in range(n):
            pmat[r][i], pmat[r][j] = pmat[r][j], pmat[r][i]

    for k in range(n):
        if g[k][k] == 0:
            piv = next((j for j in range(k, n) if g[j][j] != 0), None)
            if piv is not None:
                swap_col(k, piv)
            else:
                pair = next(((i, j) for i in range(k, n)
                             for j in range(i + 1, n) if g[i][j] != 0), None)
                if pair is None:
                    raise ValueError("degenerate Gram matrix")
                i, j = pair
                add_col(i, j, Fraction(1))
                if i != k:
                    swap_col(k, i)
        pivot = g[k][k]
        for r in range(k + 1, n):
            if g[k][r] != 0:
                add_col(r, k, -g[k][r] / pivot)
    return tuple(g[i][i] for i in range(n)), tuple(tuple(row) for row in pmat)


def random_symmetric_rows(rng: random.Random, dim: int) -> list[list[int]]:
    """Symmetric integer rows with entries in [-3, 3], each diagonal entry
    zero with probability at least 3/4: on such Grams the symmetric
    elimination meets both of its pivot moves, and some are degenerate."""
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = rng.choice((0, 0, 0, rng.randint(-3, 3)))
        for j in range(i + 1, dim):
            rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    return rows


def witt_bits(kernel) -> tuple[int, int, int]:
    """The bits (aniso_dim, det, hasse) of a qform.WittClass, as
    qform.witt_kernel and endoscopy.ConstancyCell.target give them: the det
    class by its bits and the Hasse invariant (-1)^e by e."""
    return kernel.aniso_dim, kernel.det.bits, int(kernel.hasse == -1)


def check_pivot_classes():
    """qform.witt_kernel of seeded Grams rows / d against the Witt class of
    the diagonal form on reference_diagonalize's diagonal, at p in
    {2, 3, 5, 7}.  The sweep has d divisible by p and pivots divisible by p:
    the pivots P_k = d^k a_1 ... a_k are read off the reference diagonal."""
    rng = random.Random(31)
    seen = {"p | d": 0, "p | pivot": 0}
    for p in (2, 3, 5, 7):
        for _ in range(40):
            dim = rng.randint(1, 6)
            d = rng.choice((1, 3, p, 2 * p, 5 * p * p))
            rows = random_symmetric_rows(rng, dim)
            try:
                diag = reference_diagonalize(to_mat(rows, d))[0]
            except ValueError:
                continue
            pivot = Fraction(1)
            for a in diag:
                pivot *= a * d
                seen["p | pivot"] += pivot.numerator % p == 0
            seen["p | d"] += d % p == 0
            expected = witt_bits(witt_decompose(qform.diag_form(diag, p))[1])
            assert qform.witt_kernel(rows, d, p) == expected, (p, rows, d)
    assert min(seen.values()) >= 20, seen


def reference_form_data(gram, p):
    """(det class, Hasse invariant, Weil index) of the form with this Gram,
    on reference_diagonalize's diagonal a_i: the Hasse invariant as the
    product over i < j of reference_hilbert_qp(a_i, a_j), taken by
    bimultiplicativity as the product over j of reference_hilbert_qp(a_1 ...
    a_(j-1), a_j), and the Weil index as zeta8 to the sum of
    reference_weil_rank1(a_i).  These are the Fraction algorithms that the
    class bits replaced."""
    diag = reference_diagonalize(gram)[0]
    det, hasse = reference_det_hasse(diag, p)
    return square_class(det, p), hasse, Mu8(sum(reference_weil_rank1(a, p) for a in diag))


def reference_det_hasse(diag, p):
    """(det, Hasse invariant) of <a_1, ..., a_n>: the product of the a_i and
    the product over j of reference_hilbert_qp(a_1 ... a_(j-1), a_j)."""
    det, hasse = Fraction(1), 1
    for a in diag:
        hasse *= reference_hilbert_qp(det, a, p)
        det *= a
    return det, hasse


def form_data(q):
    """(det class, Hasse invariant, Weil index) of q by the library, from
    the classes q holds: what reference_form_data computes."""
    inv = invariants(q)
    return inv.det, inv.hasse, weil_index(q)


def check_witt_reduction():
    """qform.witt_kernel of seeded Grams rows / d, kernel (k, det, hasse) as
    bits, against reference_form_data of the Gram, at p in {2, 3, 5, 7}.
    The form is the kernel q' plus m = (n - k) / 2 planes P = m <1, -1>, so
    its det class is that of (-1)^m det q', and its Hasse invariant is
    c(q') c(P) (det q', (-1)^m), with c(P) and the symbol taken by
    reference_det_hasse and reference_hilbert_qp; the kernel must be
    anisotropic by reference_witt_class_exists.  The sweep has kernels of
    dimension 0 to 3 and forms of Witt index 1 and 2."""
    rng = random.Random(29)
    seen = set()
    for p in (2, 3, 5, 7):
        for _ in range(40):
            dim = rng.randint(1, 7)
            d = rng.choice((1, 2, p))
            rows = random_symmetric_rows(rng, dim)
            try:
                det, hasse, _ = reference_form_data(to_mat(rows, d), p)
            except ValueError:
                continue
            k, dbits, hbit = qform.witt_kernel(rows, d, p)
            m = (dim - k) // 2
            kdet = SquareClass(p, dbits)
            assert reference_witt_class_exists(k, kdet, 1 - 2 * hbit, p), (p, rows, d)
            sign = (-1) ** m
            planes = reference_det_hasse((1, -1) * m, p)[1]
            implied = (1 - 2 * hbit) * planes * reference_hilbert_qp(kdet.representative,
                                                                     sign, p)
            assert (square_class(sign * kdet.representative, p), implied) == (det, hasse), \
                (p, rows, d)
            seen |= {("dim", k), ("index", m)}
    assert seen >= {("dim", k) for k in range(4)} | {("index", 1), ("index", 2)}, seen


def check_scale_classes():
    """qform.scale of seeded checked forms by seeded rationals c against
    reference_form_data of the scaled Gram, at p in {2, 3, 5, 7}.  The sweep
    has odd dimensions and c = p, -1 and c of both signs, which move the det
    class of an odd-dimensional form."""
    rng = random.Random(28)
    odd = 0
    for p in (2, 3, 5, 7):
        for _ in range(12):
            rows = random_symmetric_rows(rng, rng.randint(1, 4))
            try:
                q = quad_form(to_mat(rows, rng.choice((1, 2, p))), p)
            except ValueError:
                continue
            odd += q.dim % 2
            for c in (p, -1, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                      rng.randint(1, 9))):
                cq = qform.scale(c, q)
                assert form_data(cq) == reference_form_data(cq.gram, p), (p, rows, c)
    assert odd >= 10, odd


def check_hyperbolic_classes():
    """qform.hyperbolic(k, p), alone and summed with <3, p>, against
    reference_form_data of its Gram, at p in {2, 3, 5, 7} and k in 1..3."""
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            h = qform.hyperbolic(k, p)
            for f in (h, qform.direct_sum(h, qform.diag_form([3, p], p))):
                assert form_data(f) == reference_form_data(f.gram, p), (p, k)


def check_weil_rank1():
    """weil_index of <a> against reference_weil_rank1(a), for a the canonical
    representative r of each square class of Q_p, r / p^2 and r (p + 2)^2,
    at p in {2, 3, 5, 7, 11}."""
    for p in (2, 3, 5, 7, 11):
        for cls in square_class_table(p):
            r = cls.representative
            for a in (r, Fraction(r, p * p), r * (p + 2) ** 2):
                expected = Mu8(reference_weil_rank1(a, p))
                assert weil_index(qform.diag_form([a], p)) == expected, (p, a)


def reference_quasisplit_space(n_o, kclass, c, p):
    """(n_O - 2) H + c N_K as the checked form of the Fraction Gram of its
    blocks, whose classes are those of a whole-Gram elimination: the
    reference for endoscopy.quasisplit_space, which must return the same
    Gram and label, and the same invariants and Weil index, without one."""
    c = c.representative if isinstance(c, SquareClass) else c
    tail = mat_scale(c, norm_form(kclass, p).gram)
    planes = [mat([[0, 1], [1, 0]])] * ((n_o - 2) // 2)
    return quad_form(linalg.block_diag(*planes, tail), p)


def reference_rhs(space, n):
    """The Weil index of the scaled form 2 (-1)^n q: the reference for
    endoscopy.ConstancyCell.rhs, which reads it off the classes q holds."""
    return weil_index(scale(2 * (-1) ** n, space))


def reference_trace(x):
    """The trace of the multiplication matrix of a field or algebra element:
    the reference for FieldElement.trace and for the entries of
    etale.trace_form_bilinear."""
    m = x.mult_matrix()
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def reference_is_very_regular(gamma):
    """Very regularity decided over Q by sympy: a squarefree characteristic
    polynomial and det(gamma -+ 1) != 0.  The reference for
    gsnorm._norm_very_regular, which must return exactly this on the norm of
    every closed pair."""
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                      for row in gamma])
    eye = sympy.eye(len(gamma))
    return (sympy.Poly(m.charpoly(sympy.Symbol("T")), domain="QQ").is_sqf
            and (m - eye).det() != 0 and (m + eye).det() != 0)


def _valuation_and_unit(a: Fraction, p: int):
    """(v, u) with a = p^v u, u a p-unit rational: by Fraction division."""
    v = 0
    while a.numerator % p == 0:
        a /= p
        v += 1
    while a.denominator % p == 0:
        a *= p
        v -= 1
    return v, a


def _unit_residue(u: Fraction, modulus: int) -> int:
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


def reference_hilbert_qp(a, b, p: int) -> int:
    """(a, b)_p by the closed forms on valuations and unit parts (Serre,
    ch. III, Thm. 1), the Fraction algorithm the bit form replaced."""
    (alpha, u), (beta, w) = (_valuation_and_unit(Fraction(x), p) for x in (a, b))
    if p != 2:
        def leg(x):
            return pow(_unit_residue(x, p), (p - 1) // 2, p) == p - 1
        expo = alpha * beta * ((p - 1) // 2) + beta * leg(u) + alpha * leg(w)
    else:
        eps_u, eps_w = ((_unit_residue(x, 4) - 1) // 2 for x in (u, w))
        om_u, om_w = ((_unit_residue(x, 8) ** 2 - 1) // 8 % 2 for x in (u, w))
        expo = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if expo % 2 else 1


def reference_quadratic_tame_data(fld, x) -> tuple[int, int]:
    """(valuation, residue character of the unit part) of a nonzero x in a
    quadratic field certified by its discriminant, p odd, by closed forms on
    the coordinates of x in s = (t + b/2)/p^k with s^2 = m, v(m) in {0, 1}.

    m a unit: the field is unramified and x = p^w (a + b s) with a, b
    p-integral, not both in pZ_p; the character is that of a + b s in
    F_p[s]/(s^2 - m).  v(m) = 1: s = pi is a uniformizer with pi^2 = p u, and
    x = pi^w times a unit whose leading coordinate is alpha / p^(w/2) (w even)
    or beta / p^((w-1)/2) (w odd); dividing by pi^2 divides it by p u, so the
    character picks up (u/p)^floor(w/2).
    """
    p = int(fld.p)
    c0, b = fld.defining_poly[:2]
    disc4 = (b * b - 4 * c0) / 4  # (t + b/2)^2 = disc4
    v = valuation(disc4, p)
    m = disc4 / Fraction(p) ** (2 * (v // 2))
    alpha, beta = x.coeffs
    alpha, beta = alpha - b * beta / 2, beta * Fraction(p) ** (v // 2)
    if v % 2 == 0:
        w = min(valuation(c, p) for c in (alpha, beta) if c != 0)
        red = [(-_unit_mod(m, p)) % p, 0, 1]  # s^2 - m mod p
        res = []
        for c in (alpha, beta):
            c = c / Fraction(p) ** w
            res.append(0 if c == 0 or valuation(c, p) > 0 else _unit_mod(c, p))
        return w, _residue_char_fq(res, red, p)
    u = m / p
    terms = []
    if alpha != 0:
        terms.append(2 * valuation(alpha, p))
    if beta != 0:
        terms.append(2 * valuation(beta, p) + 1)
    w = min(terms)
    if w % 2 == 0:
        lead = alpha / Fraction(p) ** (w // 2)
    else:
        lead = beta / Fraction(p) ** ((w - 1) // 2)
    chi = legendre(lead, p)
    if (w // 2) % 2 and legendre(u, p) == -1:
        chi = -chi
    return w, chi


def reference_eisenstein_tame_data(fld, x) -> tuple[int, int]:
    """(valuation, residue character of the unit part) of a nonzero x in an
    Eisenstein field, p odd, by field arithmetic: w is the least d v(c_i) + i
    over the coordinates c_i of x, and x is divided by the uniformizer t one
    power at a time (multiplied by it when w < 0) until the unit part is left,
    whose residue is its constant coordinate."""
    p = int(fld.p)
    d = fld.degree
    w = min(d * valuation(c, p) + i for i, c in enumerate(x.coeffs) if c != 0)
    u = x
    step = field_gen(fld).inverse() if w > 0 else field_gen(fld)
    for _ in range(abs(w)):
        u = u * step
    c0 = u.coeffs[0]
    assert c0 != 0 and valuation(c0, p) == 0, "the unit part has a unit residue"
    return w, legendre(c0, p)


# ---------------------------------------------------------------------------
# residue data and the tame Hilbert symbol over certified extensions


def ramification_e(fld) -> int:
    """The ramification index of a certified field.  A quadratic field is
    unramified exactly when its discriminant pairs trivially with every unit
    class, the norms from the unramified quadratic extension being the units
    times the even powers of p: the independent check of the certificate of
    localfield._quadratic_model."""
    if fld.certificate == "eisenstein":
        return fld.degree
    if fld.certificate == "quadratic-nonsquare-disc":
        poly = fld.defining_poly
        disc = square_class(poly[1] ** 2 - 4 * poly[0], fld.p)
        units = (u for u in square_class_table(fld.p) if not u.bits & 1)
        return 1 if all(disc.hilbert(u) == 1 for u in units) else 2
    return 1


def residue_f(fld) -> int:
    return fld.degree // ramification_e(fld)


def residue_q(fld) -> int:
    return fld.p ** residue_f(fld)


def field_gen(fld):
    """The generator t of the power basis of a field of degree at least 2."""
    return fld.element([0, 1] + [0] * (fld.degree - 2))


def field_norm(x) -> Fraction:
    return det(x.mult_matrix())


def field_valuation(x) -> int:
    """The normalized valuation of a nonzero field element (a uniformizer has
    valuation 1): v_p of its norm is f times it."""
    fld = x.field
    if fld.degree == 1:
        return valuation(x.coeffs[0], fld.p)
    return valuation(field_norm(x), fld.p) // residue_f(fld)


def hilbert_tame(fld, a, b) -> int:
    """Tame Hilbert symbol over a certified extension with odd residue char,
    on the tame data of localfield:
    (a,b) = (-1)^(v(a) v(b) (q-1)/2) * chi(ua)^v(b) * chi(ub)^v(a), chi the
    quadratic residue character of the residue field and ua, ub unit parts.
    Over Q_p itself, for every p, it is hilbert_qp."""
    if fld.degree == 1:
        a, b = (x.coeffs[0] if isinstance(x, FieldElement) else x for x in (a, b))
        return hilbert_qp(a, b, fld.p)
    wa, chia = tame_data(fld, a)
    wb, chib = tame_data(fld, b)
    e = wa * wb * ((residue_q(fld) - 1) // 2) + wb * (chia == -1) + wa * (chib == -1)
    return -1 if e % 2 else 1


def poly_eval(p, x) -> Fraction:
    """The polynomial of ascending coefficients p at x, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def reference_weil_rank1(a, p: int) -> int:
    """The exponent k of gamma(<a>) = zeta8^k by the closed form pinned from
    the Gauss-sum oracle, on valuations and unit parts."""
    v, u = _valuation_and_unit(Fraction(a), p)
    if p != 2:
        if v % 2 == 0:
            return 0
        residue = pow(_unit_residue(u, p), (p - 1) // 2, p) == 1
        if p % 4 == 1:
            return 0 if residue else 4
        return 2 if residue else 6
    if v % 2 == 0:
        return 1 if _unit_residue(u, 4) == 1 else 7
    return _unit_residue(u, 8)


# ---------------------------------------------------------------------------
# the Goldberg-Shahidi pipeline by Fraction matrix arithmetic


def reference_gs_norm(ambient, x, y):
    """1 + Q^-1 X^T Y^-1 X by Fraction products: the reference for gs_norm."""
    qinv = inverse(ambient.q_V.gram)
    return mat_add(identity(ambient.n),
                   mat_mul(qinv, mat_mul(transpose(x), mat_mul(inverse(y), x))))


def gs_norm_mat(config):
    """gsnorm.gs_norm as a Mat."""
    return to_mat(*gsnorm.gs_norm(config))


def gs_section_mat(ambient, x, gamma):
    """gsnorm.gs_section on the Mats X and gamma, its Y as a Mat."""
    return to_mat(*gsnorm.gs_section(ambient, clear_denominators(x),
                                     clear_denominators(gamma)))


def reference_u(ambient, x, y):
    """[[I, X, Y], [0, I, -phi], [0, 0, I]] from Fractions, phi by
    reference_phi: the reference for u_of_xy, and an isometry of V1 exactly
    when (X, Y) meets the closure condition."""
    n = ambient.n
    eye, zero = identity(n), mat([[0] * n] * n)
    grid = [[eye, x, y], [zero, eye, mat_scale(-1, reference_phi(ambient, x))],
            [zero, zero, eye]]
    return tuple(tuple(v for block in blocks for v in block[i])
                 for blocks in grid for i in range(n))


def reference_xy_condition(ambient, x, y):
    """Y + eps Y^T + X Q^-1 X^T = 0 by Fraction sums: the reference for
    GSConfiguration.closed."""
    qinv = inverse(ambient.q_V.gram)
    total = mat_add(mat_add(y, mat_scale(ambient.epsilon, transpose(y))),
                    mat_mul(x, mat_mul(qinv, transpose(x))))
    return all(v == 0 for row in total for v in row)


def reference_phi(ambient, x):
    """phi = Q^-1 X^T, the isometry of rigidify."""
    return mat_mul(inverse(ambient.q_V.gram), transpose(x))


def reference_fraction_random_config(ambient, rng, require_very_regular=True,
                                     budget=10000):
    """(X, Y) by the Fraction algorithm of random_config: integer X and R
    drawn from rng in the same order, Y = -1/2 X Q^-1 X^T + (R - eps R^T),
    samples with det X = 0 or det Y = 0 rejected before the next draw, and by
    default samples whose norm is not very regular (decided by sympy).  The
    reference for gsnorm.random_config, which must return exactly this and
    leave the stream of Random(seed) where this leaves rng."""
    n, eps = ambient.n, ambient.epsilon
    qinv = inverse(ambient.q_V.gram)
    for _ in range(budget):
        x = mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if det(x) == 0:
            continue
        r = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        s = mat_sub(r, mat_scale(eps, transpose(r)))
        y = mat_add(mat_scale(Fraction(-1, 2), mat_mul(x, mat_mul(qinv, transpose(x)))), s)
        if det(y) == 0:
            continue
        if require_very_regular and not reference_is_very_regular(
                reference_gs_norm(ambient, x, y)):
            continue
        return x, y
    raise RuntimeError("retry budget exhausted")


def reference_random_config(ambient, seed, require_very_regular=True):
    """The integer sampler that decided very-regularity on the norm itself:
    entries drawn by randint, X A X^T by two dense products, det X and
    det Y_n each by int_det, then, by default, sympy's test on the norm
    1 + Q^-1 X^T Y^-1 X that gs_norm builds.  The reference for
    gsnorm.random_config, which must return the same X and Y; with
    require_very_regular=False it gives the closed pairs of any norm."""
    n, eps = ambient.n, ambient.epsilon
    rng = random.Random(seed)
    a_rows, a = ambient.q_inverse_scaled
    for _ in range(gsnorm.RETRY_BUDGET):
        x = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if linalg.int_det(x) == 0:
            continue
        r = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        xax = linalg.int_mul(x, linalg.int_mul(a_rows, linalg.transpose(x)))
        y = [[2 * a * (r[i][j] - eps * r[j][i]) - v for j, v in enumerate(row)]
             for i, row in enumerate(xax)]
        if linalg.int_det(y) == 0:
            continue
        config = gsnorm.GSConfiguration(ambient, linalg.to_mat(x),
                                        linalg.to_mat(y, 2 * a))
        if require_very_regular and not reference_is_very_regular(
                gs_norm_mat(config)):
            continue
        return config
    raise RuntimeError(f"retry budget exhausted for seed {seed}")


def reference_transfer_factor(space, delta, n):
    """The Witt comparison with q_delta = 1/2 (delta + delta^T) built by
    Fraction sums: the reference for endoscopy.transfer_factor."""
    sym = mat_scale(Fraction(1, 2), mat_add(delta, transpose(delta)))
    target = scale((-1) ** n, norm_form(invariants(space).dpm, space.p))
    kernel = witt_decompose(quad_form(sym, space.p))[1]
    return 1 if kernel == witt_decompose(target)[1] else -1


def reference_witt_class_exists(aniso_dim, detc, hasse, p) -> bool:
    """Whether (dim, det class, Hasse) is the triple of an anisotropic form
    over Q_p, case by case (Serre, A Course in Arithmetic, ch. IV): the
    reference for the existence check of qform.WittClass."""
    m1 = square_class(-1, p)
    ok = {
        0: lambda: detc.is_trivial() and hasse == 1,
        1: lambda: hasse == 1,
        2: lambda: detc != m1,
        3: lambda: hasse != m1.hilbert(m1 * detc),
        4: lambda: detc.is_trivial() and hasse != m1.hilbert(m1),
    }.get(aniso_dim)
    return ok is not None and ok()


def symmetrized_rows(m):
    """B + B^T for the integer rows B of m over its least denominator: the
    rows the kernel eliminates for q_m = 1/2 (m + m^T)."""
    rows, _ = linalg.clear_denominators(m)
    return tuple(tuple(x + y for x, y in zip(row, col))
                 for row, col in zip(rows, zip(*rows)))


def count_eliminations(monkeypatch):
    """Record the input of the symmetric kernel qform._eliminate_symmetric,
    its integer Gram rows as a tuple of tuples (a form's rows, or
    symmetrized_rows of a twisted point), and the matrices linalg.det is
    called on, under every name a twistedgl module binds det to.  Returns
    the two lists, which fill as the calls happen."""
    grams, dets = [], []
    eliminate, det_ = qform._eliminate_symmetric, linalg.det

    def counted_eliminate(rows, transform):
        grams.append(tuple(map(tuple, rows)))
        return eliminate(rows, transform)

    def counted_det(a):
        dets.append(a)
        return det_(a)

    monkeypatch.setattr(qform, "_eliminate_symmetric", counted_eliminate)
    for name, module in list(sys.modules.items()):
        if name.startswith("twistedgl") and getattr(module, "det", None) is det_:
            monkeypatch.setattr(module, "det", counted_det)
    return grams, dets
