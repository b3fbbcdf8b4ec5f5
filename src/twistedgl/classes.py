"""Matrix and Gram representatives of very regular classes.

Parameters (L, L_pm, x) and friends name stable classes in twisted general
linear spaces, orthogonal and symplectic groups, and their unitary cousins.
Builders return exact Gram matrices and group elements; comparisons go
through squarefree characteristic polynomials, which are faithful exactly on
the very regular locus this module accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .etale import (AlgebraElement, EtaleAlgebraWithInvolution, QUADRATIC,
                    char_poly, is_generator, tau, trace_form_alternating,
                    trace_form_bilinear, trace_form_quadratic, very_regular)
from .linalg import (Mat, Poly, block_diag, charpoly, det, fr, identity,
                     inverse, mat, mat_mul, mat_neg, mat_sub, poly_eval,
                     poly_squarefree, transpose)
from .localfield import SquareClass, is_local_norm
from .qform import QuadForm, diag_form, direct_sum, equivalent, invariants

KINDS = ("tGL-even", "tGL-odd", "SO-even", "SO-odd", "Sp", "U", "tGL-E")


@dataclass(frozen=True)
class ClassParameter:
    """A tagged very-regular class parameter (L, L_pm, x | y, extras)."""

    kind: str
    algebra: EtaleAlgebraWithInvolution
    x: AlgebraElement
    c: AlgebraElement | None = None
    x_D: SquareClass | None = None
    a: SquareClass | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        x = self.x
        if x.algebra != self.algebra:
            raise ValueError("element lives in a different algebra")
        if not x.is_invertible():
            raise ValueError("parameter element must be invertible")
        if self.kind in ("tGL-even", "tGL-odd", "tGL-E"):
            if not is_generator(x):
                raise ValueError("x must generate the algebra")
            if self.kind == "tGL-odd" and self.x_D is None:
                raise ValueError("tGL-odd parameter needs x_D")
        else:
            if x * tau(x) != self.algebra.one:
                raise ValueError("y must satisfy y tau(y) = 1")
            cp = char_poly(x)  # is_generator's test and the eigenvalue tests
            if not poly_squarefree(cp):
                raise ValueError("y must generate the algebra")
            if self.kind in ("SO-even", "U") and poly_eval(cp, 1) == 0:
                raise ValueError("very regular element cannot have eigenvalue 1")
            if self.kind in ("SO-even", "SO-odd", "U") and poly_eval(cp, -1) == 0:
                raise ValueError("very regular element cannot have eigenvalue -1")
            if self.c is None:
                raise ValueError(f"{self.kind} parameter needs c")
            if self.c.algebra != self.algebra or not self.c.is_invertible():
                raise ValueError("c must be invertible in the algebra")
            if self.kind == "Sp":
                if tau(self.c) != -self.c:
                    raise ValueError("Sp twist must satisfy tau(c) = -c")
            else:
                if tau(self.c) != self.c:
                    raise ValueError("twist c must be tau-fixed")

    def is_very_regular(self) -> bool:
        if self.kind in ("tGL-even", "tGL-odd", "tGL-E"):
            return very_regular(self.x)
        return True  # checked at construction for the classical kinds


@dataclass(frozen=True)
class ClassInvariant:
    """Comparable fingerprint of a stable class: its characteristic polynomial."""

    char_poly: Poly
    kind: str
    aux: tuple[SquareClass, ...] = ()

    def __post_init__(self):
        if not poly_squarefree(self.char_poly):
            raise ValueError("very regular classes have squarefree fingerprints")


def class_invariant(param: ClassParameter) -> ClassInvariant:
    if param.kind in ("tGL-even", "tGL-odd", "tGL-E"):
        base = char_poly(param.x * tau(param.x).inverse())
        aux = (param.x_D,) if param.x_D is not None else ()
    else:
        base = char_poly(param.x)
        aux = (param.a,) if param.a is not None else ()
    return ClassInvariant(base, param.kind, aux)


# ---------------------------------------------------------------------------
# builders


def build_tGL_even(param: ClassParameter) -> Mat:
    """The bilinear Gram delta(v|v') = trace(tau(v) v' x) on the algebra."""
    if param.kind != "tGL-even":
        raise ValueError("expected a tGL-even parameter")
    if param.algebra.dim_over_qp % 2:
        raise ValueError("even twisted space needs an even-dimensional algebra")
    return trace_form_bilinear(param.algebra, param.x)


def build_tGL_odd(param: ClassParameter) -> Mat:
    """Block sum of the even Gram with the 1x1 block <x_D>."""
    if param.kind != "tGL-odd":
        raise ValueError("expected a tGL-odd parameter")
    even = trace_form_bilinear(param.algebra, param.x)
    xd = Fraction(param.x_D.representative)
    return block_diag(even, ((xd,),))


def build_SO_even(param: ClassParameter) -> tuple[QuadForm, Mat]:
    """(q_c, gamma): the quadratic space (L, q_c) and mult-by-y inside SO."""
    if param.kind != "SO-even":
        raise ValueError("expected an SO-even parameter")
    q_c = trace_form_quadratic(param.algebra, param.c)
    gamma = param.x.mult_matrix()
    _check_isometry(gamma, q_c.gram)
    if det(gamma) != 1:
        raise RuntimeError("norm-one element must have determinant 1")
    return q_c, gamma


def build_SO_odd(param: ClassParameter) -> tuple[QuadForm, Mat]:
    """(q_c + <a>, gamma extended by 1 on the extra line)."""
    if param.kind != "SO-odd":
        raise ValueError("expected an SO-odd parameter")
    if param.a is None:
        raise ValueError("SO-odd parameter needs the class a")
    q_c = trace_form_quadratic(param.algebra, param.c)
    q = direct_sum(q_c, diag_form([param.a.representative], param.algebra.p))
    gamma = block_diag(param.x.mult_matrix(), identity(1))
    _check_isometry(gamma, q.gram)
    return q, gamma


def so_odd_matching_a(q_target: QuadForm, q_c: QuadForm) -> SquareClass:
    """The unique class a with q_c + <a> equivalent to the target, by Witt cancellation."""
    p = q_target.p
    det_t = invariants(q_target).det
    det_c = invariants(q_c).det
    a = det_t * det_c  # det_t / det_c: every class is its own inverse
    cand = direct_sum(q_c, diag_form([a.representative], p))
    if not equivalent(cand, q_target):
        raise ValueError("incompatible: no a makes q_c + <a> match the target")
    return a


def build_Sp(param: ClassParameter) -> tuple[QuadForm, Mat]:
    """(alternating q_c, gamma) for an anti-fixed twist."""
    if param.kind != "Sp":
        raise ValueError("expected an Sp parameter")
    q_c = trace_form_alternating(param.algebra, param.c)
    gamma = param.x.mult_matrix()
    _check_isometry(gamma, q_c.gram)
    return q_c, gamma


def _check_isometry(g: Mat, gram: Mat):
    if mat_mul(transpose(g), mat_mul(gram, g)) != gram:
        raise RuntimeError("built element fails its group identity")


# -- unitary and sesquilinear kinds: E-matrices as pairs of rational parts --


def _common_e(algebra: EtaleAlgebraWithInvolution) -> Fraction:
    """The rational e with L = L_pm tensor Q_p(sqrt(e)); all steps must share it."""
    es = set()
    for f in algebra.factors:
        if f.step_kind != QUADRATIC:
            raise ValueError("unitary kinds need field steps everywhere")
        coeffs = f.d.coeffs
        if any(c != 0 for c in coeffs[1:]):
            raise ValueError("unitary kinds need a common rational step e")
        es.add(coeffs[0])
    if len(es) != 1:
        raise ValueError("unitary kinds need the same e in every factor")
    return es.pop()


def _epair_of_element(z: AlgebraElement) -> tuple[Mat, Mat]:
    """E-linear mult matrix of z over the fixed basis, as (real, sqrt-e) parts."""
    blocks_a, blocks_b = [], []
    for f, (a, b) in zip(z.algebra.factors, z.parts):
        blocks_a.append(a.mult_matrix())
        blocks_b.append(b.mult_matrix())
    return block_diag(*blocks_a), block_diag(*blocks_b)


def epair_mul(x: tuple[Mat, Mat], y: tuple[Mat, Mat], e) -> tuple[Mat, Mat]:
    a1, b1 = x
    a2, b2 = y
    e = fr(e)
    real = tuple(tuple(p + e * q for p, q in zip(r1, r2))
                 for r1, r2 in zip(mat_mul(a1, a2), mat_mul(b1, b2)))
    imag = tuple(tuple(p + q for p, q in zip(r1, r2))
                 for r1, r2 in zip(mat_mul(a1, b2), mat_mul(b1, a2)))
    return real, imag


def epair_star(x: tuple[Mat, Mat]) -> tuple[Mat, Mat]:
    """Conjugate transpose: (A, B) -> (A^T, -B^T)."""
    a, b = x
    return transpose(a), mat_neg(transpose(b))


def epair_to_blocks(x: tuple[Mat, Mat], e) -> Mat:
    """Realize the E-matrix as a rational matrix of twice the size."""
    a, b = x
    e = fr(e)
    n = len(a)
    rows = []
    for i in range(n):
        rows.append(tuple(v for j in range(n) for v in (a[i][j], e * b[i][j])))
        rows.append(tuple(v for j in range(n) for v in (b[i][j], a[i][j])))
    return tuple(rows)


def _etrace_form(algebra: EtaleAlgebraWithInvolution, x: AlgebraElement) -> tuple[Mat, Mat]:
    """Sesquilinear Gram H[i][j] = trace_{L/E}(tau(f_i) f_j x) over the fixed basis."""
    from .etale import fixed_basis
    basis = fixed_basis(algebra)
    rows_a, rows_b = [], []
    for bi in basis:
        bix = tau(bi) * x
        ra, rb = [], []
        for bj in basis:
            y = bix * bj
            t_a = sum((a.trace() for a, _ in y.parts), Fraction(0))
            t_b = sum((b.trace() for _, b in y.parts), Fraction(0))
            ra.append(t_a)
            rb.append(t_b)
        rows_a.append(tuple(ra))
        rows_b.append(tuple(rb))
    return tuple(rows_a), tuple(rows_b)


def build_U(param: ClassParameter) -> tuple[tuple[Mat, Mat], tuple[Mat, Mat]]:
    """(hermitian Gram, gamma) as E-matrix pairs over the fixed basis."""
    if param.kind != "U":
        raise ValueError("expected a U parameter")
    e = _common_e(param.algebra)
    h = _etrace_form(param.algebra, param.c)
    gamma = _epair_of_element(param.x)
    lhs = epair_mul(epair_mul(epair_star(gamma), h, e), gamma, e)
    if lhs != h:
        raise RuntimeError("built element fails the unitary identity")
    return h, gamma


def build_tGL_E(param: ClassParameter) -> tuple[Mat, Mat]:
    """The E-sesquilinear Gram of a twisted sesquilinear class."""
    if param.kind != "tGL-E":
        raise ValueError("expected a tGL-E parameter")
    _common_e(param.algebra)
    return _etrace_form(param.algebra, param.x)


# ---------------------------------------------------------------------------
# invariants and the correspondence


def twist_invariant(delta: Mat) -> Poly:
    """Characteristic polynomial of delta^-1 delta^T, the twisted-class fingerprint."""
    delta = mat(delta)
    return charpoly(mat_mul(inverse(delta), transpose(delta)))


def corresponds(delta_param: ClassParameter, gamma_param: ClassParameter) -> bool:
    """Endoscopic correspondence of very regular classes: x/tau(x) = -y.

    Realized as equality of the squarefree characteristic polynomials of
    mult by -x/tau(x) and mult by y.
    """
    if delta_param.kind != "tGL-even" or gamma_param.kind != "SO-even":
        raise ValueError("correspondence compares tGL-even with SO-even")
    if not delta_param.is_very_regular():
        raise ValueError("delta parameter is not very regular")
    if delta_param.algebra.dim_over_qp != gamma_param.algebra.dim_over_qp:
        return False
    lhs = char_poly(-(delta_param.x * tau(delta_param.x).inverse()))
    rhs = char_poly(gamma_param.x)
    return lhs == rhs


def is_elliptic(param: ClassParameter) -> bool:
    """Elliptic iff the centralizer torus Ker(N) is anisotropic: no split factor."""
    if not param.is_very_regular():
        raise ValueError("ellipticity is defined for very regular classes")
    return all(f.step_kind == QUADRATIC for f in param.algebra.factors)


def refine_conjugacy(param1: ClassParameter, param2: ClassParameter) -> bool | None:
    """Conjugacy (not just stable) comparison via factorwise norm-coset tests.

    Returns None ("stable-only") when a p = 2 base field of degree > 1 blocks
    the norm test.  Parameters must share the algebra object.
    """
    if param1.algebra != param2.algebra or param1.kind != param2.kind:
        raise ValueError("refinement needs parameters over one algebra and kind")
    if class_invariant(param1) != class_invariant(param2):
        return False
    w1 = param1.c if param1.c is not None else param1.x
    w2 = param2.c if param2.c is not None else param2.x
    ratio = w2 * w1.inverse()
    if tau(ratio) != ratio:
        return False  # coset datum always differs by a fixed element
    for f, (a, b) in zip(param1.algebra.factors, ratio.parts):
        if f.step_kind != QUADRATIC:
            continue  # split factors: every unit is a norm
        if f.base.p == 2 and f.base.degree > 1:
            return None
        if not is_local_norm(f.base, f.d, a):
            return False
    return True


# ---------------------------------------------------------------------------
# Weyl discriminants


def _ad_matrix_gl(g: Mat) -> Mat:
    n = len(g)
    ginv = inverse(g)
    big = []
    for i in range(n):
        for j in range(n):
            row = []
            for k in range(n):
                for l in range(n):
                    row.append(g[i][k] * ginv[l][j])
            big.append(tuple(row))
    return tuple(big)


def _ad_matrix_twisted(delta: Mat) -> Mat:
    """Ad on gl(H) through the twisted point: A -> -Y^-1 A^T Y."""
    n = len(delta)
    yinv = inverse(delta)
    big = []
    for i in range(n):
        for j in range(n):
            row = []
            for k in range(n):
                for l in range(n):
                    row.append(-(yinv[i][l] * delta[k][j]))
            big.append(tuple(row))
    return tuple(big)


def _pairs(n: int, strict: bool):
    for i in range(n):
        start = i + 1 if strict else i
        for j in range(start, n):
            yield i, j


def _ad_matrix_isometry(g: Mat, gram: Mat, symmetric_basis: bool) -> Mat:
    """Ad_g on so/sp in S-coordinates: basis Q^-1 S, action S -> g^-T S g^-1."""
    n = len(g)
    if mat_mul(transpose(g), mat_mul(gram, g)) != gram:
        raise ValueError("element does not preserve the form")
    ginv = inverse(g)
    ginvt = transpose(ginv)
    idx = list(_pairs(n, strict=not symmetric_basis))
    cols = []
    for (k, l) in idx:
        s = [[Fraction(0)] * n for _ in range(n)]
        if symmetric_basis:
            # basis E_kl + E_lk for k < l, E_kk on the diagonal: coordinates
            # of a symmetric image are then literal entries at (k, l)
            s[k][l] += 1
            if k != l:
                s[l][k] += 1
        else:
            s[k][l] += 1
            s[l][k] -= 1
        img = mat_mul(ginvt, mat_mul(tuple(tuple(r) for r in s), ginv))
        col = []
        for (i, j) in idx:
            col.append(img[i][j])
        cols.append(col)
    return tuple(tuple(cols[c][r] for c in range(len(idx))) for r in range(len(idx)))


def weyl_discriminant(g: Mat, lie_algebra) -> Fraction:
    """det(1 - Ad_g) on the declared Lie algebra modulo the kernel.

    Returns the product of the nonzero eigenvalues of 1 - Ad_g, extracted as
    (-1)^(N-k) times the lowest nonzero characteristic coefficient.
    Descriptors: ('gl',), ('so', gram), ('sp', gram); for ('tgl',) the
    element g is the twisted point itself (a non-degenerate bilinear Gram)
    and Ad acts through it on the full matrix algebra.
    """
    kind = lie_algebra[0]
    g = mat(g)
    if det(g) == 0:
        raise ValueError("group element must be invertible")
    if kind == "gl":
        ad = _ad_matrix_gl(g)
    elif kind == "so":
        ad = _ad_matrix_isometry(g, mat(lie_algebra[1]), symmetric_basis=False)
    elif kind == "sp":
        ad = _ad_matrix_isometry(g, mat(lie_algebra[1]), symmetric_basis=True)
    elif kind == "tgl":
        ad = _ad_matrix_twisted(g)
    else:
        raise ValueError(f"unknown Lie algebra descriptor {kind!r}")
    n = len(ad)
    one_minus = mat_sub(identity(n), ad)
    cp = charpoly(one_minus)
    k = next(i for i, c in enumerate(cp) if c != 0)
    if k == n:
        return Fraction(1)  # 1 - Ad vanishes: empty product
    return Fraction((-1) ** (n - k)) * cp[k]
