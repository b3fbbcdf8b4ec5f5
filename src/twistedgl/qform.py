"""Quadratic and epsilon-symmetric form algebra over Q_p.

Gram matrices with exact rational entries, congruence diagonalization, the
classifying triple (dim, det, Hasse), the isotropy criterion, Witt
decomposition and the comparison operations built on them.  Alternating
Grams share the container through a symmetry tag; Witt theory is exposed for
the symmetric tag only.

A form is its Gram G = rows / den: integer rows (a tuple of tuples) over the
least common denominator of G's entries, the pair that
linalg.clear_denominators gives, so equal Grams are equal pairs, and == and
hash compare them.  The Mat gram is a view, built from the rows when it is
first read; the checked constructor keeps the Mat it was given as that view.
diag_form, hyperbolic, scale and direct_sum (through block_rows) build rows
directly, and the elimination, Q^-1 and the form's document read rows, so a
form built by them never builds a Fraction Gram unless a caller reads gram.

The one symmetric elimination, _eliminate_symmetric, runs Bareiss's update
on the upper triangle of integer rows and returns its integer pivots.
_diagonal builds the Fraction diagonal from them for diagonalize, and
_pivot_classes the square classes of that diagonal on their F_2 bits.

A symmetric form holds classes: the bits of the square classes of the
diagonal of some diagonalization, one per entry, in no promised order and
not part of == or hash.  The det class and the Hasse invariant, and so the
Witt data, depend only on the isometry class (Serre, A Course in
Arithmetic, ch. IV), and the Weil index is a character of the Witt group
(Weil, Acta Math. 111, 1964): each is read off these bits, and any
diagonalization gives the same values.  The checked constructor takes the
pivot classes of its one elimination, which is its non-degeneracy check;
diag_form classes its entries, hyperbolic holds <1, -1> a plane, scale adds
class(c) to each class and direct_sum concatenates its summands' classes,
so none of them eliminates.  An alternating Gram is checked by the
determinant of its rows and holds no classes.  A form known only by integer
rows (a twisted point's q_delta) is eliminated once by witt_kernel, which
builds no form and no Fraction.

The one Witt reduction, _witt_bits, works on bits alone: it returns the det
and discriminant classes and the Hasse invariant of a form, and the triple
(dim, det class, Hasse) of its anisotropic kernel, each class by its bits
and each Hasse invariant (-1)^e by the bit e.  The objects FormInvariants,
WittClass and SquareClass are built from these bits by _invariants, only for
the public results (invariants, witt_decompose, equivalent and the CLI
documents); witt_kernel and is_isotropic read the bits and build none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .linalg import Mat, clear_denominators, fr, int_det, mat, to_mat
from .localfield import (Prime, SquareClass, _class_bits, _hilbert_bit, as_prime,
                         square_class)

SYMMETRIC = "symmetric"
ALTERNATING = "alternating"


@dataclass(frozen=True, init=False)
class QuadForm:
    """A non-degenerate form over Q_p with Gram matrix rows / den, den the
    least common denominator of its entries.  A symmetric form holds the
    square classes of a diagonalization as classes, bits one per entry; an
    alternating one holds None."""

    rows: tuple[tuple[int, ...], ...]
    den: int
    p: Prime
    label: str | None = field(default=None, compare=False)  # a name, not part of the form
    symmetry: str = SYMMETRIC
    classes: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __init__(self, gram, p, label: str | None = None, symmetry: str = SYMMETRIC):
        p = as_prime(p)
        g = mat(gram)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        rows, den = clear_denominators(g)
        rows = tuple(map(tuple, rows))
        cols = tuple(zip(*rows))
        if symmetry == SYMMETRIC:
            if rows != cols:
                raise ValueError("Gram matrix is not symmetric")
            # the elimination raises on a degenerate Gram
            classes = _pivot_classes(_eliminate_symmetric(rows, transform=False)[0], den, p)
        elif symmetry == ALTERNATING:
            if cols != tuple(tuple(-x for x in row) for row in rows):
                raise ValueError("Gram matrix is not alternating")
            if n and int_det(rows) == 0:
                raise ValueError("degenerate Gram matrix")
            classes = None
        else:
            raise ValueError(f"unknown symmetry tag {symmetry!r}")
        # the Mat it was given is kept as the view gram
        vars(self).update(rows=rows, den=den, p=p, label=label, symmetry=symmetry,
                          gram=g, classes=classes)

    @classmethod
    def _built(cls, rows: tuple[tuple[int, ...], ...], den: int, p: Prime,
               label: str | None, symmetry: str,
               classes: tuple[int, ...] | None) -> QuadForm:
        """A form known square, non-degenerate and of this symmetry, with rows
        over the least den, built without the checks; classes are those of a
        diagonalization (None if alternating)."""
        q = cls.__new__(cls)
        vars(q).update(rows=rows, den=den, p=p, label=label, symmetry=symmetry,
                       classes=classes)
        return q

    @cached_property
    def gram(self) -> Mat:
        """rows / den as a Mat, built on first read."""
        return to_mat(self.rows, self.den)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def invariants(self) -> "FormInvariants":
        """The invariants of this form, computed on first use; see invariants()."""
        return _invariants(self.classes, self.p)

    def __str__(self) -> str:
        name = self.label or f"{self.symmetry} form"
        return f"{name} of dim {self.dim} over Q_{self.p}"


def quad_form(gram, p, label: str | None = None) -> QuadForm:
    return QuadForm(gram, p, label, SYMMETRIC)


def diag_form(entries, p, label: str | None = None) -> QuadForm:
    entries = [fr(a) for a in entries]
    if any(a == 0 for a in entries):
        raise ValueError("diagonal entries must be nonzero")
    p = as_prime(p)
    den = math.lcm(*(a.denominator for a in entries))
    rows = _monomial_rows([(i, a.numerator * (den // a.denominator))
                           for i, a in enumerate(entries)])
    classes = tuple(_class_bits(a.numerator, a.denominator, p) for a in entries)
    return QuadForm._built(rows, den, p, label, SYMMETRIC, classes)


def _monomial_rows(entries) -> tuple[tuple[int, ...], ...]:
    """Square integer rows, row i zero but for v in column j, (j, v) = entries[i]."""
    n = len(entries)
    return tuple((0,) * j + (v,) + (0,) * (n - 1 - j) for j, v in entries)


def alternating_form(gram, p, label: str | None = None) -> QuadForm:
    return QuadForm(gram, p, label, ALTERNATING)


def _require_symmetric(q: QuadForm, op: str):
    if q.symmetry != SYMMETRIC:
        raise ValueError(f"{op} is defined for symmetric forms only")


def _same_prime(q1: QuadForm, q2: QuadForm):
    if q1.p != q2.p:
        raise TypeError("forms over different primes")


# ---------------------------------------------------------------------------
# diagonalization


def _eliminate_symmetric(rows: list[list[int]], transform: bool):
    """Symmetric Bareiss elimination of the integer Gram B = rows, on its
    upper triangle.

    Works on a copy of B.  Pivot rule: first nonzero diagonal entry of the
    trailing block, moved up by a swap; if its diagonal vanishes entirely,
    symmetrize on the first nonzero off-diagonal pair (col_i += col_j,
    row_i += row_j) and move that index up.  Step k then updates the
    trailing block by the exact division (pivot*b_rc - b_rk*b_kc) // previous
    pivot.  That update is symmetric in r and c, so only the entries c >= r
    are computed, with the row multiplier b_rk read as b_kr from the pivot
    row; the lower triangle is mirrored from the upper one only before a
    pivot move, which reads whole rows and columns.

    Returns (pivots, P).  pivots = [P_0 = 1, P_1, ..., P_n], P_k the leading
    principal k-minor of B after the moves, so for any d > 0 the Gram
    rows / d has the diagonal a_k = P_(k+1) / (P_k * d).  With transform,
    the same column operations run on an integer matrix E, whose column k
    ends as P_k times column k of the congruence P with
    P^T (rows / d) P = diag(a); P is None without it.
    """
    b = [list(row) for row in rows]
    n = len(b)
    e = [[int(i == j) for j in range(n)] for i in range(n)] if transform else []

    def mirror(k):
        for r in range(k, n):
            row = b[r]
            for c in range(r + 1, n):
                b[c][r] = row[c]

    def swap(i, j):
        b[i], b[j] = b[j], b[i]
        for row in b:
            row[i], row[j] = row[j], row[i]
        for row in e:
            row[i], row[j] = row[j], row[i]

    def add(i, j):
        for row in b:
            row[i] += row[j]
        b[i] = [x + y for x, y in zip(b[i], b[j])]
        for row in e:
            row[i] += row[j]

    pivots = [1]
    for k in range(n):
        if b[k][k] == 0:
            mirror(k)
            piv = next((j for j in range(k, n) if b[j][j] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                pair = next(((i, j) for i in range(k, n)
                             for j in range(i + 1, n) if b[i][j] != 0), None)
                if pair is None:
                    raise ValueError("degenerate Gram matrix")
                i, j = pair
                add(i, j)
                if i != k:
                    swap(k, i)
        top, prev = b[k], pivots[-1]
        pivot = top[k]
        for r in range(k + 1, n):
            row, f = b[r], top[r]
            for c in range(r, n):
                row[c] = (pivot * row[c] - f * top[c]) // prev
        for row in e:
            f = row[k]
            for c in range(k + 1, n):
                row[c] = (pivot * row[c] - f * top[c]) // prev
        pivots.append(pivot)
    if not transform:
        return pivots, None
    return pivots, tuple(tuple(Fraction(x, den) for x, den in zip(row, pivots))
                         for row in e)


def _diagonal(pivots: list[int], d: int) -> tuple[Fraction, ...]:
    """The diagonal a_k = P_(k+1) / (P_k * d) of the Gram rows / d whose
    elimination gave these pivots."""
    return tuple(Fraction(pivots[k + 1], pivots[k] * d) for k in range(len(pivots) - 1))


def diagonalize(q: QuadForm) -> tuple[tuple[Fraction, ...], Mat]:
    """Diagonal entries a_i and an invertible P with P^T G P = diag(a_i).

    Pivot rule: first nonzero diagonal entry of the trailing block; if its
    diagonal vanishes entirely, symmetrize on the first nonzero off-diagonal
    pair before pivoting.
    """
    _require_symmetric(q, "diagonalization")
    pivots, pmat = _eliminate_symmetric(q.rows, transform=True)
    return _diagonal(pivots, q.den), pmat


# ---------------------------------------------------------------------------
# invariants and the isotropy criterion


@dataclass(frozen=True)
class WittClass:
    """Invariants of an anisotropic form over Q_p; existence is re-checked."""

    aniso_dim: int
    det: SquareClass
    hasse: int
    p: Prime

    def __post_init__(self):
        object.__setattr__(self, "p", as_prime(self.p))
        d, dc, h = self.aniso_dim, self.det, self.hasse
        if h not in (1, -1):
            raise ValueError(f"a Hasse invariant is +1 or -1, not {h!r}")
        if not (0 <= d <= 4 and not _isotropic_triple(d, dc.bits, h < 0, self.p)
                and (d > 1 or h == 1) and (d > 0 or dc.is_trivial())):
            raise ValueError("triple is not realized by an anisotropic form")


@dataclass(frozen=True)
class FormInvariants:
    dim: int
    det: SquareClass
    dpm: SquareClass
    hasse: int
    witt_index: int
    kernel: WittClass

    def __post_init__(self):
        if self.dim != self.aniso_dim + 2 * self.witt_index:
            raise ValueError("inconsistent Witt data")

    @property
    def aniso_dim(self) -> int:
        return self.kernel.aniso_dim


@lru_cache(maxsize=128)  # a constant of p: taken once per prime, not per form
def _minus_one(p: Prime) -> int:
    """The bits of the square class of -1 over Q_p."""
    return _class_bits(-1, 1, p)


def _isotropic_triple(dim: int, det: int, hasse: int, p: Prime) -> bool:
    """The isotropy criterion on (dim, det class, Hasse) (Serre, ch. IV), the
    det class by its bits and the Hasse invariant as the bit e of (-1)^e."""
    if dim <= 1:
        return False
    m1 = _minus_one(p)
    if dim == 2:
        return det == m1
    if dim == 3:
        return hasse == _hilbert_bit(m1, m1 ^ det, p)
    if dim == 4:
        return det != 0 or hasse == _hilbert_bit(m1, m1, p)
    return True


def invariants(q: QuadForm) -> FormInvariants:
    """dim, det class, discriminant, Hasse invariant and Witt data.

    Computed once per form object and kept on it.
    """
    _require_symmetric(q, "invariants")
    return q.invariants


def _witt_bits(bits: tuple[int, ...], p: Prime) -> tuple[int, int, int, tuple[int, int, int]]:
    """The invariants over Q_p of the form <a_1, ..., a_n>, given the square
    classes of its diagonal entries a_i by their F_2 bits, as bits: (det,
    dpm, hasse, kernel), kernel = (aniso_dim, det, hasse) of the anisotropic
    kernel, each class by its bits and each Hasse invariant (-1)^e by e."""
    n = len(bits)
    # Hasse c = prod_j (a_1...a_(j-1), a_j) by bimultiplicativity: n symbols
    # instead of n(n-1)/2, each a bilinear form on bits
    det = e = 0
    for b in bits:
        e ^= _hilbert_bit(det, b, p)
        det ^= b
    m1 = _minus_one(p)
    dpm = m1 ^ det if n * (n - 1) // 2 % 2 else det
    # Witt reduction: split q = q' + H while the criterion finds q isotropic;
    # det q' = -det q, and the Hasse invariant picks up (-1, det q')
    dim, dc, h = n, det, e
    while _isotropic_triple(dim, dc, h, p):
        dc ^= m1
        h ^= _hilbert_bit(m1, dc, p)
        dim -= 2
    return det, dpm, e, (dim, dc, h)


def _invariants(bits: tuple[int, ...], p: Prime) -> FormInvariants:
    """_witt_bits as the objects of a public result."""
    det, dpm, e, (dim, dc, h) = _witt_bits(bits, p)
    n = len(bits)
    return FormInvariants(n, SquareClass(p, det), SquareClass(p, dpm), 1 - 2 * e,
                          (n - dim) // 2, WittClass(dim, SquareClass(p, dc), 1 - 2 * h, p))


def is_isotropic(q: QuadForm) -> bool:
    """Whether q has a nonzero isotropic vector: its anisotropic kernel is
    smaller than q."""
    _require_symmetric(q, "invariants")
    return _witt_bits(q.classes, q.p)[3][0] < q.dim


def witt_decompose(q: QuadForm) -> tuple[int, WittClass]:
    """Witt index and the invariants of the anisotropic kernel."""
    inv = invariants(q)
    return inv.witt_index, inv.kernel


def equivalent(q1: QuadForm, q2: QuadForm) -> bool:
    """Equivalence over Q_p: equal dim, det class and Hasse invariant."""
    _same_prime(q1, q2)
    _require_symmetric(q1, "equivalence")
    _require_symmetric(q2, "equivalence")
    if q1.dim != q2.dim:
        return False
    i1, i2 = invariants(q1), invariants(q2)
    return i1.det == i2.det and i1.hasse == i2.hasse


def witt_kernel(rows: list[list[int]], d: int, p: Prime) -> tuple[int, int, int]:
    """The anisotropic kernel of the symmetric (unchecked) Gram rows / d as
    the bits (aniso_dim, det, hasse) of _witt_bits, in one elimination on its
    integer rows, with no Fraction and no class object; raises on a
    degenerate Gram."""
    pivots = _eliminate_symmetric(rows, transform=False)[0]
    return _witt_bits(_pivot_classes(pivots, d, p), p)[3]


def _pivot_classes(pivots: list[int], d: int, p: Prime) -> tuple[int, ...]:
    """The square classes, as bits, of the diagonal a_k = P_(k+1) / (P_k * d)
    of the Gram rows / d whose elimination gave these pivots.  1/x lies in
    the class of x, so class(a_k) = class(P_(k+1)) + class(P_k) + class(d)
    on the F_2 bits: one integer split per pivot, and one for d."""
    dbits = _class_bits(d, 1, p)
    bits = [_class_bits(x, 1, p) for x in pivots]
    return tuple(bits[k + 1] ^ bits[k] ^ dbits for k in range(len(pivots) - 1))


# ---------------------------------------------------------------------------
# constructors


def block_rows(*forms: QuadForm) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The Gram of the forms' orthogonal sum as (rows, den), den the least
    common multiple of their dens.  It is still the least denominator: a
    prime power dividing den exactly divides some block's den, and that
    block's rows are prime to it."""
    den = math.lcm(*(q.den for q in forms))
    n = sum(q.dim for q in forms)
    out, before = [], 0
    for q in forms:
        f, left, right = den // q.den, (0,) * before, (0,) * (n - before - q.dim)
        out += [left + (row if f == 1 else tuple(f * x for x in row)) + right
                for row in q.rows]
        before += q.dim
    return tuple(out), den


def direct_sum(q1: QuadForm, q2: QuadForm) -> QuadForm:
    """The orthogonal sum q1 + q2, q1's block first.  det = det q1 det q2 is
    nonzero, and the two diagonalizations side by side diagonalize the sum,
    so it holds q1's classes, then q2's, and is not eliminated."""
    _same_prime(q1, q2)
    if q1.symmetry != q2.symmetry:
        raise ValueError("direct sum of forms with different symmetry tags")
    classes = None if q1.symmetry == ALTERNATING else q1.classes + q2.classes
    return QuadForm._built(*block_rows(q1, q2), q1.p, None, q1.symmetry, classes)


def scale(c, q: QuadForm) -> QuadForm:
    c = fr(c)
    if c == 0:
        raise ValueError("scaling by zero")
    # c rows / den = (num / g) (rows / h) / ((cden / h) (den / g)) with g and h
    # the common factors that num shares with den and cden with the rows; the
    # factors left are coprime, so the new den is again the least
    num, cden = c.numerator, c.denominator
    g, h = math.gcd(num, q.den), math.gcd(cden, *(x for row in q.rows for x in row))
    f = num // g
    rows = tuple(tuple(x // h * f for x in row) for row in q.rows)
    # det(cQ) = c^n det Q is nonzero, and cQ keeps the symmetry of Q; c times
    # a diagonalization of Q diagonalizes cQ, so class(c) adds to each class
    cbits = _class_bits(num, cden, q.p)
    classes = None if q.symmetry == ALTERNATING else tuple(b ^ cbits for b in q.classes)
    return QuadForm._built(rows, cden // h * (q.den // g), q.p, None, q.symmetry, classes)


def hyperbolic(k: int, p) -> QuadForm:
    """Orthogonal sum of k hyperbolic planes, each isometric to <1, -1>, so
    holding the classes (1, -1) a plane."""
    if k < 0:
        raise ValueError("negative number of planes")
    p = as_prime(p)
    rows = _monomial_rows([(i ^ 1, 1) for i in range(2 * k)])
    return QuadForm._built(rows, 1, p, f"{k}Hy", SYMMETRIC, (0, _minus_one(p)) * k)


def norm_form(dclass, p) -> QuadForm:
    """Binary norm form of the quadratic etale algebra with discriminant class d.

    The split algebra (trivial class) gives the hyperbolic plane; a field
    K = Q_p(sqrt(d)) gives <1, -d>.
    """
    p = as_prime(p)
    if isinstance(dclass, SquareClass):
        if dclass.p != p:
            raise ValueError("square class over a different prime")
        cls, d = dclass, dclass.representative
    else:
        d = fr(dclass)
        cls = square_class(d, p)
    if cls.is_trivial():
        return hyperbolic(1, p)
    return diag_form([1, -d], p, "norm form")


def represents(q: QuadForm, a) -> bool:
    """Whether the nonzero scalar a is represented: q + <-a> is isotropic."""
    a = fr(a)
    if a == 0:
        raise ValueError("representing zero is not the question here")
    _require_symmetric(q, "represents")
    if q.dim == 0:
        return False
    return is_isotropic(direct_sum(q, diag_form([-a], q.p)))
