"""Exact rational matrices and polynomials; no float ever enters.

A rational matrix is held as integer rows plus one positive common
denominator: (rows, den) stands for rows / den, and lowest_terms divides
out the gcd, so equal matrices give equal pairs.  The kernels int_mul,
int_det, int_inverse, int_charpoly_mod and int_solve_mod work on integer
rows alone and never modify their arguments.  is_isometry is one integer
identity: g = R / d preserves the Gram S / s when R^T S R = d^2 S, in which
s cancels.  Quadratic forms (qform.QuadForm), Goldberg-Shahidi
configurations and the gs battery (gsnorm) compute on rows throughout.

Mat, an immutable tuple of tuples of Fraction, is the boundary type of the
classes and etale builders and of the benchmark's kernels.
clear_denominators takes a Mat to rows over the least den and to_mat brings
rows back; mat_mul, det, inverse and charpoly are the Mat wrappers of the
kernels, and forms and configurations build their Mats (QuadForm.gram, X
and Y) as views when first read.  Polynomials are tuples of Fraction
coefficients in ascending degree order (coeffs[i] is the coefficient of T^i).

Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each update
is divided exactly by the previous pivot, so every entry is a minor of the
input and the integers grow only as fast as determinants do.  Two routines
do it.  _eliminate here, by rows, gives the determinant, and in Gauss-Jordan
form on [B | I] ends with pi I on the left, so B^-1 = right / pi (for each
diagonal block of B larger than 2 x 2, as int_inverse splits B into its
blocks and inverts the smaller ones by their adjugates); the
determinant of the Sylvester matrix of f and f' decides poly_squarefree.
qform._eliminate_symmetric, by congruence, diagonalizes a symmetric Gram
given as integer rows, like the int_* kernels here, and returns its integer
pivots; it is the non-degeneracy check of a symmetric form and reads the
form's rows.

A property that survives reduction modulo a prime can be certified there.
int_charpoly_mod reduces rows / den modulo a prime l (each entry becomes
num * den^-1 mod l), brings it to Hessenberg form over F_l by similarity and
reads off the monic characteristic polynomial (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.2.9); poly_squarefree_mod is
the gcd(f, f') degree test over F_l (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 6 and 14).  A monic f with l-integral coefficients
reduces to a polynomial of the same degree, and a repeated factor of f over
Q, monic and l-integral by Gauss's lemma, stays a repeated factor of f mod l.
So a squarefree f mod l proves f squarefree over Q.  The converse fails: a
squarefree f may acquire a repeated root mod l, and l may divide the
denominator.  Those answers decide nothing, and the caller, gsnorm's
very-regularity rule, decides over Q instead, the one place outside the Mat
boundary where Fractions are built.
int_solve_mod gives A^-1 B mod l by Gauss-Jordan over F_l, and its success
proves det A != 0, so a matrix known only through such a solve can be
certified without an exact inverse.  The
certificate prime (gsnorm.ELL = 32749) is the largest below 2^15: the
product of two residues stays below 2^30, one CPython digit, so after the
first reduction these kernels multiply no multi-digit integers.  The F_p
polynomial helpers (remainder, gcd, power modulo f) also serve the Rabin
irreducibility test and the residue character in localfield.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

Mat = tuple[tuple[Fraction, ...], ...]
Poly = tuple[Fraction, ...]
Scaled = tuple[list[list[int]], int]  # (rows, den), standing for rows / den


def fr(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not accepted in exact arithmetic")
    return Fraction(x)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(tuple(fr(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> Mat:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def dims(a: Mat) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else a


def clear_denominators(a: Mat) -> Scaled:
    """A rational matrix as (integer rows, den): D*a as ints, and D."""
    d = 1
    for row in a:
        for x in row:
            q = x.denominator
            if q != 1:
                d = d * q // math.gcd(d, q)
    if d == 1:
        return [[x.numerator for x in row] for row in a], 1
    rows = [[x.numerator * (d // x.denominator) for x in row] for row in a]
    return rows, d


def lowest_terms(rows: Sequence[Sequence[int]], den: int) -> Scaled:
    """(rows, den), den > 0, over its least denominator: both divided by the
    gcd of den and every entry, so equal matrices give equal pairs."""
    g = math.gcd(den, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], den // g


def to_mat(rows: Sequence[Sequence[int]], den: int = 1) -> Mat:
    """The Mat rows / den, for integer rows and den > 0; its zero entries
    share one Fraction."""
    zero = Fraction(0)
    if den == 1:
        return tuple(tuple(Fraction(x) if x else zero for x in row) for row in rows)
    return tuple(tuple(Fraction(x, den) if x else zero for x in row) for row in rows)


def int_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of two integer matrices of compatible shapes."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k = dims(a)
    k2, m = dims(b)
    if k != k2:
        raise ValueError(f"cannot multiply {n}x{k} by {k2}x{m}")
    ia, da = clear_denominators(a)
    ib, db = clear_denominators(b)
    return to_mat(int_mul(ia, ib), da * db)


def is_isometry(g: Scaled, gram: Sequence[Sequence[int]]) -> bool:
    """Whether g = R / d preserves the form with Gram S / s, for g given as
    (R, d) and gram as the integer rows S: R^T S R == d^2 S, in which s
    cancels."""
    r, d = g
    d2 = d * d
    return int_mul(transpose(r), int_mul(gram, r)) == [[d2 * x for x in row]
                                                       for row in gram]


def _eliminate(rows: list[list[int]], jordan: bool) -> tuple[int, int]:
    """Fraction-free elimination of the integer rows in place: (sign, pivot).

    Pivots down the diagonal of the leading n x n block, n = len(rows); rows
    may be longer than n.  Step k swaps up the first row with a nonzero
    entry in column k, then replaces each entry right of column k in the
    rows below k (jordan=False) or in every row but k (jordan=True) by
    (pivot*a_rj - a_rk*a_kj) // previous pivot, an exact division.  Entries
    in columns up to k are not maintained.  The determinant of the block is
    sign * pivot, with pivot the last one; a singular block returns pivot 0.
    """
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        if rows[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if piv is None:
                return sign, 0
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        width = len(top)
        for r in (range(n) if jordan else range(k + 1, n)):
            if r != k:
                row = rows[r]
                f = row[k]
                for c in range(k + 1, width):
                    row[c] = (pivot * row[c] - f * top[c]) // prev
        prev = pivot
    return sign, prev


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by forward Bareiss elimination."""
    if not rows:
        return 1
    sign, pivot = _eliminate([list(row) for row in rows], jordan=False)
    return sign * pivot


def _block_cuts(rows: Sequence[Sequence[int]]) -> list[int]:
    """0 = c_0 < ... < c_m = n, the finest split of the indices into
    intervals [c_i, c_(i+1)) with rows[i][j] == rows[j][i] == 0 whenever i
    and j lie in different intervals.

    reach is the largest index at which row or column i, or one before it,
    has a nonzero entry, and a cut follows i when reach == i.  Row and
    column i are scanned from the right down to reach only, so a dense
    matrix stops at its first row."""
    n = len(rows)
    cuts, reach = [0], 0
    for i, row in enumerate(rows):
        reach = max(reach, i)
        reach = next((j for j in range(n - 1, reach, -1) if row[j] or rows[j][i]), reach)
        if reach == n - 1:
            break
        if reach == i:
            cuts.append(i + 1)
    return cuts + [n]


def _gauss_jordan(rows: Sequence[Sequence[int]]) -> Scaled:
    """(R, pi) of int_inverse for one block, by elimination of [B | I]."""
    n = len(rows)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    _, pivot = _eliminate(work, jordan=True)
    if pivot == 0:
        raise ValueError("singular matrix")
    if pivot < 0:
        return [[-x for x in row[n:]] for row in work], -pivot
    return [row[n:] for row in work], pivot


def _block_inverse(rows: Sequence[Sequence[int]]) -> Scaled:
    """(R, pi) of int_inverse for one block: a 1 x 1 or 2 x 2 block by its
    adjugate, B^-1 = adj B / det B, so R = sign(det B) adj B; a larger one
    by _gauss_jordan."""
    if len(rows) == 1:
        adj, d = [[1]], rows[0][0]
    elif len(rows) == 2:
        (a, b), (c, e) = rows
        adj, d = [[e, -b], [-c, a]], a * e - b * c
    else:
        return _gauss_jordan(rows)
    if d == 0:
        raise ValueError("singular matrix")
    return (adj, d) if d > 0 else ([[-x for x in row] for row in adj], -d)


def int_inverse(rows: Sequence[Sequence[int]]) -> Scaled:
    """(R, pi) with pi > 0 and B^-1 = R / pi; raises on a singular B.  pi is
    |det B|, so R is unique.

    B is inverted block by block (see _block_cuts and _block_inverse): with
    B_i^-1 = R_i / pi_i, pi is the product of the pi_i and block i of R is
    (pi / pi_i) R_i.  The Gram of a quasisplit space, made of 2 x 2 blocks,
    is inverted in closed form, block by block.  A B of size 2 or less is
    inverted whole by its adjugate, with no scan for blocks."""
    cuts = _block_cuts(rows) if len(rows) > 2 else [0, len(rows)]
    if len(cuts) == 2:
        return _block_inverse(rows)
    spans = list(zip(cuts, cuts[1:]))
    parts = [_block_inverse([row[s:e] for row in rows[s:e]]) for s, e in spans]
    pi = math.prod(p for _, p in parts)
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for (s, e), (r, p) in zip(spans, parts):
        f = pi // p
        for i, row in enumerate(r, s):
            out[i][s:e] = [f * x for x in row]
    return out, pi


def det(a: Mat) -> Fraction:
    """Determinant by forward Bareiss elimination on cleared integers."""
    n, m = dims(a)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    rows, d = clear_denominators(a)
    return Fraction(int_det(rows), d ** n)


def inverse(a: Mat) -> Mat:
    """Matrix inverse by fraction-free Gauss-Jordan; raises on singular input."""
    n, m = dims(a)
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    rows, d = clear_denominators(a)
    r, pi = int_inverse(rows)
    return to_mat([[d * x for x in row] for row in r], pi)


def block_diag(*blocks: Mat) -> Mat:
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(row) for row in out)


def charpoly(a: Mat) -> Poly:
    """Monic characteristic polynomial det(T - A), ascending coefficients.

    Faddeev-LeVerrier over cleared integers (the recursion stays integral),
    with the substitution T -> T/D undone on the coefficients.
    """
    n, m = dims(a)
    if n != m:
        raise ValueError("characteristic polynomial of a non-square matrix")
    if n == 0:
        return (Fraction(1),)
    rows, d = clear_denominators(a)
    coeffs = [0] * n + [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(rows[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        ck = -tr // k
        if ck * k != -tr:
            raise RuntimeError("integer Faddeev-LeVerrier lost exactness")
        coeffs[n - k] = ck
        for i in range(n):
            am[i][i] += ck
        mk = am
    # char of D*A evaluated at D*T, normalized monic: divide coeff i by D^(n-i)
    return tuple(Fraction(coeffs[i], d ** (n - i)) for i in range(n + 1))


def int_charpoly_mod(rows: Sequence[Sequence[int]], den: int,
                     ell: int) -> list[int] | None:
    """det(T - rows/den) mod the prime ell as ascending residues, or None
    when ell divides den.

    Each entry num becomes num * den^-1 mod ell.  Hessenberg reduction by
    similarity over F_ell, then the recurrence p_m = (T - h_mm) p_(m-1)
    - sum_i h_im (h_(i+1,i) ... h_(m,m-1)) p_(i-1) (Cohen, Alg. 2.2.9).
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("characteristic polynomial of a non-square matrix")
    if den % ell == 0:
        return None
    inv = pow(den, -1, ell)
    h = [[x * inv % ell for x in row] for row in rows]
    for k in range(1, n - 1):
        piv = next((i for i in range(k, n) if h[i][k - 1]), None)
        if piv is None:
            continue
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        top = h[k]
        inv = pow(top[k - 1], -1, ell)
        for i in range(k + 1, n):
            row = h[i]
            u = row[k - 1] * inv % ell
            if u:
                # row_i -= u row_k, then column_k += u column_i: a similarity
                for j in range(k - 1, n):
                    row[j] = (row[j] - u * top[j]) % ell
                for r in h:
                    r[k] = (r[k] + u * r[i]) % ell
    polys = [[1]]
    for k in range(n):
        # (T - h_kk) p_k, then the terms of the column above the diagonal
        prev = polys[k]
        cur = [0] + prev
        hkk = h[k][k]
        for i, c in enumerate(prev):
            cur[i] = (cur[i] - hkk * c) % ell
        t = 1
        for i in range(k, 0, -1):
            t = t * h[i][i - 1] % ell
            c = h[i - 1][k] * t % ell
            if c:
                for j, x in enumerate(polys[i - 1]):
                    cur[j] = (cur[j] - c * x) % ell
        polys.append(cur)
    return polys[n]


def int_solve_mod(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
                  ell: int) -> list[list[int]] | None:
    """A^-1 B mod the prime ell as residue rows, for square integer rows A
    and integer rows B of the same height, or None when ell divides det A.

    Gauss-Jordan over F_ell on [A | B]: step k scales the pivot row to a
    leading 1 and clears column k from every other row.  As in _eliminate,
    entries in columns up to k are not maintained.
    """
    n = len(a)
    rows = [[x % ell for x in ra] + [x % ell for x in rb] for ra, rb in zip(a, b)]
    width = len(rows[0]) if rows else 0
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        inv = pow(top[k], -1, ell)
        for c in range(k + 1, width):
            top[c] = top[c] * inv % ell
        for r, row in enumerate(rows):
            f = row[k]
            if f and r != k:
                for c in range(k + 1, width):
                    row[c] = (row[c] - f * top[c]) % ell
    return [row[n:] for row in rows]


def poly_squarefree_mod(f: Sequence[int], ell: int) -> bool:
    """gcd(f, f') = 1 over F_ell, for f given by ascending residues."""
    return len(gfp_gcd(f, [i * c for i, c in enumerate(f)][1:], ell)) == 1


# ---------------------------------------------------------------------------
# polynomials over F_p: lists of ascending residues, the zero polynomial []


def gfp_trim(x: Sequence[int], p: int) -> list[int]:
    x = [c % p for c in x]
    while x and x[-1] == 0:
        x.pop()
    return x


def _gfp_rem(r: list[int], b: Sequence[int], p: int) -> list[int]:
    """r mod b for trimmed r and b, b nonzero: each step cancels the leading
    coefficient of r, which is popped with any zeros below it, so r (reduced
    in place) is never trimmed again."""
    inv = pow(b[-1], -1, p)
    shift = len(r) - len(b)
    while shift >= 0:
        lead = r[-1] * inv % p
        for i, c in enumerate(b, shift):
            r[i] = (r[i] - lead * c) % p
        while r and r[-1] == 0:
            r.pop()
        shift = len(r) - len(b)
    return r


def gfp_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    return _gfp_rem(gfp_trim(a, p), gfp_trim(b, p), p)


def gfp_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = gfp_trim(a, p), gfp_trim(b, p)
    while b:
        a, b = b, _gfp_rem(a, b, p)
    return a


def gfp_powmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    """a^e modulo f over F_p, by repeated squaring."""
    f = gfp_trim(f, p)

    def mulmod(x, y):
        out = [0] * (len(x) + len(y))
        for i, c in enumerate(x):
            for j, d in enumerate(y):
                out[i + j] += c * d
        return _gfp_rem(gfp_trim(out, p), f, p)

    result, base = gfp_mod([1], f, p), gfp_mod(a, f, p)
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# polynomials (ascending coefficient tuples)

def poly_trim(p: Sequence[Fraction]) -> Poly:
    q = list(p)
    while len(q) > 1 and q[-1] == 0:
        q.pop()
    return tuple(q)


def poly_mul(p: Poly, q: Poly) -> Poly:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(tuple(out))


def poly_squarefree(p: Poly) -> bool:
    """No repeated root over Q: Res(f, f') != 0, the Sylvester determinant.

    Res(f, f') = +-lc(f) disc(f), which vanishes exactly when f has a
    repeated root in characteristic 0 (Cohen, Sect. 3.3).  f is scaled to
    integer coefficients by its common denominator, which scales f' alike,
    and the (2m - 1)-square Sylvester matrix of the degree-m pair goes to
    the Bareiss kernel.  Constants and linear polynomials are squarefree.
    """
    (f,), _ = clear_denominators((poly_trim(p),))
    m = len(f) - 1
    if m <= 1:
        return True
    df = [i * c for i, c in enumerate(f)][1:]
    rows = [[0] * i + f + [0] * (m - 2 - i) for i in range(m - 1)]
    rows += [[0] * i + df + [0] * (m - 1 - i) for i in range(m)]
    return _eliminate(rows, jordan=False)[1] != 0
