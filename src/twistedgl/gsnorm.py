"""The unipotent block formalism and its norm correspondence.

The ambient space V1 = H-dual + V + H carries the block form
[[0,0,I],[0,Q,0],[eps I,0,0]].  Pairs (X, Y) with the closure condition
Y + eps Y^T + X Q^-1 X^T = 0 name unipotent elements u(X, Y); invertible
pairs rigidify to a twisted-space point delta (Gram Y) together with an
isometry phi, and the norm map 1 + Q^-1 X^T Y^-1 X lands in the isometry
group of (V, q).  Dual bases are fixed once so every checked transpose is a
literal matrix transpose.

On a closed pair X gamma X^-1 = 1 - (Y + eps Y^T) Y^-1 = -eps Y^T Y^-1, so
the norm gamma is similar to Z = -eps Y^-1 Y^T and is known from Y alone:
_norm_very_regular(Y_n, eps) is the one very-regularity rule (random_config,
endoscopy.gs_constancy_check), and gs_param_check reads the characteristic
polynomial off twist_invariant(Y); it alone reads classes and etale, and
imports them when called, so the sampler, the norm and a corpus run load
neither.  The rule is a squarefree characteristic
polynomial and nothing more: Y^-1 Z^T Y = Z^-1, so the eigenvalues of Z pair
as lambda <-> 1/lambda, and +-1 has even multiplicity when n is even
(det Z = 1); when n is odd, the skew Y - Y^T is singular, and Y v = Y^T v
for some v != 0 makes -eps an eigenvalue.

A configuration is its integer rows over one common denominator (see
linalg): the ambient keeps Q^-1 = A / a, the configuration keeps only
X = X_n / d_X and Y = Y_n / d_Y, and each identity is checked or built
after multiplying through by its denominator:

* a sample draws integer X and R (each in one call, see _draw), sets
  S = R - eps R^T and Y = -1/2 X Q^-1 X^T + S = (-X A X^T + 2a S) / 2a,
  tests det X, and leaves det Y and very-regularity to the rule;
* with Y_n^-1 = R / pi, the norm is
  1 + Q^-1 X^T Y^-1 X = (c I + d_Y A X_n^T R X_n) / c, c = a d_X^2 pi;
* the closure condition Y + eps Y^T + X Q^-1 X^T = 0 is
  a d_X^2 (Y_n + eps Y_n^T) + d_Y X_n A X_n^T = 0.

u_of_xy, gs_norm and gs_section return integer rows over the least
denominator, so equal matrices compare equal as pairs.  The Mats X, Y,
gram_q1 and rigidify's pair are views built when first read, for the Mat
builders of classes (gs_param_check) and the benchmark's Mat kernels; a
corpus record, which reads only rows, builds none, and the rule decides on
integers also where residues do not decide.  A sampled configuration comes
with its invertibility and closure condition marked; every other
configuration checks them on first use.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING

from .linalg import (Mat, Scaled, clear_denominators, int_charpoly, int_charpoly_mod,
                     int_det, int_inverse, int_mul, int_poly_squarefree,
                     int_solve_mod, is_isometry, lowest_terms, mat, poly_mul,
                     poly_squarefree, poly_squarefree_mod, to_mat, transpose)
from .qform import ALTERNATING, SYMMETRIC, QuadForm, is_isotropic

if TYPE_CHECKING:
    from .classes import ClassParameter

# the prime of the very-regularity certificate, the largest below 2^15: a
# product of two residues stays below 2^30, one CPython digit
ELL = 32749
# samples random_config draws before it gives up on a seed
RETRY_BUDGET = 10000


@dataclass(frozen=True)
class AmbientSpace:
    """V1 = H-dual + V + H with the standard totally-isotropic flag blocks."""

    q_V: QuadForm
    epsilon: int

    @property
    def p(self):
        return self.q_V.p

    @property
    def n(self) -> int:
        return self.q_V.dim

    @cached_property
    def q_inverse_scaled(self) -> Scaled:
        """Q^-1 as (A, a), integer rows A and a > 0 with Q^-1 = A / a,
        computed once per ambient."""
        r, pi = int_inverse(self.q_V.rows)
        d = self.q_V.den
        return [[d * x for x in row] for row in r], pi

    @property
    def gram_q1_scaled(self) -> Scaled:
        """The block Gram [[0, 0, I], [0, Q, 0], [eps I, 0, 0]] of V1 as
        integer rows over the denominator d of Q, so I is d I."""
        n, d, eps = self.n, self.q_V.den, self.epsilon
        zero = [0] * n
        eye = [[d * (i == j) for j in range(n)] for i in range(n)]
        # det = +-eps^n det Q, and QuadForm refuses det Q = 0: never degenerate
        return ([zero + zero + row for row in eye]
                + [zero + list(row) + zero for row in self.q_V.rows]
                + [[eps * v for v in row] + zero + zero for row in eye]), d

    @cached_property
    def gram_q1(self) -> Mat:
        """gram_q1_scaled as a Mat, built on first read."""
        return to_mat(*self.gram_q1_scaled)


def make_ambient(q_V: QuadForm, epsilon: int) -> AmbientSpace:
    """Check the signature of V1; rejects the excluded small orthogonal case."""
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if epsilon == 1 and q_V.symmetry != SYMMETRIC:
        raise ValueError("epsilon = +1 needs a symmetric Gram")
    if epsilon == -1 and q_V.symmetry != ALTERNATING:
        raise ValueError("epsilon = -1 needs an alternating Gram")
    n = q_V.dim
    if n == 0:
        raise ValueError("V must be nonzero")
    if epsilon == 1 and n == 2 and is_isotropic(q_V):
        raise ValueError("isotropic binary V is excluded in the even orthogonal case")
    return AmbientSpace(q_V, epsilon)


@dataclass(frozen=True, init=False, eq=False)
class GSConfiguration:
    """An ambient space with X: V -> H-dual and Y: H -> H-dual, given as n x n
    matrices and held as the integer rows x_scaled = (X_n, d_X) and
    y_scaled = (Y_n, d_Y); the Mats X and Y are views built when first read."""

    ambient: AmbientSpace
    x_scaled: Scaled
    y_scaled: Scaled

    def __init__(self, ambient: AmbientSpace, X: Mat, Y: Mat):
        n = ambient.n
        vars(self).update(ambient=ambient,
                          x_scaled=clear_denominators(_n_by_n(mat(X), n, "X")),
                          y_scaled=clear_denominators(_n_by_n(mat(Y), n, "Y")))

    @classmethod
    def from_rows(cls, ambient, x_scaled, y_scaled) -> GSConfiguration:
        """The configuration X = X_n / d_X, Y = Y_n / d_Y of n x n integer
        rows, x_scaled = (X_n, d_X) and y_scaled = (Y_n, d_Y)."""
        config = cls.__new__(cls)
        vars(config).update(ambient=ambient, x_scaled=x_scaled, y_scaled=y_scaled)
        return config

    @cached_property
    def X(self) -> Mat:
        """X_n / d_X, built on first read."""
        return to_mat(*self.x_scaled)

    @cached_property
    def Y(self) -> Mat:
        """Y_n / d_Y, built on first read."""
        return to_mat(*self.y_scaled)

    @cached_property
    def invertible(self) -> bool:
        """det X != 0 and det Y != 0, computed once per configuration."""
        return int_det(self.x_scaled[0]) != 0 and int_det(self.y_scaled[0]) != 0

    @cached_property
    def closed(self) -> bool:
        """The closure condition Y + eps Y^T + X Q^-1 X^T = 0, checked exactly
        on first use."""
        amb = self.ambient
        a_rows, a = amb.q_inverse_scaled
        x, dx = self.x_scaled
        y, dy = self.y_scaled
        eps, c = amb.epsilon, a * dx * dx
        return all(c * (y[i][j] + eps * y[j][i]) + dy * v == 0
                   for i, row in enumerate(_xax(a_rows, x, eps)) for j, v in enumerate(row))


def _n_by_n(m, n: int, name: str):
    """The rows m, refused unless there are n of them and the first has n
    entries (mat and clear_denominators leave no ragged rows)."""
    if len(m) != n or len(m[0]) != n:
        raise ValueError(f"{name} must be {n} x {n}")
    return m


def _xax(a_rows: list[list[int]], x: list[list[int]], eps: int) -> list[list[int]]:
    """X A X^T on integer rows, for A = eps A^T (symmetric or alternating).

    A X^T is formed row by row over the nonzero entries of A alone, and only
    the upper triangle of X (A X^T) is computed: X A X^T = eps (X A X^T)^T,
    so the lower triangle is the upper one mirrored with the sign eps."""
    n = len(x)
    xt = list(zip(*x))
    ax = []
    for row in a_rows:
        acc = [0] * n
        for k, v in enumerate(row):
            if v:
                acc = [s + v * t for s, t in zip(acc, xt[k])]
        ax.append(acc)
    cols = list(zip(*ax))
    out = [[sum(map(mul, xi, c)) for c in cols[i:]] for i, xi in enumerate(x)]
    for i, row in enumerate(out):
        row[:0] = [eps * out[j][i] for j in range(i)]
    return out


def _draw(rng: random.Random, n: int, lo: int, hi: int) -> list[list[int]]:
    """n x n integers, row by row, exactly as n * n calls rng.randint(lo, hi)
    would draw them, leaving rng in the same state.

    randint takes one 32-bit word per try and keeps its top k bits when they
    are below m = hi - lo + 1, k = m.bit_length() (CPython's _randbelow);
    getrandbits(32 * need) returns the next need words, the first in the
    lowest bits.  So one call draws every try, and a second asks only for the
    entries the rejected words left short."""
    m = hi - lo + 1
    shift = 32 - m.bit_length()
    vals = []
    while need := n * n - len(vals):
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        vals += [v + lo for w in struct.unpack(f"<{need}I", words) if (v := w >> shift) < m]
    return [vals[i:i + n] for i in range(0, n * n, n)]


def random_config(ambient: AmbientSpace, seed: int) -> GSConfiguration:
    """Seeded random member of U' with a very regular norm: invertible X, Y
    with the closure condition.

    Y is the symmetric particular solution -1/2 X Q^-1 X^T plus a random
    check-skew matrix; rejection sampling keeps the first draw with
    det X != 0 whose Y_n passes _norm_very_regular.  Deterministic per seed.
    An odd orthogonal ambient is refused: none of its norms is very regular.
    """
    n, eps = ambient.n, ambient.epsilon
    if eps == 1 and n % 2:
        raise ValueError("no very regular norm on an odd orthogonal ambient: an "
                         "isometry of an odd-dimensional space has eigenvalue +-1")
    rng = random.Random(seed)
    a_rows, a = ambient.q_inverse_scaled
    for _ in range(RETRY_BUDGET):
        x = _draw(rng, n, -9, 9)
        if int_det(x) == 0:
            continue
        r = _draw(rng, n, -4, 4)
        # S = R - eps R^T, so S + eps S^T = 0; Y over the denominator 2a
        xax = _xax(a_rows, x, eps)
        y = [[2 * a * (r[i][j] - eps * r[j][i]) - v for j, v in enumerate(row)]
             for i, row in enumerate(xax)]
        if _norm_very_regular(y, eps):
            # det X was taken before R was drawn, which keeps the seeded stream
            config = GSConfiguration.from_rows(ambient, (x, 1), (y, 2 * a))
            vars(config).update(invertible=True, closed=True)
            return config
    raise RuntimeError(f"retry budget exhausted for seed {seed}")


def _norm_very_regular(y: list[list[int]], eps: int) -> bool:
    """Whether det Y_n != 0 and the norm of a closed pair with Y = Y_n / d_Y,
    similar to Z = -eps Y_n^-1 Y_n^T, is very regular: a squarefree
    characteristic polynomial.  No eigenvalue test follows, as none can fire:
    Z is similar to Z^-1 (see the module), so a squarefree f = charpoly(Z)
    has neither 1 nor -1 as a root, and an odd n is never very regular.

    Residues may only accept: Gauss-Jordan on [Y_n | -eps Y_n^T] over F_ELL
    gives Z and proves det Y_n != 0, and f mod ELL squarefree proves f
    squarefree (see linalg).  Anything else is decided exactly, on
    integers, so the answer does not depend on ELL: with Y_n^-1 = R / pi
    from int_inverse(Y_n), Z is similar to -eps Y_n^T R / pi, taken over its
    least denominator, and f times the least integer that clears its
    denominators (int_charpoly) goes to int_poly_squarefree.  Least
    integers matter: with M / c that matrix, the Sylvester determinant of
    det(S - M) = c^n f(S / c), whose low coefficients carry powers of c,
    took about 40 times as long on a 12 x 12 draw (2-core Xeon).
    """
    if len(y) % 2:
        return False
    yt = [[-eps * v for v in col] for col in zip(*y)]
    z = int_solve_mod(y, yt, ELL)
    if z is not None and poly_squarefree_mod(int_charpoly_mod(z, 1, ELL), ELL):
        return True
    try:
        y_inv, pi = int_inverse(y)
    except ValueError:  # det Y_n = 0
        return False
    return int_poly_squarefree(int_charpoly(*lowest_terms(int_mul(yt, y_inv), pi)))


def phi_scaled(config: GSConfiguration) -> Scaled:
    """phi = Q^-1 X^T = A X_n^T / (a d_X)."""
    a_rows, a = config.ambient.q_inverse_scaled
    x, dx = config.x_scaled
    return int_mul(a_rows, transpose(x)), a * dx


def u_of_xy(config: GSConfiguration) -> Scaled:
    """The unipotent isometry 1 + n(X, Y) = [[I, X, Y], [0, I, -phi],
    [0, 0, I]] in block form on (H-dual, V, H), as integer rows over the
    least denominator; c = a d_X d_Y is a common one."""
    if not config.closed:
        raise ValueError("closure condition violated")
    (x, dx), (y, dy) = config.x_scaled, config.y_scaled
    phi, e = phi_scaled(config)
    c, zero = e * dy, [0] * len(x)
    eye = [[c * (i == j) for j in range(len(x))] for i in range(len(x))]
    top = [[c // dx * v for v in xr] + [e * v for v in yr] for xr, yr in zip(x, y)]
    return lowest_terms([i + t for i, t in zip(eye, top)]
                        + [zero + i + [-dy * v for v in pr] for i, pr in zip(eye, phi)]
                        + [zero + zero + i for i in eye], c)


def check_rigidifiable(config: GSConfiguration) -> None:
    """The closure and invertibility checks of rigidify, on rows alone."""
    if not config.closed:
        raise ValueError("closure condition violated")
    if not config.invertible:
        raise ValueError("rigidification needs invertible X and Y")


def rigidify(config: GSConfiguration) -> tuple[Mat, Mat]:
    """(delta, phi): the twisted point with Gram Y and the exact isometry
    phi = Q^-1 X^T, which carries (H, delta + eps delta^T) onto (V, -eps q)."""
    check_rigidifiable(config)
    return config.Y, to_mat(*phi_scaled(config))


def gs_norm(config: GSConfiguration) -> Scaled:
    """The norm 1 + Q^-1 X^T Y^-1 X = (c I + d_Y A X_n^T R X_n) / c over the
    least denominator, with Y_n^-1 = R / pi and c = a d_X^2 pi; an exact
    isometry of (V, q) for a closed pair only, and gs norm refuses any other."""
    if not config.invertible:
        raise ValueError("norm needs invertible X and Y")
    a_rows, a = config.ambient.q_inverse_scaled
    x, dx = config.x_scaled
    y, dy = config.y_scaled
    r, pi = int_inverse(y)
    c = a * dx * dx * pi
    m = int_mul(a_rows, int_mul(transpose(x), int_mul(r, x)))
    return lowest_terms([[dy * v + c * (i == j) for j, v in enumerate(row)]
                         for i, row in enumerate(m)], c)


def gs_section(ambient: AmbientSpace, x: Scaled, gamma: Scaled) -> Scaled:
    """Y = X (gamma - 1)^-1 Q^-1 X^T, the section of the norm at X = X_n / d_X
    for an isometry gamma = G / g of q_V: with (G - g I)^-1 = R / pi, inverted
    once, Y = g X_n R A X_n^T / (d_X^2 pi a), over the least denominator."""
    n = ambient.n
    (xn, dx), (gn, g) = x, gamma
    _n_by_n(xn, n, "X")
    _n_by_n(gn, n, "gamma")
    if int_det(xn) == 0:
        raise ValueError("section needs an invertible X")
    if not is_isometry(gamma, ambient.q_V.rows):
        raise ValueError("gamma is not an isometry of q_V")
    try:
        r, pi = int_inverse([[v - g * (i == j) for j, v in enumerate(row)]
                             for i, row in enumerate(gn)])
    except ValueError:
        raise ValueError("gamma - 1 must be invertible") from None
    a_rows, a = ambient.q_inverse_scaled
    m = int_mul(xn, int_mul(r, int_mul(a_rows, transpose(xn))))
    return lowest_terms([[g * v for v in row] for row in m], dx * dx * pi * a)


def gs_param_check(config: GSConfiguration, x_param: ClassParameter) -> bool:
    """Verify the parameter correspondence along the norm of a closed,
    invertible pair.

    The norm is similar to -eps Y^-1 Y^T (see _norm_very_regular), so
    twist_invariant(Y), the characteristic polynomial of Y^-1 Y^T, decides
    both the very-regularity test (it must be squarefree) and the match.  The
    parameter's one characteristic polynomial, of mult by tau(x)/x, does the
    same on its side: squarefree is very regular (x/tau(x) is a generator,
    as char_poly(tau(r)) = char_poly(r) for r = x/tau(x)), and it must equal the
    norm's, times the trivial eigenvalue block (T - 1) in the odd orthogonal
    case.
    """
    from .classes import twist_invariant
    from .etale import char_poly, tau
    check_rigidifiable(config)
    amb = config.ambient
    odd = amb.epsilon == 1 and amb.n % 2 == 1
    if x_param.kind != ("tGL-odd" if odd else "tGL-even"):
        raise ValueError("parameter kind does not match the ambient signature")
    expected_fp = char_poly(tau(x_param.x) * x_param.x.inverse())
    if not poly_squarefree(expected_fp):
        raise ValueError("parameter is not very regular")
    delta_fp = twist_invariant(config.Y)
    if not poly_squarefree(delta_fp):
        raise ValueError("norm is not very regular for this configuration")
    if odd:
        expected_fp = poly_mul(expected_fp, (Fraction(-1), Fraction(1)))
    return delta_fp == expected_fp
