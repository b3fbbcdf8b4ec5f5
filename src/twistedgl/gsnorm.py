"""The unipotent block formalism and its norm correspondence.

The ambient space V1 = H-dual + V + H carries the block form
[[0,0,I],[0,Q,0],[eps I,0,0]].  Pairs (X, Y) with the closure condition
Y + eps Y^T + X Q^-1 X^T = 0 name unipotent elements u(X, Y); invertible
pairs rigidify to a twisted-space point delta (Gram Y) together with an
isometry phi, and the norm map 1 + Q^-1 X^T Y^-1 X lands in the isometry
group of (V, q).  Dual bases are fixed once so every checked transpose is a
literal matrix transpose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .classes import ClassParameter
from .etale import char_poly, tau, very_regular
from .linalg import (Mat, charpoly, charpoly_mod, det, from_blocks, identity,
                     inverse, mat, mat_add, mat_mul, mat_neg, mat_scale, mat_sub,
                     poly_eval, poly_mul, poly_squarefree, poly_squarefree_mod,
                     transpose, zeros)
from .qform import ALTERNATING, SYMMETRIC, QuadForm, is_isotropic

# the prime of the very-regularity certificate, the Mersenne prime 2^61 - 1
ELL = (1 << 61) - 1
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
    def q_inverse(self) -> Mat:
        """Q^-1, the inverse of the Gram of V, computed once per ambient."""
        return inverse(self.q_V.gram)

    @cached_property
    def gram_q1(self) -> Mat:
        """The block Gram [[0, 0, I], [0, Q, 0], [eps I, 0, 0]] of V1."""
        n = self.n
        eye, z = identity(n), zeros(n)
        # det = +-eps^n det Q, and QuadForm refuses det Q = 0: never degenerate
        return from_blocks([
            [z, z, eye],
            [z, self.q_V.gram, z],
            [mat_scale(self.epsilon, eye), z, z],
        ])


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
    if epsilon == 1 and n == 2 and q_V.dim % 2 == 0 and is_isotropic(q_V):
        raise ValueError("isotropic binary V is excluded in the even orthogonal case")
    return AmbientSpace(q_V, epsilon)


@dataclass(frozen=True)
class GSConfiguration:
    """An ambient space with X: V -> H-dual and Y: H -> H-dual."""

    ambient: AmbientSpace
    X: Mat
    Y: Mat

    def __post_init__(self):
        n = self.ambient.n
        x, y = mat(self.X), mat(self.Y)
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "Y", y)
        if len(x) != n or len(x[0]) != n or len(y) != n or len(y[0]) != n:
            raise ValueError("X and Y must be n x n")

    @cached_property
    def invertible(self) -> bool:
        """det X != 0 and det Y != 0, computed once per configuration."""
        return det(self.X) != 0 and det(self.Y) != 0


def xy_condition(config: GSConfiguration) -> bool:
    """Exact check of Y + eps Y^T + X Q^-1 X^T = 0."""
    amb = config.ambient
    qinv = amb.q_inverse
    total = mat_add(config.Y, mat_scale(amb.epsilon, transpose(config.Y)))
    total = mat_add(total, mat_mul(config.X, mat_mul(qinv, transpose(config.X))))
    return all(v == 0 for row in total for v in row)


def random_config(ambient: AmbientSpace, seed: int,
                  require_very_regular: bool = True) -> GSConfiguration:
    """Seeded random member of U': invertible X, Y with the closure condition.

    Y is the symmetric particular solution -1/2 X Q^-1 X^T plus a random
    check-skew matrix; rejection sampling enforces invertibility and, by
    default, very-regularity of the norm.  Deterministic per seed.
    """
    rng = random.Random(seed)
    n, eps = ambient.n, ambient.epsilon
    qinv = ambient.q_inverse
    for _ in range(RETRY_BUDGET):
        x = mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if det(x) == 0:
            continue
        r = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        s = mat_sub(r, mat_scale(eps, transpose(r)))  # S + eps S^T = 0
        y = mat_add(mat_scale(Fraction(-1, 2), mat_mul(x, mat_mul(qinv, transpose(x)))), s)
        if det(y) == 0:
            continue
        config = GSConfiguration(ambient, x, y)
        # both determinants were just taken (X's before S is drawn, which
        # keeps the seeded stream): record them rather than take them again
        object.__setattr__(config, "invertible", True)
        if require_very_regular and not is_very_regular(gs_norm(config)):
            continue
        return config
    raise RuntimeError(f"retry budget exhausted for seed {seed}")


def is_very_regular(gamma: Mat) -> bool:
    """A squarefree characteristic polynomial, and neither 1 nor -1 an eigenvalue.

    First the certificate modulo ELL: when every entry is ELL-integral and
    f = charpoly(gamma) mod ELL is squarefree over F_ELL with f(1) and f(-1)
    nonzero, gamma is very regular (see linalg).  That decides only True;
    every other case, and every False, is decided over Q on f = charpoly(gamma),
    whose values f(1), f(-1) are +-det(gamma -+ 1).
    """
    f = charpoly_mod(gamma, ELL)
    if f is not None and poly_squarefree_mod(f, ELL):
        at_one, at_minus_one = sum(f) % ELL, (sum(f[::2]) - sum(f[1::2])) % ELL
        if at_one and at_minus_one:
            return True
    f = charpoly(gamma)
    return poly_squarefree(f) and poly_eval(f, 1) != 0 and poly_eval(f, -1) != 0


def u_of_xy(config: GSConfiguration) -> Mat:
    """The unipotent isometry 1 + n(X, Y) in block form on (H-dual, V, H)."""
    if not xy_condition(config):
        raise ValueError("closure condition violated")
    amb = config.ambient
    n = amb.n
    qinv = amb.q_inverse
    xprime = mat_neg(mat_mul(qinv, transpose(config.X)))  # H -> V
    z = zeros(n)
    nil = from_blocks([
        [z, config.X, config.Y],
        [z, z, xprime],
        [z, z, z],
    ])
    return mat_add(identity(3 * n), nil)


def rigidify(config: GSConfiguration) -> tuple[Mat, Mat]:
    """(delta, phi): the twisted point with Gram Y and the exact isometry.

    phi = Q^-1 X^T carries (H, delta + eps delta^T) onto (V, -eps q).
    """
    if not xy_condition(config):
        raise ValueError("closure condition violated")
    if not config.invertible:
        raise ValueError("rigidification needs invertible X and Y")
    qinv = config.ambient.q_inverse
    phi = mat_mul(qinv, transpose(config.X))
    return config.Y, phi


def gs_norm(config: GSConfiguration) -> Mat:
    """The norm 1 + Q^-1 X^T Y^-1 X, an exact isometry of (V, q)."""
    if not config.invertible:
        raise ValueError("norm needs invertible X and Y")
    amb = config.ambient
    qinv = amb.q_inverse
    gamma = mat_add(identity(amb.n), mat_mul(
        qinv, mat_mul(transpose(config.X), mat_mul(inverse(config.Y), config.X))))
    return gamma


def gs_section(ambient: AmbientSpace, x: Mat, gamma: Mat) -> Mat:
    """Y = X (gamma - 1)^-1 Q^-1 X^T: the section of the norm at this X."""
    x = mat(x)
    gamma = mat(gamma)
    n = ambient.n
    if det(x) == 0:
        raise ValueError("section needs an invertible X")
    gm1 = mat_sub(gamma, identity(n))
    if det(gm1) == 0:
        raise ValueError("gamma - 1 must be invertible")
    qinv = ambient.q_inverse
    return mat_mul(x, mat_mul(inverse(gm1), mat_mul(qinv, transpose(x))))


def gs_param_check(config: GSConfiguration, x_param: ClassParameter) -> bool:
    """Verify the parameter correspondence along the norm.

    Even orthogonal and symplectic: char poly of the norm equals that of
    mult by -eps tau(x)/x.  Odd orthogonal: char poly of -norm equals that
    of mult by tau(x)/x times the trivial eigenvalue block (T - 1).
    """
    amb = config.ambient
    odd = amb.epsilon == 1 and amb.n % 2 == 1
    if x_param.kind != ("tGL-odd" if odd else "tGL-even"):
        raise ValueError("parameter kind does not match the ambient signature")
    if not very_regular(x_param.x):
        raise ValueError("parameter is not very regular")
    cp_gamma = charpoly(gs_norm(config))
    if not poly_squarefree(cp_gamma):
        raise ValueError("norm is not very regular for this configuration")
    from .classes import twist_invariant
    t_minus_1 = (Fraction(-1), Fraction(1))
    ratio = tau(x_param.x) * x_param.x.inverse()
    delta_fp = twist_invariant(config.Y)
    expected_fp = char_poly(ratio)
    if odd:
        expected_fp = poly_mul(expected_fp, t_minus_1)
    if delta_fp != expected_fp:
        return False
    if odd:
        # charpoly(-gamma)(T) = (-1)^n charpoly(gamma)(-T): coefficient i
        # picks up the sign (-1)^(n - i)
        n = amb.n
        return tuple((-1) ** (n - i) * c for i, c in enumerate(cp_gamma)) == expected_fp
    return cp_gamma == char_poly(ratio * (-amb.epsilon))
