"""Weil indices as exact eighth roots of unity.

gamma(<a>), relative to the standard additive character of conductor Z_p
(conductor exponent 0, the only one implemented), depends only on the square
class of a, so it is a function of the class's F_2 coordinates (v mod 2 and
the unit bits, see `localfield`):
- odd p: 1 when v is even; for odd v, [u] selects the sign, times i when
  p = 3 mod 4: zeta8^(2 eps(p) + 4 [u]);
- p = 2: zeta8^(1 + 6 eps(u)) when v is even, zeta8^(u mod 8) when v is odd,
  u mod 8 being 1 + 2 eps(u) + 4 (eps(u) + omega(u)).
It is not a character of the classes: gamma(<a>) gamma(<b>) =
gamma(<1>) gamma(<ab>) (a, b)_p, so the Hilbert form is its polarization.
These values were generated and pinned from the truncated-Gauss-sum oracle
in `oracles`; the test suite re-derives them from that oracle at p in
{2,3,5,7,11} and checks the Hasse-ratio linkage that guards the p = 2
normalization.  gamma is a character of the Witt group, so one product of
rank-1 values over the classes of a diagonalization, `_weil`, serves every
Weil index: `weil_index` on the classes a form holds, the rhs of
endoscopy.ConstancyCell on those classes times a twist, and `epsilon_half`
of the algebra of discriminant d on the classes of its norm form <1, -d>.
Evaluation here is exact and imports no oracle code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .localfield import SquareClass, as_prime, square_class
from .qform import QuadForm, _minus_one, _require_symmetric


@dataclass(frozen=True)
class Mu8:
    """An exact eighth root of unity zeta8^exponent, zeta8 = e^(2 pi i/8)."""

    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % 8)

    def __mul__(self, other: "Mu8") -> "Mu8":
        return Mu8(self.exponent + other.exponent)

    def inverse(self) -> "Mu8":
        return Mu8(-self.exponent)

    def __pow__(self, n: int) -> "Mu8":
        return Mu8(self.exponent * n)

    @staticmethod
    def from_sign(s: int) -> "Mu8":
        if s == 1:
            return Mu8(0)
        if s == -1:
            return Mu8(4)
        raise ValueError("sign must be +1 or -1")

    def __str__(self) -> str:
        return f"zeta8^{self.exponent}"


def _rank1(bits: int, p: int) -> int:
    """The exponent k of gamma(<a>) = zeta8^k from the bits of the class of
    a: v(a) mod 2 in bit 0, the unit bit(s) above it (see
    localfield.SquareClass)."""
    if p != 2:
        # v even: 1; v odd: (u/p) for p = 1 mod 4, i (u/p) for p = 3 mod 4
        return (bits & 1) * ((p & 2) + 4 * (bits >> 1))
    eps, omega = bits >> 1 & 1, bits >> 2
    if bits & 1:
        return 1 + 2 * eps + 4 * (eps ^ omega)    # u mod 8
    return 1 + 6 * eps                            # zeta8^(+-1) by u mod 4


def _weil(classes, p: int, twist: int = 0) -> Mu8:
    """The Weil index of <t a_1, ..., t a_n>, given the bits of the classes
    of the a_i and of t: the product of its rank-1 indices."""
    return Mu8(sum(_rank1(b ^ twist, p) for b in classes))


def weil_index(q: QuadForm) -> Mu8:
    """The Weil index of q, the product of rank-1 indices over the classes q
    holds: a character of the Witt group, so any diagonalization gives it."""
    _require_symmetric(q, "the Weil index")
    return _weil(q.classes, q.p)


def epsilon_half(dclass, p) -> Mu8:
    """epsilon(1/2, chi, psi) = Weil index of the norm form of the algebra.

    dclass names the quadratic etale algebra by its discriminant square
    class.  The norm form is <1, -d> (the hyperbolic plane <1, -1> for the
    split algebra, whose value is 1), so the value is gamma(<1>) gamma(<-d>).
    """
    prime = as_prime(p)
    d = dclass if isinstance(dclass, SquareClass) else square_class(dclass, prime)
    if d.p != prime:
        raise ValueError("square classes over different primes")
    return _weil((0, _minus_one(prime) ^ d.bits), prime)
