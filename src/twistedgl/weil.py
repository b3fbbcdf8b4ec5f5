"""Weil indices as exact eighth roots of unity.

The rank-1 values form a character table over square classes relative to the
standard additive character of conductor Z_p (conductor exponent 0).  The
closed form below was generated and pinned from the truncated-Gauss-sum
oracle in `oracles`; the test suite re-derives it from that oracle at p in
{2,3,5,7,11} and checks the Hasse-ratio linkage that guards the p = 2
normalization.  Evaluation here is exact and imports no oracle code.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .linalg import fr
from .localfield import Prime, as_prime, legendre, unit_part, valuation, _unit_mod
from .qform import QuadForm, diagonal, norm_form


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

    def as_sign(self) -> int:
        if self.exponent == 0:
            return 1
        if self.exponent == 4:
            return -1
        raise ValueError(f"zeta8^{self.exponent} is not a sign")

    def as_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.exponent / 8)

    def __str__(self) -> str:
        return f"zeta8^{self.exponent}"


@dataclass(frozen=True)
class AdditiveCharacter:
    """psi(x) = e^(2 pi i lambda(x)), lambda the principal-part map Q_p -> Q_p/Z_p.

    Only the standard conductor (exponent 0) is supported in this version; the
    field exists so other conductors can be added without changing call sites.
    """

    p: Prime
    conductor_exponent: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p", as_prime(self.p))
        if self.conductor_exponent != 0:
            raise ValueError("only the standard conductor is supported")


def _check_character(p: Prime, character: AdditiveCharacter | None):
    if character is not None and (character.p != p or character.conductor_exponent != 0):
        raise ValueError("character does not match the standard choice for this prime")


def weil_rank1(a, p, character: AdditiveCharacter | None = None) -> Mu8:
    """Weil index of the rank-1 form <a> over Q_p, standard character."""
    prime = as_prime(p)
    _check_character(prime, character)
    p = int(prime)
    a = fr(a)
    if a == 0:
        raise ValueError("rank-1 form needs a nonzero coefficient")
    v = valuation(a, p)
    u = unit_part(a, p)
    if p != 2:
        if v % 2 == 0:
            return Mu8(0)
        if p % 4 == 1:
            return Mu8(0 if legendre(u, p) == 1 else 4)
        return Mu8(2 if legendre(u, p) == 1 else 6)
    if v % 2 == 0:
        return Mu8(1 if _unit_mod(u, 4) == 1 else 7)
    return Mu8(_unit_mod(u, 8))


def weil_index(q: QuadForm, character: AdditiveCharacter | None = None) -> Mu8:
    """Product of rank-1 indices over a diagonalization; a Witt-group character."""
    _check_character(q.p, character)
    out = Mu8(0)
    for a in diagonal(q):
        out = out * weil_rank1(a, q.p)
    return out


def epsilon_half(dclass, p, character: AdditiveCharacter | None = None) -> Mu8:
    """epsilon(1/2, chi, psi) = Weil index of the norm form of the algebra.

    dclass names the quadratic etale algebra by its discriminant square
    class; the trivial class is the split algebra, whose norm form is the
    hyperbolic plane, so the value is 1.
    """
    prime = as_prime(p)
    _check_character(prime, character)
    return weil_index(norm_form(dclass, prime))
