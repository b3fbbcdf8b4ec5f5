"""Formal combinatorics of selfdual parameters.

Constituents are pure bookkeeping: a dimension, a selfduality sign and a
determinant square class.  Nothing representation-theoretic is modeled; the
module decides which elliptic endoscopic datum a parameter comes from and
whether an irreducible one avoids the odd orthogonal side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .endoscopy import EndoscopicDatum
from .localfield import SquareClass, square_class


@dataclass(frozen=True)
class FormalConstituent:
    """One isotypic piece: dim, selfduality sign and determinant class.

    sign is +1 (orthogonal type), -1 (symplectic type) or None for a
    non-selfdual piece counted together with its dual.
    """

    dim: int
    selfdual: bool
    sign: int | None
    det_char: SquareClass | None
    mult: int = 1

    def __post_init__(self):
        if self.dim < 1 or self.mult < 1:
            raise ValueError("dimension and multiplicity must be positive")
        if self.selfdual:
            if self.sign not in (1, -1):
                raise ValueError("selfdual constituents carry a sign")
            if self.det_char is None:
                raise ValueError("selfdual constituents carry a determinant class")
            if self.sign == -1 and not self.det_char.is_trivial():
                raise ValueError("sign -1 forces a trivial determinant")
            if self.sign == -1 and self.dim % 2:
                raise ValueError("sign -1 forces an even dimension")
        else:
            if self.sign is not None:
                raise ValueError("non-selfdual constituents have no sign")


@dataclass(frozen=True)
class FormalParameter:
    constituents: tuple[FormalConstituent, ...]

    def __post_init__(self):
        if not self.constituents:
            raise ValueError("empty parameter")

    @property
    def total_dim(self) -> int:
        return sum(c.mult * c.dim * (1 if c.selfdual else 2)
                   for c in self.constituents)


def is_elliptic_param(phi: FormalParameter) -> bool:
    """All constituents selfdual, pairwise distinct, multiplicity one."""
    cs = phi.constituents
    if any(not c.selfdual or c.mult != 1 for c in cs):
        return False
    seen = set()
    for c in cs:
        key = (c.dim, c.sign, c.det_char)
        if key in seen:
            return False
        seen.add(key)
    return True


def classify(phi: FormalParameter) -> EndoscopicDatum:
    """The unique elliptic datum an elliptic parameter of even dimension comes from.

    n_S is the dimension sum over sign -1 constituents, not their number:
    each of them has even dimension at least 2, so the two readings differ
    whenever there is one.  chi is the product of the determinant classes
    over sign +1 constituents.
    """
    if not is_elliptic_param(phi):
        raise ValueError("classification needs an elliptic parameter")
    if phi.total_dim % 2:
        raise ValueError("total dimension must be even")
    minus = [c for c in phi.constituents if c.sign == -1]
    plus = [c for c in phi.constituents if c.sign == 1]
    n_s = sum(c.dim for c in minus)
    n_o = phi.total_dim - n_s
    p = phi.constituents[0].det_char.p
    chi = square_class(1, p)
    for c in plus:
        chi = chi * c.det_char
    return EndoscopicDatum(n_o, n_s, chi)


def hypothesis_even_SO(phi: FormalParameter) -> bool:
    """For an irreducible parameter: does it avoid the odd orthogonal side?

    True exactly when the sign is +1.
    """
    if len(phi.constituents) != 1 or phi.constituents[0].mult != 1:
        raise ValueError("hypothesis applies to irreducible parameters")
    c = phi.constituents[0]
    if not c.selfdual:
        raise ValueError("hypothesis applies to selfdual parameters")
    return c.sign == 1
