"""Etale algebras with involution over Q_p.

An algebra is an ordered product of factor towers: a certified base field
F (the tau-fixed part of the factor) with a quadratic step, either split
(F x F, tau the swap) or a field step F(sqrt(d)) with d a certified
non-square.  Both are F[s]/(s^2 - d) with tau(s) = -s: the split step is
d = 1, as F[s]/(s^2 - 1) = F x F by s -> (1, -1).  So a factor component is
stored as a + b*s, a pair (a, b) of base-field elements, and one formula
serves both steps.  Every operation is exact.

The frozen coordinates of a factor, in which elements are read and written
and the frozen basis is ordered (factor-major, base-power-minor), are (a, b)
on a field step and the components (x, y) = (a + b, a - b) on a split step.
Only `element` and `mult_matrix` know them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, block_diag, charpoly, det, fr, poly_squarefree
from .localfield import (FieldElement, LocalFieldDescriptor, Prime,
                         is_square_in_field)
from .qform import ALTERNATING, SYMMETRIC, QuadForm

SPLIT = "split"
QUADRATIC = "quadratic"


@dataclass(frozen=True)
class FactorTower:
    """One factor of the algebra: F[s]/(s^2 - d) over the base field F.  A
    split step takes no parameter and stores d = 1; a field step's d is a
    certified non-square."""

    base: LocalFieldDescriptor
    step_kind: str
    d: FieldElement | None = None

    def __post_init__(self):
        if self.step_kind == SPLIT:
            if self.d is not None:
                raise ValueError("split step takes no parameter")
            object.__setattr__(self, "d", self.base.one)
            return
        if self.step_kind != QUADRATIC:
            raise ValueError(f"unknown step kind {self.step_kind!r}")
        d = self.d
        if not isinstance(d, FieldElement):
            d = self.base.embed(d)
            object.__setattr__(self, "d", d)
        if d.field != self.base:
            raise ValueError("step parameter lives in the wrong field")
        if d.is_zero():
            raise ValueError("step parameter must be nonzero")
        if is_square_in_field(self.base, d):
            raise ValueError("step parameter is a square: factor is not a field")

    @property
    def dim_over_qp(self) -> int:
        return 2 * self.base.degree


def split_tower(base: LocalFieldDescriptor) -> FactorTower:
    return FactorTower(base, SPLIT)


def quadratic_tower(base: LocalFieldDescriptor, d) -> FactorTower:
    return FactorTower(base, QUADRATIC, d)


@dataclass(frozen=True)
class EtaleAlgebraWithInvolution:
    """Product of factor towers with the involution fixing each base."""

    factors: tuple[FactorTower, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("need at least one factor")
        p = self.factors[0].base.p
        if any(f.base.p != p for f in self.factors):
            raise ValueError("factors over different primes")

    @property
    def p(self) -> Prime:
        return self.factors[0].base.p

    @property
    def dim_over_qp(self) -> int:
        return sum(f.dim_over_qp for f in self.factors)

    def element(self, parts) -> "AlgebraElement":
        """The element with these frozen coordinates, one pair per factor:
        (a, b) for a + b*sqrt(d) on a field step, the components (x, y) of
        F x F on a split step, which is a + b*s with a = (x + y)/2 and
        b = (x - y)/2."""
        parts = tuple(parts)
        if len(parts) != len(self.factors):
            raise ValueError("one component per factor")
        half = Fraction(1, 2)
        return AlgebraElement(self, tuple(
            ((x + y) * half, (x - y) * half) if f.step_kind == SPLIT else (x, y)
            for f, (x, y) in zip(self.factors, parts)))

    def embed(self, c) -> "AlgebraElement":
        c = fr(c)
        return AlgebraElement(self, tuple((f.base.embed(c), f.base.zero)
                                          for f in self.factors))

    @property
    def one(self) -> "AlgebraElement":
        return self.embed(1)

    @property
    def zero(self) -> "AlgebraElement":
        return self.embed(0)

    def basis(self) -> tuple["AlgebraElement", ...]:
        """The frozen Q-basis, factor-major, base-power-minor: the unit
        vectors of the frozen coordinates."""
        zeros = [(f.base.zero, f.base.zero) for f in self.factors]
        out = []
        for idx, f in enumerate(self.factors):
            d, zero = f.base.degree, f.base.zero
            for half in range(2):
                for power in range(d):
                    unit = f.base.element([Fraction(int(i == power)) for i in range(d)])
                    parts = list(zeros)
                    parts[idx] = (zero, unit) if half else (unit, zero)
                    out.append(self.element(parts))
        return tuple(out)


def make_algebra(factors) -> EtaleAlgebraWithInvolution:
    """Assemble an algebra from certified towers; ordering is preserved."""
    return EtaleAlgebraWithInvolution(tuple(factors))


@dataclass(frozen=True)
class AlgebraElement:
    algebra: EtaleAlgebraWithInvolution
    parts: tuple[tuple[FieldElement, FieldElement], ...]

    def __post_init__(self):
        if len(self.parts) != len(self.algebra.factors):
            raise ValueError("one component per factor")
        for (a, b), f in zip(self.parts, self.algebra.factors):
            if a.field != f.base or b.field != f.base:
                raise ValueError("component lives in the wrong base field")

    # -- arithmetic --------------------------------------------------------

    def _same(self, other) -> "AlgebraElement":
        if isinstance(other, AlgebraElement):
            if other.algebra != self.algebra:
                raise ValueError("elements of different algebras")
            return other
        return self.algebra.embed(other)

    def __add__(self, other):
        o = self._same(other)
        return AlgebraElement(self.algebra, tuple(
            (a1 + a2, b1 + b2) for (a1, b1), (a2, b2) in zip(self.parts, o.parts)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._same(other)
        return AlgebraElement(self.algebra, tuple(
            (a1 - a2, b1 - b2) for (a1, b1), (a2, b2) in zip(self.parts, o.parts)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return AlgebraElement(self.algebra, tuple((-a, -b) for a, b in self.parts))

    def __mul__(self, other):
        o = self._same(other)
        return AlgebraElement(self.algebra, tuple(
            (a1 * a2 + f.d * b1 * b2, a1 * b2 + b1 * a2)
            for f, (a1, b1), (a2, b2) in zip(self.algebra.factors, self.parts, o.parts)))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a.is_zero() and b.is_zero() for a, b in self.parts)

    def _norms(self):
        """The norm a^2 - d b^2 of each factor component down to its base."""
        return (a * a - f.d * b * b for f, (a, b) in zip(self.algebra.factors, self.parts))

    def is_invertible(self) -> bool:
        return not any(nrm.is_zero() for nrm in self._norms())

    def inverse(self) -> "AlgebraElement":
        parts = []
        for (a, b), nrm in zip(self.parts, self._norms()):
            ninv = nrm.inverse()
            parts.append((a * ninv, -(b * ninv)))
        return AlgebraElement(self.algebra, tuple(parts))

    # -- structure maps ----------------------------------------------------

    def mult_matrix(self) -> Mat:
        """Matrix of v -> self*v over the frozen Q-basis."""
        blocks = []
        for f, (a, b) in zip(self.algebra.factors, self.parts):
            if f.step_kind == SPLIT:
                blocks.append(block_diag((a + b).mult_matrix(), (a - b).mult_matrix()))
            else:
                ma, mb, mdb = a.mult_matrix(), b.mult_matrix(), (f.d * b).mult_matrix()
                top = tuple(ra + rb for ra, rb in zip(ma, mdb))
                bot = tuple(ra + rb for ra, rb in zip(mb, ma))
                blocks.append(top + bot)
        return block_diag(*blocks)

    def __str__(self) -> str:
        return "[" + "; ".join(f"{a} + {b}s" for a, b in self.parts) + "]"


def tau(x: AlgebraElement) -> AlgebraElement:
    """The involution s -> -s: sqrt(d) -> -sqrt(d) on a field step, the swap
    (x, y) -> (y, x) on a split one."""
    return AlgebraElement(x.algebra, tuple((a, -b) for a, b in x.parts))


def char_poly(x: AlgebraElement):
    """Characteristic polynomial of mult_matrix(x), monic over Q."""
    return charpoly(x.mult_matrix())


def is_generator(x: AlgebraElement) -> bool:
    """Whether Q_p[x] is the whole algebra: squarefree characteristic polynomial."""
    return poly_squarefree(char_poly(x))


# ---------------------------------------------------------------------------
# trace forms


def trace_form_bilinear(algebra: EtaleAlgebraWithInvolution, x: AlgebraElement) -> Mat:
    """Gram of (v, v') -> trace(tau(v) v' x) over the frozen basis.

    Entry (i, j) is the trace over Q of u v with u = tau(b_i) x and v = b_j.
    Mult by a + b s is [[a, d b], [b, a]] on the F-basis (1, s), of trace 2a
    over F, and on each factor u v = (a1 a2 + d b1 b2) + (a1 b2 + b1 a2) s,
    so the entry is the sum of 2 tr(a1 a2 + d b1 b2): only the a-part of the
    product is formed, with d b1 taken once per row."""
    if not x.is_invertible():
        raise ValueError("trace form of a non-invertible twist")
    basis = algebra.basis()
    rows = []
    for bi in basis:
        u = [(a, f.d * b) for f, (a, b) in zip(algebra.factors, (tau(bi) * x).parts)]
        rows.append(tuple(
            sum((2 * (a1 * a2 + db1 * b2).trace()
                 for (a1, db1), (a2, b2) in zip(u, bj.parts)), Fraction(0))
            for bj in basis))
    g = tuple(rows)
    if det(g) == 0:
        raise RuntimeError("trace form degenerate for an invertible twist")
    return g


def trace_form_quadratic(algebra: EtaleAlgebraWithInvolution, c: AlgebraElement) -> QuadForm:
    """The quadratic space (L, q_c), q_c(v|v') = trace(tau(v) v' c), c fixed."""
    if tau(c) != c:
        raise ValueError("twist must lie in the fixed subalgebra")
    g = trace_form_bilinear(algebra, c)
    return QuadForm(g, algebra.p, None, SYMMETRIC)


def trace_form_alternating(algebra: EtaleAlgebraWithInvolution, c: AlgebraElement) -> QuadForm:
    """The symplectic space (L, q_c) for an anti-fixed twist tau(c) = -c."""
    if tau(c) != -c:
        raise ValueError("twist must be anti-fixed")
    g = trace_form_bilinear(algebra, c)
    return QuadForm(g, algebra.p, None, ALTERNATING)
