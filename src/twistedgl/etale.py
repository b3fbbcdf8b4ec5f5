"""Etale algebras with involution over Q_p.

An algebra is an ordered product of factor towers: a certified base field
(the tau-fixed part of the factor) with a quadratic step, either split
(L_i = F_i x F_i, tau the swap) or a field step F_i(sqrt(d)) with d a
certified non-square.  Elements live in the frozen basis ordering
(factor-major, base-power-minor); every operation is exact.

Factor components are stored as pairs (a, b) of base-field elements: the
split pair (a, b) itself, or a + b*sqrt(d) for a field step.
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
    """One factor of the algebra: a base field with a quadratic step."""

    base: LocalFieldDescriptor
    step_kind: str
    d: FieldElement | None = None

    def __post_init__(self):
        if self.step_kind == SPLIT:
            if self.d is not None:
                raise ValueError("split step takes no parameter")
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
    return FactorTower(base, QUADRATIC, d if isinstance(d, FieldElement) else base.embed(d))


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
        return AlgebraElement(self, tuple((a, b) for a, b in parts))

    def embed(self, c) -> "AlgebraElement":
        c = fr(c)
        parts = []
        for f in self.factors:
            a = f.base.embed(c)
            parts.append((a, a if f.step_kind == SPLIT else f.base.zero))
        return self.element(parts)

    @property
    def one(self) -> "AlgebraElement":
        return self.embed(1)

    @property
    def zero(self) -> "AlgebraElement":
        return self.embed(0)

    def fixed_element(self, base_values) -> "AlgebraElement":
        """The tau-fixed element with the given base-field component per factor."""
        if len(base_values) != len(self.factors):
            raise ValueError("one base value per factor")
        parts = []
        for f, c in zip(self.factors, base_values):
            if not isinstance(c, FieldElement):
                c = f.base.embed(c)
            if c.field != f.base:
                raise ValueError("component lives in the wrong base field")
            parts.append((c, c if f.step_kind == SPLIT else f.base.zero))
        return self.element(parts)

    def skew_element(self, base_values) -> "AlgebraElement":
        """The tau-antifixed element: (c, -c) per split factor, c*sqrt(d) else."""
        if len(base_values) != len(self.factors):
            raise ValueError("one base value per factor")
        parts = []
        for f, c in zip(self.factors, base_values):
            if not isinstance(c, FieldElement):
                c = f.base.embed(c)
            parts.append((c, -c) if f.step_kind == SPLIT else (f.base.zero, c))
        return self.element(parts)

    def basis(self) -> tuple["AlgebraElement", ...]:
        """The frozen Q-basis, factor-major, base-power-minor."""
        out = []
        for idx, f in enumerate(self.factors):
            d = f.base.degree
            for half in range(2):
                for power in range(d):
                    parts = []
                    for jdx, g in enumerate(self.factors):
                        a, b = g.base.zero, g.base.zero
                        if jdx == idx:
                            coeffs = [Fraction(0)] * d
                            coeffs[power] = Fraction(1)
                            val = g.base.element(coeffs)
                            if half == 0:
                                a = val
                            else:
                                b = val
                        parts.append((a, b))
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
        parts = []
        for f, (a1, b1), (a2, b2) in zip(self.algebra.factors, self.parts, o.parts):
            if f.step_kind == SPLIT:
                parts.append((a1 * a2, b1 * b2))
            else:
                parts.append((a1 * a2 + f.d * b1 * b2, a1 * b2 + b1 * a2))
        return AlgebraElement(self.algebra, tuple(parts))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a.is_zero() and b.is_zero() for a, b in self.parts)

    def is_invertible(self) -> bool:
        for f, (a, b) in zip(self.algebra.factors, self.parts):
            if f.step_kind == SPLIT:
                if a.is_zero() or b.is_zero():
                    return False
            else:
                if (a * a - f.d * b * b).is_zero():
                    return False
        return True

    def inverse(self) -> "AlgebraElement":
        parts = []
        for f, (a, b) in zip(self.algebra.factors, self.parts):
            if f.step_kind == SPLIT:
                parts.append((a.inverse(), b.inverse()))
            else:
                nrm = a * a - f.d * b * b
                ninv = nrm.inverse()
                parts.append((a * ninv, -(b * ninv)))
        return AlgebraElement(self.algebra, tuple(parts))

    # -- structure maps ----------------------------------------------------

    def mult_matrix(self) -> Mat:
        """Matrix of v -> self*v over the frozen Q-basis."""
        blocks = []
        for f, (a, b) in zip(self.algebra.factors, self.parts):
            ma, mb = a.mult_matrix(), b.mult_matrix()
            if f.step_kind == SPLIT:
                blocks.append(block_diag(ma, mb))
            else:
                mdb = (f.d * b).mult_matrix()
                top = tuple(ra + rb for ra, rb in zip(ma, mdb))
                bot = tuple(ra + rb for ra, rb in zip(mb, ma))
                blocks.append(top + bot)
        return block_diag(*blocks)

    def __str__(self) -> str:
        return "[" + "; ".join(f"{a}, {b}" for a, b in self.parts) + "]"


def tau(x: AlgebraElement) -> AlgebraElement:
    """The involution: swap on split factors, sqrt(d) -> -sqrt(d) on field steps."""
    parts = []
    for f, (a, b) in zip(x.algebra.factors, x.parts):
        parts.append((b, a) if f.step_kind == SPLIT else (a, -b))
    return AlgebraElement(x.algebra, tuple(parts))


def trace_to_qp(x: AlgebraElement) -> Fraction:
    """Trace of multiplication by x on the whole algebra, over Q."""
    out = Fraction(0)
    for f, (a, b) in zip(x.algebra.factors, x.parts):
        if f.step_kind == SPLIT:
            out += a.trace() + b.trace()
        else:
            out += 2 * a.trace()
    return out


def char_poly(x: AlgebraElement):
    """Characteristic polynomial of mult_matrix(x), monic over Q."""
    return charpoly(x.mult_matrix())


def is_generator(x: AlgebraElement) -> bool:
    """Whether Q_p[x] is the whole algebra: squarefree characteristic polynomial."""
    return poly_squarefree(char_poly(x))


def very_regular(x: AlgebraElement) -> bool:
    """x invertible with x/tau(x) - 1 and x/tau(x) + 1 both invertible."""
    if not x.is_invertible():
        raise ValueError("very-regularity needs an invertible element")
    r = x * tau(x).inverse()
    one = x.algebra.one
    return (r - one).is_invertible() and (r + one).is_invertible()


# ---------------------------------------------------------------------------
# trace forms


def trace_form_bilinear(algebra: EtaleAlgebraWithInvolution, x: AlgebraElement) -> Mat:
    """Gram of (v, v') -> trace(tau(v) v' x) over the frozen basis."""
    if not x.is_invertible():
        raise ValueError("trace form of a non-invertible twist")
    basis = algebra.basis()
    tb = [tau(b) for b in basis]
    rows = []
    for bi in tb:
        bix = bi * x
        rows.append(tuple(trace_to_qp(bix * bj) for bj in basis))
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
