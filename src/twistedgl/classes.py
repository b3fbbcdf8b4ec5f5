"""Matrix and Gram representatives of very regular classes.

Parameters (L, L_pm, x) and friends name stable classes in twisted general
linear spaces and in orthogonal and symplectic groups.  Builders return exact
Gram matrices and group elements; comparisons go through squarefree
characteristic polynomials, which are faithful exactly on the very regular
locus this module accepts.  Very regular is one test throughout: a
squarefree characteristic polynomial, of mult by y for the classical kinds
and of mult by x/tau(x) for the twisted ones, the parameter's fingerprint,
computed once per parameter.  Both elements r have
tau(r) = 1/r, which pairs their eigenvalues as lambda and 1/lambda, so a
squarefree one has neither 1 nor -1 as an eigenvalue and no separate
eigenvalue test is made.  The unitary kinds "U" and "tGL-E" are parameters
only: they have a fingerprint and an ellipticity test, and no builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .etale import (AlgebraElement, EtaleAlgebraWithInvolution, QUADRATIC,
                    char_poly, is_generator, tau, trace_form_alternating,
                    trace_form_bilinear, trace_form_quadratic)
from .linalg import (Mat, Poly, block_diag, charpoly, det, identity, inverse,
                     is_isometry, mat, mat_mul, poly_squarefree, transpose)
from .localfield import SquareClass
from .qform import QuadForm, diag_form, direct_sum

KINDS = ("tGL-even", "tGL-odd", "SO-even", "SO-odd", "Sp", "U", "tGL-E")
TWISTED = ("tGL-even", "tGL-odd", "tGL-E")


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
        if self.kind in TWISTED:
            if not is_generator(x):
                raise ValueError("x must generate the algebra")
            if self.kind == "tGL-odd" and self.x_D is None:
                raise ValueError("tGL-odd parameter needs x_D")
        else:
            if x * tau(x) != self.algebra.one:
                raise ValueError("y must satisfy y tau(y) = 1")
            # y tau(y) = 1: a generator has no eigenvalue +-1 (see the module)
            if not poly_squarefree(self.fingerprint):
                raise ValueError("y must generate the algebra")
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

    @cached_property
    def fingerprint(self) -> Poly:
        """The characteristic polynomial of mult by x/tau(x) for the twisted
        kinds and by y for the classical ones, computed once."""
        x = self.x
        if self.kind in TWISTED:
            x = x * tau(x).inverse()
        return char_poly(x)

    def is_very_regular(self) -> bool:
        """A squarefree fingerprint: for the twisted kinds x/tau(x) is a
        generator (x is known invertible)."""
        if self.kind in TWISTED:
            return poly_squarefree(self.fingerprint)
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
    if param.kind in TWISTED:
        aux = (param.x_D,) if param.x_D is not None else ()
    else:
        aux = (param.a,) if param.a is not None else ()
    return ClassInvariant(param.fingerprint, param.kind, aux)


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


def build_Sp(param: ClassParameter) -> tuple[QuadForm, Mat]:
    """(alternating q_c, gamma) for an anti-fixed twist."""
    if param.kind != "Sp":
        raise ValueError("expected an Sp parameter")
    q_c = trace_form_alternating(param.algebra, param.c)
    gamma = param.x.mult_matrix()
    _check_isometry(gamma, q_c.gram)
    return q_c, gamma


def _check_isometry(g: Mat, gram: Mat):
    if not is_isometry(g, gram):
        raise RuntimeError("built element fails its group identity")


# ---------------------------------------------------------------------------
# invariants and the correspondence


def twist_invariant(delta: Mat) -> Poly:
    """Characteristic polynomial of delta^-1 delta^T, the twisted-class fingerprint."""
    delta = mat(delta)
    return charpoly(mat_mul(inverse(delta), transpose(delta)))


def corresponds(delta_param: ClassParameter, gamma_param: ClassParameter) -> bool:
    """Endoscopic correspondence of very regular classes: x/tau(x) = -y.

    Realized as equality of the squarefree characteristic polynomials of
    mult by -x/tau(x) and mult by y, both read off the fingerprints: with
    f(T) = det(T - r) of degree m, det(T + r) = (-1)^m f(-T).
    """
    if delta_param.kind != "tGL-even" or gamma_param.kind != "SO-even":
        raise ValueError("correspondence compares tGL-even with SO-even")
    if not delta_param.is_very_regular():
        raise ValueError("delta parameter is not very regular")
    if delta_param.algebra.dim_over_qp != gamma_param.algebra.dim_over_qp:
        return False
    f = delta_param.fingerprint
    m = len(f) - 1
    minus_r = tuple(c if (m - i) % 2 == 0 else -c for i, c in enumerate(f))
    return minus_r == gamma_param.fingerprint


def is_elliptic(param: ClassParameter) -> bool:
    """Elliptic iff the centralizer torus Ker(N) is anisotropic: no split factor."""
    if not param.is_very_regular():
        raise ValueError("ellipticity is defined for very regular classes")
    return all(f.step_kind == QUADRATIC for f in param.algebra.factors)
