"""Exact p-adic scaffolding.

Valuations, square classes, Legendre and Hilbert symbols over Q_p for every
prime, and the tame data (valuation, residue character of the unit part)
that decides squareness in a certified extension with odd residue
characteristic.  The Hensel-certified solubility oracle that cross-checks the
Hilbert symbols and the tame data lives in `oracles`.

Square classes are F_2 vectors.  Write a = p^v u with u a p-adic unit; then
Q_p^x / Q_p^x2 is F_2^2 for odd p and F_2^3 for p = 2, with coordinates
v mod 2 and the class of u among the units:
- odd p: one bit [u], set when u is a non-residue mod p (a unit is a square
  exactly when its residue is);
- p = 2: eps(u) = (u - 1)/2 and omega(u) = (u^2 - 1)/8 mod 2, both read off
  u mod 8 (a unit of Z_2 is a square exactly when it is 1 mod 8).
`square_class` finds them with one split of p off the numerator and the
denominator and one Euler-criterion power (or one reduction mod 8) on the
integer num * den, which lies in the class of num/den (they differ by the
square den^2).  Multiplying classes adds the vectors: XOR on the bits.

The Hilbert symbol is bimultiplicative, symmetric and depends only on square
classes (Serre, A Course in Arithmetic, ch. III, Thm. 2), so it is (-1)^B for
a symmetric bilinear form B on these coordinates.  Serre's Thm. 1 names B:
(a, b)_p = (-1)^(v(a) v(b) eps(p)) [u]^v(b) [w]^v(a) for odd p, with
eps(p) = (p - 1)/2, and (-1)^(eps(u) eps(w) + v(a) omega(w) + v(b) omega(u))
for p = 2.  In the bases (v, [u]) and (v, eps, omega) the Gram matrices are
[[eps(p), 1], [1, 0]] and [[0, 0, 1], [0, 1, 0], [1, 0, 0]]; both are
invertible, so the form is non-degenerate.  `SquareClass.hilbert` evaluates
B on the bits, and `hilbert_qp` on rationals is that form on their classes.

A prime is an int: `Prime` subclasses int, and constructing one is the
Miller-Rabin proof.  A field certified by a non-square discriminant is read
through its normal model Q_p[s]/(s^2 - m), v(m) in {0, 1}, which is Eisenstein
or unramified, so tame data has one algorithm per ramification type.

All arithmetic is exact rational; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .linalg import (Mat, Poly, fr, gfp_gcd, gfp_powmod, gfp_trim,
                     inverse as mat_inverse, poly_trim)

# ---------------------------------------------------------------------------
# primes


# the first thirteen prime bases, and psi_13, the least strong pseudoprime to
# all of them (Sorenson-Webster, Math. Comp. 86, 2017): Miller-Rabin with these
# bases is a proof of primality below psi_13 and no proof at or above it.  The
# bases up to 37 alone already fail at psi_12 = 318665857834031151167461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def _miller_rabin(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PSI_13."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """A verified prime number below PSI_13, the residue characteristic of the
    base field.  It is the int itself; constructing it is the proof."""

    __slots__ = ()

    def __new__(cls, n):
        proper = isinstance(n, int) and not isinstance(n, bool)
        if proper and n >= PSI_13:
            raise ValueError(f"{n} is at or above {PSI_13}, beyond the "
                             "range where the primality test is a proof")
        if not proper or not _miller_rabin(n):
            raise ValueError(f"{n} is not prime")
        return super().__new__(cls, n)


def as_prime(p) -> Prime:
    """p as a Prime.  A float or a bool is refused, not truncated: 3.7 names
    no prime, and True is not the integer a document meant."""
    if isinstance(p, Prime):
        return p
    if isinstance(p, (bool, float)):
        raise ValueError(f"prime must be an integer, not {p!r}")
    return Prime(int(p))


# ---------------------------------------------------------------------------
# valuations and Legendre symbols (used by the extension code and the oracles)


def valuation(a, p) -> int:
    """Normalized p-adic valuation of a nonzero rational."""
    p = as_prime(p)
    a = fr(a)
    if a == 0:
        raise ValueError("valuation of zero")
    v, _ = _split(a.numerator, a.denominator, p)
    return v


def unit_part(a, p) -> Fraction:
    """a / p^v(a): the p-unit factor of a nonzero rational."""
    p = as_prime(p)
    return fr(a) / Fraction(p) ** valuation(a, p)


def legendre(a, p) -> int:
    """Legendre symbol of a p-unit rational modulo the odd prime p."""
    p = as_prime(p)
    if p == 2:
        raise ValueError("Legendre symbol needs an odd prime")
    r = _unit_mod(a, p)
    if r == 0:
        raise ValueError("Legendre symbol of a non-unit")
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def _unit_mod(a, modulus: int) -> int:
    a = fr(a)
    return a.numerator * pow(a.denominator, -1, modulus) % modulus


def _split(num: int, den: int, p: int) -> tuple[int, int]:
    """(v, u) with num/den = p^v * (a unit of the square class of u), u an
    integer prime to p: u = num' * den' once p is stripped from both, which
    differs from num'/den' by the square den'^2."""
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * den


def least_nonresidue(p) -> int:
    """Least positive quadratic non-residue modulo an odd prime."""
    p = as_prime(p)
    if p == 2:
        raise ValueError("Legendre symbol needs an odd prime")
    u = 2
    while pow(u, (p - 1) // 2, p) == 1:
        u += 1
    return u


# ---------------------------------------------------------------------------
# square classes as F_2 vectors


@dataclass(frozen=True)
class SquareClass:
    """An element of Q_p^x / Q_p^x2 by its F_2 coordinates.

    bits holds v(a) mod 2 in bit 0 and the class of the unit part u above it:
    for odd p one bit, set when u is a non-residue mod p; for p = 2 two bits,
    eps(u) = (u - 1)/2 and omega(u) = (u^2 - 1)/8 mod 2 in bits 1 and 2.
    The canonical representative is one of {1, n, p, n*p} for odd p, n the
    least positive non-residue, and one of {1, -1, 2, -2, 5, -5, 10, -10}
    for p = 2.
    """

    p: Prime
    bits: int

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.p != other.p:
            raise ValueError("square classes over different primes")
        return SquareClass(self.p, self.bits ^ other.bits)

    def hilbert(self, other: "SquareClass") -> int:
        """The Hilbert symbol (self, other)_p, the bilinear form on the bits."""
        if self.p != other.p:
            raise ValueError("square classes over different primes")
        return -1 if _hilbert_bit(self.bits, other.bits, self.p) else 1

    def is_trivial(self) -> bool:
        return self.bits == 0

    @cached_property
    def representative(self) -> int:
        p, unit = self.p, self.bits >> 1
        if p == 2:
            rep = (1, -1, 5, -5)[unit]   # u = 1, 7, 5, 3 mod 8
        else:
            rep = least_nonresidue(self.p) if unit else 1
        return rep * p if self.bits & 1 else rep

    def __str__(self) -> str:
        return str(self.representative)


def _hilbert_bit(a: int, b: int, p: int) -> int:
    """(a, b)_p = (-1)^e for the square classes with bits a and b: e, the
    bilinear form on the bits."""
    if p == 2:
        # eps(u) eps(w) + v(a) omega(w) + v(b) omega(u)
        e = (a >> 1 & b >> 1) ^ (a & b >> 2) ^ (b & a >> 2)
    else:
        # v(a) v(b) (p - 1)/2 + v(a) [w] + v(b) [u]
        e = (a & b & p >> 1) ^ (a & b >> 1) ^ (b & a >> 1)
    return e & 1


def square_class(a, p) -> SquareClass:
    """The square class of a nonzero rational.  An int is its own numerator
    over 1, and no Fraction is built for it."""
    p = as_prime(p)
    if isinstance(a, int):
        num, den = a, 1
    else:
        a = fr(a)
        num, den = a.numerator, a.denominator
    if num == 0:
        raise ValueError("square class of zero")
    return SquareClass(p, _class_bits(num, den, p))


def _class_bits(num: int, den: int, p: int) -> int:
    """The bits of the square class of num / den, both nonzero integers: one
    split of p off them, then one residue test on the unit."""
    v, u = _split(num, den, p)
    if p == 2:
        r = u % 8
        return (r >> 1 & 1) << 1 | ((r * r - 1) >> 3 & 1) << 2 | v & 1
    return (pow(u % p, (p - 1) // 2, p) != 1) << 1 | v & 1


def is_square_qp(a, p) -> bool:
    return square_class(a, p).is_trivial()


def square_class_table(p) -> tuple[SquareClass, ...]:
    """All square classes of Q_p^x, in the order of their representatives
    1, n, p, n*p (odd p) or 1, -1, 2, -2, 5, -5, 10, -10 (p = 2)."""
    p = as_prime(p)
    order = (0, 2, 1, 3, 4, 6, 5, 7) if p == 2 else (0, 2, 1, 3)
    return tuple(SquareClass(p, b) for b in order)


# ---------------------------------------------------------------------------
# Hilbert symbol over Q_p


def hilbert_qp(a, b, p) -> int:
    """Quadratic Hilbert symbol (a, b)_p over Q_p, values in {+1, -1}."""
    p = as_prime(p)
    a, b = fr(a), fr(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol of zero")
    return square_class(a, p).hilbert(square_class(b, p))


# ---------------------------------------------------------------------------
# finite field F_p[x]/(f) helpers for residue characters


def _irreducible_mod_p(poly: Poly, p: int) -> bool:
    """Rabin irreducibility test for a monic p-integral polynomial mod p:
    x^(p^d) = x mod f, and gcd(x^(p^(d/l)) - x, f) = 1 for each prime l | d."""
    d = len(poly) - 1
    f = [_unit_mod(c, p) for c in poly]

    def frobenius_minus_x(k: int) -> list[int]:
        xq = gfp_powmod([0, 1], p ** k, f, p) + [0, 0]
        xq[1] -= 1
        return gfp_trim(xq, p)

    if frobenius_minus_x(d):
        return False
    prime_divs = [ell for ell in range(2, d + 1)
                  if d % ell == 0 and all(ell % k for k in range(2, ell))]
    return all(len(gfp_gcd(frobenius_minus_x(d // ell), f, p)) == 1
               for ell in prime_divs)


def _residue_char_fq(r: Sequence[int], redpoly: list[int], p: int) -> int:
    """Quadratic character of a nonzero residue in F_q, q = p^deg(redpoly)."""
    q = p ** (len(redpoly) - 1)
    return 1 if gfp_powmod(r, (q - 1) // 2, redpoly, p) == [1] else -1


# ---------------------------------------------------------------------------
# certified local fields


CERTIFICATES = ("degree-one", "quadratic-nonsquare-disc", "eisenstein",
                "unramified-irreducible-mod-p")


@dataclass(frozen=True)
class LocalFieldDescriptor:
    """A certified extension of Q_p given by a monic defining polynomial.

    The certificate guarantees irreducibility over Q_p and is re-checked at
    construction.  Degree one means Q_p itself.
    """

    p: Prime
    defining_poly: Poly
    certificate: str

    def __post_init__(self):
        object.__setattr__(self, "p", as_prime(self.p))
        poly = poly_trim(tuple(fr(c) for c in self.defining_poly))
        object.__setattr__(self, "defining_poly", poly)
        if self.certificate not in CERTIFICATES:
            raise ValueError(f"unknown certificate {self.certificate!r}")
        if not poly or poly[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        p, deg = self.p, len(poly) - 1
        if self.certificate == "degree-one":
            if deg != 1:
                raise ValueError("degree-one certificate needs a degree-1 polynomial")
        elif self.certificate == "quadratic-nonsquare-disc":
            if deg != 2:
                raise ValueError("quadratic certificate needs degree 2")
            disc = poly[1] ** 2 - 4 * poly[0]
            if disc == 0 or is_square_qp(disc, p):
                raise ValueError("discriminant is a square in Q_p: reducible")
        elif self.certificate == "eisenstein":
            if deg < 2:
                raise ValueError("eisenstein certificate needs degree >= 2")
            if poly[0] == 0 or valuation(poly[0], p) != 1:
                raise ValueError("not eisenstein: constant term needs valuation 1")
            for c in poly[1:-1]:
                if c != 0 and valuation(c, p) < 1:
                    raise ValueError("not eisenstein: inner coefficient is a unit")
        else:  # unramified-irreducible-mod-p
            if deg < 2:
                raise ValueError("unramified certificate needs degree >= 2")
            for c in poly[:-1]:
                if c != 0 and valuation(c, p) < 0:
                    raise ValueError("coefficients must be p-integral")
            if not _irreducible_mod_p(poly, p):
                raise ValueError("reducible modulo p: certificate fails")

    @property
    def degree(self) -> int:
        return len(self.defining_poly) - 1

    @cached_property
    def trace_vector(self) -> tuple[Fraction, ...]:
        """tr(t^i) for i < degree: the power sums of the roots of the defining
        polynomial f, by Newton's identities
        p_k = -(k f_(d-k) + sum_(0<i<k) f_(d-i) p_(k-i))."""
        f, d = self.defining_poly, self.degree
        sums = [Fraction(d)]
        for k in range(1, d):
            sums.append(-k * f[d - k] - sum(f[d - i] * sums[k - i] for i in range(1, k)))
        return tuple(sums)

    def element(self, coeffs) -> "FieldElement":
        return FieldElement(self, tuple(fr(c) for c in coeffs))

    @property
    def one(self) -> "FieldElement":
        return self.embed(1)

    @property
    def zero(self) -> "FieldElement":
        return self.embed(0)

    def embed(self, a) -> "FieldElement":
        return self.element([fr(a)] + [0] * (self.degree - 1))

    def __str__(self) -> str:
        """Q_p, or Q_p[t]/(f) with f written from its monic top term and
        rational coefficients as "num/den", e.g. Q_3[t]/(t^2 + t - 2/9)."""
        if self.degree == 1:
            return f"Q_{self.p}"
        terms = []
        for i, c in reversed(list(enumerate(self.defining_poly))):
            if c:
                power = "" if i == 0 else "t" if i == 1 else f"t^{i}"
                coeff = str(abs(c)) if abs(c) != 1 or not power else ""
                terms.append(("- " if c < 0 else "+ ") + " ".join(filter(None, (coeff, power))))
        return f"Q_{self.p}[t]/({' '.join(terms)[2:]})"


def QP(p) -> LocalFieldDescriptor:
    """The base field Q_p itself."""
    return LocalFieldDescriptor(as_prime(p), (Fraction(0), Fraction(1)), "degree-one")


@dataclass(frozen=True)
class FieldElement:
    """An element of a certified local field in the power basis of its generator."""

    field: LocalFieldDescriptor
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.field.degree:
            raise ValueError("coefficient vector has wrong length")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _same(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.embed(other)

    def __add__(self, other):
        o = self._same(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._same(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._same(other)
        f = self.field.defining_poly
        d = self.field.degree
        out = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(o.coeffs):
                    out[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            lead = out[k]
            if lead:
                out[k] = Fraction(0)
                for i in range(d):
                    out[k - d + i] -= lead * f[i]
        return FieldElement(self.field, tuple(out[:d]))

    __rmul__ = __mul__

    def mult_matrix(self) -> Mat:
        """Matrix of v -> self*v over the power basis."""
        d = self.field.degree
        cols = []
        for j in range(d):
            basis_j = self.field.element([Fraction(int(i == j)) for i in range(d)])
            cols.append((self * basis_j).coeffs)
        return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))

    def trace(self) -> Fraction:
        """sum c_i tr(t^i), read off the field's trace vector."""
        return sum(c * t for c, t in zip(self.coeffs, self.field.trace_vector))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        inv = mat_inverse(self.mult_matrix())
        return FieldElement(self.field, tuple(row[0] for row in inv))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


# ---------------------------------------------------------------------------
# tame data and squareness in a certified field


@lru_cache(maxsize=128)  # certify a field's model once, not per symbol
def _quadratic_model(fld: LocalFieldDescriptor):
    """The normal model of a certified quadratic field over Q_p, p odd.

    For t^2 + b t + c = 0, s = (t + b/2)/p^k satisfies s^2 = m with
    m = (b^2/4 - c)/p^(2k), k = floor(v(b^2/4 - c)/2), so v(m) is 0 or 1.
    Returns (model, convert): the certified field Q_p[s]/(s^2 - m), Eisenstein
    when v(m) = 1 and unramified when m is a unit (a non-residue, since the
    discriminant is no square), and the map from power-basis coordinates of
    fld to those of the model.
    """
    p = fld.p
    c0, b = fld.defining_poly[:2]
    disc4 = b * b / 4 - c0  # (t + b/2)^2 = disc4
    pk = Fraction(p) ** (valuation(disc4, p) // 2)
    m = disc4 / (pk * pk)
    cert = "eisenstein" if valuation(m, p) else "unramified-irreducible-mod-p"
    model = LocalFieldDescriptor(p, (-m, Fraction(0), Fraction(1)), cert)

    def convert(coeffs: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
        alpha, beta = coeffs  # alpha + beta t = alpha - b beta/2 + beta p^k s
        return (alpha - b * beta / 2, beta * pk)

    return model, convert


def tame_data(fld: LocalFieldDescriptor, x) -> tuple[int, int]:
    """(valuation, quadratic residue character of the unit part), odd p only.
    A field certified by its discriminant is read through its normal model."""
    p = fld.p
    if p == 2 and fld.degree > 1:
        raise ValueError("wild case: no tame data for p = 2 beyond Q_2")
    if not isinstance(x, FieldElement):
        x = fld.embed(x)
    if x.is_zero():
        raise ValueError("tame data of zero")
    if fld.degree == 1:
        a = x.coeffs[0]
        return valuation(a, p), legendre(unit_part(a, p), p)

    cert = fld.certificate
    if cert == "quadratic-nonsquare-disc":
        model, convert = _quadratic_model(fld)
        return tame_data(model, model.element(convert(x.coeffs)))

    if cert == "eisenstein":
        # pi = t is a uniformizer and x = sum c_i pi^i; the terms have the
        # distinct valuations d v(c_i) + i, so the least, w = d v + j at c_j,
        # leads: x / pi^w = (c_j / p^v) (p / pi^d)^v mod pi.  The defining
        # polynomial gives pi^d = -a_0 - sum_(0<i<d) a_i pi^i, whose inner
        # terms lie deeper than a_0, so p / pi^d = -p / a_0 mod pi.
        d = fld.degree
        w, j = min((d * valuation(c, p) + i, i) for i, c in enumerate(x.coeffs) if c)
        v = (w - j) // d
        chi = legendre(x.coeffs[j] / Fraction(p) ** v, p)
        if v % 2:
            chi *= legendre(-p / fld.defining_poly[0], p)
        return w, chi

    # unramified-irreducible-mod-p
    w = min(valuation(c, p) for c in x.coeffs if c != 0)
    red = [_unit_mod(c, p) for c in fld.defining_poly]
    res = [_unit_mod(c / Fraction(p) ** w, p) for c in x.coeffs]  # all p-integral
    return w, _residue_char_fq(res, red, p)


def is_square_in_field(fld: LocalFieldDescriptor, d) -> bool:
    """Exact squareness test: odd p any certified field, p = 2 only Q_2."""
    if fld.degree == 1:
        dv = d.coeffs[0] if isinstance(d, FieldElement) else d
        return is_square_qp(dv, fld.p)
    w, chi = tame_data(fld, d)
    return w % 2 == 0 and chi == 1
