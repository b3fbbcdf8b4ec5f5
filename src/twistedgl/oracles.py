"""Independent oracles that cross-check the closed forms; never on a runtime path.

* the truncated-Gauss-sum oracle for rank-1 Weil indices (the only floats in
  the package, and the only user of numpy, imported when a sum is taken);
* the Hensel-certified solubility oracle for Hilbert symbols over Q_p and
  odd-p quadratic fields;
* the regular-nilpotent construction of the eta invariants, the reference
  for their closed forms in endoscopy: the theta space and its regular
  nilpotent, the split odd space and its regular nilpotent, and the eta
  values read off their top powers.  No other module builds these.

Neither `twistedgl` nor `twistedgl.cli` imports this module at import time,
and it imports nothing from `endoscopy`, whose closed forms it checks; the
CLI loads it only for `hilbert --oracle` and `weil oracle`.  The Gauss-sum
oracle needs numpy, the `oracle` extra.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, det, fr, identity, mat_mul, transpose
from .localfield import (FieldElement, LocalFieldDescriptor, _quadratic_model,
                         _unit_mod, as_prime, unit_part, valuation)
from .qform import QuadForm, quad_form
from .weil import Mu8

# ---------------------------------------------------------------------------
# the Gauss-sum oracle


class OracleError(RuntimeError):
    """The Gauss sum failed to stabilize or to snap to an eighth root."""


@dataclass(frozen=True)
class GaussOracleResult:
    value: complex
    snapped: Mu8
    snap_distance: float


_CHUNK = 1 << 22
# the largest period p^(2k - v) summed; 11^7, the largest the rank-1 table
# check needs, is about 1.95e7
MAX_PERIOD = 1 << 25
# the largest distance to an eighth root of unity a stabilized sum may have
SNAP_TOL = 1e-6


def _gauss_phase(a: Fraction, p: int, k: int) -> complex:
    """Normalized truncated Gauss sum over one exact period.

    Sums psi(a x^2) for x = n/p^k over n mod p^M with M = 2k - v(a), the exact
    period of the summand, and returns the sum normalized to modulus one.
    """
    import numpy as np

    v = valuation(a, p)
    m_exp = 2 * k - v
    if m_exp < 1:
        raise ValueError("truncation level too small for this coefficient")
    modulus = p ** m_exp
    c = _unit_mod(unit_part(a, p), modulus)
    total = 0.0 + 0.0j
    for start in range(0, modulus, _CHUNK):
        n = np.arange(start, min(start + _CHUNK, modulus), dtype=np.int64)
        r = (n * n) % modulus
        r = (r * c) % modulus
        total += complex(np.exp(2j * np.pi * (r / modulus)).sum())
    mag = abs(total)
    if mag < 1e-9:
        raise OracleError(f"Gauss sum vanished at p={p}, k={k}")
    return total / mag


def _snap_mu8(z: complex) -> tuple[Mu8, float]:
    best, dist = 0, 10.0
    for j in range(8):
        d = abs(z - cmath.exp(2j * cmath.pi * j / 8))
        if d < dist:
            best, dist = j, d
    return Mu8(best), dist


def gauss_oracle(a, p, k: int) -> GaussOracleResult:
    """Numerical Weil index of <a>: stabilized truncated Gauss sum.

    Evaluates the normalized sum at truncation levels k and k+1, snaps to the
    nearest eighth root of unity and demands agreement of the snapped values
    with snap distance below SNAP_TOL at both levels.  Raises OracleError instead
    of guessing when stabilization fails, and ValueError when the period
    p^(2(k+1) - v(a)) of the second level exceeds MAX_PERIOD.
    """
    p = as_prime(p)
    a = fr(a)
    if a == 0:
        raise ValueError("oracle needs a nonzero coefficient")
    v = valuation(a, p)
    if k < v + 3:
        raise ValueError("truncation level below the stated precondition")
    # p^m >= 2^m, so the bit length bounds m before p^m is formed
    m_exp = 2 * (k + 1) - v
    if m_exp > MAX_PERIOD.bit_length() or p ** m_exp > MAX_PERIOD:
        raise ValueError(f"period {p}^{m_exp} is above the oracle's bound "
                         f"{MAX_PERIOD}")
    z1 = _gauss_phase(a, p, k)
    z2 = _gauss_phase(a, p, k + 1)
    s1, d1 = _snap_mu8(z1)
    s2, d2 = _snap_mu8(z2)
    if d1 > SNAP_TOL or d2 > SNAP_TOL:
        raise OracleError(f"snap distance {max(d1, d2):.2e} above {SNAP_TOL:.0e}")
    if s1 != s2:
        raise OracleError(f"no stabilization: {s1} at level {k}, {s2} at level {k + 1}")
    return GaussOracleResult(z1, s1, d1)


# ---------------------------------------------------------------------------
# the solubility oracle


# the most triples solubility_oracle may be charged, a few seconds at 2-3 us
# a triple: Q_11 at its budget depth 5 is charged 645,535
MAX_TRIPLES = 10 ** 6


class Solubility(enum.Enum):
    SOLUBLE = "soluble"
    INSOLUBLE = "insoluble"
    INCONCLUSIVE = "inconclusive"


class _ZpRing:
    """Exact integers as candidates for degree-one fields."""

    def __init__(self, p: int):
        self.p = p
        self.e = 1
        self.two = 2

    def digits(self):
        return [i for i in range(self.p)]

    def from_digit(self, d, level):
        return d * self.p ** level

    def mul(self, x, y):
        return x * y

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def is_zero(self, x):
        return x == 0

    def w(self, x):
        if x == 0:
            return None
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def from_field(self, fld, x):
        a = x.coeffs[0] if isinstance(x, FieldElement) else fr(x)
        a = a * a.denominator ** 2
        n = int(a)
        if n == 0:
            raise ValueError("zero coefficient")
        while n % self.p ** 2 == 0:
            n //= self.p ** 2
        return n


class _QuadRing:
    """Integer pairs (alpha, beta) for alpha + beta s with s^2 = m: a unit m
    when e = 1, and m of valuation 1, s a uniformizer, when e = 2."""

    def __init__(self, p: int, e: int, m: int):
        self.p = p
        self.e = e
        self.m = m
        self.two = (2, 0)

    def digits(self):
        if self.e == 1:
            return [(a, b) for a in range(self.p) for b in range(self.p)]
        return [(a, 0) for a in range(self.p)]

    def _pi_pow(self, level):
        if self.e == 1:
            return (self.p ** level, 0)
        half, rem = divmod(level, 2)
        scale = self.m ** half
        return (scale, 0) if rem == 0 else (0, scale)

    def from_digit(self, d, level):
        return self.mul(d, self._pi_pow(level))

    def mul(self, x, y):
        a, b = x
        c, d = y
        return (a * c + self.m * b * d, a * d + b * c)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def is_zero(self, x):
        return x == (0, 0)

    def _vp(self, n):
        if n == 0:
            return None
        v = 0
        while n % self.p == 0:
            n //= self.p
            v += 1
        return v

    def w(self, x):
        va, vb = self._vp(x[0]), self._vp(x[1])
        if self.e == 1:
            cands = [v for v in (va, vb) if v is not None]
        else:
            cands = []
            if va is not None:
                cands.append(2 * va)
            if vb is not None:
                cands.append(2 * vb + 1)
        return min(cands) if cands else None

    def from_field(self, fld, x):
        if not isinstance(x, FieldElement):
            x = fld.embed(x)
        model, convert = _quadratic_model(fld)
        alpha, beta = convert(x.coeffs)
        # the ring's constant was cleared to m * den^2 (generator s' = den*s),
        # so coordinates rebase as beta -> beta / den
        beta = beta / model.defining_poly[0].denominator
        den = alpha.denominator * beta.denominator
        alpha, beta = alpha * den * den, beta * den * den
        cand = (int(alpha), int(beta))
        if self.is_zero(cand):
            raise ValueError("zero coefficient")
        # strip p^2 factors (p^2 is a square scalar in either model)
        while cand[0] % self.p ** 2 == 0 and cand[1] % self.p ** 2 == 0:
            cand = (cand[0] // self.p ** 2, cand[1] // self.p ** 2)
        return cand


def _oracle_ring(fld: LocalFieldDescriptor):
    p = fld.p
    if fld.degree == 1:
        return _ZpRing(p)
    if fld.degree == 2 and p != 2:
        model, _ = _quadratic_model(fld)
        m, e = -model.defining_poly[0], 2 if model.certificate == "eisenstein" else 1
        # clear the square denominator of m (rebases s)
        return _QuadRing(p, e, int(m * m.denominator ** 2))
    raise ValueError("solubility oracle supports Q_p and odd-p quadratic fields")


def solubility_budget(a, b, fld: LocalFieldDescriptor) -> int:
    """Exhaustion depth v(4ab) + 2e + 1 that certifies insolubility."""
    ring = _oracle_ring(fld)
    ra = ring.from_field(fld, a)
    rb = ring.from_field(fld, b)
    four = ring.mul(ring.two, ring.two)
    return ring.w(ring.mul(four, ring.mul(ra, rb))) + 2 * ring.e + 1


def solubility_oracle(a, b, fld: LocalFieldDescriptor, depth: int) -> Solubility:
    """Hensel-certified search for a nontrivial zero of z^2 = a x^2 + b y^2.

    Levels enumerate primitive candidate triples modulo increasing powers of
    the uniformizer.  A candidate certifies solubility when the exact value's
    valuation exceeds twice that of some partial derivative (or the value
    vanishes identically); an empty level certifies insolubility, final once
    the depth covers the budget v(4ab) + 2e + 1.  Below-budget exhaustion
    returns INCONCLUSIVE, never a guess.

    Before any search, ValueError refuses a charge above MAX_TRIPLES, a cost
    model and not a bound: with q digits, q^3 triples at the first level and
    q^2 live candidates of q^3 triples at each later one (over Q_p, p <= 13,
    the worst pair at its budget depth tries about a quarter of that).
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    ring = _oracle_ring(fld)
    digs = list(ring.digits())
    charge = len(digs) ** 3 * (1 + (depth - 1) * len(digs) ** 2)
    if charge > MAX_TRIPLES:
        raise ValueError(f"a depth-{depth} search is charged {charge} triples, "
                         f"above the oracle's bound {MAX_TRIPLES}")
    ra = ring.from_field(fld, a)
    rb = ring.from_field(fld, b)
    budget = solubility_budget(a, b, fld)

    def value(x, y, z):
        zz = ring.mul(z, z)
        ax = ring.mul(ra, ring.mul(x, x))
        by = ring.mul(rb, ring.mul(y, y))
        return ring.add(zz, ring.add(ring.neg(ax), ring.neg(by)))

    def certified(x, y, z, fval):
        if ring.is_zero(fval):
            return True
        wf = ring.w(fval)
        for part in (ring.mul(ring.two, z),
                     ring.mul(ring.two, ring.mul(ra, x)),
                     ring.mul(ring.two, ring.mul(rb, y))):
            wp = ring.w(part)
            if wp is not None and wf > 2 * wp:
                return True
        return False

    zero = 0 if isinstance(ring, _ZpRing) else (0, 0)
    live = [(zero, zero, zero)]
    for level in range(depth):
        new_live = []
        for (x, y, z) in live:
            for dx in digs:
                xx = ring.add(x, ring.from_digit(dx, level))
                for dy in digs:
                    yy = ring.add(y, ring.from_digit(dy, level))
                    for dz in digs:
                        zz = ring.add(z, ring.from_digit(dz, level))
                        if level == 0 and ring.is_zero(xx) and ring.is_zero(yy) \
                                and ring.is_zero(zz):
                            continue
                        fval = value(xx, yy, zz)
                        if certified(xx, yy, zz, fval):
                            return Solubility.SOLUBLE
                        wf = ring.w(fval)
                        if wf is not None and wf >= level + 1:
                            new_live.append((xx, yy, zz))
        live = new_live
        if not live:
            return Solubility.INSOLUBLE
    return Solubility.INSOLUBLE if depth >= budget else Solubility.INCONCLUSIVE


# ---------------------------------------------------------------------------
# the regular-nilpotent construction of eta


@dataclass(frozen=True)
class ThetaSpace:
    """F^2n with the fixed symplectic base point of the twisted space.

    Basis order (e_1 .. e_n, e_-n .. e_-1); the form pairs e_i with e_-i
    through the signs (-1)^i (i > 0) and (-1)^(i+1) (i < 0).
    """

    n: int
    theta_gram: Mat

    @property
    def dim(self) -> int:
        return 2 * self.n


def _theta_pos(i: int, n: int) -> int:
    return i - 1 if i > 0 else n + (n + i)


def _negative(m: Mat) -> Mat:
    return tuple(tuple(-x for x in row) for row in m)


def theta_space(n: int) -> ThetaSpace:
    if n < 1:
        raise ValueError("n must be positive")
    g = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(1, n + 1):
        g[_theta_pos(i, n)][_theta_pos(-i, n)] = Fraction((-1) ** i)
        g[_theta_pos(-i, n)][_theta_pos(i, n)] = Fraction((-1) ** (i + 1))
    gram = tuple(tuple(row) for row in g)
    if transpose(gram) != _negative(gram) or det(gram) == 0:
        raise RuntimeError("theta base point must be a symplectic form")
    return ThetaSpace(n, gram)


def regular_nilpotent_sp(n: int) -> Mat:
    """The standard regular nilpotent in the symplectic Lie algebra of theta.

    e_1 -> 0, e_i -> e_(i-1) for 1 < i <= n, e_-n -> e_n, e_i -> e_(i-1)
    for -n < i <= -1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    dim = 2 * n
    cols = {}
    for i in range(2, n + 1):
        cols[_theta_pos(i, n)] = _theta_pos(i - 1, n)
    cols[_theta_pos(-n, n)] = _theta_pos(n, n)
    for i in range(-n + 1, 0):
        cols[_theta_pos(i, n)] = _theta_pos(i - 1, n)
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for src, dst in cols.items():
        m[dst][src] = Fraction(1)
    nil = tuple(tuple(row) for row in m)
    theta = theta_space(n).theta_gram
    if mat_mul(transpose(nil), theta) != _negative(mat_mul(theta, nil)):
        raise RuntimeError("nilpotent fails the symplectic Lie algebra identity")
    return nil


def split_odd_space(m: int, y, p) -> QuadForm:
    """The split odd space m Hy + <y> in the paired basis (e_i, e_-i, v)."""
    prime = as_prime(p)
    dim = 2 * m + 1
    g = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(m):
        g[i][m + i] = Fraction(1)
        g[m + i][i] = Fraction(1)
    g[2 * m][2 * m] = Fraction(y)
    return quad_form(tuple(tuple(row) for row in g), prime)


def regular_nilpotent_so(q_flat: QuadForm) -> Mat:
    """The regular nilpotent of the split odd space built by split_odd_space.

    e_i -> e_(i+1) (1 <= i < m), e_m -> v, v -> -y e_-m, e_i -> -e_(i+1)
    (-m <= i < -1), e_-1 -> 0; basis order (e_1..e_m, e_-1..e_-m, v).
    """
    dim = q_flat.dim
    if dim % 2 == 0:
        raise ValueError("expected an odd-dimensional split space")
    m = (dim - 1) // 2
    g = q_flat.gram
    y = g[2 * m][2 * m]
    expected = split_odd_space(m, y, q_flat.p)
    if g != expected.gram:
        raise ValueError("Gram is not in the canonical split odd shape")
    # positions: e_i -> i-1 (1<=i<=m), e_-i -> m+i-1, v -> 2m
    mtx = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(1, m):
        mtx[i][i - 1] = Fraction(1)          # e_i -> e_{i+1}
    if m >= 1:
        mtx[2 * m][m - 1] = Fraction(1)      # e_m -> v
        mtx[2 * m - 1][2 * m] = -y           # v -> -y e_{-m}
    for j in range(2, m + 1):
        # e_{-j} -> -e_{-(j-1)}: the chain descends back to e_{-1} -> 0
        mtx[m + j - 2][m + j - 1] = Fraction(-1)
    nil = tuple(tuple(row) for row in mtx)
    if mat_mul(transpose(nil), g) != _negative(mat_mul(g, nil)):
        raise RuntimeError("nilpotent fails the orthogonal Lie algebra identity")
    return nil


def _rank_one_value(s: Mat) -> Fraction:
    """Extract eta from a symmetric matrix equivalent to (null) + <eta>."""
    n = len(s)
    if s != transpose(s):
        raise RuntimeError("expected a symmetric matrix")
    diag_entry = None
    for i in range(n):
        for j in range(n):
            if s[i][j] != 0:
                if s[i][i] == 0 or s[j][j] == 0:
                    raise RuntimeError("rank exceeds one after null reduction")
                diag_entry = s[i][i]
    if diag_entry is None:
        raise RuntimeError("null form: no eta to extract")
    # rank-one check: all 2x2 minors vanish
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    if s[i][k] * s[j][l] - s[i][l] * s[j][k] != 0:
                        raise RuntimeError("rank exceeds one after null reduction")
    return diag_entry


def eta_sp_reference(n: int) -> Fraction:
    """theta(v | N^(2n-1) v') from the regular nilpotent N of the theta space."""
    theta = theta_space(n).theta_gram
    nil = regular_nilpotent_sp(n)
    power = identity(2 * n)
    for _ in range(2 * n - 1):
        power = mat_mul(power, nil)
    return _rank_one_value(mat_mul(theta, power))


def eta_so_reference(y, n: int, p) -> Fraction:
    """q(v | N^(2n-2) v') from the regular nilpotent N of (n-1) Hy + <y> over Q_p."""
    q_flat = split_odd_space(n - 1, y, p)
    nil = regular_nilpotent_so(q_flat)
    power = identity(q_flat.dim)
    for _ in range(2 * n - 2):
        power = mat_mul(power, nil)
    return _rank_one_value(mat_mul(q_flat.gram, power))
