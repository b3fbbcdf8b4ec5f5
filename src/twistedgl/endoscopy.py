"""Elliptic endoscopic data, the eta invariants and transfer factors.

The eta invariants are closed forms here; the regular nilpotents they are
read from are built only in `oracles`, the reference the tests compare them
with.

The transfer factor is Waldspurger's Witt-comparison formula for quasisplit
even orthogonal spaces: +1 exactly when the symmetrized twisted point
1/2 (delta + delta^T) is Witt-equivalent to (-1)^n times the norm form of
the discriminant algebra, and -1 otherwise.  Its Whittaker normalization
divides by the epsilon factor, an exact eighth root of unity.  The flagship
cross-check compares this against the Weil index of 2 (-1)^n q computed from
the rank-1 tables.  The two sides share qform's symmetric elimination, the
square classes of localfield, the Witt reduction on bits qform._witt_bits
and the rank-1 product weil._weil (the lhs through the classes of q_delta's
pivots and the epsilon factor on the classes of N_K, the rhs on the classes
q holds), and each shared piece has an independent test: the elimination
against a reference congruence P^T Q P = diag (test_qform), the pivot
classes against the square classes of that reference's diagonal and the
reduction against the det and Hasse invariant of that diagonal
(test_mutants), the rank-1 table against the Gauss-sum oracle (test_weil),
and square classes through the Hilbert symbol against Hilbert reciprocity
(test_localfield).

Two lemmas explain why the identity can be checked cell by cell.  Write
q = q_V = (n-1) H + c N_K for the quasisplit space of the record (H the
hyperbolic plane, N_K the norm form of the discriminant algebra K).

* The twisted point.  With eps = 1 and S skew, the closure condition that
  rigidify checks, Y + Y^T + X Q^-1 X^T = 0, gives
  q_delta = 1/2 (Y + Y^T) = -1/2 X Q^-1 X^T.  X is invertible, so this form
  is congruent to -1/2 Q^-1 through X, and Q^-1 = (Q^-1)^T Q Q^-1 is
  congruent to Q through Q^-1.  As -1/2 = -2 (1/2)^2, q_delta is isometric
  to -2 q (tested on every (p, n, K, c) cell in test_endoscopy).
* The cell.  q is Witt-equivalent to c N_K.  The lhs compares the Witt class
  of q_delta = -2 q, that is of -2c N_K, with (-1)^n N_K and divides by
  epsilon(1/2, chi_K, psi); the rhs is the Weil index of 2 (-1)^n q, and the
  Weil index is a character of the Witt group with gamma(H) = 1 (Weil, Acta
  Math. 111, 1964), so it equals the Weil index of 2 (-1)^n c N_K.  Both
  sides therefore depend only on (p, n mod 2, K, c), and every record of a
  cell carries the same (lhs, rhs).  (n = 1 excludes the split K, whose V
  would be the isotropic binary space.)

ConstancyCell holds what is constant on one space q: the target, the epsilon
factor, the ambient with Q^-1 and the rhs, all read off square classes, so a
cell is cheap and cells share nothing.  constancy_record takes a cell and
computes per record only the checks of rigidify and the Witt class of
q_delta as bits from the integer rows y_scaled, never the Mat Y, and builds
no Fraction and no object but its ConstancyRecord (qform.witt_kernel);
transfer_factor and
transfer_factor_whittaker are the same comparison on a cell of their own.
gs_constancy_check also checks that an outside configuration is closed and
invertible, and that its norm is very regular, on Y_n alone (gsnorm).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .gsnorm import (AmbientSpace, GSConfiguration, _norm_very_regular,
                     check_rigidifiable, make_ambient)
from .linalg import Mat, clear_denominators, mat
from .localfield import (SquareClass, _class_bits, as_prime, square_class,
                         square_class_table)
from .qform import (QuadForm, _minus_one, _witt_bits, direct_sum, hyperbolic,
                    norm_form, represents, scale, witt_decompose, witt_kernel)
from .weil import Mu8, _weil


@dataclass(frozen=True)
class EndoscopicDatum:
    """An elliptic datum (n_O, n_S, chi), chi encoded by its discriminant class."""

    n_O: int
    n_S: int
    chi: SquareClass

    def __post_init__(self):
        if self.n_O < 0 or self.n_S < 0 or self.n_O % 2 or self.n_S % 2:
            raise ValueError("both parts must be even and non-negative")
        if self.n_O == 0 and not self.chi.is_trivial():
            raise ValueError("chi must be trivial when n_O = 0")
        if self.n_O == 2 and self.chi.is_trivial():
            raise ValueError("chi must be nontrivial when n_O = 2")

    @property
    def simple(self) -> bool:
        return self.n_O == 0 or self.n_S == 0

    def __str__(self) -> str:
        return f"({self.n_O}, {self.n_S}, chi~{self.chi})"


def enumerate_elliptic_data(n: int, p) -> tuple[EndoscopicDatum, ...]:
    """All elliptic data for the rank-2n twisted space over Q_p."""
    if n < 1:
        raise ValueError("n must be positive")
    prime = as_prime(p)
    classes = square_class_table(prime)
    trivial = square_class(1, prime)
    out = []
    for n_o in range(0, 2 * n + 1, 2):
        n_s = 2 * n - n_o
        if n_o == 0:
            out.append(EndoscopicDatum(n_o, n_s, trivial))
        elif n_o == 2:
            out.extend(EndoscopicDatum(n_o, n_s, c) for c in classes if not c.is_trivial())
        else:
            out.extend(EndoscopicDatum(n_o, n_s, c) for c in classes)
    return tuple(out)


def quasisplit_space(n_o: int, kclass, c, p) -> QuadForm:
    """(n_O - 2) hyperbolic planes plus c times the norm form of K, the
    planes' block first; it holds the planes' classes, then c N_K's, and is
    never eliminated."""
    prime = as_prime(p)
    if n_o < 2 or n_o % 2:
        raise ValueError("need an even n_O >= 2")
    c = c.representative if isinstance(c, SquareClass) else c
    tail = scale(c, norm_form(kclass, prime))
    if n_o == 2:
        return tail
    return direct_sum(hyperbolic((n_o - 2) // 2, prime), tail)


# ---------------------------------------------------------------------------
# eta invariants


def eta_sp_value(n: int) -> Fraction:
    """The value theta(v | N^(2n-1) v') of the regular nilpotent; equals 1.

    N^(2n-1) sends the last basis vector e_-1 to e_1 and kills the rest, and
    theta pairs e_-1 with e_1 by (-1)^(1+1) = 1 (oracles builds theta and N,
    and oracles.eta_sp_reference carries out the construction).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(1)


def eta_so_value(v_prime: QuadForm, y, n: int) -> Fraction:
    """The value q(v | N^(2n-2) v') of the even orthogonal space; equals (-1)^(n-1) y.

    v_prime is the binary part of (V, q) = (n-1) Hy + (V', q'); y must be
    represented by it.  N^(2n-2) runs down the chain e_1 -> .. -> e_(n-1) ->
    v -> -y e_-(n-1) -> .. -> (-1)^(n-1) y e_-1, and q pairs e_-1 with e_1 by
    1 (oracles builds the split space and N, and oracles.eta_so_reference
    carries out the construction).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if v_prime.dim != 2:
        raise ValueError("the anisotropic part must be binary")
    if isinstance(y, SquareClass):
        y = y.representative
    y = Fraction(y)
    if not represents(v_prime, y):
        raise ValueError("y is not represented by the binary part")
    return (-1) ** (n - 1) * y


# ---------------------------------------------------------------------------
# transfer factors


@dataclass(frozen=True)
class ConstancyCell:
    """The part of the constancy identity that is constant on one space.

    space is the quasisplit space q = q_V, of dimension 2n with n >= 1.  The
    cell keeps, each computed on first use: the Witt class of the target
    (-1)^n N_K, K the discriminant algebra of q; epsilon(1/2, chi_K, psi)^-1;
    the ambient V1 of q with its Q^-1; and the rhs, the Weil index of
    2 (-1)^n q.  Each is read off the bits of square classes: the target off
    the classes of the diagonal <(-1)^n, (-1)^(n+1) d> of (-1)^n N_K, the
    epsilon factor off those of <1, -d>, and the rhs off the classes q holds
    with the class of 2 (-1)^n added to each, so no norm form, no scaled
    form and no invariant object is built.  What is left per twisted point
    is the elimination of q_delta and the comparison of its kernel's bits
    with the target's (_plain_factor), which picks one of the cell's two
    lhs values.
    """

    space: QuadForm
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        dim = self.space.dim
        if dim != 2 * self.n:
            raise ValueError(f"the space has dimension {dim}, not 2n = {2 * self.n}")

    @cached_property
    def _norm_classes(self) -> tuple[int, int]:
        """The bits of the classes of the diagonal <1, -d> of N_K, d the
        discriminant of the space and of K; the split K gives the hyperbolic
        plane <1, -1>."""
        p = self.space.p
        return 0, _minus_one(p) ^ _witt_bits(self.space.classes, p)[1]

    @cached_property
    def target(self) -> tuple[int, int, int]:
        """The Witt class of (-1)^n N_K = <(-1)^n, (-1)^(n+1) d> as the bits
        (aniso_dim, det, hasse) of its anisotropic kernel (qform._witt_bits)."""
        p = self.space.p
        sign = _minus_one(p) if self.n % 2 else 0
        return _witt_bits(tuple(b ^ sign for b in self._norm_classes), p)[3]

    @cached_property
    def epsilon_inverse(self) -> Mu8:
        """epsilon(1/2, chi_K, psi)^-1, the Weil index of N_K inverted."""
        return _weil(self._norm_classes, self.space.p).inverse()

    @cached_property
    def _lhs_by_sign(self) -> dict[int, Mu8]:
        """The lhs at a twisted point whose plain factor is +1 or -1."""
        return {s: self.epsilon_inverse * Mu8.from_sign(s) for s in (1, -1)}

    @cached_property
    def ambient(self) -> AmbientSpace:
        return make_ambient(self.space, 1)

    @cached_property
    def rhs(self) -> Mu8:
        """The Weil index of 2 (-1)^n q, read off the classes q holds: if q
        has the diagonal a_i, 2 (-1)^n q has the diagonal 2 (-1)^n a_i."""
        p = self.space.p
        return _weil(self.space.classes, p, _class_bits(2 * (-1) ** self.n, 1, p))

    def _rows(self, delta: Mat) -> tuple[list[list[int]], int]:
        """delta, checked square of the space's dimension, as rows / den."""
        delta = mat(delta)
        dim = self.space.dim
        if len(delta) != dim or any(len(row) != dim for row in delta):
            raise ValueError(f"delta must be a {dim} x {dim} matrix, the "
                             "dimension of the space")
        return clear_denominators(delta)

    def _plain_factor(self, rows: list[list[int]], den: int) -> int:
        """Waldspurger's Witt comparison at delta = rows / den: +1 exactly when
        q_delta = 1/2 (delta + delta^T) = (rows + rows^T) / 2 den is
        Witt-equivalent to the target."""
        sym = [[x + y for x, y in zip(row, col)] for row, col in zip(rows, zip(*rows))]
        try:
            kernel = witt_kernel(sym, 2 * den, self.space.p)
        except ValueError:  # q_delta is degenerate
            raise ValueError("singular symmetrization: delta is not very regular") from None
        return 1 if kernel == self.target else -1

    def lhs(self, delta: Mat) -> Mu8:
        """The Whittaker-normalized factor at delta."""
        return self._lhs(*self._rows(delta))

    def _lhs(self, rows: list[list[int]], den: int) -> Mu8:
        """lhs at delta = rows / den."""
        return self._lhs_by_sign[self._plain_factor(rows, den)]


def constancy_cell(p, n: int, k, c) -> ConstancyCell:
    """The cell of the corpus entry (p, n, K, c): its quasisplit space
    (n - 1) H + c N_K."""
    prime = as_prime(p)
    return ConstancyCell(quasisplit_space(2 * n, square_class(k, prime),
                                          square_class(c, prime), prime), n)


def transfer_factor(gamma_space: QuadForm, delta: Mat, n: int) -> int:
    """Waldspurger's Witt comparison: the plain transfer factor in {+1, -1}.

    q_delta = 1/2 (delta + delta^T) must be non-degenerate (delta very
    regular); K is the discriminant algebra of the orthogonal space.  The
    space must have dimension 2n, n >= 1, and delta must be square of that
    size.
    """
    cell = ConstancyCell(gamma_space, n)
    return cell._plain_factor(*cell._rows(delta))


def transfer_factor_whittaker(gamma_space: QuadForm, delta: Mat, n: int) -> Mu8:
    """The Whittaker-normalized factor: epsilon(1/2, chi, psi)^-1 times the above."""
    return ConstancyCell(gamma_space, n).lhs(delta)


def is_quasisplit_even(q: QuadForm) -> bool:
    """Quasisplit even orthogonal space: anisotropic kernel of dimension <= 2."""
    if q.dim % 2:
        return False
    _, kernel = witt_decompose(q)
    return kernel.aniso_dim <= 2


@dataclass(frozen=True)
class ConstancyRecord:
    """Both sides of the constancy identity at one configuration."""

    lhs: Mu8
    rhs: Mu8

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def constancy_record(cell: ConstancyCell, config: GSConfiguration) -> ConstancyRecord:
    """The flagship identity at a configuration on the cell's space: the
    Whittaker factor at its twisted point against the Weil index of 2 (-1)^n q.
    The sides share the square classes and the rank-1 table, each tested on
    its own (see the module docstring)."""
    if config.ambient.q_V != cell.space:
        raise ValueError("the configuration lies on another space than the cell")
    check_rigidifiable(config)
    return ConstancyRecord(cell._lhs(*config.y_scaled), cell.rhs)


def gs_constancy_check(config: GSConfiguration, n: int) -> bool:
    """constancy_record on the cell of the configuration's own space, once the
    configuration is checked to be a closed, invertible pair on a quasisplit
    even orthogonal ambient whose norm is very regular, which its Y_n decides
    (gsnorm._norm_very_regular)."""
    amb = config.ambient
    if amb.epsilon != 1 or amb.n != 2 * n:
        raise ValueError("constancy check lives on even orthogonal ambients")
    if not is_quasisplit_even(amb.q_V):
        raise ValueError("the orthogonal group must be quasisplit")
    check_rigidifiable(config)
    if not _norm_very_regular(config.y_scaled[0], 1):
        raise ValueError("norm is not very regular for this configuration")
    return constancy_record(ConstancyCell(amb.q_V, n), config).passed
