"""Exact geometric invariants of twisted general linear spaces over p-adic fields."""

from .localfield import (
    Prime, LocalFieldDescriptor, SquareClass, FieldElement, QP,
    valuation, square_class, square_class_table, hilbert_qp, hilbert_tame,
)
from .qform import (
    QuadForm, FormInvariants, WittClass, quad_form, diag_form, alternating_form,
    diagonalize, diagonal, invariants, is_isotropic, witt_decompose, equivalent,
    witt_equivalent, direct_sum, scale, hyperbolic, norm_form, represents,
)
from .weil import Mu8, weil_rank1, weil_index, epsilon_half
from .etale import (
    FactorTower, EtaleAlgebraWithInvolution, AlgebraElement, make_algebra,
    trace_form_bilinear, trace_form_quadratic,
)
from .classes import (
    ClassParameter, ClassInvariant, build_tGL_even, build_tGL_odd,
    build_SO_even, build_SO_odd, build_Sp, twist_invariant, corresponds,
    is_elliptic,
)
from .gsnorm import (
    AmbientSpace, GSConfiguration, make_ambient, random_config, u_of_xy,
    rigidify, gs_norm, gs_section, gs_param_check,
)
from .endoscopy import (
    EndoscopicDatum, enumerate_elliptic_data, quasisplit_space, eta_sp_value,
    eta_so_value, transfer_factor, transfer_factor_whittaker, ConstancyCell,
    constancy_cell, ConstancyRecord, constancy_record, gs_constancy_check,
)
from .params import (
    FormalConstituent, FormalParameter, is_elliptic_param, classify,
    hypothesis_even_SO,
)

__version__ = "0.1.0"
