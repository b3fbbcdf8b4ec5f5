"""Exact geometric invariants of twisted general linear spaces over p-adic fields.

The public names below are re-exported from their submodules and resolved on
first access (PEP 562), so `import twistedgl` loads no submodule and a CLI
verb loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "localfield": "Prime LocalFieldDescriptor SquareClass FieldElement QP valuation "
                  "square_class square_class_table hilbert_qp",
    "qform": "QuadForm FormInvariants WittClass quad_form diag_form alternating_form "
             "diagonalize invariants is_isotropic witt_decompose equivalent "
             "direct_sum scale hyperbolic norm_form represents",
    "weil": "Mu8 weil_index epsilon_half",
    "etale": "FactorTower EtaleAlgebraWithInvolution AlgebraElement make_algebra "
             "trace_form_bilinear trace_form_quadratic",
    "classes": "ClassParameter ClassInvariant build_tGL_even build_tGL_odd build_SO_even "
               "build_SO_odd build_Sp twist_invariant corresponds is_elliptic",
    "gsnorm": "AmbientSpace GSConfiguration make_ambient random_config u_of_xy rigidify "
              "gs_norm gs_section gs_param_check",
    "endoscopy": "EndoscopicDatum enumerate_elliptic_data quasisplit_space eta_sp_value "
                 "eta_so_value transfer_factor transfer_factor_whittaker ConstancyCell "
                 "constancy_cell ConstancyRecord constancy_record gs_constancy_check",
    "params": "FormalConstituent FormalParameter is_elliptic_param classify "
              "hypothesis_even_SO",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """A re-exported name, read off its submodule and bound here, so the
    submodule is imported once and later reads are plain attribute reads."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
