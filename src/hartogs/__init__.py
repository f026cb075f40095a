"""Computable operator theory on generalized Hartogs triangles.

Exact rational coefficient tables, reproducing kernel evaluation, truncated
multiplication-operator analysis, Hausdorff-moment subnormality testing, and
hereditary-calculus contraction checks on matrix tuples.

The public names resolve lazily (PEP 562): ``import hartogs`` loads no
submodule, and the first use of a name imports only the module that defines
it, so a command pays only for the modules it runs.
"""

import importlib

_EXPORTS = {
    "polytuple": ("Admissibility", "PolyTuple", "admissibility_degree", "from_polys", "hartogs_tuple",
                  "parse_and_validate", "serialize", "tilde_restrictions"),
    "coeff": ("CoeffTable", "coeff_function", "hartogs_coeff_closed", "reciprocal_power_coeffs"),
    "geometry": ("polydisc_radii", "triangle_contains"),
    "kernel": ("KernelContext", "basis_eval", "bergman_norm_check", "beta_integral_check",
               "gram_psd_check", "hardy_norm_check", "kernel_eval", "kernel_series_eval",
               "make_context"),
    "shiftops": ("LatticeWindow", "WeightTable", "build_window", "det_commutator_and_trace",
                 "factorization_and_commutation_probe", "norm_bounds", "op_weights",
                 "polydisc_intertwining_check", "spectral_radius_estimate"),
    "subnormality": ("complete_monotonicity_check", "hartogs_certify", "shift_check"),
    "hereditary": ("HereditaryPoly", "MatrixTuple", "hereditary_eval", "ordering_check", "pick_verify",
                   "reciprocal_kernel_polynomial", "toral_lift", "triangle_defect_classify"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
