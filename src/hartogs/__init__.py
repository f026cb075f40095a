"""Computable operator theory on generalized Hartogs triangles.

Exact rational coefficient tables, reproducing kernel evaluation, truncated
multiplication-operator analysis, Hausdorff-moment subnormality testing, and
hereditary-calculus contraction checks on matrix tuples.
"""

from .polytuple import (
    Admissibility,
    PolyTuple,
    admissibility_degree,
    from_polys,
    hartogs_tuple,
    parse_and_validate,
    serialize,
    tilde_restrictions,
)
from .coeff import (
    CoeffTable,
    coeff_function,
    hartogs_coeff_closed,
    reciprocal_power_coeffs,
    univariate_coeffs,
)
from .geometry import (
    jacobian_inverse,
    polydisc_radii,
    q_ball_contains,
    triangle_contains,
)
from .kernel import (
    KernelContext,
    basis_eval,
    bergman_norm_check,
    beta_integral_check,
    gram_psd_check,
    hardy_norm_check,
    kernel_eval,
    kernel_series_eval,
    make_context,
)
from .shiftops import (
    LatticeWindow,
    WeightTable,
    build_window,
    circularity_check,
    det_commutator_and_trace,
    factorization_and_commutation_probe,
    hyponormality_diagonal,
    norm_bounds,
    op_weights,
    polydisc_intertwining_check,
    spectral_radius_estimate,
)
from .subnormality import (
    complete_monotonicity_check,
    hartogs_certify,
    shift_check,
)
from .hereditary import (
    HereditaryPoly,
    MatrixTuple,
    hereditary_eval,
    ordering_check,
    pick_verify,
    reciprocal_kernel_polynomial,
    toral_lift,
    triangle_defect_classify,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
