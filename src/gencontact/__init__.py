"""Chart-based numerical toolkit for generalized contact and Sasakian geometry.

The package builds structures on coordinate charts out of jet-valued
fields, deforms them (B-fields, K(kappa) deformations, cone lifts) and
verifies the defining identities numerically, reporting named residuals.
"""

from .charts import Chart, ConeChart, box
from .cone import (
    cone_decompose,
    gacx_check,
    i_map,
    i_prime,
    r_conjugate,
)
from .deformations import (
    b_commute_check,
    cone_b_correspondence,
    cone_kahler_pair_check,
    f_sasakian_check,
    fgacs_check,
    g_tilde,
    k_minus,
    k_plus,
    normalize,
    cross_term_metric_check,
    cross_term_metric_forward,
)
from .exprs import ExprError, parse_scalar
from .fields import (
    GtEndoField,
    MatrixField,
    OneFormField,
    ScalarField,
    SectionField,
    ThreeFormField,
    TwoFormField,
    VectorField,
    c_transform,
    courant,
    d,
    interior,
    jac,
    jet_validate,
    lie_bracket,
    lie_derivative,
    nij,
    wedge11,
    wedge12,
)
from .gta import adjoint, pair, pair_minus, tensor_pair
from .integrability import (
    cone_crosscheck,
    generalized_sasakian_check,
    normality_check,
    plain_cone_check,
    sasakian_criterion,
    conjugated_cone_residual,
    vaisman_conditions,
)
from .jets import JetArray, JetOrderError
from .report import CheckRow, ResidualReport
from .structures import (
    AlmostContactMetric,
    Gacs,
    GeneralizedMetric,
    StructureError,
    acms_check,
    b_transform,
    dual_gacm,
    eigenframe,
    gacm_check,
    gacs_check,
    gacs_from_acs,
    gacs_from_contact,
    gmetric_from_gb,
    involutivity_class,
    phi_kernel_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
