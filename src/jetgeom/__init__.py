"""jetgeom: exact truncated-power-series constructions of linear connections
and metrics with prescribed Ricci tensor, and of statistical structures, all
verified by zero-residual checks in rational arithmetic."""

from .builders import (
    BuildReport,
    Census,
    Check,
    FreeData,
    build_metric_2d_prescribed_ricci,
    build_prescribed_ricci,
    build_prescribed_ricci_general,
    build_prescribed_ricci_torsion_free,
    build_prescribed_ricci_trace_free_torsion,
    build_statistical_2d,
    build_statistical_nd,
    build_trace_free_statistical_2d,
    census,
    connection_round_trip_data,
    gamma_slot,
    metric_slot,
    random_connection,
    random_free_data,
    random_normalized_metric,
    random_prescribed_tensor,
    random_symmetric_connection,
    random_trace_free_connection,
    statistical_nd_round_trip_data,
    verify,
    zero_free_data,
)
from .ck import (
    CKSolution,
    FirstOrderSystem,
    SecondOrderSystem,
    residual_first_order,
    residual_second_order,
    solve_first_order,
    solve_second_order,
)
from .errors import (
    ConstantTermError,
    DimensionMismatchError,
    EvaluationError,
    JetError,
    NotClosedError,
    RejectionError,
    SingularJetError,
    StabilizationError,
)
from .geometry import (
    Bilinear,
    Connection,
    Metric,
    OneForm,
    TwoForm,
    divergence_form,
    is_codazzi,
    is_ricci,
    lambda_term,
    levi_civita,
    metric_inverse,
    nabla_g,
    parallel_volume_2d,
    potential_of_one_form,
    primitive_of_two_form,
    ricci,
    ricci_derivative_part,
    sectional_curvature_2d,
    split,
    torsion,
    torsion_trace,
    two_form_closed,
)
from .jets import Jet, SliceJet, random_poly, random_slice

__version__ = "0.1.0"
