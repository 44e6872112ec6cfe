"""Regularity numbers and syzygy degree bounds for multigraded modules.

The package coarsens a Z^r-grading along a positive vector, measures the
coarsened module with a Castelnuovo-Mumford-style regularity number, and
turns that number into finite sets of multidegrees that contain all minimal
syzygy degrees.  Every regularity computation is backed by two independent
routes (local duality via Ext, and Hochster's formula on square-free
monomial quotients) so results can be cross-checked.
"""

from .errors import (
    GradingError,
    HomogeneityError,
    InputError,
    InsufficientBoxError,
    Limits,
    MregError,
    ResourceLimitError,
    ZeroModuleError,
)
from .grading import (
    DegreeRegion,
    check_positive_grading,
    enumerate_bounded_region,
    find_positive_coarsening_vector,
    positive_coarsening_candidates,
    primitive_reduce,
    shifted_orthant_region,
)
from .groebner import (
    ModuleCtx,
    graded_piece_dimension,
    ideal_intersection,
    kernel_generators,
    kernel_of_map,
    poly_to_vec,
    relations,
    vec_component,
)
from .localcoh import (
    AInvariants,
    NEG_INFINITY,
    SimplicialComplex,
    a_invariants_ext,
    a_invariants_hochster,
    complex_from_squarefree_ideal,
    ext_modules,
    hochster_supports,
    local_cohomology_piece_dimension,
    reduced_homology_ranks,
    stanley_reisner_ideal,
)
from .points import (
    ConnectionsReport,
    PointSet,
    b_regularity_region,
    connections_check,
    generic_position_check,
    generic_regularity_formula,
    hilbert_function_points,
    multiproj_ring,
    point_ideal,
    quotient_presentation,
    res_reg_vector_points,
)
from .poly import (
    DEFAULT_FIELD,
    FieldDescriptor,
    MultigradedRing,
    QQ,
    TermOrder,
)
from .problems import Problem, load_problem, problem_from_obj
from .regularity import (
    CoarseningConstants,
    DegreeBoundSet,
    RegularityReport,
    ScalarCheckReport,
    coarsening_constants,
    degree_bound_set,
    degree_bound_sets,
    intersect_degree_bounds,
    minimal_coarsening_set,
    module_a_invariants,
    regnum_free,
    regnum_module,
    regnum_ring,
    regularity_report,
    scalar_coarsening_report,
    syzygy_degree_bound,
    vreg_membership,
)
from .resolution import (
    BettiTable,
    FreeResolution,
    ModulePresentation,
    betti_table,
    cached_minimal_resolution,
    coarsen_resolution,
    first_syzygy_presentation,
    minimal_free_resolution,
    minimalize_complex,
    minimalize_presentation,
    regnum_lower_bound,
    resolution_regularity_vector,
)

__version__ = "0.1.0"
