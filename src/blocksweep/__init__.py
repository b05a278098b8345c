"""Random-sweeping block-coordinate fixed point solvers.

Masked relaxed iterations of quasinonexpansive and averaged operator
families on a product of coordinate blocks, with splitting drivers for
structured monotone inclusions and convex minimization, plus a diagnostics
layer that verifies the exact activation-averaged identities and the
distance-decrease behavior of the iterates.
"""

from .blockspace import (
    ActivationMask,
    BlockDims,
    BlockVector,
    WeightedNormSpec,
    combine,
    construct,
    distance,
    masked_update,
    reduce,
)
from .diagnostics import (
    ConvergenceReport,
    FejerReport,
    IdentityReport,
    InclusionReport,
    expectation_identity_check,
    expected_fejer_check,
    fejer_monitor,
    inclusion_residual,
    monte_carlo_summary,
    oracle_reference,
)
from .errors import (
    BlocksweepError,
    CapabilityError,
    CapacityError,
    ConfigError,
    InvalidRuleError,
    NonFiniteError,
    NumericError,
    OracleFailureError,
    ParameterError,
    ShapeError,
)
from .operators import (
    BallIndicator,
    BlockOperatorFamily,
    BoxIndicator,
    BoxNormalCone,
    CocoerciveOperator,
    GraphSubspace,
    L1Norm,
    LinearBlockOperator,
    LinearMonotone,
    MonotoneOperator,
    ProxFunction,
    Quadratic,
    RegularityReport,
    Schedule,
    SmoothTerm,
    SquaredDistance,
    Subdifferential,
    Zero,
    affine_family,
    as_schedule,
    blockwise_resolvent,
    box_projection_family,
    cocoercivity_bound,
    constant_family,
    coupling_forward_operator,
    forward_coupling_eval,
    forward_step_family,
    graph_projection,
    prox_eval,
    prox_family,
    regularity_test,
    resolvent,
    resolvent_family,
)
from .solvers import (
    CoupledMinProblem,
    DrProblem,
    FbProblem,
    IterateTrace,
    KmProblem,
    PdDrProblem,
    PrimalDualSolution,
    SolverConfig,
    TraceRecord,
    assemble_pd_problem,
    run_dr,
    run_double_layer,
    run_fb,
    run_fb_min,
    run_pd_dr,
    run_single_layer,
)
from .sweeping import (
    ErrorModel,
    SweepingRule,
    error_norm_series,
    fixed_subset_size,
    independent_bernoulli,
    mask_law,
    sample_error,
    sample_mask,
    single_block,
)

__version__ = "0.1.0"
