"""epsnet: nets of smooth functions, asymptotic scale estimation, orthogonal
and Lorentz factorizations, Diophantine approximation, and grid-evidence
verifiers for group-invariance properties."""

from .expr import (
    EvalError,
    Expr,
    MultiIndex,
    ParseError,
    Point,
    evaluate,
    parse,
    partial,
    partial_multi,
    to_text,
)
from .colombeau import (
    AsymptoticReport,
    CompactBox,
    EpsilonGrid,
    Net,
    VectorNet,
    classify,
    is_bounded_generalized_number,
    is_c_bounded,
    seminorm,
)
from .groups import (
    CoordinateFlow,
    GroupElement,
    PlanarFactor,
    Translation,
    compose_net,
    group_law_check,
    planar_flow,
)
from .decompose import (
    DecompositionError,
    LorentzFactorization,
    RotationSchedule,
    decompose_net_matrix,
    full_lorentz_decompose,
    givens_decompose,
    lorentz_decompose,
    orthogonal_decompose,
)
from .numbertheory import (
    AlgebraicNumber,
    CorollaryPair,
    DirichletPair,
    LiouvilleData,
    catalog,
    convergents,
    corollary_pair,
    dirichlet,
    liouville_constant,
)
from .verify import (
    CBoundednessError,
    ChainBoundReport,
    ConstancyReport,
    InvarianceReport,
    chain_bound,
    check_invariance,
    check_periodicity,
    lorentz_invariance_pipeline,
    one_param_theorem_harness,
    open_question_explorer,
    rotation_invariance_pipeline,
    translation_constancy,
    two_period_constancy,
)

__version__ = "0.1.0"
