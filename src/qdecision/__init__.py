"""Finite-dimensional quantum probability engine for decision variables.

Decision questions are self-adjoint operators on a small complex Hilbert
space; probabilities come from the Born rule, measurement updates states by
projection, and the package quantifies where the resulting calculus departs
from classical probability (conjunction, order, total-probability and
sure-thing effects). A scenario file format and CLI sit on top.
"""

from ._version import __version__
from .engine import (
    DensityReconstruction,
    GPMSample,
    LikelihoodTable,
    OutcomeDistribution,
    collapse,
    collapse_onto,
    event_probability,
    expectation,
    expectation_of_function,
    gpm_evaluate,
    ic_effect_basis,
    likelihood_effect,
    outcome_distribution,
    reconstruct_density,
    sequential_event_probability,
    sequential_probability,
    transition_probability,
)
from .errors import (
    DegenerateConditioning,
    DegenerateSpan,
    DimensionMismatch,
    DuplicateValues,
    EngineError,
    InconsistentSamples,
    InsufficientSpan,
    InvalidEffect,
    InvalidSampleCount,
    InvariantViolation,
    NoConvergence,
    NonOrthonormalBasis,
    NotAPartition,
    NotHermitian,
    NotUnitary,
    ScenarioError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnknownDataLabel,
    UnknownValue,
    ZeroProbabilityOutcome,
)
from .linalg import (
    DensityOperator,
    Effect,
    HermitianOperator,
    Projector,
    SpectralDecomposition,
    StateVector,
    hermitian_eig,
    projector_onto_span,
)
from .phenomena import (
    ConjunctionReport,
    SureThingReport,
    TotalProbabilityReport,
    conjunction_report,
    planar_projector,
    planar_state,
    sure_thing_check,
    total_probability_report,
)
from .report import Report, QueryResult, emit_report, format_number
from .scenario import Query, Scenario, parse_scenario, run_scenario, scenario_to_document
from .spin import (
    Direction,
    SpinComparison,
    classical_conditional,
    classical_conditional_analytic,
    comparison_report,
    quantum_conditional,
    sample_phi,
    spin_component,
)
from .variables import (
    DecisionVariable,
    UnitaryOperator,
    apply_function,
    are_complementary,
    conjugate,
    is_maximal,
    is_one_to_one_related,
    variable_from_spectrum,
)
