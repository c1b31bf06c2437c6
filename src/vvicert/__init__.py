"""vvicert: certification and falsification toolkit for nonsmooth vector
optimization.

The library computes generalized Jacobian polytopes of piecewise-smooth
vector functions, evaluates cone-induced partial orders, and runs
semi-decision checks (refute with a replayable witness, or certify up to a
recorded sampling effort) for quasi efficiency, vector variational
inequalities, generalized invexity classes, Gordan's alternative and vector
criticality, plus an audit harness that stress-tests the optimality theorems
connecting them.
"""

from .audit import (
    AuditResult,
    MatrixSummary,
    RandomInstanceSpec,
    RULES,
    TheoremRule,
    audit_rule,
    generate_instance,
    run_matrix,
)
from .certify import (
    GordanCertificate,
    InvexClass,
    SamplingPlan,
    Verdict,
    VVIVariant,
    check_invex_class,
    check_quasi_efficient,
    check_vector_critical,
    check_vvi,
    gordan_alternative,
)
from .cone import OrderingCone
from .errors import (
    DegenerateError,
    DimensionMismatchError,
    DivisionByZeroError,
    GenerationFailedError,
    InconsistentPiecesError,
    InvalidEError,
    InvalidSeedError,
    NoActivePieceError,
    NonSmoothOperatorError,
    OutOfDomainError,
    ParseError,
    ProblemFileError,
    SamplingFailedError,
    VviCertError,
)
from .exprlang import differentiate, evaluate, parse, parse_predicate, to_string
from .model import (
    JacobianPolytope,
    Kernel,
    KernelFlags,
    LipschitzEstimate,
    PiecewiseVectorFn,
    boundary_probes,
    lipschitz_estimate,
)
from .problem import FORMAT_VERSION, Problem

__version__ = "0.1.0"

__all__ = [
    "AuditResult",
    "DegenerateError",
    "DimensionMismatchError",
    "DivisionByZeroError",
    "FORMAT_VERSION",
    "GenerationFailedError",
    "GordanCertificate",
    "InconsistentPiecesError",
    "InvalidEError",
    "InvalidSeedError",
    "InvexClass",
    "JacobianPolytope",
    "Kernel",
    "KernelFlags",
    "LipschitzEstimate",
    "MatrixSummary",
    "NoActivePieceError",
    "NonSmoothOperatorError",
    "OrderingCone",
    "OutOfDomainError",
    "ParseError",
    "PiecewiseVectorFn",
    "Problem",
    "ProblemFileError",
    "RULES",
    "RandomInstanceSpec",
    "SamplingFailedError",
    "SamplingPlan",
    "TheoremRule",
    "VVIVariant",
    "Verdict",
    "VviCertError",
    "audit_rule",
    "boundary_probes",
    "check_invex_class",
    "check_quasi_efficient",
    "check_vector_critical",
    "check_vvi",
    "differentiate",
    "evaluate",
    "generate_instance",
    "gordan_alternative",
    "lipschitz_estimate",
    "parse",
    "parse_predicate",
    "run_matrix",
    "to_string",
]
