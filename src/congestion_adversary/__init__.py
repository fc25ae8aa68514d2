"""Singleton congestion games with a budget-constrained adversary.

Exact-rational solvers for approximate pure Nash equilibria: an incremental
insertion solver that always reaches a ~1.1974-approximate equilibrium, an
instance-optimal factor solver based on load-shape enumeration, and a
brute-force oracle for cross-validation at small scale.
"""

from .core import (
    AWAY_FROM_ZERO,
    EmptyGame,
    EmptyResources,
    EmptySource,
    GameError,
    INFINITY,
    NegativeCoefficient,
    NonPositiveBudget,
    NonPositivePlayers,
    SameResource,
    TOWARD_ZERO,
    UnoccupiedResource,
    binding_deviation,
    compute_K,
    deviation_cost,
    is_alpha_pne,
    k_upper_bound,
    needed_alpha,
    resource_cost,
    scale_instance,
    validate_instance,
)
from .documents import (
    FIXTURE_NAMES,
    InstanceDocument,
    ParseError,
    format_rational,
    generate_instance,
    load_instance_document,
    make_fixtures,
    parse_instance_document,
    parse_rational,
)
from .optimal import best_alpha
from .oracle import (
    enumerate_profiles,
    oracle_best_additive_epsilon,
    oracle_best_alpha,
)
from .solver import (
    DEVIATION,
    GuardExceeded,
    LENIENT,
    PLAYER_ADDED,
    STRICT,
    SolveTrace,
    SolverConfig,
    TraceEvent,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AWAY_FROM_ZERO",
    "DEVIATION",
    "PLAYER_ADDED",
    "EmptyGame",
    "EmptyResources",
    "EmptySource",
    "FIXTURE_NAMES",
    "GameError",
    "GuardExceeded",
    "INFINITY",
    "InstanceDocument",
    "LENIENT",
    "NegativeCoefficient",
    "NonPositiveBudget",
    "NonPositivePlayers",
    "ParseError",
    "STRICT",
    "SameResource",
    "SolveTrace",
    "SolverConfig",
    "TOWARD_ZERO",
    "TraceEvent",
    "UnoccupiedResource",
    "best_alpha",
    "binding_deviation",
    "compute_K",
    "deviation_cost",
    "enumerate_profiles",
    "format_rational",
    "generate_instance",
    "is_alpha_pne",
    "k_upper_bound",
    "load_instance_document",
    "make_fixtures",
    "needed_alpha",
    "oracle_best_additive_epsilon",
    "oracle_best_alpha",
    "parse_instance_document",
    "parse_rational",
    "resource_cost",
    "scale_instance",
    "solve",
    "validate_instance",
]
