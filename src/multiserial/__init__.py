"""Symbolic construction and verification of symmetric multiserial
quotients of path algebras: quiver and cycle combinatorics, successor
tables, cycle-system algebras with exact trace forms, a brute-force
truncated-quotient oracle, and per-relation quotient certificates.
"""

from .cycle_algebra import (
    DEFAULT_MAX_PATHS,
    CartanMatrix,
    CycleAlgebra,
    GramMatrix,
    Idempotent,
    OnCyclePath,
    OracleBudgetError,
    Socle,
    enumerate_paths,
    oracle_dimension,
)
from .defining_pair import (
    DefiningPair,
    RelationSet,
    close_under_rotation,
    generate_relations,
    nilpotency_bound,
    validate,
)
from .fields import RATIONALS, PrimeField, RationalField, field_by_name
from .presentation import (
    MultiserialConditionError,
    OrbitData,
    Presentation,
    SuccessorTables,
    check_multiserial_condition,
    check_orbit_structure,
    derive_successors,
    maximal_paths,
    minimal_monomial_bound,
    orbit_data,
    simple_cycles,
)
from .quiver import (
    Arrow,
    Path,
    Quiver,
    canonical_rotation,
    compose,
    cycle_power,
    is_simple_cycle,
    lies_in,
    rotations,
)
from .report import Check, Report
from .symmetrize import (
    STAR_PREFIX,
    CertifiedGenerator,
    Justification,
    QuiverStar,
    QuotientCertificate,
    build_star_quiver,
    dimension_comparison,
    symmetrize,
    verify_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "CartanMatrix",
    "CertifiedGenerator",
    "Check",
    "CycleAlgebra",
    "DEFAULT_MAX_PATHS",
    "DefiningPair",
    "GramMatrix",
    "Idempotent",
    "Justification",
    "MultiserialConditionError",
    "OnCyclePath",
    "OracleBudgetError",
    "OrbitData",
    "Path",
    "Presentation",
    "PrimeField",
    "QuiverStar",
    "Quiver",
    "QuotientCertificate",
    "RATIONALS",
    "RationalField",
    "RelationSet",
    "Report",
    "STAR_PREFIX",
    "Socle",
    "SuccessorTables",
    "build_star_quiver",
    "canonical_rotation",
    "check_multiserial_condition",
    "check_orbit_structure",
    "close_under_rotation",
    "compose",
    "cycle_power",
    "derive_successors",
    "dimension_comparison",
    "enumerate_paths",
    "field_by_name",
    "generate_relations",
    "is_simple_cycle",
    "lies_in",
    "maximal_paths",
    "minimal_monomial_bound",
    "nilpotency_bound",
    "oracle_dimension",
    "orbit_data",
    "rotations",
    "simple_cycles",
    "symmetrize",
    "validate",
    "verify_quotient",
]
