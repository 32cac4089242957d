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
    closed_form_dimension,
    enumerate_paths,
    oracle_dimension,
    pair_oracle_dimension,
)
from .defining_pair import (
    DefiningPair,
    RelationSet,
    close_under_rotation,
    generate_relations,
    nilpotency_bound,
    validate,
)
from .presentation import (
    MultiserialConditionError,
    OrbitData,
    Presentation,
    SuccessorTables,
    check_multiserial_condition,
    check_orbit_structure,
    derive_successors,
    minimal_monomial_bound,
)
from .quiver import (
    Arrow,
    Path,
    Quiver,
    canonical_rotation,
    is_simple_cycle,
)
from .report import Check, Report
from .symmetrize import (
    STAR_PREFIX,
    CertifiedGenerator,
    Justification,
    QuotientCertificate,
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
    "Quiver",
    "QuotientCertificate",
    "RelationSet",
    "Report",
    "STAR_PREFIX",
    "Socle",
    "SuccessorTables",
    "canonical_rotation",
    "check_multiserial_condition",
    "check_orbit_structure",
    "close_under_rotation",
    "closed_form_dimension",
    "derive_successors",
    "enumerate_paths",
    "generate_relations",
    "is_simple_cycle",
    "minimal_monomial_bound",
    "nilpotency_bound",
    "oracle_dimension",
    "pair_oracle_dimension",
    "symmetrize",
    "validate",
    "verify_quotient",
]
