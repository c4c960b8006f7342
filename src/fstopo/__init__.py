"""Finite fuzzy soft topological spaces in exact rational arithmetic.

The package splits into a small stack of layers:

``algebra``   grades, grade lattices, fuzzy subsets of a finite universe
``softsets``  parameterized families of fuzzy sets and their lattice ops
``points``    fuzzy soft points and membership
``topology``  validated open families, closure, interior, subspaces
``deciders``  separation axioms and connectedness with witnesses
``corpus``    integer-encoded enumeration of small spaces
``claims``    the claim registry and its evaluators
``auditor``   scheduling, tallying and reporting for the claim audit
``document``  the plain-text space document format
``cli``       the ``fstopo`` command
"""

from .algebra import (
    CapExceededError,
    ContextMismatchError,
    FuzzySet,
    GradeError,
    GradeLattice,
    Universe,
    as_grade,
    render_grade,
)
from .softsets import FuzzySoftSet, ParameterSet
from .points import FuzzySoftPoint
from .topology import (
    AxiomViolation,
    CarrierBoundError,
    FuzzySoftTopology,
    TopologyValidationError,
    validate_topology,
)
from .deciders import (
    AxiomVerdict,
    DeciderConfig,
    DeciderPreconditionError,
    Witness,
    clopen_witness,
    find_separation,
    is_connected,
    is_normal,
    is_regular,
    is_t0,
    is_t1,
    is_t2,
    is_t3,
    is_t4,
    points_all_closed,
    subspace_separation,
)
from .corpus import CorpusSpec, NamedSpace, SetPool, SpaceCorpus, named_spaces
from .claims import CLAIMS, Claim, SpaceCase, select_claims
from .auditor import AuditReport, audit_space, run_audit, search_counterexample
from .document import (
    DocumentError,
    SpaceDocument,
    document_from_topology,
    parse_document,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "AxiomVerdict",
    "AxiomViolation",
    "CLAIMS",
    "CapExceededError",
    "CarrierBoundError",
    "Claim",
    "ContextMismatchError",
    "CorpusSpec",
    "DeciderConfig",
    "DeciderPreconditionError",
    "DocumentError",
    "FuzzySet",
    "FuzzySoftPoint",
    "FuzzySoftSet",
    "FuzzySoftTopology",
    "GradeError",
    "GradeLattice",
    "NamedSpace",
    "ParameterSet",
    "SetPool",
    "SpaceCase",
    "SpaceCorpus",
    "SpaceDocument",
    "TopologyValidationError",
    "Universe",
    "Witness",
    "as_grade",
    "audit_space",
    "clopen_witness",
    "document_from_topology",
    "find_separation",
    "is_connected",
    "is_normal",
    "is_regular",
    "is_t0",
    "is_t1",
    "is_t2",
    "is_t3",
    "is_t4",
    "named_spaces",
    "parse_document",
    "points_all_closed",
    "render_grade",
    "run_audit",
    "search_counterexample",
    "select_claims",
    "subspace_separation",
    "validate_topology",
]
