"""Exact computation of the universal algebraic prolongation of a fundamental
graded nilpotent Lie algebra with a chosen degree-zero derivation subalgebra,
together with Spencer operators, normalization data and structural
diagnostics.  All arithmetic is exact over Q."""

from .algebra import (
    BasisElement,
    DegreeZeroAlgebra,
    GradedLieAlgebra,
    GradedLinearMap,
    ValidityReport,
    check_fundamental,
    check_validity,
)
from .diagnostics import (
    KillingData,
    center,
    fingerprint,
    is_semisimple,
    killing_form,
)
from .freenil import free_nilpotent
from .linalg import RatMatrix, column_complement, nullspace, rank, solve
from .normalization import (
    NormalizationReport,
    SpencerSystem,
    build_spencer,
    normalization_report,
)
from .prolongation import (
    InternalConsistencyError,
    ProlongationResult,
    adjoin_g0,
    check_transitivity,
    prolong_step,
    universal_prolongation,
)
from .symbols import (
    EuclideanForm,
    LinePair,
    abelian,
    custom_g0,
    degree_zero_derivations,
    heisenberg,
    line_preserving_derivations,
    orthogonal_derivations,
)

__all__ = [
    "BasisElement",
    "DegreeZeroAlgebra",
    "EuclideanForm",
    "GradedLieAlgebra",
    "GradedLinearMap",
    "InternalConsistencyError",
    "KillingData",
    "LinePair",
    "NormalizationReport",
    "ProlongationResult",
    "RatMatrix",
    "SpencerSystem",
    "ValidityReport",
    "abelian",
    "adjoin_g0",
    "build_spencer",
    "center",
    "check_fundamental",
    "check_transitivity",
    "check_validity",
    "column_complement",
    "custom_g0",
    "degree_zero_derivations",
    "fingerprint",
    "free_nilpotent",
    "heisenberg",
    "is_semisimple",
    "killing_form",
    "line_preserving_derivations",
    "normalization_report",
    "nullspace",
    "orthogonal_derivations",
    "prolong_step",
    "rank",
    "solve",
    "universal_prolongation",
]
