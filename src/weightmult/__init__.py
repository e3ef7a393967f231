"""Exact weight multiplicities for semisimple Lie algebras.

Root data and the recursions are integer arithmetic; `fractions.Fraction`
appears only for genuinely rational values (the form on weights and the
root coordinates of a weight), and no floating point is used anywhere.
Weights are tuples of coordinates in the basis of fundamental weights,
root vectors are tuples of coordinates in the basis of simple roots, and
both are indexed in the standard Bourbaki order for each family.

Quick tour::

    from weightmult import build_root_system, multiplicity_value

    a2 = build_root_system("A", 2)
    multiplicity_value(a2, (1, 1), (0, 0))   # 2: the adjoint zero weight
"""

from .errors import (
    DimensionMismatch,
    GroupTooLarge,
    InexactDivision,
    InvalidType,
    NegativeInput,
    NotDominant,
    NotUnder,
    ParseError,
    PreconditionViolated,
    RankMismatch,
    WeightMultError,
    WrongType,
    ZeroHighestWeight,
)
from .multiplicity import (
    ALGORITHMS,
    Counters,
    MultContext,
    ReductionTrace,
    TraceStep,
    character,
    dimension,
    dlm,
    fast_freudenthal,
    freudenthal_classical,
    levi_restrict,
    lower_highest_weight,
    multiplicity,
    multiplicity_value,
    type_a_closed,
)
from .oracle import (
    DEFAULT_CAP,
    VerifyReport,
    WeylElement,
    enumerate_weyl,
    kostant_multiplicity,
    verify_module,
)
from .partition import PartitionMemo, kostant_partition, verma_multiplicity
from .rootsys import (
    RootSystem,
    build_root_system,
    dominant_conjugate,
    inner,
    is_under,
    orbit_size,
    root_to_weight_coords,
    weight_to_root_coords,
    weyl_dimension,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # root systems
    "RootSystem",
    "build_root_system",
    "inner",
    "root_to_weight_coords",
    "weight_to_root_coords",
    "is_under",
    "dominant_conjugate",
    "orbit_size",
    "weyl_dimension",
    # partitions
    "PartitionMemo",
    "kostant_partition",
    "verma_multiplicity",
    # multiplicities
    "ALGORITHMS",
    "Counters",
    "MultContext",
    "ReductionTrace",
    "TraceStep",
    "dlm",
    "freudenthal_classical",
    "fast_freudenthal",
    "lower_highest_weight",
    "levi_restrict",
    "type_a_closed",
    "multiplicity",
    "multiplicity_value",
    "character",
    "dimension",
    # oracle
    "DEFAULT_CAP",
    "WeylElement",
    "VerifyReport",
    "enumerate_weyl",
    "kostant_multiplicity",
    "verify_module",
    # errors
    "WeightMultError",
    "InvalidType",
    "DimensionMismatch",
    "NotDominant",
    "NotUnder",
    "NegativeInput",
    "PreconditionViolated",
    "InexactDivision",
    "WrongType",
    "ZeroHighestWeight",
    "GroupTooLarge",
    "ParseError",
    "RankMismatch",
]
