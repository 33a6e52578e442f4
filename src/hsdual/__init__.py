"""Finite-dimensional operator kinds, trace-pairing duality, and friends.

The package is organised in layers:

- :mod:`hsdual.linalg` — matrices, a self-contained Hermitian eigensolver,
  JSON (de)serialisation.
- :mod:`hsdual.operators` — the kind lattice (bounded, self-adjoint,
  positive, effect, projection, density), classification, splittings,
  the Loewner order, and deterministic samplers.
- :mod:`hsdual.duality` — operators as linear functionals via the trace
  pairing, and reconstruction of the operator from a black-box functional.
- :mod:`hsdual.algebra` — formal sums over four coefficient semirings with
  exact arithmetic, monad structure, and carrier interpretation.
- :mod:`hsdual.effect` — effect-algebra instances and a law-checking suite.
- :mod:`hsdual.free` — weighted points, formal differences, and complex
  pairs, with the isomorphisms onto operator kinds.
- :mod:`hsdual.wp` — channels on density operators and the weakest
  precondition of an effect, computed through the duality layer.
"""

from .algebra import (
    AlgebraError,
    CoefficientOverflow,
    FormalSum,
    NotDistribution,
    Semiring,
    SemiringMismatch,
    convex_state_carrier,
    flatten,
    fmap,
    formal_sum,
    interpret,
    matrix_module_carrier,
    monad_law_suite,
    unit,
)
from .duality import (
    ContractViolation,
    DualityError,
    Functional,
    KindMismatch,
    NotInKind,
    hs_forward,
    hs_inverse,
    naturality_check,
)
from .effect import (
    EffectInstance,
    LawReport,
    law_suite,
    make_effects,
    make_powerset,
    make_projections,
    make_unit_interval,
)
from .free import (
    ComplexPair,
    Difference,
    WeightedPoint,
    c_iso_b_sa,
    c_iso_sa_b,
    r_iso_pos_sa,
    r_iso_sa_pos,
    s_iso_dm_pos,
    s_iso_pos_dm,
)
from .linalg import (
    DEFAULT_TOL,
    DimensionMismatch,
    LinalgError,
    NoConvergence,
    NotHermitian,
    approx_eq,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
)
from .operators import (
    KindReport,
    NotPositive,
    OperatorKind,
    classify,
    in_kind,
    loewner_leq,
    pos_neg_split,
    sa_components,
    sample,
)
from .wp import (
    ChannelError,
    InvalidChannel,
    Mixture,
    NotDensity,
    NotEffect,
    Super,
    Unitary,
    apply_channel,
    compose,
    mixture_channel,
    super_channel,
    to_super,
    unitary_channel,
    wp,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "ChannelError",
    "CoefficientOverflow",
    "ComplexPair",
    "ContractViolation",
    "DEFAULT_TOL",
    "Difference",
    "DimensionMismatch",
    "DualityError",
    "EffectInstance",
    "FormalSum",
    "Functional",
    "InvalidChannel",
    "KindMismatch",
    "KindReport",
    "LawReport",
    "LinalgError",
    "Mixture",
    "NoConvergence",
    "NotDensity",
    "NotDistribution",
    "NotEffect",
    "NotHermitian",
    "NotInKind",
    "NotPositive",
    "OperatorKind",
    "Semiring",
    "SemiringMismatch",
    "Super",
    "Unitary",
    "WeightedPoint",
    "apply_channel",
    "approx_eq",
    "c_iso_b_sa",
    "c_iso_sa_b",
    "classify",
    "compose",
    "convex_state_carrier",
    "flatten",
    "fmap",
    "formal_sum",
    "hermitian_eig",
    "hs_forward",
    "hs_inverse",
    "in_kind",
    "interpret",
    "law_suite",
    "loewner_leq",
    "make_effects",
    "make_powerset",
    "make_projections",
    "make_unit_interval",
    "matrix_from_json",
    "matrix_module_carrier",
    "matrix_to_json",
    "mixture_channel",
    "monad_law_suite",
    "naturality_check",
    "pos_neg_split",
    "r_iso_pos_sa",
    "r_iso_sa_pos",
    "s_iso_dm_pos",
    "s_iso_pos_dm",
    "sa_components",
    "sample",
    "super_channel",
    "to_super",
    "unit",
    "unitary_channel",
    "wp",
]
