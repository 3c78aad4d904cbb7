"""Constructive factorization of near-products with verifiable certificates.

Multiplication maps L_p x L_q onto L_1 (conjugate exponents) and l1 x c0
onto l1 so uniformly that any target within eps^2/4 (resp. eps^2/16) of a
product f*g in the 1-norm splits as u*v with both factors within eps of the
originals.  This package makes those splittings executable: solvers produce
factor pairs together with the promised radii, and an independent verifier
checks every certificate by recomputation alone.
"""

from .certificates import FactorizationCertificate
from .countable import AgreementSplit, agreement_split, factor_countable
from .errors import FeasibilityError
from .generate import InstanceSpec, gen_instance
from .instances import (
    LpInstance,
    SeqInstance,
    instance_from_json,
    load_instance,
    space_from_json,
    space_to_json,
)
from .lp import (
    QuantizationParams,
    factor_bounded,
    factor_general,
    quantize_geometric,
    quantize_grid,
    select_params,
    snap_to_gamma_grid,
)
from .measure import (
    INFINITE,
    Exponent,
    MeasureSpace,
    SimpleFunction,
    TruncationResult,
    conjugate,
    norm,
    truncate_support,
)
from .scalar import ScalarBox, ScalarFactorPair, factor_scalar
from .sequences import TailWeights, factor_seq, seq_split, tail_weights
from .verify import VerificationReport, verify_certificate

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "AgreementSplit",
    "Exponent",
    "FactorizationCertificate",
    "FeasibilityError",
    "InstanceSpec",
    "LpInstance",
    "MeasureSpace",
    "QuantizationParams",
    "ScalarBox",
    "ScalarFactorPair",
    "SeqInstance",
    "SimpleFunction",
    "TailWeights",
    "TruncationResult",
    "VerificationReport",
    "agreement_split",
    "conjugate",
    "factor_bounded",
    "factor_countable",
    "factor_general",
    "factor_scalar",
    "factor_seq",
    "gen_instance",
    "instance_from_json",
    "load_instance",
    "norm",
    "quantize_geometric",
    "quantize_grid",
    "select_params",
    "seq_split",
    "snap_to_gamma_grid",
    "space_from_json",
    "space_to_json",
    "tail_weights",
    "truncate_support",
    "verify_certificate",
]
