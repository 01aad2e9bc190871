"""Exact computation in lamplighter-type groups Z_n wr Z^k.

Construct and validate automorphisms, compute Reidemeister numbers with
replayable certificates, classify which (n, k) force infinitely many
twisted-conjugacy classes, and cross-check everything on finite quotients
by brute force.
"""

from .group import (
    GroupElement,
    GroupParams,
    IncompatibleParams,
    Torsion,
    project_element,
    twisted_conjugate,
)
from .matrix import (
    det,
    identity,
    inverse_unimodular,
    is_unimodular,
    mat_mul,
    mat_vec,
    matrix_order,
    random_unimodular,
)
from .automorphism import (
    InvalidAutomorphism,
    ValidationReport,
    WreathAutomorphism,
    automorphism_from_dict,
    automorphism_to_dict,
    group_ring_inverse,
    inner,
    is_group_ring_unit,
    twist,
)
from .reidemeister import (
    INFINITE,
    Classification,
    ExtNat,
    PreimageTemplate,
    ReidemeisterResult,
    SurjectivityCertificate,
    block_order_three,
    certificate_from_dict,
    certificate_to_dict,
    classify_r_infinity,
    crt_lift_preimage,
    default_test_points,
    finite_reidemeister_automorphism,
    reidemeister_abelian,
    reidemeister_number,
    replay_certificate,
    restriction_difference,
    restriction_surjectivity,
    template_preimage,
)
from .fileformat import SCHEMA_VERSION, SchemaError

__version__ = "0.1.0"

# The finite-model names load `finite`, and with it numpy, on first use (PEP 562),
# so everything else starts without numpy.
_FINITE_NAMES = frozenset(
    {
        "BudgetExceeded",
        "DescentError",
        "FiniteAutomorphism",
        "FiniteWreathGroup",
        "OracleCheck",
        "TwistedClassPartition",
        "descend_automorphism",
        "fixed_conjugacy_classes",
        "identity_automorphism",
        "inner_twists",
        "twisted_classes",
        "verify_projection",
        "verify_restriction_bound",
        "verify_shift_invariance",
        "verify_tbft_finite",
        "zero_cocycle_automorphisms",
        "zero_cocycle_catalog",
    }
)


def __getattr__(name):
    if name in _FINITE_NAMES:
        from . import finite

        return getattr(finite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GroupParams",
    "GroupElement",
    "Torsion",
    "IncompatibleParams",
    "twisted_conjugate",
    "project_element",
    "identity",
    "det",
    "is_unimodular",
    "inverse_unimodular",
    "mat_mul",
    "mat_vec",
    "matrix_order",
    "random_unimodular",
    "WreathAutomorphism",
    "ValidationReport",
    "InvalidAutomorphism",
    "inner",
    "twist",
    "is_group_ring_unit",
    "group_ring_inverse",
    "automorphism_to_dict",
    "automorphism_from_dict",
    "ExtNat",
    "INFINITE",
    "reidemeister_abelian",
    "restriction_surjectivity",
    "restriction_difference",
    "template_preimage",
    "default_test_points",
    "SurjectivityCertificate",
    "PreimageTemplate",
    "crt_lift_preimage",
    "block_order_three",
    "finite_reidemeister_automorphism",
    "classify_r_infinity",
    "Classification",
    "reidemeister_number",
    "ReidemeisterResult",
    "certificate_to_dict",
    "certificate_from_dict",
    "replay_certificate",
    "FiniteWreathGroup",
    "FiniteAutomorphism",
    "TwistedClassPartition",
    "OracleCheck",
    "BudgetExceeded",
    "DescentError",
    "descend_automorphism",
    "identity_automorphism",
    "twisted_classes",
    "fixed_conjugacy_classes",
    "inner_twists",
    "verify_tbft_finite",
    "verify_shift_invariance",
    "verify_projection",
    "verify_restriction_bound",
    "zero_cocycle_automorphisms",
    "zero_cocycle_catalog",
    "SCHEMA_VERSION",
    "SchemaError",
    "__version__",
]
