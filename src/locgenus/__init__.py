"""Exact-arithmetic classification of localization-genus data.

Height sequences and similarity types of rank-one torsion-free abelian
groups, the computable fragment of homomorphisms from the rationals to
Q/Z with its kernel correspondence, p-adic valuation classes, and the
per-prime descriptors that classify the Postnikov genus of odd spheres
and of complex projective space covers.
"""

from .arith import (
    DEFAULT_PRECISION,
    DEFAULT_PRIME_BOUND,
    INFINITY,
    STAR,
    Height,
    InfinityType,
    NatPlus,
    PAdicApprox,
    StarType,
    factorize,
    is_prime,
    mod_one,
    padic_decompose,
    primes_up_to,
    valuation,
)
from .connecting import ConnectingHom, QmodZElement, beta, p_primary_parts
from .errors import (
    DomainError,
    EnumerationLimitError,
    FactorBoundError,
    FingerprintCapError,
    LocgenusError,
    ParseError,
    PrecisionError,
    ResourceError,
)
from .genus import (
    DEFAULT_FINGERPRINT_CAP,
    FakeSphereModel,
    FiniteComplexDescriptor,
    GenusVerdict,
    Neisendorfer,
    PostnikovGenusDescriptor,
    PostnikovSection,
    RationalGenusElement,
    TorsionShape,
    VerdictKind,
    assemble_global,
    build_fake_sphere,
    classify_postnikov_genus,
    classifying_map_class,
    cp_fake_descriptor,
    enumerate_postnikov_genus,
    finite_complex_genus_verdict,
)
from .rankone import (
    HeightSequence,
    LocalIso,
    RankOneGroup,
    TypeClass,
    similar,
    type_of,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_FINGERPRINT_CAP",
    "DEFAULT_PRECISION",
    "DEFAULT_PRIME_BOUND",
    "INFINITY",
    "STAR",
    "ConnectingHom",
    "DomainError",
    "EnumerationLimitError",
    "FactorBoundError",
    "FakeSphereModel",
    "FingerprintCapError",
    "FiniteComplexDescriptor",
    "GenusVerdict",
    "Height",
    "HeightSequence",
    "InfinityType",
    "LocalIso",
    "LocgenusError",
    "NatPlus",
    "Neisendorfer",
    "PAdicApprox",
    "ParseError",
    "PostnikovGenusDescriptor",
    "PostnikovSection",
    "PrecisionError",
    "QmodZElement",
    "RankOneGroup",
    "RationalGenusElement",
    "ResourceError",
    "StarType",
    "TorsionShape",
    "TypeClass",
    "VerdictKind",
    "assemble_global",
    "beta",
    "build_fake_sphere",
    "classify_postnikov_genus",
    "classifying_map_class",
    "cp_fake_descriptor",
    "enumerate_postnikov_genus",
    "factorize",
    "finite_complex_genus_verdict",
    "is_prime",
    "mod_one",
    "p_primary_parts",
    "padic_decompose",
    "primes_up_to",
    "similar",
    "type_of",
    "valuation",
]
