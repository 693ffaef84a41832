"""Chains of ad-nilpotent ideals of a Borel subalgebra.

Builds positive root systems of the simple families, enumerates the
upper-closed root sets that model ad-nilpotent ideals, streams the chain
complexes over them, applies the two sign-reversing pairings that force
cancellation in alternating sums, and verifies the resulting identities by
exact integer computation.
"""

from .chains import (
    Chain,
    ChainLimitExceeded,
    ComplexKind,
    ParabolicChain,
    chain_stabilizer_type,
    corank,
    cp_to_cr,
    cr_to_cp,
    enumerate_chains,
    membership,
)
from .ideals import (
    Ideal,
    IdealLattice,
    ParabolicType,
    SizeLimitExceeded,
    derived_ideal,
    enumerate_ideals,
    full_parabolic_type,
    ideal_lattice,
    is_abelian,
    is_radical_member,
    nilradical_of_parabolic,
    normalizer_type,
    sum_ideals,
)
from .pairings import PairingDomainError, pair_nonabelian, pair_nonradical
from .root_system import (
    Root,
    RootSystem,
    RootSystemSpec,
    build_root_system,
    cartan_matrix,
    classical_positive_root_count,
)
from .sums import (
    SumVector,
    VerificationReport,
    alternating_sum,
    boolean_interval_check,
    closed_form_sum,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "ChainLimitExceeded",
    "ComplexKind",
    "Ideal",
    "IdealLattice",
    "ParabolicChain",
    "ParabolicType",
    "PairingDomainError",
    "Root",
    "RootSystem",
    "RootSystemSpec",
    "SizeLimitExceeded",
    "SumVector",
    "VerificationReport",
    "alternating_sum",
    "boolean_interval_check",
    "build_root_system",
    "cartan_matrix",
    "chain_stabilizer_type",
    "classical_positive_root_count",
    "closed_form_sum",
    "corank",
    "cp_to_cr",
    "cr_to_cp",
    "derived_ideal",
    "enumerate_chains",
    "enumerate_ideals",
    "full_parabolic_type",
    "ideal_lattice",
    "is_abelian",
    "is_radical_member",
    "membership",
    "nilradical_of_parabolic",
    "normalizer_type",
    "pair_nonabelian",
    "pair_nonradical",
    "sum_ideals",
    "verify",
]
