"""Finite groupoids carrying symmetric-monoidal, AC and 2-ring structure as
explicit tables, with exhaustive coherence-axiom checking, witness reporting
and the constructive translations between the two sum presentations."""

from .errors import (
    ArityMismatch,
    DocumentError,
    DomainMismatch,
    EndpointMismatch,
    InvalidModulus,
    MalformedTable,
    MissingAbsorbers,
    MissingFamily,
    MissingZeroIso,
    NoInverse,
    NotARing,
    PreconditionFailed,
    PresentationMismatch,
    StructureError,
    StructureMismatch,
    UnitorMismatch,
)
from .report import CheckResult, Report, Status, Witness
from .groupoid import (
    FinGroupoid,
    GFunctor,
    Morphism,
    NatFamily,
    check_naturality,
    compose_path,
    identity_functor,
    validate_functor,
    validate_groupoid,
)
from .monoidal import (
    MonStructure,
    WeakInverseCert,
    basic_unitor,
    find_weak_inverse,
    validate_2group,
    validate_sm,
    weak_inverse_candidates,
)
from .ac import (
    ACStructure,
    assoc_commutator_upper,
    canonical_acomm_at,
    to_ac,
    to_sm,
    validate_ac,
)
from .functors import (
    MonTransformation,
    StructuredFunctor,
    boxplus,
    canonical_zero_iso,
    compose_functors,
    derive_sm_axioms_from_ac,
    enumerate_zero_isos,
    identity_structured,
    validate_ac_functor,
    validate_sm_functor,
    validate_transformation,
)
from .rings import (
    NoAbsorbers,
    TwoRingData,
    ac_ring_to_quang,
    jp_upgrade,
    quang_to_ac_ring,
    validate_ac_ring,
    validate_jp,
    validate_quang,
    validate_two_ring_data,
)
from .fixtures import (
    RingTable,
    build_derivation_2ring,
    build_dual_numbers_2group,
    build_mult_endofunctor,
    build_strict_2ring,
    build_super_line_2group,
    ring_dual_numbers,
    ring_zmod,
)

__version__ = "0.1.0"
