"""latticelab: finite bounded lattices, kernel-certified morphisms,
annihilator monoids, and exhaustive property checking."""

from .abelian import (
    AbelianGroup,
    GroupHom,
    endomorphisms,
    hom_compose,
    induced_map,
    induced_monoid,
    rickart_module_direct,
    subgroup_lattice,
)
from .conformance import (
    REGISTRY,
    CorpusReport,
    random_corpus,
    random_modular_lattice,
    run_conformance,
)
from .errors import (
    ConsistencyError,
    DomainMismatchError,
    EmptyLatticeError,
    GiveUpError,
    LatticeLabError,
    LinearValidationError,
    MissingProjectionsError,
    NoKernelError,
    NotAComplementError,
    NotALatticeError,
    NotAPosetError,
    NotClosedError,
    NotComparableError,
    NotIntervalIsoError,
    NotModularError,
    SizeLimitExceededError,
)
from .lattice import (
    Decomposition,
    IntervalView,
    Lattice,
    ProductLattice,
    build_lattice,
    complemented_elements,
    complements_of,
    decompose,
    direct_product,
    essential_superfluous,
    interval,
    is_boolean,
    is_distributive,
    is_modular,
    lattice_from_json,
    lattice_to_dot,
    lattice_to_json,
    opposite,
    socle_radical,
)
from .monoid import (
    AnnihilatorSet,
    EndoMonoid,
    annihilator,
    explicit_monoid,
    full_monoid,
    generated_monoid,
    monoid_from_spec,
    monoid_predicate,
)
from .morphisms import (
    IntervalIso,
    LinearMorphism,
    compose,
    enumerate_interval_isos,
    enumerate_linmors,
    extend_from_interval,
    fully_invariant_elements,
    identity_morphism,
    interval_inclusion,
    interval_quotient,
    morphism_from_json,
    morphism_to_json,
    projection,
    validate_linear,
    zero_morphism,
)
from .properties import (
    check_condition,
    check_cross_rickart,
    check_generation,
    check_nonsingularity,
    check_retractable,
    check_rickart_family,
    check_rickpix,
    check_summand_property,
)
from .verdict import Verdict

__version__ = "0.1.0"
