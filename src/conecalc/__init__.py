"""Order-theoretic verification toolkit for positivity-preserving semigroups
on simplicial self-dual cones, with good-quantum-number stability checks.
"""

__version__ = "0.1.0"

from .cones import JordanParts, SelfDualCone, orthant, tensor_cone
from .inheritance import (
    ArrowChain,
    ChainNode,
    Embedding,
    append_factor_embedding,
    check_arrow,
    concatenate,
    conditional_expectation,
    ground_overlap,
    identity_embedding,
    inherits_positivity,
    verify_chain,
)
from .lattice import (
    HasseDiagram,
    LatticeNode,
    LatticeSpec,
    build_lattice,
    build_node,
    hasse_export,
    verify_spec,
)
from .numerics import (
    LinearOperator,
    Spectrum,
    hermitian_eig,
    identity,
    kron,
    op_exp,
    partial_trace,
)
from .positivity import (
    ErgodicityReport,
    NodeAnalysis,
    PositivityReport,
    classify,
    dominates,
    generates_improving_semigroup,
    generates_positive_semigroup,
    ground_state,
    is_ergodic,
    positive_combination,
)
from .semigroup import (
    TrotterReport,
    perturbed_semigroup_improving,
    resolvent,
    trotter_verify,
)
from .spin import (
    MSector,
    SpinSystem,
    m_sector,
    marshall_cone,
    mlm_hamiltonian,
    spin_operators,
    total_spin,
    verify_mlm,
)
from .stability import (
    GoodQuantumNumber,
    StabilityClassRecord,
    commutes_with_observable,
    extension_tower,
    good_quantum_number,
    ground_state_factorizes,
    is_decoupled_extension,
    quantum_number_along_chain,
    relative_entropy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
