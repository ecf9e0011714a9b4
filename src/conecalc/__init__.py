"""Order-theoretic verification toolkit for positivity-preserving semigroups
on simplicial self-dual cones, with good-quantum-number stability checks.

Importing the package loads none of its modules: each exported name is
resolved on first access from the module that defines it (PEP 562), so a
program pays only for the modules it uses.
"""

import importlib
import math

__version__ = "0.1.0"
# the limits a config is read against and the modules apply
DEFAULT_TOL = 1e-9
TOL_LIMIT = math.sqrt(0.5)  # inheritance.inherits_positivity needs tol below this
DIM_CAP = 4096
SITE_CAP = 12  # spin sites, whose 2^12 states fill DIM_CAP

# submodule -> the names the package exports from it
_EXPORTS = {
    "cones": ("SelfDualCone", "orthant", "tensor_cone"),
    "errors": (),
    "inheritance": ("ArrowChain", "ChainNode", "Embedding", "append_factor_embedding",
                    "check_arrow", "conditional_expectation", "ground_overlap",
                    "identity_embedding", "inherits_positivity", "verify_chain"),
    "lattice": ("HasseDiagram", "LatticeNode", "LatticeSpec", "build_lattice", "build_node",
                "hasse_export", "verify_spec"),
    "numerics": ("LinearOperator", "Spectrum", "hermitian_eig", "identity", "kron", "op_exp",
                 "partial_trace"),
    "positivity": ("ErgodicityReport", "NodeAnalysis", "PositivityReport", "classify",
                   "dominates", "generates_improving_semigroup", "generates_positive_semigroup",
                   "ground_state", "is_ergodic"),
    "semigroup": ("TrotterReport", "perturbed_semigroup_improving", "resolvent",
                  "trotter_verify"),
    "spin": ("MSector", "SpinSystem", "m_sector", "marshall_cone", "mlm_hamiltonian",
             "total_spin", "verify_mlm"),
    "stability": ("GoodQuantumNumber", "StabilityClassRecord", "commutes_with_observable",
                  "extension_tower", "good_quantum_number", "ground_state_factorizes",
                  "is_decoupled_extension", "quantum_number_along_chain", "relative_entropy"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # bound once, as `from .module import name` would bind it
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
