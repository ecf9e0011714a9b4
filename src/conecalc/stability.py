"""Good quantum numbers and their stability along verified chains: the
commuting-observable class, snapping of ground-state eigenvalues, chain
invariance, the two-level extension tower, decoupled-extension tests, and
quantum relative entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import SelfDualCone, orthant, tensor_cone
from .errors import (
    BadFactorization,
    ChainFailed,
    Inconsistent,
    LinkFailed,
    MuMismatch,
    NotCommuting,
    NotDensityMatrix,
    NotInAPlus,
    NotSimple,
    PreconditionFailed,
)
from .inheritance import (
    ArrowChain,
    ChainNode,
    Embedding,
    append_factor_embedding,
    verify_chain,
)
from .numerics import (
    DEFAULT_TOL,
    LinearOperator,
    hermitian_eig,
    identity,
    kron,
    op_exp_unitary,
    partial_trace,
)
from .positivity import GroundState, generates_improving_semigroup, ground_state

COMMUTATOR_TOL = 1e-10
SNAP_TOL_FACTOR = 1e-8
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
UNITARY_SAMPLES = ((1.0, 1.0), (0.3, 2.0))


def _commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    # the products die with the call, so no caller holds them past its norm
    return float(np.linalg.norm(a @ b - b @ a, 2))


def commutes_with_observable(h: LinearOperator, o: LinearOperator,
                             tol: float = COMMUTATOR_TOL) -> bool:
    """Whether H and O strongly commute, via the commutator norm.

    Decided by ||HO - OH|| <= tol*||H||*||O||; a positive verdict is
    cross-validated against sampled unitary groups, and a disagreement there
    raises `Inconsistent` instead of being absorbed.
    """
    h.require_hermitian()
    o.require_hermitian()
    if h.dim != o.dim:
        raise NotCommuting("operators act on different spaces")
    scale = h.norm() * o.norm()
    result = _commutator_norm(h.mat, o.mat) <= tol * max(scale, 1e-300)
    if result:
        for s, t in UNITARY_SAMPLES:
            drift = _commutator_norm(op_exp_unitary(o, s).mat, op_exp_unitary(h, t).mat)
            if drift > 2.0 * s * t * tol * scale + 1e-12:
                raise Inconsistent(
                    f"commutator passed but unitaries at (s,t)=({s},{t}) drift {drift:.3e}"
                )
    return result


@dataclass(frozen=True)
class GoodQuantumNumber:
    """Eigenvalue of the observable on a simple ground state.

    Both the raw expectation and the value snapped to the observable's
    spectrum are kept; equality claims downstream always compare snapped
    values so float drift cannot masquerade as a changed quantum number.
    The ground state it was read from is kept too, so callers never
    recompute it.
    """

    value: float
    snapped: float
    residual: float
    commutator_norm: float
    ground: GroundState = field(compare=False, repr=False)

    @property
    def gap01(self) -> float:
        return self.ground.gap01

    def to_payload(self) -> dict:
        return {
            "mu": self.value,
            "mu_snapped": self.snapped,
            "residual": self.residual,
            "gap01": self.gap01,
            "commutator_norm": self.commutator_norm,
        }


def good_quantum_number(h: LinearOperator, o: LinearOperator, cone: SelfDualCone,
                        tol: float = DEFAULT_TOL,
                        snap_to: np.ndarray | None = None) -> GoodQuantumNumber:
    """The observable's eigenvalue on the ground state of H.

    Requires H improving-class on the cone (so the ground state is simple and
    strictly positive) and H commuting with O.  ``snap_to`` overrides the
    candidate eigenvalue list, which chain verifications use so that every
    node snaps against the same floats.
    """
    if not commutes_with_observable(h, o):
        raise NotCommuting("Hamiltonian does not commute with the observable")
    if not generates_improving_semigroup(h, cone, tol):
        raise NotInAPlus("Hamiltonian is not improving-class on the cone")
    g = ground_state(h, cone, tol)
    if not g.simple:
        raise NotSimple(f"ground gap {g.gap01:.3e} is below the simplicity threshold")
    psi = g.vector
    mu = float(np.vdot(psi, o.mat @ psi).real)
    o_scale = max(o.norm(), 1e-300)
    candidates = np.asarray(
        hermitian_eig(o).eigenvalues if snap_to is None else snap_to, dtype=float
    )
    snapped = float(candidates[np.argmin(np.abs(candidates - mu))])
    residual = float(np.linalg.norm(o.mat @ psi - mu * psi))
    comm = float(np.linalg.norm(h.mat @ o.mat - o.mat @ h.mat, 2))
    if residual > SNAP_TOL_FACTOR * o_scale or abs(mu - snapped) > SNAP_TOL_FACTOR * o_scale:
        raise Inconsistent(
            f"ground state is not an observable eigenvector: residual {residual:.3e}"
        )
    return GoodQuantumNumber(mu, snapped, residual, comm, g)


@dataclass(frozen=True)
class ChainMuReport:
    """Snapped quantum numbers at every node of a verified chain."""

    values: tuple[float, ...]
    snapped: tuple[float, ...]
    overlaps: tuple[float, ...]
    telescope_residuals: tuple[float, ...]
    mu_star: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "mu_star", self.snapped[0])

    def to_payload(self) -> dict:
        return {
            "mu_star": self.mu_star,
            "mu_values": list(self.values),
            "mu_snapped": list(self.snapped),
            "overlaps": list(self.overlaps),
            "telescope_residuals": list(self.telescope_residuals),
        }


def _indexed(exc, index):
    exc.index = index
    return exc


def quantum_number_along_chain(chain: ArrowChain, o: LinearOperator,
                               tol: float = DEFAULT_TOL) -> ChainMuReport:
    """Verify a chain and check that the quantum number never moves.

    The observable lives on the first node's space and is pushed forward as
    tau O tau^* along each embedding.  All nodes snap against the base
    observable's eigenvalues (plus 0, which extensions acquire), so equality
    of snapped values is exact.  Each link's telescope residual compares
    <O psi_j, tau^* psi_{j+1}> with mu_j times the link's overlap, using the
    ground states the quantum numbers were read from.  Failures carry the
    index of the offending node or link.
    """
    try:
        chain_report = verify_chain(chain, tol)
    except LinkFailed as exc:
        raise _indexed(ChainFailed(str(exc)), exc.index) from exc
    base_candidates = hermitian_eig(o).eigenvalues
    extended_candidates = np.concatenate([base_candidates, [0.0]])

    values, snapped, telescopes = [], [], []
    extended = o
    for j, node in enumerate(chain.nodes):
        candidates = base_candidates if j == 0 else extended_candidates
        try:
            gqn = good_quantum_number(node.hamiltonian, extended,
                                      chain.mu_cone(j), tol, snap_to=candidates)
        except (NotCommuting, NotSimple, NotInAPlus) as exc:
            raise _indexed(type(exc)(f"node {j}: {exc}"), j) from exc
        values.append(gqn.value)
        snapped.append(gqn.snapped)
        if snapped[j] != snapped[0]:
            raise MuMismatch(j, snapped[0], snapped[j])
        if j:  # telescope of link j-1; o_psi is O psi on the previous node
            lhs = complex(np.vdot(o_psi, chain.embeddings[j - 1].pull(gqn.ground.vector)))
            telescopes.append(abs(lhs - snapped[j - 1] * chain_report.overlaps[j - 1]))
        o_psi = extended.mat @ gqn.ground.vector
        # gqn.ground.vector is a view into this node's full eigenbasis; drop it
        # before the next node is checked, or both bases are held at once
        del gqn
        if j < len(chain.embeddings):
            extended = chain.embeddings[j].extend(extended)
    return ChainMuReport(tuple(values), tuple(snapped),
                         chain_report.overlaps, tuple(telescopes))


def extension_tower(h: LinearOperator, cone: SelfDualCone, o: LinearOperator,
                    depth: int, tol: float = DEFAULT_TOL) -> ArrowChain:
    """Chain of trivial two-level extensions H -> H(x)1 - 1(x)sigma_x -> ...

    Each level appends one spin with a transverse coupling of its own; the
    level's ground state is the previous one tensored with the uniform
    two-component vector, and the embedding appends exactly that vector, so
    every link verifies with overlap 1.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not generates_improving_semigroup(h, cone, tol):
        raise PreconditionFailed("seed Hamiltonian is not improving-class on its cone")
    if not commutes_with_observable(h, o):
        raise PreconditionFailed("seed Hamiltonian does not commute with the observable")
    uniform2 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    nodes = [ChainNode(h, cone)]
    embeddings = []
    current_h, current_cone = h, cone
    for level in range(1, depth + 1):
        aux = f"q{level}"
        flip = LinearOperator(aux, PAULI_X)
        next_h = kron(current_h, identity(aux, 2)) - kron(
            identity(current_h.space, current_h.dim), flip)
        next_cone = tensor_cone(current_cone, orthant(aux, 2))
        embeddings.append(append_factor_embedding(
            current_h.space, next_h.space, current_h.dim, uniform2))
        nodes.append(ChainNode(next_h, next_cone))
        current_h, current_cone = next_h, next_cone
    return ArrowChain(tuple(nodes), tuple(embeddings))


@dataclass(frozen=True)
class DecoupledExtensionReport:
    """Best fit of H2 - H*(x)1 to the decoupled form 1(x)L."""

    decoupled: bool
    residual: float
    env_operator: LinearOperator | None

    def to_payload(self) -> dict:
        return {"equivalent": self.decoupled, "residual": self.residual}


def is_decoupled_extension(h2: LinearOperator, h_star: LinearOperator,
                           emb: Embedding, env_cone: SelfDualCone,
                           tol_factor: float = 1e-8) -> DecoupledExtensionReport:
    """Whether H2 = H*(x)1 + 1(x)L for some improving-class L on the factor.

    The candidate L is the least-squares projection of H2 - H*(x)1 onto the
    second-factor operators (the average of the diagonal blocks).  Note L = 0
    is reducible whenever the factor has dimension >= 2, so a bare H*(x)1 is
    reported as not decoupled in this strict sense.
    """
    d1 = h_star.dim
    if h2.dim % d1 != 0:
        raise BadFactorization(f"dim {h2.dim} does not factor over dim {d1}")
    d2 = h2.dim // d1
    if env_cone.dim != d2 or emb.dim_from != d1 or emb.dim_to != h2.dim:
        raise BadFactorization("embedding or factor cone does not match the split")
    diff = h2.mat - np.kron(h_star.mat, np.eye(d2))
    blocks = diff.reshape(d1, d2, d1, d2)
    env = np.einsum("ijik->jk", blocks) / d1
    residual = float(np.linalg.norm(diff - np.kron(np.eye(d1), env), 2))
    if residual > tol_factor * max(h2.norm(), 1e-300):
        return DecoupledExtensionReport(False, residual, None)
    env_op = LinearOperator(env_cone.space, env)
    ok = generates_improving_semigroup(env_op, env_cone)
    return DecoupledExtensionReport(ok, residual, env_op)


def relative_entropy(rho: LinearOperator, sigma: LinearOperator,
                     support_tol: float = 1e-12, weight_tol: float = 1e-10) -> float:
    """Quantum relative entropy tr[rho log rho] - tr[rho log sigma].

    Natural logarithm, 0*log(0) = 0, and +inf when rho puts weight above
    ``weight_tol`` on the null space of sigma (eigenvalues below
    ``support_tol``).
    """
    if rho.dim != sigma.dim:
        raise NotDensityMatrix("density matrices live on different spaces")
    for op in (rho, sigma):
        vals = np.linalg.eigvalsh(0.5 * (op.mat + op.mat.conj().T))
        if vals.min() < -1e-10 or abs(np.trace(op.mat).real - 1.0) > 1e-10 \
                or np.abs(op.mat - op.mat.conj().T).max() > 1e-10:
            raise NotDensityMatrix("expected a PSD trace-one operator")

    p_vals, p_vecs = np.linalg.eigh(0.5 * (rho.mat + rho.mat.conj().T))
    s_vals, s_vecs = np.linalg.eigh(0.5 * (sigma.mat + sigma.mat.conj().T))
    p_vals = np.clip(p_vals, 0.0, None)

    null = s_vals < support_tol
    if null.any():
        null_weight = float(np.einsum(
            "ij,jk,ki->", s_vecs[:, null].conj().T, rho.mat, s_vecs[:, null]).real)
        if null_weight > weight_tol:
            return math.inf

    entropy_rho = float(sum(p * math.log(p) for p in p_vals if p > support_tol))
    weights = np.einsum("ij,jk,ki->i", s_vecs.conj().T, rho.mat, s_vecs).real
    cross = float(sum(w * math.log(s) for w, s in zip(weights, s_vals) if s >= support_tol))
    return entropy_rho - cross


@dataclass(frozen=True)
class FactorizationReport:
    """Weak-equivalence verdict: does the reduced ground state match the base?"""

    weak: bool
    entropy: float
    omega: np.ndarray | None

    def to_payload(self) -> dict:
        out: dict = {"weak": self.weak, "entropy": self.entropy}
        if self.omega is not None:
            out["omega"] = [[float(z.real), float(z.imag)] for z in self.omega]
        return out


def ground_state_factorizes(h2: LinearOperator, h_star: LinearOperator,
                            env_cone: SelfDualCone,
                            entropy_tol: float = 1e-9,
                            tol: float = DEFAULT_TOL) -> FactorizationReport:
    """Weak equivalence via relative entropy of the reduced ground state.

    Zero entropy against the base ground projector forces the joint ground
    state to factor as psi_* (x) omega; the factor omega is extracted, cone
    oriented, and must come out strictly positive.
    """
    d1 = h_star.dim
    if h2.dim % d1 != 0:
        raise BadFactorization(f"dim {h2.dim} does not factor over dim {d1}")
    d2 = h2.dim // d1
    if env_cone.dim != d2:
        raise BadFactorization("environment cone does not match the factor dimension")
    spec2 = hermitian_eig(h2)
    spec_star = hermitian_eig(h_star)
    for name, spec, op in (("joint", spec2, h2), ("base", spec_star, h_star)):
        if spec.gap01 <= 1e-8 * max(op.norm(), 1e-300):
            raise NotSimple(f"{name} Hamiltonian has a degenerate ground state")
    psi = spec2.ground_vector
    psi_star = spec_star.ground_vector
    rho_red = partial_trace(LinearOperator(h2.space, np.outer(psi, psi.conj())), d1)
    rho_star = LinearOperator(rho_red.space, np.outer(psi_star, psi_star.conj()))
    entropy = relative_entropy(rho_red, rho_star)
    if entropy > entropy_tol:
        return FactorizationReport(False, entropy, None)
    coeffs = psi.reshape(d1, d2)
    omega = psi_star.conj() @ coeffs
    omega = omega / np.linalg.norm(omega)
    if env_cone.coords(omega).real.sum() < 0.0:
        omega = -omega
    if not env_cone.strictly_positive(omega, tol):
        raise Inconsistent("factored environment vector is not strictly positive")
    return FactorizationReport(True, entropy, omega)


@dataclass
class StabilityClassRecord:
    """Extensional record of a stability class: verified members only.

    Every added member must come with a chain witness from the base, and its
    snapped quantum number must equal the base's; violations raise instead of
    being recorded.
    """

    base_id: str
    mu_star: float
    observable: LinearOperator
    members: list[tuple[str, ChainMuReport]] = field(default_factory=list)

    @classmethod
    def for_base(cls, base_id: str, h: LinearOperator, cone: SelfDualCone,
                 o: LinearOperator, tol: float = DEFAULT_TOL) -> "StabilityClassRecord":
        gqn = good_quantum_number(h, o, cone, tol)
        return cls(base_id, gqn.snapped, o)

    def add_member(self, member_id: str, chain: ArrowChain,
                   tol: float = DEFAULT_TOL) -> ChainMuReport:
        report = quantum_number_along_chain(chain, self.observable, tol)
        if report.mu_star != self.mu_star:
            raise MuMismatch(len(self.members), self.mu_star, report.mu_star)
        self.members.append((member_id, report))
        return report

    def to_payload(self) -> dict:
        return {
            "base": self.base_id,
            "mu_star": self.mu_star,
            "members": [
                {"id": member_id, **report.to_payload()}
                for member_id, report in self.members
            ],
        }
