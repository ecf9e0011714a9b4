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
    DimCap,
    Inconsistent,
    LinkFailed,
    MuMismatch,
    NotCommuting,
    NotDensityMatrix,
    NotInAPlus,
    NotSimple,
    PreconditionFailed,
    clear_frames,
    clears_failure_frames,
)
from .inheritance import (
    ArrowChain,
    ChainNode,
    ChainReport,
    Embedding,
    _chain_report,
    _passed_links,
    append_factor_embedding,
)
from .numerics import (
    DEFAULT_TOL,
    DIM_CAP,
    LinearOperator,
    _check_density,
    _kron,
    _kronecker_sum,
    _reduced,
    _Slot,
    hermitian_eig,
    identity,
    product_space,
)
from .positivity import GroundState, NodeAnalysis, _toward_cone, generates_improving_semigroup

COMMUTATOR_TOL = 1e-10
SNAP_TOL_FACTOR = 1e-8
DECOUPLED_TOL_FACTOR = 1e-8  # H2 is H*(x)1 + 1(x)L when the misfit is <= this * ||H2||
SUPPORT_TOL = 1e-12  # eigenvalues below this count as zero in the relative entropy
NULL_WEIGHT_TOL = 1e-10  # rho weight on sigma's null space above this makes it +inf
ENTROPY_TOL = 1e-9  # a reduced ground state matches the base when the entropy is <= this
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# every tower level's slot: sigma_x with its eigenpairs in closed form
_FLIP_SLOT = _Slot(PAULI_X, np.array([-1.0, 1.0]),
                   np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0))
_COMMUTATOR_ROWS = 64  # row block of the commutator's Frobenius sum


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c = a @ b
    c -= b @ a
    return c


def _commutes(a: np.ndarray, b: np.ndarray, scale: float) -> bool:
    """Whether ||ab - ba|| <= COMMUTATOR_TOL*scale for Hermitian a and b,
    where scale is ||a||*||b||.

    The Frobenius norm bounds the spectral norm from above.  It is summed
    over blocks of rows of the commutator, so no n x n product is formed.
    Only when that bound exceeds the threshold is the spectral norm itself
    computed: the commutator is anti-Hermitian, so its norm is the largest
    |eigenvalue| of the Hermitian i(ab - ba), which is complex even when a
    and b are real.
    """
    thresh = COMMUTATOR_TOL * max(scale, 1e-300)
    square = 0.0
    for start in range(0, a.shape[0], _COMMUTATOR_ROWS):
        rows = slice(start, start + _COMMUTATOR_ROWS)
        block = a[rows] @ b
        block -= b[rows] @ a
        square += float(np.vdot(block, block).real)
    if math.sqrt(square) <= thresh:
        return True
    c = 1j * _commutator(a, b)
    return float(np.abs(np.linalg.eigvalsh(c)).max()) <= thresh


def _hermitian_norm(op: LinearOperator) -> float:
    return float(np.abs(np.linalg.eigvalsh(op.mat)).max())


def commutes_with_observable(h: LinearOperator, o: LinearOperator) -> bool:
    """Whether H and O strongly commute, via the commutator norm.

    Decided by ||HO - OH|| <= COMMUTATOR_TOL*||H||*||O||, every norm read
    from a Hermitian spectrum.  Sampled unitary groups add nothing to this
    verdict: by Duhamel's formula ||[e^{isO}, e^{itH}]|| <= |st|*||[H, O]||,
    so they could only disagree by rounding.  The tests keep that comparison
    as a property oracle.
    """
    h.require_hermitian()
    o.require_hermitian()
    if h.dim != o.dim:
        raise NotCommuting("operators act on different spaces")
    return _commutes(h.mat, o.mat, _hermitian_norm(h) * _hermitian_norm(o))


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
                        tol: float = DEFAULT_TOL) -> GoodQuantumNumber:
    """The observable's eigenvalue on the ground state of H.

    Requires H improving-class on the cone (so the ground state is simple and
    strictly positive) and H commuting with O, decided as for every chain
    and lattice node.  The reported commutator norm is the largest singular
    value of HO - OH.
    """
    h.require_hermitian()
    o.require_hermitian()
    node = NodeAnalysis(h, cone, tol)
    o_spectrum = hermitian_eig(o)
    mu, snapped, residual = _quantum_number(node, o, o_spectrum.norm, o_spectrum.eigenvalues)
    comm = float(np.linalg.norm(_commutator(h.mat, o.mat), 2))
    return GoodQuantumNumber(mu, snapped, residual, comm, node.ground)


def _quantum_number(node: NodeAnalysis, o: LinearOperator, o_norm: float,
                    candidates) -> tuple[float, float, float]:
    """The quantum number of O on ``node.ground``, given the norm of O and
    the eigenvalues to snap to: (mu, snapped mu, residual |O psi - mu psi|).

    H must commute with O, be improving-class on the node's cone and have a
    simple ground state, which must be an eigenvector of O.
    """
    if node.hamiltonian.dim != o.dim:
        raise NotCommuting("operators act on different spaces")
    if not _commutes(node.hamiltonian.mat, o.mat, node.norm * o_norm):
        raise NotCommuting("Hamiltonian does not commute with the observable")
    if not node.improving:
        raise NotInAPlus("Hamiltonian is not improving-class on the cone")
    g = node.ground
    if not g.simple:
        raise NotSimple(f"ground gap {g.gap01:.3e} is below the simplicity threshold")
    psi = g.vector
    o_psi = o.mat @ psi
    mu = float(np.vdot(psi, o_psi).real)
    o_scale = max(o_norm, 1e-300)
    candidates = np.asarray(candidates, dtype=float)
    snapped = float(candidates[np.argmin(np.abs(candidates - mu))])
    residual = float(np.linalg.norm(o_psi - mu * psi))
    if residual > SNAP_TOL_FACTOR * o_scale or abs(mu - snapped) > SNAP_TOL_FACTOR * o_scale:
        raise Inconsistent(
            f"ground state is not an observable eigenvector: residual {residual:.3e}"
        )
    return mu, snapped, residual


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


@clears_failure_frames
def quantum_number_along_chain(chain: ArrowChain, o: LinearOperator,
                               tol: float = DEFAULT_TOL) -> ChainMuReport:
    """Verify a chain and check that the quantum number never moves.

    The observable lives on the first node's space and is pushed forward as
    tau O tau^* along each embedding.  All nodes snap against the base
    observable's eigenvalues (plus 0, which extensions acquire), so equality
    of snapped values is exact.  Each link's telescope residual compares
    <O psi_j, tau^* psi_{j+1}> with mu_j times the link's overlap, using the
    ground states the quantum numbers were read from.

    One pass does the work, link by link: link j is verified, which
    decomposes node j+1; node j's quantum number is read from the ground
    state link j used; link j-1's telescope residual is taken and the
    observable pushed forward; node j's eigenbasis is then released.  The
    last node is read once the last link has passed.  Every node is thus
    decomposed once, and at most two eigenbases are alive at a time.

    Failures carry the index of the offending node or link.  A failed link
    raises `ChainFailed` at once.  A failure while reading a node is held
    until every remaining link has passed, so a broken link always wins
    over a quantum-number failure, wherever the two sit.
    """
    try:
        return _chain_pass(chain, o, tol)[1]
    except LinkFailed as exc:
        raise _indexed(ChainFailed(str(exc)), exc.index) from exc


def _chain_pass(chain: ArrowChain, o: LinearOperator,
                tol: float) -> tuple[ChainReport, ChainMuReport]:
    """`quantum_number_along_chain`, also returning the chain's link report;
    a failed link raises `LinkFailed` itself.

    Node j is read as `_passed_links` hands it over.  The observable is
    pushed forward to node j+1 only then, after link j has decomposed that
    node, so that its eigh workspace and this n x n matrix are never alive
    together.  spec(tau O tau^*) is spec(O) and 0, so every pushed-forward
    observable has the norm of O.  The first reading failure is held, its
    frames cleared, since they hold node j's eigenbasis; no later node is
    read, and it is raised only once every link has passed.
    """
    links, values, snapped, crossings = [], [], [], []
    held = None
    for j, record, link in _passed_links(chain, tol):
        if link is not None:
            links.append(link)
        if held is not None:
            continue
        try:
            if j == 0:
                o_spectrum = hermitian_eig(o)
                extended_candidates = np.concatenate([o_spectrum.eigenvalues, [0.0]])
            candidates = o_spectrum.eigenvalues if j == 0 else extended_candidates
            try:
                mu, mu_snapped, _ = _quantum_number(record, o, o_spectrum.norm, candidates)
            except (NotCommuting, NotSimple, NotInAPlus) as exc:
                raise _indexed(type(exc)(f"node {j}: {exc}"), j) from exc
            values.append(mu)
            snapped.append(mu_snapped)
            if mu_snapped != snapped[0]:
                raise MuMismatch(j, snapped[0], mu_snapped)
            if j:  # <O psi_{j-1}, tau^* psi_j>, the left side of link j-1's telescope
                crossings.append(complex(
                    np.vdot(o_psi, chain.embeddings[j - 1].pull(record.ground.vector))))
            if link is not None:
                o_psi = o.mat @ record.ground.vector
                o = chain.embeddings[j].extend(o)
        except Exception as exc:  # noqa: BLE001 - raised once every link has passed
            clear_frames(exc)
            held = exc
    if held is not None:
        raise held
    report = _chain_report(links)
    telescopes = tuple(abs(lhs - snapped[j] * report.overlaps[j])
                       for j, lhs in enumerate(crossings))
    return report, ChainMuReport(tuple(values), tuple(snapped), report.overlaps, telescopes)


def extension_tower(h: LinearOperator, cone: SelfDualCone, o: LinearOperator,
                    depth: int, tol: float = DEFAULT_TOL) -> ArrowChain:
    """Chain of trivial two-level extensions H -> H(x)1 - 1(x)sigma_x -> ...

    Each level appends one spin with a transverse coupling of its own; the
    level's ground state is the previous one tensored with the uniform
    two-component vector, and the embedding appends exactly that vector, so
    every link verifies with overlap 1.  Level d is the Kronecker sum
    H (x) 1 - 1 (x) K_d, K_d the sum of sigma_x over the d appended spins
    (`numerics._kronecker_sum` with X = 1), so its spectrum is read from
    2^d blocks H - k of the base's size.  A tower whose top dimension
    h.dim * 2^depth exceeds `DIM_CAP` raises `DimCap` before any level is
    built.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # 2^bit_length exceeds the cap already, so no huge power is formed
    if h.dim * 2 ** min(depth, DIM_CAP.bit_length()) > DIM_CAP:
        raise DimCap(f"tower dimension {h.dim} * 2^{depth} exceeds cap {DIM_CAP}")
    if not generates_improving_semigroup(h, cone, tol):
        raise PreconditionFailed("seed Hamiltonian is not improving-class on its cone")
    if not commutes_with_observable(h, o):
        raise PreconditionFailed("seed Hamiltonian does not commute with the observable")
    uniform2 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    one = identity(h.space, h.dim)
    nodes = [ChainNode(h, cone)]
    embeddings = []
    current_h, current_cone = h, cone
    for level in range(1, depth + 1):
        aux = f"q{level}"
        next_h = _kronecker_sum(product_space(current_h.space, aux), h, one,
                                (_FLIP_SLOT,) * level)
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
                           tol: float = DEFAULT_TOL) -> DecoupledExtensionReport:
    """Whether H2 = H*(x)1 + 1(x)L for some improving-class L on the factor.

    The candidate L is the least-squares projection of H2 - H*(x)1 onto the
    second-factor operators (the average of the diagonal blocks).  Note L = 0
    is reducible whenever the factor has dimension >= 2, so a bare H*(x)1 is
    reported as not decoupled in this strict sense.  L's improving class is
    decided at ``tol``.
    """
    d1 = h_star.dim
    if h2.dim % d1 != 0:
        raise BadFactorization(f"dim {h2.dim} does not factor over dim {d1}")
    d2 = h2.dim // d1
    if env_cone.dim != d2 or emb.dim_from != d1 or emb.dim_to != h2.dim:
        raise BadFactorization("embedding or factor cone does not match the split")
    diff = h2.mat - _kron(h_star.mat, np.eye(d2))
    blocks = diff.reshape(d1, d2, d1, d2)
    env = np.einsum("ijik->jk", blocks) / d1
    residual = float(np.linalg.norm(diff - _kron(np.eye(d1), env), 2))
    if residual > DECOUPLED_TOL_FACTOR * max(h2.norm(), 1e-300):
        return DecoupledExtensionReport(False, residual, None)
    env_op = LinearOperator(env_cone.space, env)
    ok = generates_improving_semigroup(env_op, env_cone, tol)
    return DecoupledExtensionReport(ok, residual, env_op)


def relative_entropy(rho: LinearOperator, sigma: LinearOperator) -> float:
    """Quantum relative entropy tr[rho log rho] - tr[rho log sigma].

    Natural logarithm, 0*log(0) = 0, and +inf when rho puts weight above
    `NULL_WEIGHT_TOL` on the null space of sigma (eigenvalues below
    `SUPPORT_TOL`).
    """
    if rho.dim != sigma.dim:
        raise NotDensityMatrix("density matrices live on different spaces")
    for op in (rho, sigma):
        _check_density(op.mat)

    p_vals, p_vecs = np.linalg.eigh(0.5 * (rho.mat + rho.mat.conj().T))
    s_vals, s_vecs = np.linalg.eigh(0.5 * (sigma.mat + sigma.mat.conj().T))
    p_vals = np.clip(p_vals, 0.0, None)

    null = s_vals < SUPPORT_TOL
    if null.any():
        null_weight = float(np.einsum(
            "ij,jk,ki->", s_vecs[:, null].conj().T, rho.mat, s_vecs[:, null]).real)
        if null_weight > NULL_WEIGHT_TOL:
            return math.inf

    entropy_rho = float(sum(p * math.log(p) for p in p_vals if p > SUPPORT_TOL))
    weights = np.einsum("ij,jk,ki->i", s_vecs.conj().T, rho.mat, s_vecs).real
    cross = float(sum(w * math.log(s) for w, s in zip(weights, s_vals) if s >= SUPPORT_TOL))
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
    for name, spec in (("joint", spec2), ("base", spec_star)):
        if not spec.simple:
            raise NotSimple(f"{name} Hamiltonian has a degenerate ground state")
    psi = spec2.ground_vector
    psi_star = spec_star.ground_vector
    # a unit vector's projector is a density matrix: `relative_entropy` checks the reduced one
    rho_red = _reduced(LinearOperator(h2.space, np.outer(psi, psi.conj())), d1)
    rho_star = LinearOperator(rho_red.space, np.outer(psi_star, psi_star.conj()))
    entropy = relative_entropy(rho_red, rho_star)
    if entropy > ENTROPY_TOL:
        return FactorizationReport(False, entropy, None)
    coeffs = psi.reshape(d1, d2)
    omega = psi_star.conj() @ coeffs
    omega = _toward_cone(omega / np.linalg.norm(omega), env_cone)
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
