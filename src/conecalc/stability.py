"""Good quantum numbers and their stability along verified chains: the
commuting-observable class, snapping of ground-state eigenvalues, chain
invariance, the two-level extension tower, decoupled-extension tests, and
quantum relative entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import numerics
from .cones import SelfDualCone, _fibers_of, _SignBasis, _signed_cone
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
    clears_failure_frames,
)
from .inheritance import (
    ArrowChain,
    ChainNode,
    ChainReport,
    Embedding,
    _appended_embedding,
    _chain_report,
    _verified_links,
)
from .numerics import (
    DEFAULT_TOL,
    LinearOperator,
    _base_table,
    _BlockCache,
    _check_density,
    _EntryTable,
    _kron,
    _kronecker_slot,
    _kronecker_sum,
    _reduced,
    _shifts,
    _Slot,
    _table_with_slot,
    hermitian_eig,
    identity,
    product_space,
    uniform_vector,
)
from .positivity import GroundState, NodeAnalysis, _toward_cone, generates_improving_semigroup

COMMUTATOR_TOL = 1e-10
SNAP_TOL_FACTOR = 1e-8
DECOUPLED_TOL_FACTOR = 1e-8  # H2 is H*(x)1 + 1(x)L when the misfit is <= this * ||H2||
SUPPORT_TOL = 1e-12  # eigenvalues below this count as zero in the relative entropy
NULL_WEIGHT_TOL = 1e-10  # rho weight on sigma's null space above this makes it +inf
ENTROPY_TOL = 1e-9  # a reduced ground state matches the base when the entropy is <= this
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_COMMUTATOR_ROWS = 64  # row block of the commutator's Frobenius sum


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c = a @ b
    c -= b @ a
    return c


def _commutes(h: LinearOperator, o: np.ndarray, scale: float,
              frame: np.ndarray | None = None) -> bool:
    """Whether ||[H, T O T^*]|| <= COMMUTATOR_TOL*scale for Hermitian H and
    O, where scale is ||H||*||O|| and T is the ``frame``, an n x d0 array
    with orthonormal columns that pushes O from its base space; without a
    frame T is the identity and the test is of [H, O] itself.

    With A = H T, read from the factors of a Kronecker sum, G = T^* A and
    L = A - T G, which is orthogonal to the range of T,
    [H, T O T^*] = T [G, O] T^* + L O T^* - T O L^*.  The three terms fill
    orthogonal blocks, so the Frobenius norm squared, which bounds the
    spectral norm from above, is ||[G, O]||_F^2 + 2 ||L O||_F^2.  The first
    term is summed over blocks of rows of [G, O], so no n x n product is
    formed.  Only when that bound exceeds the threshold is the spectral
    norm itself computed: with L = Q R, Q orthogonal to the frame, the
    commutator on the range of [T, Q] is the anti-Hermitian
    [[G O - O G, -(R O)^*], [R O, 0]], whose norm is the largest |eigenvalue|
    of i times it, complex even when H and O are real.  Without a frame
    G = H and L = 0, and that matrix is [H, O] alone.
    """
    if frame is None:
        g, beyond = h.mat, None
    else:
        a = h._factors.apply(frame) if h._factors is not None else h.mat @ frame
        g = frame.conj().T @ a
        beyond = a - frame @ g
    thresh = COMMUTATOR_TOL * max(scale, 1e-300)
    square = 0.0
    for start in range(0, g.shape[0], _COMMUTATOR_ROWS):
        rows = slice(start, start + _COMMUTATOR_ROWS)
        block = g[rows] @ o
        block -= o[rows] @ g
        square += float(np.vdot(block, block).real)
    if beyond is not None:
        lo = beyond @ o
        square += 2.0 * float(np.vdot(lo, lo).real)
    if math.sqrt(square) <= thresh:
        return True
    c = _commutator(g, o)
    if beyond is not None:
        ro = np.linalg.qr(beyond, mode="r") @ o
        c = np.block([[c, -ro.conj().T], [ro, np.zeros_like(ro)]])
    return float(np.abs(np.linalg.eigvalsh(1j * c)).max()) <= thresh


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
    return _commutes(h, o.mat, _hermitian_norm(h) * _hermitian_norm(o))


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
    mu, snapped, residual, _ = _quantum_number(node, o, o_spectrum.norm, o_spectrum.eigenvalues)
    comm = float(np.linalg.norm(_commutator(h.mat, o.mat), 2))
    return GoodQuantumNumber(mu, snapped, residual, comm, node.ground)


def _quantum_number(node: NodeAnalysis, o: LinearOperator, o_norm: float, candidates,
                    frame: np.ndarray | None = None) -> tuple[float, float, float, np.ndarray]:
    """The quantum number of O on ``node.ground``, given the norm of O and
    the eigenvalues to snap to: (mu, snapped mu, residual |O psi - mu psi|,
    O psi).

    H must commute with O, be improving-class on the node's cone and have a
    simple ground state, which must be an eigenvector of O.  Given a
    ``frame`` T, the observable is T O T^*, pushed from the base space,
    and is never formed: commutation is `_commutes` through the frame, and
    with phi = T^* psi, mu = <phi, O phi> and O psi is T (O phi).
    """
    h = node.hamiltonian
    if h.dim != (o.dim if frame is None else frame.shape[0]):
        raise NotCommuting("operators act on different spaces")
    if not _commutes(h, o.mat, node.norm * o_norm, frame):
        raise NotCommuting("Hamiltonian does not commute with the observable")
    if not node.improving:
        raise NotInAPlus("Hamiltonian is not improving-class on the cone")
    g = node.ground
    if not g.simple:
        raise NotSimple(f"ground gap {g.gap01:.3e} is below the simplicity threshold")
    psi = g.vector
    phi = psi if frame is None else frame.conj().T @ psi
    o_phi = o.mat @ phi
    mu = float(np.vdot(phi, o_phi).real)
    o_psi = o_phi if frame is None else frame @ o_phi
    o_scale = max(o_norm, 1e-300)
    candidates = np.asarray(candidates, dtype=float)
    snapped = float(candidates[np.argmin(np.abs(candidates - mu))])
    residual = float(np.linalg.norm(o_psi - mu * psi))
    if residual > SNAP_TOL_FACTOR * o_scale or abs(mu - snapped) > SNAP_TOL_FACTOR * o_scale:
        raise Inconsistent(
            f"ground state is not an observable eigenvector: residual {residual:.3e}"
        )
    return mu, snapped, residual, o_psi


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

    Two phases do the work.  First every link is verified, which decomposes
    each node once and keeps its record.  Then the observable is decomposed
    and each node's quantum number is read from its kept record, in order.
    Failures carry the index of the offending node or link.  A failed link
    raises `ChainFailed`; as no node is read before every link has passed,
    a broken link always wins over a quantum-number failure, wherever the
    two sit.
    """
    try:
        return _chain_pass(chain, o, tol)[1]
    except LinkFailed as exc:
        raise _indexed(ChainFailed(str(exc)), exc.index) from exc


def _chain_pass(chain: ArrowChain, o: LinearOperator,
                tol: float) -> tuple[ChainReport, ChainMuReport]:
    """`quantum_number_along_chain`, also returning the chain's link report;
    a failed link raises `LinkFailed` itself.

    Once `_verified_links` has passed every link, O is decomposed once and
    node j is read from its record.  Node 0 reads O itself; node j > 0
    reads tau O tau^* through its frame T_j = tau_{j-1} ... tau_0, the
    identity pushed one embedding at a time (`Embedding.push`), an
    n_j x d0 array.  spec(T O T^*) is spec(O) and 0, so every pushed
    observable has the norm of O.  The first reading failure is raised
    with its index.
    """
    records, links = _verified_links(chain, tol)
    report = _chain_report(links)
    o_spectrum = hermitian_eig(o)
    extended_candidates = np.concatenate([o_spectrum.eigenvalues, [0.0]])
    values, snapped, telescopes = [], [], []
    frame = None  # the base reads O itself
    for j, record in enumerate(records):
        candidates = extended_candidates if j else o_spectrum.eigenvalues
        try:
            mu, mu_snapped, _, o_psi = _quantum_number(record, o, o_spectrum.norm, candidates,
                                                       frame)
        except (NotCommuting, NotSimple, NotInAPlus) as exc:
            raise _indexed(type(exc)(f"node {j}: {exc}"), j) from exc
        values.append(mu)
        snapped.append(mu_snapped)
        if mu_snapped != snapped[0]:
            raise MuMismatch(j, snapped[0], mu_snapped)
        if j:  # <O psi_{j-1}, tau^* psi_j> against mu_{j-1} times link j-1's overlap
            lhs = complex(np.vdot(last_o_psi, chain.embeddings[j - 1].pull(record.ground.vector)))
            telescopes.append(abs(lhs - snapped[j - 1] * report.overlaps[j - 1]))
        last_o_psi = o_psi
        if j < len(chain.embeddings):
            frame = chain.embeddings[j].push(np.eye(o.dim) if frame is None else frame)
    return report, ChainMuReport(tuple(values), tuple(snapped), report.overlaps,
                                 tuple(telescopes))


class _SubsetFacts(NamedTuple):
    """What a `_KroneckerFamily` reads for one subset I of its slots, each
    from the facts of I less its last slot: the node's space and its cone's,
    the number N of its slot states, the node's `_EntryTable`, and the one
    nonzero entry of its frame, the product of the slots' uniform entries
    in slot order."""

    space: str
    cone_space: str
    size: int
    table: _EntryTable | None
    weight: float


class _KroneckerFamily:
    """The one layout of lattice nodes, tower levels and `coupling` members,
    and the one reader of the facts they share: H_I = H0 (x) 1 - X (x) K_I
    on ``h0.space*name_mu*...``, K_I the Kronecker sum of the slots Y_mu,
    mu in I (an ascending tuple from 1), on the cone of H0 tensored with
    their joint orthant.

    The top node's dimension is checked against `numerics.DIM_CAP`, read
    when the family is made, before any slot is decomposed; each slot is
    decomposed once, at the first node (the tower's sigma_x once per
    process).  The facts of a subset (`_SubsetFacts`) are made once, from
    those of the subset less its last slot, with the float operations of a
    loop over its slots, in the same order.  The blocks H0 - k X of its
    nodes are read through one `numerics._BlockCache`: `records` decomposes
    those of a run of subsets in one batched `eigh`, and a node read alone,
    as a tower level is, decomposes its own when its spectrum is first
    read.  Neither keeps a block once the spectra are read.  The shifts of
    a subset are summed when `records` forms its run and let go once its
    spectrum is read, so only a run's shifts are held at once; a lone
    re-read of its node sums them again.  The nodes of
    one dimension share one sign basis, which carries the base cone's
    fibers.
    """

    def __init__(self, h0: LinearOperator, cone: SelfDualCone, x: LinearOperator, ys, names):
        self.h0, self.cone, self.x, self.ys, self.names = h0, cone, x, tuple(ys), tuple(names)
        self.dims = [y.shape[0] for y in self.ys]
        dim = h0.dim * math.prod(self.dims)
        if dim > numerics.DIM_CAP:
            raise DimCap(f"Kronecker sum dimension {dim} exceeds cap {numerics.DIM_CAP}")
        self._facts = {}  # subset -> its _SubsetFacts
        self._shifts = {}  # subset -> its shifts k, until `records` reads its spectrum
        self._bases = {}  # n -> the sign basis that the nodes of dimension d0 * n share

    # sigma_x, every tower level's slot, decomposed at the first tower
    _flip_slot = staticmethod(cache(lambda: _kronecker_slot(PAULI_X)))

    @cached_property
    def slots(self) -> tuple[_Slot, ...]:
        return tuple(self._flip_slot() if y is PAULI_X else _kronecker_slot(y) for y in self.ys)

    @cached_property
    def blocks(self) -> _BlockCache:
        return _BlockCache(self.h0.mat, self.x.mat)

    @cached_property
    def _fibers(self):
        """The base cone's signs, which every node's sign cone repeats over
        its fibers, with their products: read by `_factor_improving`."""
        return _fibers_of(self.cone._sign_basis.signs)

    def facts(self, subset: tuple[int, ...]) -> _SubsetFacts:
        """The `_SubsetFacts` of an ascending tuple of slots."""
        facts = self._facts.get(subset)
        if facts is not None:
            return facts
        if not subset:
            facts = _SubsetFacts(self.h0.space, self.cone.space, 1,
                                 _base_table(self.h0.mat, self.x.mat), 1.0)
        else:
            head, mu = self.facts(subset[:-1]), subset[-1]
            slot, name = self.slots[mu - 1], self.names[mu - 1]
            facts = _SubsetFacts(product_space(head.space, name),
                                 product_space(head.cone_space, name),
                                 head.size * self.dims[mu - 1],
                                 _table_with_slot(head.table, self.x.mat, slot),
                                 head.weight * (1.0 / math.sqrt(self.dims[mu - 1])))
        self._facts[subset] = facts
        return facts

    def shifts(self, subset: tuple[int, ...]) -> np.ndarray:
        """The eigenvalues k of K_I, I an ascending tuple of slots, in slot
        order (`numerics._shifts`): held from when they are first asked
        for until `records` has read I's spectrum, and summed from those of
        I less its last slot while these are held."""
        k = self._shifts.get(subset)
        if k is None:
            head = self._shifts.get(subset[:-1]) if subset else None
            tail = subset if head is None else subset[-1:]
            k = self._shifts[subset] = _shifts((self.slots[mu - 1] for mu in tail), head)
        return k

    def records(self, subsets, tol: float = DEFAULT_TOL):
        """Yield each of ``subsets`` with the `NodeAnalysis` of its node,
        its spectrum read.

        Consecutive subsets form one run, whose blocks are decomposed in one
        batched `eigh`, while the run's distinct shifts number no more than
        the largest node's shifts, which is as many blocks as that node
        alone decomposes.  Every spectrum of a run is read before any of its
        subsets is yielded, and the run's blocks are then let go, so no
        block is held while a node is read further.
        """
        budget = max(self.facts(subset).size for subset in subsets)
        run, held = [], set()
        for subset in subsets:
            bits = set(self.shifts(subset).view(np.int64).tolist())
            if len(held) + len(bits - held) > budget:
                yield from self._read(run, tol)
                run, held = [], set()
            run.append(subset)
            held |= bits
        yield from self._read(run, tol)

    def _read(self, run, tol: float):
        nodes = [self.node(subset) for subset in run]
        records = [NodeAnalysis(node.hamiltonian, node.cone, tol) for node in nodes]
        self.blocks.load(np.concatenate([self.shifts(subset) for subset in run]))
        for subset, record in zip(run, records):
            record.spectrum  # read while the run's blocks are held
            # and then its shifts are let go; a lone re-read sums them again
            record.hamiltonian._factors.release_shifts()
            self._shifts.pop(subset, None)
        self.blocks.clear()
        yield from zip(run, records)

    def node(self, subset) -> ChainNode:
        subset = tuple(subset)
        facts = self.facts(subset)
        h = _kronecker_sum(facts.space, self.h0, self.x,
                           tuple(self.slots[mu - 1] for mu in subset), self.shifts(subset),
                           facts.table, self.blocks)
        if not subset:
            return ChainNode(h, self.cone)
        n = facts.size
        if (base := self.cone._sign_basis) is not None:  # s_a times the joint orthant's 1.0
            basis = self._bases.get(n)
            if basis is None:
                signs = np.repeat(base.signs, n)
                signs.setflags(write=False)  # so the basis keeps it, uncopied
                basis = self._bases[n] = _SignBasis(signs, self._fibers)
            cone = _signed_cone(facts.cone_space, basis)
        else:
            cone = SelfDualCone(facts.cone_space, _kron(self.cone.generators, np.eye(n)))
        return ChainNode(h, cone)

    def embedding(self, k: int) -> Embedding:
        """The node of slots 1..k into that of slots 1..k+1: slot k+1's
        uniform vector appended."""
        prefix = tuple(range(1, k + 1))
        facts = self.facts(prefix)
        return _appended_embedding(facts.space, self.facts(prefix + (k + 1,)).space,
                                   self.h0.dim * facts.size, uniform_vector(self.dims[k]))

    def frame(self, subset) -> np.ndarray:
        """The isometry from node () into node I, one uniform vector per
        slot: the base identity times the subset's weight, whose entries
        are those of appending the uniform vectors one slot at a time."""
        facts = self.facts(tuple(subset))
        return _kron(np.eye(self.h0.dim), np.full((facts.size, 1), facts.weight))

    def chain(self) -> ArrowChain:
        """H0 itself, then the node of each nonempty prefix, each embedded in the next."""
        prefixes = [tuple(range(1, k + 1)) for k in range(len(self.ys) + 1)]
        nodes = (ChainNode(self.h0, self.cone), *map(self.node, prefixes[1:]))
        return ArrowChain(nodes, tuple(map(self.embedding, range(len(self.ys)))))


def extension_tower(h: LinearOperator, cone: SelfDualCone, o: LinearOperator,
                    depth: int, tol: float = DEFAULT_TOL) -> ArrowChain:
    """Chain of trivial two-level extensions H -> H(x)1 - 1(x)sigma_x -> ...

    Each level appends one spin with a transverse coupling of its own; the
    level's ground state is the previous one tensored with the uniform
    two-component vector, and the embedding appends exactly that vector, so
    every link verifies with overlap 1.  Level d is the `_KroneckerFamily`
    node of spins q1..qd with X = 1, H (x) 1 - 1 (x) K_d, K_d the sum of
    sigma_x over those spins, so its spectrum is read from 2^d blocks
    H - k of the base's size.  A tower whose top dimension h.dim * 2^depth
    exceeds `DIM_CAP` raises `DimCap` before any level is built.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # 2^bit_length exceeds the cap already, so no huge power is formed
    cap = numerics.DIM_CAP
    if h.dim * 2 ** min(depth, cap.bit_length()) > cap:
        raise DimCap(f"tower dimension {h.dim} * 2^{depth} exceeds cap {cap}")
    if not generates_improving_semigroup(h, cone, tol):
        raise PreconditionFailed("seed Hamiltonian is not improving-class on its cone")
    if not commutes_with_observable(h, o):
        raise PreconditionFailed("seed Hamiltonian does not commute with the observable")
    return _KroneckerFamily(h, cone, identity(h.space, h.dim), (PAULI_X,) * depth,
                            [f"q{level}" for level in range(1, depth + 1)]).chain()


@dataclass(frozen=True)
class DecoupledExtensionReport:
    """Best fit of H2 - H*(x)1 to the decoupled form 1(x)L."""

    decoupled: bool
    residual: float
    env_operator: LinearOperator | None

    def to_payload(self) -> dict:
        return {"equivalent": self.decoupled, "residual": self.residual}


def is_decoupled_extension(h2: LinearOperator, h_star: LinearOperator,
                           env_cone: SelfDualCone,
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
    if env_cone.dim != d2:
        raise BadFactorization("factor cone does not match the split")
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
