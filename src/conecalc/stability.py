"""Good quantum numbers and their stability along verified chains: the
commuting-observable class, snapping of ground-state eigenvalues, chain
invariance, the two-level extension tower, decoupled-extension tests, and
quantum relative entropy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from . import numerics
from .cones import SelfDualCone, _fibers_of, _signed_cone
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
    ChainReport,
    Embedding,
    _appended_embedding,
    _chain_report,
    _verified_links,
)
from .numerics import (
    DEFAULT_TOL,
    LinearOperator,
    _applied,
    _base_table,
    _check_density,
    _EntryTable,
    _kron,
    _kronecker_slot,
    _kronecker_sum,
    _reduced,
    _Slot,
    _table_with_slot,
    hermitian_eig,
    identity,
    product_space,
    uniform_vector,
)
from .positivity import (
    GroundState,
    NodeAnalysis,
    _run_spectra,
    _run_verdicts,
    _runs,
    _toward_cone,
    generates_improving_semigroup,
)

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


def _commutes(h: LinearOperator, o: np.ndarray, scale: float) -> bool:
    """Whether ||[H, O]|| <= COMMUTATOR_TOL*scale for Hermitian H and O on
    one space, scale being ||H||*||O||.  The Frobenius norm, which bounds
    the spectral norm from above, is summed over blocks of rows of [H, O],
    so no second n x n product is held; only when that bound exceeds the
    threshold is the spectral norm itself computed, as the largest
    |eigenvalue| of i[H, O].  A Hamiltonian read through a frame, a pushed
    observable, is tested by `_commuting`.
    """
    g = h.mat
    thresh = COMMUTATOR_TOL * max(scale, 1e-300)
    square = 0.0
    for start in range(0, g.shape[0], _COMMUTATOR_ROWS):
        rows = slice(start, start + _COMMUTATOR_ROWS)
        block = g[rows] @ o
        block -= o[rows] @ g
        square += float(np.vdot(block, block).real)
    return (math.sqrt(square) <= thresh
            or float(np.abs(np.linalg.eigvalsh(1j * _commutator(g, o))).max()) <= thresh)


def _squares(m: np.ndarray) -> np.ndarray:
    """The squared norm of every row of ``m``."""
    if np.iscomplexobj(m):
        return (m.real ** 2).sum(axis=1) + (m.imag ** 2).sum(axis=1)
    return (m * m).sum(axis=1)


def _commuting(hs, o: np.ndarray, scales, frames) -> list[bool]:
    """Whether ||[H, T O T^*]|| <= COMMUTATOR_TOL*scale for each H of a run,
    with its scale ||H||*||O|| and its frame T, an n x d0 array with
    orthonormal columns that pushes O from its base space, or None, the
    identity, where the test is of [H, O] itself (`_commutes`).  A run is
    one family's Kronecker sums (`positivity._runs`) or one node alone.

    With A = H T, G = T^* A and L = A - T G, which is orthogonal to the
    range of T, [H, T O T^*] = T [G, O] T^* + L O T^* - T O L^*.  The three
    terms fill orthogonal blocks, so the Frobenius norm squared, which
    bounds the spectral norm from above, is ||[G, O]||_F^2 + 2 ||L O||_F^2.
    The framed Hamiltonians of a run are read at once: A for all of them
    (one `numerics._applied`, or a lone node's matrix), then each node's
    G = T^* A and L = A - T G by one product each, L in place of A, and
    both norms as array passes over the stacked rows, so no n x n product
    is formed and no pass runs once per base state.  Only where that bound
    exceeds the threshold is the spectral norm itself computed: with L = Q R,
    Q orthogonal to the frame, the commutator on the range of [T, Q] is the
    anti-Hermitian [[G O - O G, -(R O)^*], [R O, 0]], whose norm is the
    largest |eigenvalue| of i times it, complex even when H and O are real.
    """
    if frames[0] is None:  # one node
        return [_commutes(hs[0], o, scales[0])]
    rows = np.array([frame.shape[0] for frame in frames])
    starts = rows.cumsum() - rows
    beyond = (hs[0].mat @ frames[0] if hs[0]._factors is None
              else _applied(hs, np.concatenate(frames)))
    beyond = beyond.astype(np.result_type(beyond, *frames), copy=False)
    g = np.empty((len(frames), o.shape[0], o.shape[0]), dtype=beyond.dtype)
    for j, (t, start) in enumerate(zip(frames, starts.tolist())):
        part = beyond[start:start + t.shape[0]]
        np.matmul(t.conj().T, part, out=g[j])
        part -= t @ g[j]
    c = g @ o - o @ g
    square = _squares(c.reshape(len(frames), -1)) + 2.0 * np.add.reduceat(
        _squares(beyond @ o), starts)
    verdicts = []
    for j, scale in enumerate(scales):
        thresh = COMMUTATOR_TOL * max(scale, 1e-300)
        verdicts.append(bool(math.sqrt(square[j]) <= thresh))
        if not verdicts[j]:
            ro = np.linalg.qr(beyond[starts[j]:starts[j] + rows[j]], mode="r") @ o
            block = np.block([[c[j], -ro.conj().T], [ro, np.zeros_like(ro)]])
            verdicts[j] = float(np.abs(np.linalg.eigvalsh(1j * block)).max()) <= thresh
    return verdicts


def _hermitian_norm(op: LinearOperator) -> float:
    return float(np.abs(np.linalg.eigvalsh(op.mat)).max())


def _observable_reading(o: LinearOperator) -> tuple[float, np.ndarray]:
    """The norm max|lambda| of an observable O and its eigenvalues,
    ascending, from one `eigh`, the eigenvalues `hermitian_eig` reads: the
    scale of the commutation tests against O and the values its quantum
    numbers snap to (`_quantum_numbers`).  O's eigenvectors are not kept."""
    o.require_hermitian()
    values = np.linalg.eigh(o.mat)[0]
    return float(max(-values[0], values[-1])), values


def commutes_with_observable(h: LinearOperator, o: LinearOperator) -> bool:
    """Whether H and O strongly commute, via the commutator norm.

    Decided by ||HO - OH|| <= COMMUTATOR_TOL*||H||*||O||, every norm read
    from a Hermitian spectrum.  Sampled unitary groups add nothing to this
    verdict: by Duhamel's formula ||[e^{isO}, e^{itH}]|| <= |st|*||[H, O]||,
    so they could only disagree by rounding.  The tests keep that comparison
    as a property oracle.
    """
    return _commutes_with(h, o)


def _commutes_with(h: LinearOperator, o: LinearOperator, o_norm: float | None = None) -> bool:
    """`commutes_with_observable`, given ||O|| when its caller has read O
    already (`_observable_reading`, in `lattice.verify_spec`), else
    reading it here."""
    h.require_hermitian()
    o.require_hermitian()
    if h.dim != o.dim:
        raise NotCommuting("operators act on different spaces")
    if o_norm is None:
        o_norm = _hermitian_norm(o)
    return _commutes(h, o.mat, _hermitian_norm(h) * o_norm)


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
    node, (mu, snapped, residual, _) = _read_alone(h, o, cone, tol)
    comm = float(np.linalg.norm(_commutator(h.mat, o.mat), 2))
    return GoodQuantumNumber(mu, snapped, residual, comm, node.ground)


def _read_alone(h: LinearOperator, o: LinearOperator, cone: SelfDualCone, tol: float):
    """H's record on its cone and its reading of O itself, a run of one, or its failure raised."""
    h.require_hermitian()
    node = NodeAnalysis(h, cone, tol)
    readings, failure = _quantum_numbers([node], o, *_observable_reading(o), [None])
    if failure is not None:
        raise failure
    return node, readings[0]


def _quantum_numbers(records, o: LinearOperator, o_norm: float, o_values: np.ndarray,
                     frames) -> tuple[list[tuple[float, float, float, np.ndarray]],
                                      Exception | None]:
    """The quantum number of O on the ground state of each record of a run,
    given the norm of O, its eigenvalues, ascending (`_observable_reading`,
    or `spin.verify_mlm`'s closed form), and each node's frame: (mu,
    snapped mu, residual |O psi - mu psi|, O psi) for the leading nodes
    that read, and the failure of the node after them (None when every
    node reads).  A run is one family's Kronecker sums or one node alone.

    Each H must commute with its observable, be improving-class on its
    cone and have a simple ground state, which must be an eigenvector of
    the observable; the first node that fails one of these, in order, is
    the failure.  Given a frame T, the observable is T O T^*, pushed from
    the base space, and is never formed: commutation is `_commuting`
    through the frames, all of the run's at once, and with phi = T^* psi,
    mu = <phi, O phi> and O psi is T (O phi).  The run's O phi and mu are
    one stacked product each, which gives every node the bits of its own
    product.  A node read through no frame snaps to spec(O), and a framed
    one to spec(T O T^*), which is spec(O) and 0.
    """
    o_mat, d0 = o.mat, o.dim
    failure = None
    for i, (record, frame) in enumerate(zip(records, frames)):
        if record.hamiltonian.dim != (d0 if frame is None else frame.shape[0]):
            records, failure = records[:i], NotCommuting("operators act on different spaces")
            break
    if not records:
        return [], failure
    commute = _commuting([record.hamiltonian for record in records], o_mat,
                         [record.norm * o_norm for record in records], frames[:len(records)])
    for i, record in enumerate(records):
        if not commute[i]:
            exc = NotCommuting("Hamiltonian does not commute with the observable")
        elif not record.improving:
            exc = NotInAPlus("Hamiltonian is not improving-class on the cone")
        elif not record.ground.simple:
            exc = NotSimple(f"ground gap {record.ground.gap01:.3e} is below the simplicity "
                            "threshold")
        else:
            continue
        records, failure = records[:i], exc
        break
    psis = [record.ground.vector for record in records]
    # frame.conj() of a real frame has its layout and its bits
    phis = [psi if frame is None else (frame.conj() if np.iscomplexobj(frame) else frame).T @ psi
            for psi, frame in zip(psis, frames)]
    o_phis, mus = [None] * len(phis), [None] * len(phis)
    for dtype in {phi.dtype for phi in phis}:  # one stack per dtype, as each was multiplied
        at = [i for i, phi in enumerate(phis) if phi.dtype == dtype]
        stack = np.array([phis[i] for i in at])[:, :, None]
        rows = stack.transpose(0, 2, 1)
        products = np.matmul(o_mat, stack)
        values = np.matmul(rows.conj() if np.iscomplexobj(rows) else rows,
                           products)[:, 0, 0].real.tolist()
        for j, i in enumerate(at):
            o_phis[i], mus[i] = products[j, :, 0], values[j]
    values = o_values if frames[0] is None else np.concatenate([o_values, [0.0]])
    snapped = values[np.abs(values - np.array(mus)[:, None]).argmin(axis=1)].tolist()
    o_scale = max(o_norm, 1e-300)
    readings = []
    for psi, frame, o_phi, mu, mu_snapped in zip(psis, frames, o_phis, mus, snapped):
        o_psi = o_phi if frame is None else frame @ o_phi
        residual = float(np.linalg.norm(o_psi - mu * psi))
        if (residual > SNAP_TOL_FACTOR * o_scale
                or abs(mu - mu_snapped) > SNAP_TOL_FACTOR * o_scale):
            return readings, Inconsistent(
                f"ground state is not an observable eigenvector: residual {residual:.3e}")
        readings.append((mu, mu_snapped, residual, o_psi))
    return readings, failure


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

    Two phases do the work: every link is verified on the chain's records,
    then each node's quantum number is read from its record, in order.
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

    Once `_verified_links` has passed every link, O is read once
    (`_observable_reading`) and the nodes are read from their records one
    run at a time (`_passes`, `_quantum_numbers`).  Node j > 0 reads
    tau O tau^* through its frame T_j = tau_{j-1} ... tau_0, an n_j x d0
    array pushed from the identity as its run is read (`Embedding.push`),
    so one run's frames are held at a time; every pushed observable has
    the norm of O.  The nodes are checked in order and the first failure
    ends the reading: a moved quantum number raises `MuMismatch` at its
    node, and a reading failure is raised with its index.
    """
    records, links = _verified_links(chain, tol)
    report = _chain_report(links)
    o_reading = _observable_reading(o)
    pushed = itertools.accumulate(chain.embeddings, lambda frame, emb: emb.push(frame),
                                  initial=np.eye(o.dim))
    next(pushed)  # the identity: the base reads O itself
    values, snapped, telescopes = [], [], []
    for start, run in _passes(records):
        frames = [next(pushed) for _ in run] if start else [None]
        readings, failure = _quantum_numbers(run, o, *o_reading, frames)
        for j, (mu, mu_snapped, _, o_psi) in enumerate(readings, start):
            values.append(mu)
            snapped.append(mu_snapped)
            if mu_snapped != snapped[0]:
                raise MuMismatch(j, snapped[0], mu_snapped)
            if j:  # <O psi_{j-1}, tau^* psi_j> against mu_{j-1} times link j-1's overlap
                lhs = complex(np.vdot(last_o_psi,
                                      chain.embeddings[j - 1].pull(records[j].ground.vector)))
                telescopes.append(abs(lhs - snapped[j - 1] * report.overlaps[j - 1]))
            last_o_psi = o_psi
        if isinstance(failure, (NotCommuting, NotSimple, NotInAPlus)):
            j = start + len(readings)
            raise _indexed(type(failure)(f"node {j}: {failure}"), j) from failure
        if failure is not None:
            raise failure
    return report, ChainMuReport(tuple(values), tuple(snapped), report.overlaps,
                                 tuple(telescopes))


def _passes(records):
    """(index, records) of each run of a chain: node 0, `positivity._runs`, lone nodes."""
    yield 0, records[:1]
    runs, start = _runs(records[1:]), 1
    while start < len(records):
        alone = records[start].hamiltonian._factors is None  # no Kronecker sum: in no run
        run = records[start:start + 1] if alone else next(runs)
        yield start, run
        start += len(run)


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
    process).  A caller that has read the slots' `_SlotFacts` already sets
    ``slot_facts`` before the first node, and no slot's facts are read
    again; one that has decided the improving verdict of H0 on its cone,
    node ()'s, sets ``base_improving``, which node ()'s record then takes.
    The facts of a subset (`_SubsetFacts`) are made once, from those of
    the subset less its last slot, with the float operations of a loop
    over its slots, in the same order.  A node is its record (`node`), and
    a chain starts from the builder's record of H0 (`chain`).  `records`
    runs the passes of `positivity` over each run of nodes, its rows within
    `DIM_CAP` as an edge run's are (`_runs`): its improving verdicts
    (`_run_verdicts`), then its spectra and ground states (`_run_spectra`),
    one array pass each, as `inheritance._verified_links` runs them over a
    chain of its nodes; a node read alone is a run of one.  `_commuting`
    reads a run through its frames (`frames`) by one product per node.  No
    node keeps the shifts of its spectrum.  The nodes of one dimension
    share one sign basis, which carries the base cone's fibers.
    """

    def __init__(self, h0: LinearOperator, cone: SelfDualCone, x: LinearOperator, ys, names):
        self.h0, self.cone, self.x, self.ys, self.names = h0, cone, x, tuple(ys), tuple(names)
        self.dims = [y.shape[0] for y in self.ys]
        dim = h0.dim * math.prod(self.dims)
        if dim > numerics.DIM_CAP:
            raise DimCap(f"Kronecker sum dimension {dim} exceeds cap {numerics.DIM_CAP}")
        self.slot_facts = None  # the slots' _SlotFacts, when read before the first node
        self.base_improving = None  # node ()'s improving verdict, when decided before
        self._facts = {}  # subset -> its _SubsetFacts
        self._bases = {}  # n -> the sign basis that the nodes of dimension d0 * n share

    # sigma_x, every tower level's slot, decomposed at the first tower
    _flip_slot = staticmethod(cache(lambda: _kronecker_slot(PAULI_X)))

    @cached_property
    def slots(self) -> tuple[_Slot, ...]:
        given = self.slot_facts or (None,) * len(self.ys)
        return tuple(self._flip_slot() if y is PAULI_X else _kronecker_slot(y, facts)
                     for y, facts in zip(self.ys, given))

    @cached_property
    def _fibers(self):
        """The base cone's signs, which every node's sign cone repeats over
        its fibers, with their products: read by `_factors_improving`."""
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

    def records(self, subsets, tol: float = DEFAULT_TOL):
        """Yield ``subsets`` in runs (`positivity._runs`), each run a list
        of (subset, the `NodeAnalysis` of its node), its improving verdicts,
        then its spectra and ground states read in one array pass each
        (`positivity._run_verdicts`, `positivity._run_spectra`).  A run's
        blocks are let go before it is yielded.  A node whose spectrum does
        not read is left unread, and so are the nodes after it in its run,
        so that each raises its own failure, read alone, where its reader
        asks for it.
        """
        pairs = [(subset, self.node(subset, tol)) for subset in subsets]
        if self.base_improving is not None:
            for subset, record in pairs:
                if not subset:  # left out of its run's verdict pass
                    record.__dict__["improving"] = self.base_improving
        first = 0
        for run in _runs([record for _, record in pairs]):
            _run_verdicts(run)
            _run_spectra(run)
            yield pairs[first:first + len(run)]
            first += len(run)

    def node(self, subset, tol: float = DEFAULT_TOL) -> NodeAnalysis:
        """The record at ``tol``, unread, of an ascending tuple of slots' node."""
        subset = tuple(subset)
        facts = self.facts(subset)
        h = _kronecker_sum(facts.space, self.h0, self.x,
                           tuple(self.slots[mu - 1] for mu in subset), facts.table)
        if not subset:
            return NodeAnalysis(h, self.cone, tol)
        n = facts.size
        if (base := self.cone._sign_basis) is not None:  # s_a times the joint orthant's 1.0
            basis = self._bases.get(n)
            if basis is None:
                basis = self._bases[n] = base.repeated(n, self._fibers)
            cone = _signed_cone(facts.cone_space, basis)
        else:
            cone = SelfDualCone(facts.cone_space, _kron(self.cone.generators, np.eye(n)))
        return NodeAnalysis(h, cone, tol)

    def embedding(self, k: int) -> Embedding:
        """The node of slots 1..k into that of slots 1..k+1: slot k+1's
        uniform vector appended."""
        prefix = tuple(range(1, k + 1))
        facts = self.facts(prefix)
        return _appended_embedding(facts.space, self.facts(prefix + (k + 1,)).space,
                                   self.h0.dim * facts.size, uniform_vector(self.dims[k]))

    def frames(self, subsets) -> list[np.ndarray]:
        """The isometry from node () into each node I of ``subsets``, one
        uniform vector per slot: the base identity times the subset's
        weight, whose entries are those of appending the uniform vectors
        one slot at a time.  The frames are row blocks of one array."""
        d0 = self.h0.dim
        facts = [self.facts(tuple(subset)) for subset in subsets]
        size = np.array([f.size for f in facts], dtype=np.intp)
        dims = size * d0
        rows = np.arange(dims.sum())
        out = np.zeros((rows.size, d0))
        out[rows, (rows - np.repeat(np.cumsum(dims) - dims, dims)) // np.repeat(size, dims)] = (
            np.repeat([f.weight for f in facts], dims))
        return np.split(out, np.cumsum(dims)[:-1])

    def chain(self, base: NodeAnalysis) -> ArrowChain:
        """``base``, the record of H0 on its cone, then the node of each
        nonempty prefix at its tolerance, each embedded in the next."""
        prefixes = [tuple(range(1, k + 1)) for k in range(1, len(self.ys) + 1)]
        nodes = (base, *(self.node(prefix, base.tol) for prefix in prefixes))
        return ArrowChain(nodes, tuple(map(self.embedding, range(len(self.ys)))))


def _tower(h: LinearOperator, cone: SelfDualCone, depth: int) -> _KroneckerFamily:
    """The family of a tower's levels over H, spins q1..qd of sigma_x and X = 1;
    a top dimension h.dim * 2^depth over `DIM_CAP` raises `DimCap` first."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    # 2^bit_length exceeds the cap already, so no huge power is formed
    cap = numerics.DIM_CAP
    if h.dim * 2 ** min(depth, cap.bit_length()) > cap:
        raise DimCap(f"tower dimension {h.dim} * 2^{depth} exceeds cap {cap}")
    return _KroneckerFamily(h, cone, identity(h.space, h.dim), (PAULI_X,) * depth,
                            [f"q{level}" for level in range(1, depth + 1)])


def extension_tower(h: LinearOperator, cone: SelfDualCone, o: LinearOperator,
                    depth: int, tol: float = DEFAULT_TOL) -> ArrowChain:
    """Chain of trivial two-level extensions H -> H(x)1 - 1(x)sigma_x -> ...

    Each level appends one spin with a transverse coupling of its own; the
    level's ground state is the previous one tensored with the uniform
    two-component vector, and the embedding appends exactly that vector, so
    every link verifies with overlap 1.  Level d is the `_KroneckerFamily`
    node of spins q1..qd with X = 1, H (x) 1 - 1 (x) K_d, K_d the sum of
    sigma_x over those spins, so its spectrum is read from 2^d blocks
    H - k of the base's size (`_tower`, which refuses a tower over
    `DIM_CAP`).  The chain starts with the seed's record, which has
    decided the improving-class precondition, so no reader decides it again.
    """
    family = _tower(h, cone, depth)
    base = NodeAnalysis(h, cone, tol)
    if not base.improving:
        raise PreconditionFailed("seed Hamiltonian is not improving-class on its cone")
    if not commutes_with_observable(h, o):
        raise PreconditionFailed("seed Hamiltonian does not commute with the observable")
    return family.chain(base)


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

    Every added member must come with a chain witness from the base (the
    recipes start it from the class's base record), and its snapped quantum
    number must equal the base's; violations raise instead of being recorded.
    """

    base_id: str
    mu_star: float
    observable: LinearOperator
    base: NodeAnalysis = field(repr=False)
    members: list[tuple[str, ChainMuReport]] = field(default_factory=list)

    @classmethod
    def for_base(cls, base_id: str, h: LinearOperator, cone: SelfDualCone,
                 o: LinearOperator, tol: float = DEFAULT_TOL) -> "StabilityClassRecord":
        """mu* read from H's record alone (`_read_alone`): H must be
        improving-class, commute with O and have a simple ground state."""
        base, (_, mu_star, _, _) = _read_alone(h, o, cone, tol)
        return cls(base_id, mu_star, o, base)

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
