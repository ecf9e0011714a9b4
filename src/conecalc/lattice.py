"""Boolean lattice of perturbed Hamiltonians H_I = H0 (x) 1 - X (x) K_I, K_I
the Kronecker sum of the coupling slots Y_mu, mu in I: one node per subset,
whose nodes and frames a `stability._KroneckerFamily` lays out as it does
tower levels and `coupling` members, with the nodes read and the covering
edges verified in runs of array passes, and deterministic Hasse-diagram
export.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from . import numerics
from .cones import SelfDualCone, orthant
from .errors import ClassificationFailed, DimCap, DimMismatch, NotPreserving, SpecFailed
from .inheritance import (
    _arrow,
    _check_inheritance_tol,
    _inherited_rows,
    _link_verdict,
    _overlap_report,
    _projector_improves,
    _projectors_improve,
    _pulled,
    _row_embedding,
    inherits_positivity,
)
from .numerics import (
    DEFAULT_TOL,
    LinearOperator,
    _slot_facts,
    _SlotFacts,
    uniform_vector,
)
from .positivity import (
    NodeAnalysis,
    _abs_max,
    classify,
    generates_improving_semigroup,
    is_ergodic,
)
from .stability import _commutes_with, _KroneckerFamily, _quantum_numbers

Subset = tuple[int, ...]
UNIFORM_EIGEN_TOL = 1e-10  # |Y w - lambda w| <= this * max(1, ||Y||) for the uniform w


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Input data of the construction.

    ``factors[mu-1]`` is the pair (n_mu, Y_mu) for coupling slot mu; slots are
    numbered from 1 and tensor factors always appear in ascending slot order
    to the right of the base space.  Y_mu may act on any space, and n_mu
    must be its dimension.
    """

    h0: LinearOperator
    cone: SelfDualCone
    observable: LinearOperator
    x: LinearOperator
    factors: tuple[tuple[int, LinearOperator], ...]

    def __post_init__(self):
        for mu, (n, y) in enumerate(self.factors, start=1):
            if n != y.dim:
                raise DimMismatch(f"factor {mu}: n = {n} but Y_{mu} on {y.space!r} "
                                  f"has dimension {y.dim}")

    @property
    def ell(self) -> int:
        return len(self.factors)

    def full_dim(self) -> int:
        return self.h0.dim * math.prod(n for n, _ in self.factors)


@dataclass(frozen=True)
class SpecReport:
    """Pass/fail of every standing assumption, with failure witnesses.

    A report made by `verify_spec` also carries the `numerics._SlotFacts`
    it read from each slot (None for a complex or non-finite one) and the
    observable's reading (`_observable_reading`), for the nodes of the same
    `build_lattice` call;
    they are neither compared nor in the payload, and a diagram keeps its
    report without them."""

    x_preserving: bool
    x_commutes: bool
    y_ergodic: tuple[bool, ...]
    h0_improving: bool
    h0_commutes: bool
    y_uniform_eigen: tuple[bool, ...]
    notes: tuple[str, ...] = ()
    _slot_facts: tuple[_SlotFacts | None, ...] | None = field(default=None, compare=False,
                                                              repr=False)
    _observable: tuple[float, np.ndarray] | None = field(default=None, compare=False,
                                                        repr=False)

    @property
    def ok(self) -> bool:
        return (self.x_preserving and self.x_commutes and all(self.y_ergodic)
                and self.h0_improving and self.h0_commutes)

    @property
    def mu_compatible(self) -> bool:
        """Whether quantum numbers can transfer: the uniform vector has to be
        an eigenvector of every Y_mu for the pushed-forward observable to
        commute with the perturbed Hamiltonians."""
        return all(self.y_uniform_eigen)

    def to_payload(self) -> dict:
        return {
            "ok": self.ok,
            "x_preserving": self.x_preserving,
            "x_commutes_observable": self.x_commutes,
            "y_ergodic": list(self.y_ergodic),
            "h0_improving": self.h0_improving,
            "h0_commutes_observable": self.h0_commutes,
            "y_uniform_eigenvector": list(self.y_uniform_eigen),
            "mu_compatible": self.mu_compatible,
            "notes": list(self.notes),
        }


def verify_spec(spec: LatticeSpec, tol: float = DEFAULT_TOL) -> SpecReport:
    """Check the standing assumptions of the construction, one by one.

    X is cone-preserving, X and H0 commute with the observable, every Y_mu is
    ergodic on its orthant, and H0 is improving-class on the base cone.  The
    last is decided by the structural criterion alone (-H0 Metzler and
    irreducible); by Perron-Frobenius every e^{-beta H0}, beta > 0, is then
    strictly positive, so no sampled exponential is classified.

    The observable is decomposed once (`_observable_reading`), after X is
    found Hermitian, as the commutation test reads them: its norm scales
    both commutation tests, and the report carries it with the values the
    nodes' quantum numbers snap to.  Each slot is read once.  A real, finite Y_mu has its `_SlotFacts` read
    (`numerics._slot_facts`), which the report carries to the nodes, and
    its ergodicity comes from their bottleneck (`_ergodic_by_bottleneck`);
    `is_ergodic` runs only for a slot that fails that reading, to name its
    unconnected pair, and for a complex one.  A slot with a non-finite
    entry fails both of its tests with one note that names it.  The uniform
    vector w passes when |Y w - lambda w| is within UNIFORM_EIGEN_TOL, and
    else within UNIFORM_EIGEN_TOL ||Y||: max(1, ||Y||) is at least 1, so
    this is the test against UNIFORM_EIGEN_TOL max(1, ||Y||), with the
    spectral norm taken only when the floor does not decide it.
    """
    notes = []
    x_preserving = classify(spec.x, spec.cone, tol).preserving
    if not x_preserving:
        notes.append("coupling operator X has a negative generator-basis entry")
    spec.x.require_hermitian()
    o_reading = _observable_reading(spec.observable)
    x_commutes = _commutes_with(spec.x, spec.observable, o_reading[0])
    if not x_commutes:
        notes.append("coupling operator X does not commute with the observable")
    h0_commutes = _commutes_with(spec.h0, spec.observable, o_reading[0])
    if not h0_commutes:
        notes.append("H0 does not commute with the observable")

    y_ergodic, y_uniform, slot_facts = [], [], []
    for mu, (n, y) in enumerate(spec.factors, start=1):
        if not np.isfinite(y.mat).all():
            y_ergodic.append(False)
            y_uniform.append(False)
            slot_facts.append(None)
            notes.append(f"Y_{mu} has a non-finite entry")
            continue
        facts = None if np.iscomplexobj(y.mat) else _slot_facts(y.mat)
        slot_facts.append(facts)
        if facts is not None and _ergodic_by_bottleneck(y.mat, facts, tol):
            y_ergodic.append(True)
        else:
            try:
                report = is_ergodic(y, orthant(y.space, n), tol)
            except NotPreserving:
                y_ergodic.append(False)
                notes.append(f"Y_{mu} is not cone-preserving on its orthant")
            else:
                y_ergodic.append(report.ergodic)
                if not report.ergodic:
                    notes.append(f"Y_{mu} is not ergodic: pair {report.failing_pair} unconnected")
        w = uniform_vector(n)
        image = y.mat @ w
        lam = float(np.vdot(w, image).real)
        residual = np.linalg.norm(image - lam * w)
        y_uniform.append(bool(residual <= UNIFORM_EIGEN_TOL
                              or residual <= UNIFORM_EIGEN_TOL * max(1.0, y.norm())))

    h0_improving = generates_improving_semigroup(spec.h0, spec.cone, tol)
    if not h0_improving:
        notes.append("H0 is not improving-class on the base cone")
    return SpecReport(x_preserving, x_commutes, tuple(y_ergodic),
                      h0_improving, h0_commutes, tuple(y_uniform), tuple(notes),
                      tuple(slot_facts), o_reading)


def _ergodic_by_bottleneck(y: np.ndarray, facts: _SlotFacts, tol: float) -> bool:
    """Whether a real, finite Y is ergodic on its orthant, as `is_ergodic`
    decides it, read from its `_SlotFacts`: Y is cone-preserving (min Y >=
    -t) and its bottleneck w exceeds t, for t = tol max|Y|.  `is_ergodic`
    asks that the digraph {Y > t} of the off-diagonal entries be strongly
    connected.  When w > t, the strongly connected {Y >= w} lies within
    it; and when it is strongly connected, its least entry w' > t gives
    {Y >= w'}, which holds it, so w >= w' > t.  A 1 x 1 Y has bottleneck
    inf, and an all-zero Y of n > 1 bottleneck 0 = t."""
    thresh = tol * _abs_max(y)
    return bool(y.min() >= -thresh) and facts.bottleneck > thresh


@dataclass(frozen=True, eq=False)
class LatticeNode:
    """One subset's Hamiltonian with its cone and quantum number."""

    subset: Subset
    hamiltonian: LinearOperator
    cone: SelfDualCone
    mu: float
    mu_snapped: float
    ground_energy: float

    def to_payload(self) -> dict:
        return {
            "subset": list(self.subset),
            "dim": self.hamiltonian.dim,
            "mu": self.mu,
            "mu_snapped": self.mu_snapped,
            "ground_energy": self.ground_energy,
        }


def _family(spec: LatticeSpec) -> _KroneckerFamily:
    """The spec's family, slot mu named f{mu}; it refuses a top node over `DIM_CAP`."""
    return _KroneckerFamily(spec.h0, spec.cone, spec.x, [y.mat for _, y in spec.factors],
                            [f"f{mu}" for mu in range(1, spec.ell + 1)])


def build_node(spec: LatticeSpec, subset: Subset, tol: float = DEFAULT_TOL) -> LatticeNode:
    """Construct and validate the node of one subset, a run of one.

    Validation: the Hamiltonian is improving-class on the tensor cone, decided
    by the structural criterion (-H_I Metzler and irreducible), which by
    Perron-Frobenius makes every e^{-beta H_I}, beta > 0, strictly positive;
    it commutes with the pushed observable, and its ground state is simple
    and an eigenvector of it.  The ergodicity of the combined factor operator
    follows from that of every Y_mu (`verify_spec`), and the positivity of a
    sampled exponential from the criterion; both are test oracles only.
    """
    o_norm, snap_to = _observable_reading(spec.observable)
    family = _family(spec)
    run, = family.records([tuple(sorted(subset))], tol)
    return _built_run(spec, family, run, o_norm, snap_to)[0]


def _observable_reading(o: LinearOperator) -> tuple[float, np.ndarray]:
    """The norm max|lambda| of the base observable O and the values a
    node's quantum number snaps to: spec(T O T^*) is spec(O) and 0.  One
    `eigh`, whose eigenvalues are those `hermitian_eig` reads; O's
    eigenvectors are not kept."""
    o.require_hermitian()
    values = np.linalg.eigh(o.mat)[0]
    return float(max(-values[0], values[-1])), np.concatenate([values, [0.0]])


def _built_run(spec: LatticeSpec, family: _KroneckerFamily, run, o_norm: float,
               snap_to: np.ndarray) -> list[LatticeNode]:
    """The nodes of a run of (ascending subset, record) pairs of the spec's
    family, their spectra and improving verdicts read, given the base
    observable's norm and the values to snap to.  The pushed observable
    T O T^* has the norm of the base one, and every node reads it through
    the family's frame T of its subset, all of the run's in one pass
    (`stability._quantum_numbers`).  The first node that fails raises: one
    that is not improving-class with `ClassificationFailed`, after the
    quantum numbers of the nodes before it are read, and one whose
    spectrum its run left unread with its own failure, read alone."""
    bad = next((i for i, (_, record) in enumerate(run)
                if record.unread or not record.improving), len(run))
    subsets, records = [subset for subset, _ in run[:bad]], [record for _, record in run[:bad]]
    readings, failure = _quantum_numbers(records, spec.observable, o_norm, [snap_to] * bad,
                                         family.frames(subsets))
    if failure is not None:
        raise failure
    if bad < len(run):
        subset, record = run[bad]
        record.spectrum  # a node left unread raises its own failure, read alone
        raise ClassificationFailed(f"H_{set(subset) or '{}'} is not improving-class")
    return [LatticeNode(subset, record.hamiltonian, record.cone, mu, mu_snapped,
                        record.ground.energy)
            for subset, record, (mu, mu_snapped, _, _) in zip(subsets, records, readings)]


@dataclass(frozen=True)
class HasseDiagram:
    """All 2^ell nodes plus the verified covering relation of the dual order,
    with the standing-assumption report it was built under (left out of the
    payload)."""

    nodes: tuple[LatticeNode, ...]
    covering_edges: tuple[tuple[Subset, Subset], ...]
    edge_overlaps: tuple[float, ...]
    assumptions: SpecReport

    def to_payload(self) -> dict:
        return {
            "nodes": [n.to_payload() for n in self.nodes],
            "edges": [[list(a), list(b)] for a, b in self.covering_edges],
            "edge_overlaps": list(self.edge_overlaps),
            "node_count": len(self.nodes),
            "edge_count": len(self.covering_edges),
        }


def _all_subsets(ell: int) -> list[Subset]:
    out: list[Subset] = []
    for size in range(ell + 1):
        out.extend(combinations(range(1, ell + 1), size))
    return out


def build_lattice(spec: LatticeSpec, tol: float = DEFAULT_TOL) -> HasseDiagram:
    """Build every subset node and verify every covering-relation arrow.

    The standing assumptions are checked first (`verify_spec`), and the
    diagram carries that report; the nodes read the slot facts, the
    observable's reading and H0's improving verdict, the verdict of node
    (), that the check read, within this call alone.  Nodes are constructed in (size,
    lexicographic) order and read in runs of consecutive nodes whose
    frames, their dimensions' sum times d0, hold no more than `DIM_CAP`
    entries, each run in array passes: its improving verdicts, its
    spectra from one batched `eigh` of one block per distinct shift, let
    go before the run is read further, and its ground states
    (`stability._KroneckerFamily.records`), then its quantum numbers
    through the nodes' frames (`_built_run`).  The first node that fails
    raises, whichever pass finds it.  Then each covering pair
    (I, I u {mu}) is decided by the link verdict of chains: a full arrow, a strictly positive ground overlap and a
    compressed ground projector that improves the small cone.  Its
    embedding inserts mu's uniform vector; the edges are read in runs,
    one array pass each, with no embedding formed per edge
    (`_covering_edges`), and the first that fails raises `LinkFailed`.

    A lattice of more than `DIM_CAP` nodes or a top node over `DIM_CAP`
    raises `DimCap` before anything is checked or built; one-dimensional
    slots alone can pass the second and not the first.  Both read
    `numerics.DIM_CAP` when the lattice is built.
    """
    # 2^ell > DIM_CAP exactly when ell > DIM_CAP.bit_length() - 1; no power is formed
    cap = numerics.DIM_CAP
    if spec.ell > cap.bit_length() - 1:
        raise DimCap(f"lattice of {spec.ell} slots has 2^{spec.ell} nodes, over cap {cap}")
    family = _family(spec)
    report = verify_spec(spec, tol)
    if not report.ok:
        raise SpecFailed("; ".join(report.notes))
    if not report.mu_compatible:
        raise SpecFailed(
            "uniform vector is not an eigenvector of every Y_mu; "
            "quantum numbers would not transfer to the perturbed nodes"
        )
    # the nodes read what the check read (nothing from a report made
    # elsewhere, whose family reads its own), and the diagram keeps its
    # report without it
    o_reading = report._observable
    if o_reading is None:
        o_reading = _observable_reading(spec.observable)
    else:
        family.base_improving = report.h0_improving
    family.slot_facts = report._slot_facts
    report = replace(report, _slot_facts=None, _observable=None)

    subsets = _all_subsets(spec.ell)
    o_norm, snap_to = o_reading
    # every node's record stays alive through the edges, which read the
    # improving verdicts and ground states again; a record read from the
    # blocks of its Kronecker sum holds no eigenbasis
    nodes: list[LatticeNode] = []
    records: dict[Subset, NodeAnalysis] = {}
    for run in family.records(subsets, tol):
        nodes += _built_run(spec, family, run, o_norm, snap_to)
        records.update(run)

    base_mu = nodes[0].mu_snapped  # the unperturbed node, subset ()
    for n in nodes:
        if n.mu_snapped != base_mu:
            raise ClassificationFailed(
                f"snapped quantum number moved at {n.subset}: {n.mu_snapped} != {base_mu}"
            )

    edges, overlaps = _covering_edges(family, records, subsets, tol)
    return HasseDiagram(tuple(nodes), tuple(edges), tuple(overlaps), report)


def _covering_edges(family: _KroneckerFamily, records: dict[Subset, NodeAnalysis], subsets,
                    tol: float) -> tuple[list[tuple[Subset, Subset]], list[float]]:
    """Every covering pair (I, I u {mu}) of ``subsets``, I in their order
    and then mu ascending, with its ground overlap, each decided by the
    link verdict of chains (`inheritance._link_verdict`) on the records of
    its two nodes.  The first edge that fails raises `LinkFailed` at its
    index, its reason prefixed by its two subsets.

    The edges are read in runs of consecutive edges (`_verified_run`), one
    array pass each.  A run grows while its rows, the dimensions of its
    larger nodes, number no more than `DIM_CAP`, the largest dimension a
    top node may have, so that a run holds a few vectors of that size at
    once (one edge into a top node at the cap is a run of its own), and
    while its target ground vectors share one dtype.
    """
    ell = len(family.dims)
    edges = [(small, tuple(sorted(small + (mu,))), mu)
             for small in subsets for mu in range(1, ell + 1) if mu not in small]
    budget = numerics.DIM_CAP
    overlaps: list[float] = []
    run, rows = [], 0
    for edge in edges:
        target = records[edge[1]]
        size, dtype = target.hamiltonian.dim, target.ground.vector.dtype
        if run and (rows + size > budget or dtype != records[run[0][1]].ground.vector.dtype):
            overlaps += _verified_run(family, records, run, len(overlaps), tol)
            run, rows = [], 0
        run.append(edge)
        rows += size
    if run:  # none when the lattice has no slots
        overlaps += _verified_run(family, records, run, len(overlaps), tol)
    return [(small, large) for small, large, _ in edges], overlaps


def _insertion_rows(below: np.ndarray, n: np.ndarray,
                    above: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows (cols, vals) of the insertions kron(1_below, u, 1_above) of
    a run of edges, edge after edge, u the uniform vector of n entries.
    Row (b, j, a) of an edge has its one entry u[j] = 1/sqrt(n) in column
    b * above + a of the edge, whose columns follow those of the edges
    before it.  np.kron gives that entry as 1.0 times u[j] times 1.0, and
    `numerics.uniform_vector` as 1.0 / math.sqrt(n): the same bits, as a
    square root and a quotient are correctly rounded, in numpy as in
    `math`."""
    size = below * n * above
    cols = np.arange(size.sum())
    cols -= np.repeat(np.cumsum(size) - size, size)  # (b, j, a), counted within the edge
    step = np.repeat(above, size)
    tail = cols % step
    cols //= np.repeat(n * above, size)
    cols *= step
    cols += tail
    del step, tail  # before the next repeat: a run holds few arrays of its rows at once
    cols += np.repeat(np.cumsum(below * above) - below * above, size)
    return cols, np.repeat(1.0 / np.sqrt(n), size)


def _verified_run(family: _KroneckerFamily, records: dict[Subset, NodeAnalysis], run,
                  first: int, tol: float) -> list[float]:
    """The overlaps of a run of edges (I, I u {mu}, mu), the first at index
    ``first``, each decided by `_link_verdict`.

    The run's insertions are one block-diagonal Kronecker embedding
    (`_insertion_rows`), so one bincount (`inheritance._pulled`) pulls
    every target ground vector, each column summing its rows in row order,
    as the edge's own embedding would.  On the lattice's sign cones the
    inheritance test reads all the run's rows at once
    (`inheritance._inherited_rows`), and, for real ground vectors, the
    projector test the extremes of every pulled vector
    (`inheritance._projectors_improve`).  The overlap is one `np.vdot` per
    edge.  An explicit base cone keeps the dense per-edge tests, through an
    embedding cut from the edge's rows (`inheritance._row_embedding`), and
    complex ground vectors the dense projector test.  Every node of a
    lattice is on the space of its cone (`verify_spec` refuses any other H0
    or X), so the projector test reads every sign cone's coordinates.
    """
    sources = [records[small] for small, _, _ in run]
    targets = [records[large] for _, large, _ in run]
    above = np.array([math.prod(family.dims[nu - 1] for nu in small if nu > mu)
                      for small, _, mu in run], dtype=np.intp)
    below = np.array([source.hamiltonian.dim for source in sources], dtype=np.intp) // above
    n = np.array([family.dims[mu - 1] for *_, mu in run], dtype=np.intp)
    cols, vals = _insertion_rows(below, n, above)
    ends = np.cumsum(below * above)
    starts = ends - below * above
    row_ends = np.cumsum(below * n * above)
    row_starts = row_ends - below * n * above
    pulled = _pulled(cols, vals, np.concatenate([target.ground.vector for target in targets]),
                     int(ends[-1]))
    signed, real = family.cone._sign_basis is not None, not np.iscomplexobj(pulled)
    if signed:
        _check_inheritance_tol(tol)
        small_signs = np.concatenate([source.cone._sign_basis.signs for source in sources])
        big_signs = np.concatenate([target.cone._sign_basis.signs for target in targets])
        inherited = np.logical_and.reduceat(
            _inherited_rows(small_signs[cols], big_signs, vals, tol), row_starts).tolist()
        if real:
            improving = _projectors_improve(pulled * small_signs, starts, tol).tolist()
    overlaps = []
    for e, (start, end, row_start, row_end) in enumerate(
            zip(starts.tolist(), ends.tolist(), row_starts.tolist(), row_ends.tolist())):
        (small, large, _), source, target = run[e], sources[e], targets[e]
        x = pulled[start:end]

        def inherits():
            if signed:
                return inherited[e]
            emb = _row_embedding(source.hamiltonian.space, target.hamiltonian.space,
                                 cols[row_start:row_end] - start,
                                 vals[row_start:row_end], end - start)
            return inherits_positivity(source.cone, target.cone, emb, tol)

        def read():
            overlap = complex(np.vdot(source.ground.vector, x))
            if signed and real:
                return overlap, improving[e]
            return overlap, _projector_improves(x, source.cone, source.hamiltonian.space, tol)

        arrow = _arrow(source, target, inherits)
        rep = _link_verdict(first + e, functools.partial(_overlap_report, arrow, read, tol), tol,
                            f"{small} -> {large}: ")
        overlaps.append(rep.overlap)
    return overlaps


def _node_id(subset: Subset, ell: int) -> str:
    """The DOT id of a subset of ``ell`` slots: h and its slot indices,
    joined by ``_`` from 10 slots on, where joined digits could name two
    subsets (12 and {1, 2})."""
    return "h" + ("_" if ell >= 10 else "").join(str(mu) for mu in subset)


def _node_label(subset: Subset) -> str:
    return "H_{" + ",".join(str(mu) for mu in subset) + "}"


def hasse_export(diagram: HasseDiagram) -> str:
    """Deterministic DOT text: one node per subset ranked by size, edges
    pointing from each perturbed node toward the unperturbed top element."""
    ell = max((len(n.subset) for n in diagram.nodes), default=0)
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for node in diagram.nodes:
        lines.append(f'  {_node_id(node.subset, ell)} [label="{_node_label(node.subset)}"];')
    sizes = sorted({len(n.subset) for n in diagram.nodes})
    for size in sizes:
        members = [
            _node_id(n.subset, ell) for n in diagram.nodes if len(n.subset) == size
        ]
        lines.append("  { rank=same; " + " ".join(f"{m};" for m in members) + " }")
    for small, large in diagram.covering_edges:
        lines.append(f"  {_node_id(large, ell)} -> {_node_id(small, ell)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
