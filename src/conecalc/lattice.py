"""Boolean lattice of perturbed Hamiltonians H_I = H0 - sum_{mu in I} X(x)Y_mu,
one node per subset of coupling slots, with per-edge inheritance verification
and deterministic Hasse-diagram export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .cones import SelfDualCone, orthant, tensor_cone
from .errors import ClassificationFailed, DimCap, DimMismatch, SpecFailed
from .inheritance import Embedding, _kronecker_embedding, _verified_link
from .numerics import (
    DEFAULT_TOL,
    DIM_CAP,
    LinearOperator,
    Spectrum,
    _kronecker_slot,
    _kronecker_sum,
    _Slot,
    hermitian_eig,
    product_space,
)
from .positivity import NodeAnalysis, classify, generates_improving_semigroup, is_ergodic
from .stability import _quantum_number, commutes_with_observable

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


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / math.sqrt(n))


@dataclass(frozen=True)
class SpecReport:
    """Pass/fail of every standing assumption, with failure witnesses."""

    x_preserving: bool
    x_commutes: bool
    y_ergodic: tuple[bool, ...]
    h0_improving: bool
    h0_commutes: bool
    y_uniform_eigen: tuple[bool, ...]
    notes: tuple[str, ...] = ()

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
    """
    notes = []
    x_preserving = classify(spec.x, spec.cone, tol).preserving
    if not x_preserving:
        notes.append("coupling operator X has a negative generator-basis entry")
    x_commutes = commutes_with_observable(spec.x, spec.observable)
    if not x_commutes:
        notes.append("coupling operator X does not commute with the observable")
    h0_commutes = commutes_with_observable(spec.h0, spec.observable)
    if not h0_commutes:
        notes.append("H0 does not commute with the observable")

    y_ergodic = []
    y_uniform = []
    for mu, (n, y) in enumerate(spec.factors, start=1):
        report = is_ergodic(y, orthant(y.space, n), tol)
        y_ergodic.append(report.ergodic)
        if not report.ergodic:
            notes.append(f"Y_{mu} is not ergodic: pair {report.failing_pair} unconnected")
        w = _uniform(n)
        image = y.mat @ w
        lam = float(np.vdot(w, image).real)
        y_uniform.append(bool(np.linalg.norm(image - lam * w)
                              <= UNIFORM_EIGEN_TOL * max(1.0, y.norm())))

    h0_improving = generates_improving_semigroup(spec.h0, spec.cone, tol)
    if not h0_improving:
        notes.append("H0 is not improving-class on the base cone")
    return SpecReport(x_preserving, x_commutes, tuple(y_ergodic),
                      h0_improving, h0_commutes, tuple(y_uniform), tuple(notes))


@dataclass(frozen=True, eq=False)
class LatticeNode:
    """One subset's Hamiltonian with its cone, base embedding and quantum number."""

    subset: Subset
    hamiltonian: LinearOperator
    cone: SelfDualCone
    embedding: Embedding  # from the base space
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


def _node_space(spec: LatticeSpec, subset: Subset) -> str:
    space = spec.h0.space
    for mu in subset:
        space = product_space(space, f"f{mu}")
    return space


def _node_cone(spec: LatticeSpec, subset: Subset) -> SelfDualCone:
    """The base cone times the slot orthants, as one `tensor_cone` with
    their joint orthant, whose space and label join the slots' own: the
    cone of tensoring the orthants in one at a time."""
    if not subset:
        return spec.cone
    dims = [spec.factors[mu - 1][0] for mu in subset]
    joint = orthant(reduce(product_space, [f"f{mu}" for mu in subset]), math.prod(dims),
                    "(x)".join(f"R+^{n}" for n in dims))
    return tensor_cone(spec.cone, joint)


def _slots(spec: LatticeSpec) -> tuple[_Slot, ...]:
    """Every Y_mu with its eigenpairs, once the top node is known to be
    within `DIM_CAP`; each lattice decomposes its slots once."""
    if spec.full_dim() > DIM_CAP:
        raise DimCap(f"total dimension {spec.full_dim()} exceeds cap {DIM_CAP}")
    return tuple(_kronecker_slot(y.mat) for _, y in spec.factors)


def _node_hamiltonian(spec: LatticeSpec, subset: Subset,
                      slots: tuple[_Slot, ...]) -> LinearOperator:
    """H_I = H0 (x) 1 - X (x) K_I, K_I the Kronecker sum of the slots in I."""
    return _kronecker_sum(_node_space(spec, subset), spec.h0, spec.x,
                          [slots[mu - 1] for mu in subset])


def subset_embedding(spec: LatticeSpec, small: Subset, large: Subset) -> Embedding:
    """Isometry between two subset spaces: pass factors of the smaller subset
    through, and insert the uniform vector at every new slot (slot order stays
    ascending, so new factors are inserted, not appended, when needed)."""
    if not set(small) <= set(large):
        raise SpecFailed(f"{small} is not a subset of {large}")
    blocks = [spec.h0.dim]
    for mu in large:
        n = spec.factors[mu - 1][0]
        blocks.append(n if mu in small else _uniform(n))
    return _kronecker_embedding(_node_space(spec, small), _node_space(spec, large), blocks)


def build_node(spec: LatticeSpec, subset: Subset, tol: float = DEFAULT_TOL) -> LatticeNode:
    """Construct and validate the node of one subset.

    Validation: the Hamiltonian is improving-class on the tensor cone, decided
    by the structural criterion (-H_I Metzler and irreducible), which by
    Perron-Frobenius makes every e^{-beta H_I}, beta > 0, strictly positive;
    it commutes with the extended observable, and its ground state is simple
    and an eigenvector of it.  The ergodicity of the combined factor operator
    follows from that of every Y_mu (`verify_spec`), and the positivity of a
    sampled exponential from the criterion; both are test oracles only.
    """
    slots = _slots(spec)
    return _build_node(spec, subset, tol, hermitian_eig(spec.observable), slots)[0]


def _build_node(spec: LatticeSpec, subset: Subset, tol: float, o_spectrum: Spectrum,
                slots: tuple[_Slot, ...]) -> tuple[LatticeNode, NodeAnalysis]:
    """`build_node` given the base observable's spectrum and the slots, also
    returning the node's record.  spec(tau O tau^*) is spec(O) and 0, so the
    extended observable has the norm of the base one and snaps to those
    values."""
    subset = tuple(sorted(subset))
    h = _node_hamiltonian(spec, subset, slots)
    cone = _node_cone(spec, subset)
    emb = subset_embedding(spec, (), subset)  # the identity for the empty subset

    node = NodeAnalysis(h, cone, tol)
    if not node.improving:
        raise ClassificationFailed(f"H_{set(subset) or '{}'} is not improving-class")

    observable = emb.extend(spec.observable)
    snap_to = np.concatenate([o_spectrum.eigenvalues, [0.0]])
    mu, mu_snapped, _ = _quantum_number(node, observable, o_spectrum.norm, snap_to)
    return LatticeNode(subset, h, cone, emb, mu, mu_snapped, node.ground.energy), node


@dataclass(frozen=True)
class HasseDiagram:
    """All 2^ell nodes plus the verified covering relation of the dual order,
    with the standing-assumption report it was built under (left out of the
    payload)."""

    nodes: tuple[LatticeNode, ...]
    covering_edges: tuple[tuple[Subset, Subset], ...]
    edge_overlaps: tuple[float, ...]
    assumptions: SpecReport

    def node(self, subset: Subset) -> LatticeNode:
        subset = tuple(sorted(subset))
        for n in self.nodes:
            if n.subset == subset:
                return n
        raise KeyError(subset)

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
    diagram carries that report.  Nodes are constructed in (size,
    lexicographic) order, then each covering pair (I, I u {mu}) is decided
    by the link verdict of chains: a full arrow, a strictly positive ground
    overlap and a compressed ground projector that improves the small cone.
    """
    report = verify_spec(spec, tol)
    if not report.ok:
        raise SpecFailed("; ".join(report.notes))
    if not report.mu_compatible:
        raise SpecFailed(
            "uniform vector is not an eigenvector of every Y_mu; "
            "quantum numbers would not transfer to the perturbed nodes"
        )

    slots = _slots(spec)
    o_spectrum = hermitian_eig(spec.observable)
    subsets = _all_subsets(spec.ell)
    # every node's record stays alive through the edge loop, which reads
    # the improving verdicts and ground states again; a record read from
    # the blocks of its Kronecker sum holds no eigenbasis
    nodes: list[LatticeNode] = []
    records: dict[Subset, NodeAnalysis] = {}
    for subset in subsets:
        node, record = _build_node(spec, subset, tol, o_spectrum, slots)
        nodes.append(node)
        records[node.subset] = record

    base_mu = nodes[0].mu_snapped  # the unperturbed node, subset ()
    for n in nodes:
        if n.mu_snapped != base_mu:
            raise ClassificationFailed(
                f"snapped quantum number moved at {n.subset}: {n.mu_snapped} != {base_mu}"
            )

    edges: list[tuple[Subset, Subset]] = []
    overlaps: list[float] = []
    for small in subsets:
        for mu in range(1, spec.ell + 1):
            if mu in small:
                continue
            large = tuple(sorted(small + (mu,)))
            rep = _verified_link(len(edges), records[small], records[large],
                                 subset_embedding(spec, small, large), f"{small} -> {large}: ")
            edges.append((small, large))
            overlaps.append(rep.overlap)
    return HasseDiagram(tuple(nodes), tuple(edges), tuple(overlaps), report)


def _node_id(subset: Subset) -> str:
    return "h" + "".join(str(mu) for mu in subset)


def _node_label(subset: Subset) -> str:
    return "H_{" + ",".join(str(mu) for mu in subset) + "}"


def hasse_export(diagram: HasseDiagram) -> str:
    """Deterministic DOT text: one node per subset ranked by size, edges
    pointing from each perturbed node toward the unperturbed top element."""
    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=box];"]
    for node in diagram.nodes:
        lines.append(f'  {_node_id(node.subset)} [label="{_node_label(node.subset)}"];')
    sizes = sorted({len(n.subset) for n in diagram.nodes})
    for size in sizes:
        members = [
            _node_id(n.subset) for n in diagram.nodes if len(n.subset) == size
        ]
        lines.append("  { rank=same; " + " ".join(f"{m};" for m in members) + " }")
    for small, large in diagram.covering_edges:
        lines.append(f"  {_node_id(large)} -> {_node_id(small)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
