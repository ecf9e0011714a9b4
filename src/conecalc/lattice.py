"""Boolean lattice of perturbed Hamiltonians H_I = H0 - sum_{mu in I} X(x)Y_mu,
one node per subset of coupling slots, with per-edge inheritance verification
and deterministic Hasse-diagram export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cones import SelfDualCone, orthant, tensor_cone
from .errors import ArrowFailed, ClassificationFailed, DimCap, LinkFailed, SpecFailed
from .inheritance import Embedding, _kronecker_embedding, ground_overlap
from .numerics import (
    DEFAULT_TOL,
    DIM_CAP,
    LinearOperator,
    Spectrum,
    _adopt,
    _kron,
    hermitian_eig,
    product_space,
)
from .positivity import NodeAnalysis, classify, generates_improving_semigroup, is_ergodic
from .stability import _quantum_number, commutes_with_observable

Subset = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Input data of the construction.

    ``factors[mu-1]`` is the pair (n_mu, Y_mu) for coupling slot mu; slots are
    numbered from 1 and tensor factors always appear in ascending slot order
    to the right of the base space.
    """

    h0: LinearOperator
    cone: SelfDualCone
    observable: LinearOperator
    x: LinearOperator
    factors: tuple[tuple[int, LinearOperator], ...]

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
        cone_mu = orthant(f"f{mu}", n)
        report = is_ergodic(y, cone_mu, tol)
        y_ergodic.append(report.ergodic)
        if not report.ergodic:
            notes.append(f"Y_{mu} is not ergodic: pair {report.failing_pair} unconnected")
        w = _uniform(n)
        image = y.mat @ w
        lam = float(np.vdot(w, image).real)
        y_uniform.append(bool(np.linalg.norm(image - lam * w) <= 1e-10 * max(1.0, y.norm())))

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
    cone = spec.cone
    for mu in subset:
        cone = tensor_cone(cone, orthant(f"f{mu}", spec.factors[mu - 1][0]))
    return cone


def _node_hamiltonian(spec: LatticeSpec, subset: Subset) -> LinearOperator:
    dims = [spec.factors[mu - 1][0] for mu in subset]
    total = math.prod(dims) if dims else 1
    mat = _kron(spec.h0.mat, np.eye(total))
    for k, mu in enumerate(subset):
        before = math.prod(dims[:k]) if k else 1
        after = math.prod(dims[k + 1:]) if k + 1 < len(dims) else 1
        coupling = _kron(_kron(np.eye(before), spec.factors[mu - 1][1].mat), np.eye(after))
        mat = mat - _kron(spec.x.mat, coupling)
    return _adopt(_node_space(spec, subset), mat)


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


def build_node(spec: LatticeSpec, subset: Subset, tol: float = DEFAULT_TOL,
               snap_to: np.ndarray | None = None) -> LatticeNode:
    """Construct and validate the node of one subset.

    Validation: the Hamiltonian is improving-class on the tensor cone, decided
    by the structural criterion (-H_I Metzler and irreducible), which by
    Perron-Frobenius makes every e^{-beta H_I}, beta > 0, strictly positive;
    it commutes with the extended observable, and its ground state is simple
    and an eigenvector of it.  The ergodicity of the combined factor operator
    follows from that of every Y_mu (`verify_spec`), and the positivity of a
    sampled exponential from the criterion; both are test oracles only.
    """
    o_spectrum = hermitian_eig(spec.observable)
    if snap_to is None:
        snap_to = np.concatenate([o_spectrum.eigenvalues, [0.0]])
    return _build_node(spec, subset, tol, snap_to, o_spectrum)[0]


def _build_node(spec: LatticeSpec, subset: Subset, tol: float, snap_to,
                o_spectrum: Spectrum) -> tuple[LatticeNode, NodeAnalysis]:
    """`build_node` given the base observable's spectrum, also returning the
    node's record.  spec(tau O tau^*) is spec(O) and 0, so the extended
    observable has the norm of the base one."""
    subset = tuple(sorted(subset))
    if spec.full_dim() > DIM_CAP:
        raise DimCap(f"total dimension {spec.full_dim()} exceeds cap {DIM_CAP}")
    h = _node_hamiltonian(spec, subset)
    cone = _node_cone(spec, subset)
    emb = subset_embedding(spec, (), subset)  # the identity for the empty subset

    node = NodeAnalysis(h, cone, tol)
    if not node.improving:
        raise ClassificationFailed(f"H_{set(subset) or '{}'} is not improving-class")

    observable = emb.extend(spec.observable)
    mu, mu_snapped = _quantum_number(node, observable, o_spectrum.norm, snap_to)
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
    lexicographic) order, then each covering pair (I, I u {mu}) is checked as
    a full arrow with strict ground overlap.
    """
    report = verify_spec(spec, tol)
    if not report.ok:
        raise SpecFailed("; ".join(report.notes))
    if not report.mu_compatible:
        raise SpecFailed(
            "uniform vector is not an eigenvector of every Y_mu; "
            "quantum numbers would not transfer to the perturbed nodes"
        )

    o_spectrum = hermitian_eig(spec.observable)
    snap = np.concatenate([o_spectrum.eigenvalues, [0.0]])
    subsets = _all_subsets(spec.ell)
    # every node's record stays alive through the edge loop, which reads
    # the improving verdicts and ground states again
    built = [_build_node(spec, s, tol, snap, o_spectrum) for s in subsets]
    nodes = [node for node, _ in built]
    records = {node.subset: record for node, record in built}

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
            idx = len(edges)
            emb = subset_embedding(spec, small, large)
            a, b = records[small], records[large]
            try:
                rep = ground_overlap(a.hamiltonian, a.cone, b.hamiltonian, b.cone, emb, tol,
                                     records=(a, b))
            except ArrowFailed as exc:
                raise LinkFailed(idx, f"{small} -> {large}: {exc}") from exc
            if rep.overlap <= tol or not rep.improving_ok:
                raise LinkFailed(idx, f"{small} -> {large}: overlap {rep.overlap!r}")
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
