"""Isometric embeddings between spaces, inheritance of cones along them,
conditional expectations, the ordered-pair relation between Hamiltonians,
and verification of whole chains of such pairs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .cones import SelfDualCone
from .errors import ArrowFailed, DimMismatch, LinkFailed, clear_frames, clears_failure_frames
from .numerics import DEFAULT_TOL, LinearOperator, _freeze, _kron, _numeric
from .positivity import NodeAnalysis, classify

INHERIT_TOL = 1e-8
TOL_LIMIT = float(np.sqrt(0.5))  # inherits_positivity needs tol below this
ISOMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Embedding:
    """Isometry between two spaces, with its induced orthogonal projection.

    The embeddings built by `identity_embedding`, `append_factor_embedding`
    and `lattice.subset_embedding` are Kronecker products of identities and
    real unit vectors: row r of the isometry is vals[r] e_{cols[r]}^T, one
    entry at most.  They keep (cols, vals) besides the dense isometry, and
    `extend` and `projection` gather instead of multiplying.  Every entry of
    those dense products is a single term, taken in the same order, so the
    values are the same.  `push`, `pull` and `compress` sum several terms and
    stay dense on every embedding.
    """

    from_space: str
    to_space: str
    isometry: np.ndarray  # shape (dim_to, dim_from), columns orthonormal
    _cols = _vals = None  # not fields: the rows' entries of a Kronecker embedding

    def __post_init__(self):
        tau = _freeze(self.isometry)
        if tau.ndim != 2 or tau.shape[0] < tau.shape[1]:
            raise DimMismatch(f"isometry shape {tau.shape} cannot embed")
        gram = tau.conj().T @ tau
        if np.abs(gram - np.eye(tau.shape[1])).max() > ISOMETRY_TOL:
            raise ValueError("isometry columns are not orthonormal")
        object.__setattr__(self, "isometry", tau)

    @property
    def dim_from(self) -> int:
        return self.isometry.shape[1]

    @property
    def dim_to(self) -> int:
        return self.isometry.shape[0]

    def push(self, x: np.ndarray) -> np.ndarray:
        return self.isometry @ x

    def pull(self, x: np.ndarray) -> np.ndarray:
        return self.isometry.conj().T @ x

    def projection(self) -> LinearOperator:
        """pi = tau tau^*, the orthogonal projection onto the embedded copy."""
        if self._cols is None:
            return LinearOperator(self.to_space, self.isometry @ self.isometry.conj().T)
        # pi[r, r'] = vals[r] vals[r'] where rows r and r' share their column;
        # every column of a Kronecker embedding has the same number of rows
        members = np.argsort(self._cols, kind="stable").reshape(self.dim_from, -1)
        vals = self._vals[members]
        out = np.zeros((self.dim_to, self.dim_to), dtype=vals.dtype)
        out[members[:, :, None], members[:, None, :]] = vals[:, :, None] * vals[:, None, :]
        out.setflags(write=False)
        return LinearOperator(self.to_space, out)

    def compress(self, a: LinearOperator) -> LinearOperator:
        """tau^* A tau, the block of A seen from the smaller space."""
        if a.dim != self.dim_to:
            raise DimMismatch("operator does not act on the target space")
        return LinearOperator(self.from_space, self.isometry.conj().T @ a.mat @ self.isometry)

    def extend(self, a: LinearOperator) -> LinearOperator:
        """tau A tau^*: the operator acting as A on the embedded copy, 0 elsewhere."""
        if a.dim != self.dim_from:
            raise DimMismatch("operator does not act on the source space")
        if self._cols is None:
            return LinearOperator(self.to_space, self.isometry @ a.mat @ self.isometry.conj().T)
        # (vals[r] A[cols[r], cols[r']]) vals[r'], the order of the dense product
        out = a.mat[np.ix_(self._cols, self._cols)]
        out *= self._vals[:, None]
        out *= self._vals
        out.setflags(write=False)
        return LinearOperator(self.to_space, out)


def _kronecker_embedding(from_space: str, to_space: str, blocks) -> Embedding:
    """The embedding by kron(*blocks), each block an identity, given by its
    size, or a real unit vector, appended as a column.

    Distinct columns of such an isometry have disjoint supports, and each
    column's squared norm is the product of the vectors' own, so these decide
    orthonormality without the Gram product.
    """
    tau = np.ones((1, 1))
    cols = np.zeros(1, dtype=np.intp)
    square_norm = 1.0
    for block in blocks:
        if np.ndim(block) == 0:
            block = int(block)
            cols = (cols[:, None] * block + np.arange(block)).ravel()
            block = np.eye(block)
        else:
            cols = np.repeat(cols, block.size)
            square_norm *= float(block @ block)
            block = block.reshape(-1, 1)
        tau = _kron(tau, block)
    if abs(square_norm - 1.0) > ISOMETRY_TOL:
        raise ValueError("isometry columns are not orthonormal")
    vals = tau[np.arange(cols.size), cols]
    for array in (tau, cols, vals):
        array.setflags(write=False)
    emb = object.__new__(Embedding)
    for name, value in (("from_space", from_space), ("to_space", to_space),
                        ("isometry", _freeze(tau)), ("_cols", cols), ("_vals", vals)):
        object.__setattr__(emb, name, value)
    return emb


def identity_embedding(space: str, dim: int) -> Embedding:
    return _kronecker_embedding(space, space, [dim])


def append_factor_embedding(from_space: str, to_space: str, dim: int,
                            vec: np.ndarray) -> Embedding:
    """phi -> phi (x) v for a fixed unit vector v on the appended factor.

    A complex v gets a dense isometry: its gathered products would round
    differently from the dense ones."""
    v = _numeric(vec).reshape(-1, 1)
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > ISOMETRY_TOL:
        raise ValueError("appended vector must be normalized")
    if np.iscomplexobj(v):
        return Embedding(from_space, to_space, _kron(np.eye(dim), v))
    return _kronecker_embedding(from_space, to_space, [dim, v.ravel()])


def compose(first: Embedding, second: Embedding) -> Embedding:
    """second after first, as a single embedding."""
    if first.to_space != second.from_space or first.dim_to != second.dim_from:
        raise DimMismatch("embeddings do not compose")
    return Embedding(first.from_space, second.to_space,
                     second.isometry @ first.isometry)


def conditional_expectation(emb: Embedding, a: LinearOperator) -> LinearOperator:
    """pi A pi + (1-pi) A (1-pi): the block-diagonal part of A w.r.t. ran(pi)."""
    if a.dim != emb.dim_to:
        raise DimMismatch("operator does not act on the embedding's target space")
    pi = emb.projection().mat
    perp = np.eye(emb.dim_to) - pi
    return LinearOperator(a.space, pi @ a.mat @ pi + perp @ a.mat @ perp)


def inherits_positivity(p1: SelfDualCone, p2: SelfDualCone, emb: Embedding,
                        tol: float = INHERIT_TOL) -> bool:
    """Whether the small cone is exactly the projection of the big one.

    Three conditions: the projection preserves the big cone; every pulled-back
    generator tau^* g_j of the big cone lies in the small cone; and every
    generator u_i of the small cone is a nonnegative combination of those
    pulled-back generators.

    The last two are read off one matrix, the small-cone coordinates of all
    pulled-back generators.  Membership is the coordinate test of
    ``SelfDualCone.contains``, column by column.  Given membership, the third
    condition has an exact answer: u_i spans an extreme ray of the simplicial
    small cone, so a nonnegative combination equal to u_i can only use
    generators that lie on that ray.  It therefore holds iff some column c
    has Re c_i > 0 and |c - Re(c_i) e_i| <= tol |c|, which says that the
    residual of u_i against that single column is at most tol.

    A nonnegative-least-squares solve over all columns (the tests' oracle)
    can differ from this only at the tolerance scale: when several columns
    that each sit just over tol from the ray combine to a residual within
    tol.  tol must stay below 1/sqrt(2), so that only a column's dominant
    coordinate can qualify.

    On signed-permutation cones (see `cones`) the pull-back and the
    coordinates are gathers, and the projection, gathered too on a Kronecker
    embedding, is classified through the gathered generator-basis matrix.
    Each is a single term per entry, so the verdict is that of the dense
    products.
    """
    if emb.dim_from != p1.dim or emb.dim_to != p2.dim:
        raise DimMismatch("embedding does not match the two cones")
    if not tol < TOL_LIMIT:
        raise ValueError(f"inheritance tolerance {tol!r} must be below 1/sqrt(2)")
    if not classify(emb.projection(), p2, tol).preserving:
        return False
    pulled = p2._pulled_generators(emb.isometry)  # tau^* g_j as columns
    coords = p1._column_coords(pulled)
    scale = tol * np.linalg.norm(pulled, axis=0)
    if not ((coords.real >= -scale).all() and (np.abs(coords.imag) <= scale).all()):
        return False
    columns = np.arange(coords.shape[1])
    ray = np.abs(coords).argmax(axis=0)
    head = coords[ray, columns].real
    rest = coords.copy()
    rest[ray, columns] -= head
    on_ray = (head > 0) & (np.linalg.norm(rest, axis=0) <= scale)
    covered = np.zeros(p1.dim, dtype=bool)
    covered[ray[on_ray]] = True
    return bool(covered.all())


@dataclass(frozen=True)
class ArrowResult:
    """Outcome of checking (H1, P1) -> (H2, P2); falsy when any part failed."""

    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


Records = tuple[NodeAnalysis, NodeAnalysis]
Reader = Callable[[int, NodeAnalysis], None]


def _pair_records(h1: LinearOperator, p1: SelfDualCone, h2: LinearOperator,
                  p2: SelfDualCone, tol: float, records: Records | None) -> Records:
    """The two Hamiltonians' records: the passed ones, which must describe
    exactly these operators, cones and tolerance, or fresh ones."""
    if records is None:
        return NodeAnalysis(h1, p1, tol), NodeAnalysis(h2, p2, tol)
    for record, h, p in zip(records, (h1, h2), (p1, p2)):
        if record.hamiltonian is not h or record.cone is not p or record.tol != tol:
            raise ValueError("record does not describe this Hamiltonian, cone and tolerance")
    return records


def check_arrow(h1: LinearOperator, p1: SelfDualCone,
                h2: LinearOperator, p2: SelfDualCone,
                emb: Embedding, tol: float = DEFAULT_TOL, *,
                records: Records | None = None) -> ArrowResult:
    """Verify the ordered pair: both Hamiltonians improving-class on their
    cones, and the small cone inherited through the embedding.

    ``records`` are the two Hamiltonians' `NodeAnalysis` on these cones at
    this tolerance; their improving verdicts are read instead of recomputed.
    """
    a1, a2 = _pair_records(h1, p1, h2, p2, tol, records)
    reasons = []
    try:
        if not a1.improving:
            reasons.append("source Hamiltonian is not improving-class on its cone")
        if not a2.improving:
            reasons.append("target Hamiltonian is not improving-class on its cone")
        if not inherits_positivity(p1, p2, emb, tol):
            reasons.append("cone inheritance failed")
    except DimMismatch as exc:
        reasons.append(f"dimension mismatch: {exc}")
    return ArrowResult(not reasons, tuple(reasons))


@dataclass(frozen=True)
class OverlapReport:
    overlap: float
    improving_ok: bool


def ground_overlap(h1: LinearOperator, p1: SelfDualCone,
                   h2: LinearOperator, p2: SelfDualCone,
                   emb: Embedding, tol: float = DEFAULT_TOL, *,
                   records: Records | None = None) -> OverlapReport:
    """Strict-positivity propagation across one verified pair.

    Reports the inner product of the source ground state with the projected
    target ground state (strictly positive for a genuine pair) and whether
    the compressed ground-state projector improves the small cone.  Verdicts
    and ground states are read from ``records`` when given (see
    `check_arrow`), so a caller holding them decomposes nothing again.
    """
    a1, a2 = _pair_records(h1, p1, h2, p2, tol, records)
    arrow = check_arrow(h1, p1, h2, p2, emb, tol, records=(a1, a2))
    if not arrow:
        raise ArrowFailed("; ".join(arrow.reasons))
    pulled = emb.pull(a2.ground.vector)
    overlap = complex(np.vdot(a1.ground.vector, pulled))
    compressed = LinearOperator(emb.from_space, np.outer(pulled, pulled.conj()))
    improving = classify(compressed, p1, tol).improving
    if abs(overlap.imag) > tol * max(1.0, abs(overlap.real)):
        return OverlapReport(float(overlap.real), False)
    return OverlapReport(float(overlap.real), improving)


@dataclass(frozen=True, eq=False)
class ChainNode:
    """One Hamiltonian in a chain with its outgoing and incoming cones.

    ``cone`` is used when this node is the source of the next link; ``cone_in``
    (defaulting to ``cone``) when it is the target of the previous one.
    """

    hamiltonian: LinearOperator
    cone: SelfDualCone
    cone_in: SelfDualCone = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.cone_in is None:
            object.__setattr__(self, "cone_in", self.cone)


@dataclass(frozen=True, eq=False)
class ArrowChain:
    """A finite chain of ordered pairs realized by explicit embeddings."""

    nodes: tuple[ChainNode, ...]
    embeddings: tuple[Embedding, ...]

    def __post_init__(self):
        nodes = tuple(self.nodes)
        embs = tuple(self.embeddings)
        if not nodes:
            raise ValueError("a chain needs at least one node")
        if len(embs) != len(nodes) - 1:
            raise DimMismatch("need exactly one embedding per consecutive node pair")
        for j, emb in enumerate(embs):
            if emb.dim_from != nodes[j].hamiltonian.dim:
                raise DimMismatch(f"embedding {j} does not start at node {j}")
            if emb.dim_to != nodes[j + 1].hamiltonian.dim:
                raise DimMismatch(f"embedding {j} does not end at node {j + 1}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "embeddings", embs)

    def __len__(self) -> int:
        return len(self.nodes)

    def mu_cone(self, j: int) -> SelfDualCone:
        """A cone on which node j was (or will be) verified improving-class."""
        if j == len(self.nodes) - 1 and len(self.nodes) > 1:
            return self.nodes[j].cone_in
        return self.nodes[j].cone


def concatenate(first: ArrowChain, second: ArrowChain) -> ArrowChain:
    """Join two chains whose boundary Hamiltonians coincide."""
    tail = first.nodes[-1]
    head = second.nodes[0]
    if tail.hamiltonian.dim != head.hamiltonian.dim or not np.allclose(
            tail.hamiltonian.mat, head.hamiltonian.mat):
        raise DimMismatch("chains do not share their boundary Hamiltonian")
    return ArrowChain(first.nodes[:-1] + second.nodes,
                      first.embeddings + second.embeddings)


@dataclass(frozen=True)
class ChainReport:
    """Per-link overlaps of a fully verified chain."""

    overlaps: tuple[float, ...]
    improving_ok: tuple[bool, ...]
    product: float = field(init=False)

    def __post_init__(self):
        prod = 1.0
        for o in self.overlaps:
            prod *= o
        object.__setattr__(self, "product", prod)

    def to_payload(self) -> dict:
        return {
            "links": len(self.overlaps),
            "overlaps": list(self.overlaps),
            "improving_ok": list(self.improving_ok),
            "overlap_product": self.product,
        }


@clears_failure_frames
def verify_chain(chain: ArrowChain, tol: float = DEFAULT_TOL) -> ChainReport:
    """Check every link of the chain; raise LinkFailed at the first bad one.

    A link passes when its arrow verifies, the projected ground-state overlap
    is strictly positive, and the compressed ground projector improves the
    source cone.  The links are checked in order, and each node is
    decomposed once: its record serves as the target of its incoming link
    and, handing on its spectrum if its outgoing cone differs, as the source
    of its outgoing one.
    """
    return _verify_links(chain, tol)


def _verify_links(chain: ArrowChain, tol: float, read: Reader | None = None) -> ChainReport:
    """The one pass over a chain behind `verify_chain` and the quantum
    numbers of `stability.quantum_number_along_chain`.

    Link j is verified on node j's record on its ``cone`` and node j+1's on
    its ``cone_in``.  A node's two records share one eigendecomposition: the
    incoming record serves again as the outgoing one when the two cones are
    the same object, and hands its spectrum on otherwise.  ``read(j, record)``
    is called with each node's record on ``chain.mu_cone(j)``: node j's
    outgoing record once link j has passed, and the last link's target
    record once every link has.  Each outgoing record is released after its
    reading, so at most two eigenbases are alive at once.

    A failed link raises `LinkFailed` at once.  The first exception that
    ``read`` raises is held instead: no later node is read, the remaining
    links are still verified, and it is raised only once all of them have
    passed.  A link failure therefore always wins over a reading failure.
    """
    overlaps = []
    improving = []
    held = None
    target = None
    for j, emb in enumerate(chain.embeddings):
        src = chain.nodes[j]
        dst = chain.nodes[j + 1]
        if target is None:
            source = NodeAnalysis(src.hamiltonian, src.cone, tol)
        elif src.cone is src.cone_in:
            source = target
        else:
            source = target.on_cone(src.cone)
        target = NodeAnalysis(dst.hamiltonian, dst.cone_in, tol)
        try:
            rep = ground_overlap(src.hamiltonian, src.cone, dst.hamiltonian, dst.cone_in,
                                 emb, tol, records=(source, target))
        except ArrowFailed as exc:
            raise LinkFailed(j, str(exc)) from exc
        if rep.overlap <= tol:
            raise LinkFailed(j, f"ground overlap {rep.overlap!r} is not strictly positive")
        if not rep.improving_ok:
            raise LinkFailed(j, "compressed ground projector does not improve the cone")
        overlaps.append(rep.overlap)
        improving.append(rep.improving_ok)
        held = _read_node(read, held, j, source)
        source.release()
    if read is not None:
        if target is None:
            target = NodeAnalysis(chain.nodes[0].hamiltonian, chain.nodes[0].cone, tol)
        held = _read_node(read, held, len(chain.nodes) - 1, target)
    if held is not None:
        raise held
    return ChainReport(tuple(overlaps), tuple(improving))


def _read_node(read: Reader | None, held: Exception | None, j: int,
               record: NodeAnalysis) -> Exception | None:
    """Call ``read(j, record)`` unless there is no reader or an earlier
    reading failed; return the first failure, to be raised after the links."""
    if read is None or held is not None:
        return held
    try:
        read(j, record)
    except Exception as exc:  # noqa: BLE001 - raised once every link has passed
        clear_frames(exc)  # the reading's frames hold node j's eigenbasis
        return exc
    return None
