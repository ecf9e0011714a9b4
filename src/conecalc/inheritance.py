"""Isometric embeddings between spaces, inheritance of cones along them,
conditional expectations, the ordered-pair relation between Hamiltonians,
and verification of whole chains of such pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import SelfDualCone
from .errors import ArrowFailed, DimMismatch, LinkFailed, clears_failure_frames
from .numerics import (
    DEFAULT_TOL,
    TOL_LIMIT,
    LinearOperator,
    _freeze,
    _kron,
    _numeric,
    identity,
)
from .positivity import NodeAnalysis, classify

ISOMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Embedding:
    """Isometry between two spaces, with its induced orthogonal projection.

    The embeddings built by `identity_embedding`, `append_factor_embedding`
    and the covering edges of `lattice.build_lattice` are Kronecker products
    of identities and real unit vectors: row r of the isometry is
    vals[r] e_{cols[r]}^T, one entry at most.  They keep (cols, vals), not
    the dense isometry.  That is built on its first read, for `compress`
    and the dense route of `inherits_positivity`, as `push` of
    the identity: each entry is vals[r] times 1.0 or +0.0, so it has the
    bits of the np.kron product of the factors, signed zeros included.
    `inherits_positivity` decides on (cols, vals) alone, and `extend` and
    `push` gather: every entry of their dense products is a single term,
    so the values are the same.  `projection` is `extend` of the identity
    on either route.  `push` maps a vector, or the columns of a block, into
    the larger space; pushing the identity through the embeddings of a
    chain gives the frame that carries an observable along it, through
    which `stability._commutes` tests the pushed observable.
    `pull` of a vector sums each column's rows in row order, which rounds
    apart from a BLAS product by at most 2 m eps sum_r |vals[r] x[r]| per
    entry, m rows to a column.
    """

    from_space: str
    to_space: str
    isometry: np.ndarray  # shape (dim_to, dim_from), columns orthonormal
    # not fields: a Kronecker embedding's rows and (dim_to, dim_from)
    _cols = _vals = _shape = None

    def __post_init__(self):
        tau = _freeze(self.isometry)
        if tau.ndim != 2 or tau.shape[0] < tau.shape[1]:
            raise DimMismatch(f"isometry shape {tau.shape} cannot embed")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram is a refusal
            err = np.abs(tau.conj().T @ tau - np.eye(tau.shape[1])).max()
        if not err <= ISOMETRY_TOL:
            raise ValueError("isometry columns are not orthonormal")
        object.__setattr__(self, "isometry", tau)

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set: the isometry of a
        # Kronecker embedding, built on its first read
        if name != "isometry" or self._cols is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        tau = self.push(np.eye(self.dim_from))
        tau.setflags(write=False)
        object.__setattr__(self, "isometry", tau)
        return tau

    @property
    def dim_from(self) -> int:
        return (self._shape or self.isometry.shape)[1]

    @property
    def dim_to(self) -> int:
        return (self._shape or self.isometry.shape)[0]

    def pull(self, x: np.ndarray) -> np.ndarray:
        if self._cols is None or x.ndim != 1:
            return self.isometry.conj().T @ x
        terms = self._vals * x
        if not np.iscomplexobj(terms):
            return np.bincount(self._cols, terms, self.dim_from)
        out = np.empty(self.dim_from, dtype=terms.dtype)
        out.real = np.bincount(self._cols, terms.real, self.dim_from)
        out.imag = np.bincount(self._cols, terms.imag, self.dim_from)
        return out

    def push(self, x: np.ndarray) -> np.ndarray:
        """tau x, for a vector or for a block of columns."""
        if self._cols is None:
            return self.isometry @ x
        return self._vals.reshape((-1,) + (1,) * (x.ndim - 1)) * x[self._cols]

    def projection(self) -> LinearOperator:
        """pi = tau tau^*, the orthogonal projection onto the embedded copy:
        `extend` of the identity."""
        return self.extend(identity(self.from_space, self.dim_from))

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

    Row r's entry vals[r] is the product, in block order, of the entries
    np.kron multiplies into it, so it has the bits of np.kron(*blocks).
    Distinct columns of such an isometry have disjoint supports, and each
    column's squared norm is the product of the vectors' own, so these decide
    orthonormality without the Gram product.
    """
    cols = np.zeros(1, dtype=np.intp)
    vals = np.ones(1)
    dim_from = 1
    square_norm = 1.0
    for block in blocks:
        if np.ndim(block) == 0:
            block = int(block)
            cols = (cols[:, None] * block + np.arange(block)).ravel()
            vals = np.repeat(vals, block)  # each times 1.0
            dim_from *= block
        else:
            block = np.asarray(block, dtype=float)
            cols = np.repeat(cols, block.size)
            with np.errstate(over="ignore"):  # an infinite norm is a refusal
                vals = (vals[:, None] * block).ravel()
                square_norm *= float(block @ block)
    if not abs(square_norm - 1.0) <= ISOMETRY_TOL:
        raise ValueError("isometry columns are not orthonormal")
    for array in (cols, vals):
        array.setflags(write=False)
    emb = object.__new__(Embedding)
    for name, value in (("from_space", from_space), ("to_space", to_space), ("_cols", cols),
                        ("_vals", vals), ("_shape", (cols.size, dim_from))):
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
    with np.errstate(over="ignore"):  # an infinite norm is a refusal
        n = float(np.linalg.norm(v))
    if not abs(n - 1.0) <= ISOMETRY_TOL:
        raise ValueError("appended vector must be normalized")
    if np.iscomplexobj(v):
        return Embedding(from_space, to_space, _kron(np.eye(dim), v))
    return _kronecker_embedding(from_space, to_space, [dim, v.ravel()])


def conditional_expectation(emb: Embedding, a: LinearOperator) -> LinearOperator:
    """pi A pi + (1-pi) A (1-pi): the block-diagonal part of A w.r.t. ran(pi)."""
    if a.dim != emb.dim_to:
        raise DimMismatch("operator does not act on the embedding's target space")
    pi = emb.projection().mat
    perp = np.eye(emb.dim_to) - pi
    return LinearOperator(a.space, pi @ a.mat @ pi + perp @ a.mat @ perp)


def inherits_positivity(p1: SelfDualCone, p2: SelfDualCone, emb: Embedding,
                        tol: float = DEFAULT_TOL) -> bool:
    """Whether the small cone is exactly the projection of the big one.

    Three conditions: the projection preserves the big cone; every pulled-back
    generator tau^* g_j of the big cone lies in the small cone; and every
    generator u_i of the small cone is a nonnegative combination of those
    pulled-back generators.

    The last two are read off one matrix, the small-cone coordinates of all
    pulled-back generators.  Membership is a coordinate test, column by
    column: every coordinate of a column c is real and at least -tol |c|,
    imaginary parts at most tol |c|.  Given membership, the third
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

    Two sign cones (see `cones`) and a Kronecker embedding between them are
    decided from their signs and (cols, vals) alone, in O(dim_to)
    (`_inherits_by_signs`): no projection or coordinate matrix is
    formed and the isometry is not read.  Any other operands take the dense
    products above, which are the oracle of that route.
    """
    if emb.dim_from != p1.dim or emb.dim_to != p2.dim:
        raise DimMismatch("embedding does not match the two cones")
    if not tol < TOL_LIMIT:
        raise ValueError(f"inheritance tolerance {tol!r} must be below 1/sqrt(2)")
    if p1._sign_basis is not None and p2._sign_basis is not None and emb._cols is not None:
        return _inherits_by_signs(p1._sign_basis, p2._sign_basis, emb, tol)
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


def _inherits_by_signs(small, big, emb: Embedding, tol: float) -> bool:
    """`inherits_positivity` for two `cones._SignBasis` stacks and a
    Kronecker embedding, with the dense route's verdict, in O(dim_to).

    Big generator r pulls back to sigma[r] e_{cols[r]}, where sigma[r] is
    its sign times vals[r].  Its one small-cone coordinate is
    c[r] = small.signs[cols[r]] sigma[r], at small generator cols[r],
    and its norm is sqrt(vals[r]^2): the dense route's own numbers, as each
    is a single signed product.  Membership is c[r] >= -tol sqrt(vals[r]^2)
    for every r.  As c[r] is +-vals[r], at a tol below 1/sqrt(2) it holds
    exactly when no c[r] is negative, and then the other two conditions
    hold as well:

    - the projection's generator-basis matrix holds sigma[r] sigma[r'] for
      rows r, r' of one column and zeros elsewhere.  Every sigma of a column
      has the sign of that column's small generator or is zero, so no entry
      is negative and the projection preserves the big cone;
    - each column of the isometry is a unit vector, so it has a row with
      vals[r] != 0, whose c[r] > 0 puts that pulled generator on the ray of
      the column's small generator.
    """
    coords = small.signs[emb._cols] * (big.signs * emb._vals)
    return bool((coords >= -(tol * np.sqrt(emb._vals * emb._vals))).all())


@dataclass(frozen=True)
class ArrowResult:
    """Outcome of checking (H1, P1) -> (H2, P2); falsy when any part failed."""

    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_arrow(source: NodeAnalysis, target: NodeAnalysis, emb: Embedding) -> ArrowResult:
    """Verify the ordered pair (H1, P1) -> (H2, P2) of two records: both
    Hamiltonians improving-class on their cones, and the small cone inherited
    through the embedding.  Every test runs at the records' one tolerance.
    """
    if source.tol != target.tol:
        raise ValueError(f"records at tolerances {source.tol!r} and {target.tol!r}")
    reasons = []
    try:
        if not source.improving:
            reasons.append("source Hamiltonian is not improving-class on its cone")
        if not target.improving:
            reasons.append("target Hamiltonian is not improving-class on its cone")
        if not inherits_positivity(source.cone, target.cone, emb, source.tol):
            reasons.append("cone inheritance failed")
    except DimMismatch as exc:
        reasons.append(f"dimension mismatch: {exc}")
    return ArrowResult(not reasons, tuple(reasons))


@dataclass(frozen=True)
class OverlapReport:
    overlap: float
    improving_ok: bool


def ground_overlap(source: NodeAnalysis, target: NodeAnalysis, emb: Embedding) -> OverlapReport:
    """Strict-positivity propagation across one verified pair of records.

    Reports the inner product of the source ground state with the projected
    target ground state (strictly positive for a genuine pair) and whether
    the compressed ground-state projector improves the small cone.  The
    verdicts and ground states are the records' own, so a caller holding
    them decomposes nothing again.  On a sign source cone and
    a real pulled vector, the projector is decided in O(dim) without being
    formed (`_projector_improves`).
    """
    arrow = check_arrow(source, target, emb)
    if not arrow:
        raise ArrowFailed("; ".join(arrow.reasons))
    tol = source.tol
    pulled = emb.pull(target.ground.vector)
    overlap = complex(np.vdot(source.ground.vector, pulled))
    improving = _projector_improves(pulled, source.cone, emb.from_space, tol)
    if abs(overlap.imag) > tol * max(1.0, abs(overlap.real)):
        return OverlapReport(float(overlap.real), False)
    return OverlapReport(float(overlap.real), improving)


def _projector_improves(x: np.ndarray, cone: SelfDualCone, space: str, tol: float) -> bool:
    """Whether |x><x| on ``space`` improves the cone, as `classify` decides it.

    On a sign cone and a real x, the projector's
    generator-basis matrix is c c^T for the coordinates c of x.  With
    hi = max c and lo = min c, its smallest entry is min(hi lo, hi^2, lo^2)
    and its largest magnitude max(hi^2, lo^2), each an entry of that matrix,
    so the verdict costs O(dim) and no outer product is formed.
    """
    if cone._sign_basis is not None and not np.iscomplexobj(x) and space == cone.space:
        c = cone._sign_basis.coords(x)
        hi, lo = float(c.max()), float(c.min())
        scale = max(hi * hi, lo * lo)
        return scale != 0.0 and min(hi * lo, hi * hi, lo * lo) >= tol * scale
    return classify(LinearOperator(space, np.outer(x, x.conj())), cone, tol).improving


def _verified_link(index: int, source: NodeAnalysis, target: NodeAnalysis,
                   emb: Embedding, label: str = "") -> OverlapReport:
    """The link verdict of chains and lattice edges alike: the arrow
    verifies, the ground overlap is strictly positive, and the compressed
    ground projector improves the source cone.  Any other outcome raises
    `LinkFailed` at ``index``, its reason prefixed by ``label``."""
    try:
        rep = ground_overlap(source, target, emb)
    except ArrowFailed as exc:
        raise LinkFailed(index, f"{label}{exc}") from exc
    if rep.overlap <= source.tol:
        raise LinkFailed(index, f"{label}ground overlap {rep.overlap!r} is not strictly positive")
    if not rep.improving_ok:
        raise LinkFailed(index, f"{label}compressed ground projector does not improve the cone")
    return rep


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
    source cone.  The links are checked in order by `_verified_links`, which
    decomposes each node once.
    """
    return _chain_report(_verified_links(chain, tol)[1])


def _chain_report(links: list[OverlapReport]) -> ChainReport:
    return ChainReport(tuple(link.overlap for link in links),
                       tuple(link.improving_ok for link in links))


def _verified_links(chain: ArrowChain, tol: float
                    ) -> tuple[list[NodeAnalysis], list[OverlapReport]]:
    """Every link of a chain verified in order: node j's record on its
    ``cone`` (the last node's on its ``cone_in``) and link j's
    `OverlapReport`, for `verify_chain` and for the quantum numbers of
    `stability.quantum_number_along_chain`.
    A failed link raises `LinkFailed` at once.

    Link j is verified on node j's record on its ``cone`` and node j+1's on
    its ``cone_in``.  A node's two records share one eigendecomposition: the
    incoming record serves again as the outgoing one when the two cones are
    the same object, and hands its spectrum on otherwise.  A record holds
    the eigenvalues and the ground vector, no eigenbasis.
    """
    records = [NodeAnalysis(chain.nodes[0].hamiltonian, chain.nodes[0].cone, tol)]
    links = []
    for j, emb in enumerate(chain.embeddings):
        dst = chain.nodes[j + 1]
        target = NodeAnalysis(dst.hamiltonian, dst.cone_in, tol)
        links.append(_verified_link(j, records[j], target, emb))
        if j + 1 < len(chain.embeddings) and dst.cone is not dst.cone_in:
            target = target.on_cone(dst.cone)
        records.append(target)
    return records, links
