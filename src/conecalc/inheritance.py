"""Isometric embeddings between spaces, inheritance of cones along them,
conditional expectations, the ordered-pair relation between Hamiltonians,
and verification of whole chains of such pairs.
"""

from __future__ import annotations

import functools
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
from .positivity import NodeAnalysis, _run_spectra, _run_verdicts, _runs, classify

ISOMETRY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Embedding:
    """Isometry between two spaces, with its induced orthogonal projection.

    The embeddings of `identity_embedding`, `append_factor_embedding` and
    `stability._KroneckerFamily.embedding` (the links of towers and
    `coupling` members), and those cut from the rows of a lattice's edges,
    are Kronecker products of identities and real unit vectors
    (`_row_embedding`): row r of the isometry is vals[r] e_{cols[r]}^T, one
    entry at most.  They keep (cols, vals), not the dense isometry.  That is built on
    its first read, for `compress` and the dense route of
    `inherits_positivity`, as `push` of the identity: each entry is vals[r]
    times 1.0 or +0.0, so it has the bits of the np.kron product of the
    factors, signed zeros included.  `inherits_positivity` decides on
    (cols, vals) alone, and `extend` and `push` gather: every entry of their
    dense products is a single term, so the values are the same.
    `projection` is `extend` of the identity on either route.  `push` maps a
    vector, or the columns of a block, into the larger space; pushing the
    identity through the embeddings of a chain gives the frame that carries
    an observable along it, through which `stability._commuting` tests the
    pushed observable.  `pull` of a vector sums each column's rows in row
    order, which rounds apart from a BLAS product by at most
    2 m eps sum_r |vals[r] x[r]| per entry, m rows to a column.
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
        return _pulled(self._cols, self._vals, x, self.dim_from)

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


def _pulled(cols: np.ndarray, vals: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """tau^* x for the Kronecker rows (cols, vals) of tau: entry c sums
    vals[r] x[r] over the rows r of column c, in row order."""
    terms = vals * x
    if not np.iscomplexobj(terms):
        return np.bincount(cols, terms, size)
    out = np.empty(size, dtype=terms.dtype)
    out.real = np.bincount(cols, terms.real, size)
    out.imag = np.bincount(cols, terms.imag, size)
    return out


def _row_embedding(from_space: str, to_space: str, cols: np.ndarray, vals: np.ndarray,
                   dim_from: int) -> Embedding:
    """The Kronecker embedding whose row r is vals[r] e_{cols[r]}^T, its
    rows kept read-only and uncopied."""
    for array in (cols, vals):
        array.setflags(write=False)
    emb = object.__new__(Embedding)
    for name, value in (("from_space", from_space), ("to_space", to_space), ("_cols", cols),
                        ("_vals", vals), ("_shape", (cols.size, dim_from))):
        object.__setattr__(emb, name, value)
    return emb


def _appended_embedding(from_space: str, to_space: str, dim: int,
                        vec: np.ndarray) -> Embedding:
    """The embedding by kron(1_dim, vec), a real unit vector appended as a
    column after an identity: row (b, j) has its one entry vec[j] in
    column b.  np.kron gives that entry as 1.0 times vec[j], which is
    vec[j], so the two have the same bits.  Distinct columns have disjoint
    supports and each has the norm of vec, so the isometry is one exactly
    when vec is a unit vector, which the callers see to.  A vector inserted
    between two identities, as on a lattice's covering edges, is laid out
    by `lattice._insertion_rows`."""
    return _row_embedding(from_space, to_space, np.arange(dim).repeat(vec.size),
                          vec[None].repeat(dim, axis=0).ravel(), dim)


def identity_embedding(space: str, dim: int) -> Embedding:
    return _appended_embedding(space, space, dim, np.ones(1))


def append_factor_embedding(from_space: str, to_space: str, dim: int,
                            vec: np.ndarray) -> Embedding:
    """phi -> phi (x) v for a fixed unit vector v on the appended factor.

    A complex v gets a dense isometry: its gathered products would round
    differently from the dense ones.  v is judged on v^* v, the squared
    norm that the isometry's own orthonormality check reads."""
    v = _numeric(vec).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is a refusal
        square_norm = complex(v.conj() @ v)
    if not abs(square_norm - 1.0) <= ISOMETRY_TOL:
        raise ValueError("appended vector must be normalized")
    if np.iscomplexobj(v):
        return Embedding(from_space, to_space, _kron(np.eye(dim), v.reshape(-1, 1)))
    return _appended_embedding(from_space, to_space, dim, v)


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
    _check_inheritance_tol(tol)
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


def _check_inheritance_tol(tol: float) -> None:
    if not tol < TOL_LIMIT:
        raise ValueError(f"inheritance tolerance {tol!r} must be below 1/sqrt(2)")


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
    return bool(_inherited_rows(small.signs[emb._cols], big.signs, emb._vals, tol).all())


def _inherited_rows(small_signs: np.ndarray, big_signs: np.ndarray, vals: np.ndarray,
                    tol: float) -> np.ndarray:
    """Row by row, the membership test of `_inherits_by_signs`:
    c[r] >= -tol sqrt(vals[r]^2), c[r] = small_signs[r] (big_signs[r] vals[r])
    with ``small_signs`` read at each row's column.  A run of lattice edges
    tests all its rows in one call."""
    coords = big_signs * vals
    coords *= small_signs
    bound = vals * vals
    np.sqrt(bound, out=bound)
    bound *= tol
    np.negative(bound, out=bound)
    return coords >= bound


@dataclass(frozen=True)
class ArrowResult:
    """Outcome of checking (H1, P1) -> (H2, P2); falsy when any part failed."""

    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


_VERIFIED = ArrowResult(True)  # every arrow that verifies, shared as it is frozen


def check_arrow(source: NodeAnalysis, target: NodeAnalysis, emb: Embedding) -> ArrowResult:
    """Verify the ordered pair (H1, P1) -> (H2, P2) of two records: both
    Hamiltonians improving-class on their cones, and the small cone inherited
    through the embedding.  Every test runs at the records' one tolerance.
    """
    inherits = functools.partial(inherits_positivity, source.cone, target.cone, emb, source.tol)
    return _arrow(source, target, inherits)


def _arrow(source: NodeAnalysis, target: NodeAnalysis, inherits) -> ArrowResult:
    """`check_arrow` with the small cone's inheritance read as ``inherits()``,
    after both improving verdicts."""
    if source.tol != target.tol:
        raise ValueError(f"records at tolerances {source.tol!r} and {target.tol!r}")
    reasons = []
    try:
        if not source.improving:
            reasons.append("source Hamiltonian is not improving-class on its cone")
        if not target.improving:
            reasons.append("target Hamiltonian is not improving-class on its cone")
        if not inherits():
            reasons.append("cone inheritance failed")
    except DimMismatch as exc:
        reasons.append(f"dimension mismatch: {exc}")
    return ArrowResult(False, tuple(reasons)) if reasons else _VERIFIED


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
    return _overlap_report(check_arrow(source, target, emb),
                           functools.partial(_pulled_overlap, source, target, emb), source.tol)


def _pulled_overlap(source: NodeAnalysis, target: NodeAnalysis,
                    emb: Embedding) -> tuple[complex, bool]:
    """The overlap <psi_s, tau^* psi_t> of a link and whether the compressed
    ground projector improves the source cone, through its embedding."""
    pulled = emb.pull(target.ground.vector)
    return (complex(np.vdot(source.ground.vector, pulled)),
            _projector_improves(pulled, source.cone, emb.from_space, source.tol))


def _overlap_report(arrow: ArrowResult, read, tol: float) -> OverlapReport:
    """`ground_overlap` given the link's arrow and ``read()``, called only
    once the arrow verifies: the overlap <psi_s, tau^* psi_t>, complex, and
    whether the compressed ground projector improves the source cone.  An
    arrow that does not verify raises `ArrowFailed`, and an overlap whose
    imaginary part exceeds tol max(1, |Re|) does not improve."""
    if not arrow:
        raise ArrowFailed("; ".join(arrow.reasons))
    overlap, improving = read()
    if abs(overlap.imag) > tol * max(1.0, abs(overlap.real)):
        return OverlapReport(float(overlap.real), False)
    return OverlapReport(float(overlap.real), improving)


def _projector_improves(x: np.ndarray, cone: SelfDualCone, space: str, tol: float) -> bool:
    """Whether |x><x| on ``space`` improves the cone, as `classify` decides it.

    On a sign cone and a real x, the verdict is read from the coordinates
    of x alone (`_projectors_improve`, one segment), and no outer product
    is formed.
    """
    if cone._sign_basis is not None and not np.iscomplexobj(x) and space == cone.space:
        return bool(_projectors_improve(cone._sign_basis.coords(x), [0], tol)[0])
    return classify(LinearOperator(space, np.outer(x, x.conj())), cone, tol).improving


def _projectors_improve(coords: np.ndarray, starts: np.ndarray, tol: float) -> np.ndarray:
    """Whether |x><x| improves a sign cone, for every segment of ``coords``
    that begins at one of ``starts``, each the generator coordinates c of
    one real x, in one pass over all of them: a chain link reads one
    segment, a run of lattice edges all its pulled ground vectors.

    The projector's generator-basis matrix is c c^T.  With hi = max c and
    lo = min c, its smallest entry is min(hi lo, hi^2, lo^2) and its
    largest magnitude max(hi^2, lo^2), each an entry of that matrix, so the
    verdict costs O(dim)."""
    hi, lo = np.maximum.reduceat(coords, starts), np.minimum.reduceat(coords, starts)
    scale = np.maximum(hi * hi, lo * lo)
    return (scale != 0.0) & (np.minimum(np.minimum(hi * lo, hi * hi), lo * lo) >= tol * scale)


def _returned(value):
    """``value``, or raise it when it is an exception."""
    if isinstance(value, Exception):
        raise value
    return value


def _link_verdict(index: int, read, tol: float, label: str = "") -> OverlapReport:
    """The link verdict of chains and lattice edges alike: the arrow
    verifies, the ground overlap is strictly positive, and the compressed
    ground projector improves the source cone.  ``read()`` gives the link's
    `OverlapReport`, or raises `ArrowFailed` (`_overlap_report`).  Any other
    outcome raises `LinkFailed` at ``index``, its reason prefixed by
    ``label``.  ``read`` is no closure, so a kept failure, its frames
    cleared (`errors.clears_failure_frames`), holds no record."""
    try:
        rep = read()
    except ArrowFailed as exc:
        raise LinkFailed(index, f"{label}{exc}") from exc
    if rep.overlap <= tol:
        raise LinkFailed(index, f"{label}ground overlap {rep.overlap!r} is not strictly positive")
    if not rep.improving_ok:
        raise LinkFailed(index, f"{label}compressed ground projector does not improve the cone")
    return rep


@dataclass(frozen=True, eq=False)
class ArrowChain:
    """A finite chain of ordered pairs realized by explicit embeddings, each
    node the `NodeAnalysis` record of its pair (H, P) that both of its links
    read, so what the chain's builder decided is not decided again."""

    nodes: tuple[NodeAnalysis, ...]
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
    """Every link of a chain verified in order: node j's record and link j's
    `OverlapReport`, for `verify_chain` and for the quantum numbers of
    `stability.quantum_number_along_chain`: the chain's node at ``tol``, a
    fresh record at another tolerance.  Link j is decided on records j and
    j+1, and a failed link raises `LinkFailed` at once.  A record is lazy
    and holds the eigenvalues and the ground vector, no eigenbasis.  Four
    passes, in order, each leaving out what a record has read already:

    1. the cone inheritance of each link, up to the first that fails or
       raises;
    2. the improving verdicts of the runs of Kronecker-sum records, a
       tower's levels or a `coupling` member (`positivity._runs`), among
       the nodes those links reach (`positivity._run_verdicts`);
    3. the arrows up to that link, in order, up to the first that fails
       or raises;
    4. the spectra and ground states of the runs among the nodes the
       passing arrows reach (`positivity._run_spectra`), then the overlaps
       of those links, in order, then the failed arrow's failure.

    Each arrow reads its link's inheritance, or raises what reading it
    raised, after both improving verdicts, so a failed link still raises
    at the first link that fails, with its own reasons, and no node past
    a failed arrow is decomposed.  Any other record reads its own facts
    where a link asks for them.
    """
    records = [node if node.tol == tol else NodeAnalysis(node.hamiltonian, node.cone, tol)
               for node in chain.nodes]
    inherited = []  # a link's inheritance, or what reading it raised
    for j, emb in enumerate(chain.embeddings):
        try:
            inherited.append(inherits_positivity(records[j].cone, records[j + 1].cone, emb, tol))
        except Exception as exc:  # raised in its turn, by the link's arrow
            inherited.append(exc)
        if isinstance(inherited[-1], Exception) or not inherited[-1]:
            break
    for run in _runs(records[:len(inherited) + 1]):
        _run_verdicts(run)
    arrows, failure = [], None
    for j, inherits in enumerate(inherited):
        try:
            arrows.append(_arrow(records[j], records[j + 1],
                                 functools.partial(_returned, inherits)))
        except Exception as exc:  # raised in its turn, after the links before it
            failure = exc
            break
        if not arrows[-1]:
            break
    passed = len(arrows) - (1 if arrows and not arrows[-1] else 0)
    # no ground state past the last passing arrow is read
    for run in _runs(records[:passed + 1] if passed else []):
        _run_spectra(run)
    links = []
    for j, arrow in enumerate(arrows):
        source, target, emb = records[j], records[j + 1], chain.embeddings[j]
        read = functools.partial(_overlap_report, arrow,
                                 functools.partial(_pulled_overlap, source, target, emb), tol)
        links.append(_link_verdict(j, read, tol))
    if failure is not None:
        raise failure
    return records, links
