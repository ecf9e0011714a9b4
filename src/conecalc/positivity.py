"""Classification of operators against a cone: preserving/improving maps,
operator domination, ergodicity, and the semigroup-generator classes.

All tests reduce to the operator's matrix in the cone's generator basis.  A
map preserves the cone iff that matrix is real with nonnegative entries, and
improves it iff the entries are strictly positive; both follow from linearity
over the generators.  Ergodicity and irreducibility are digraph reachability
on the support pattern of that matrix, one frontier sweep per source
(`numerics._walk_lengths`): one from every generator for ergodicity's least
walk lengths, and two from generator 0 for irreducibility, one along the
edges and one against them.  A real Kronecker sum on a cone whose signs
depend on its base index alone is decided from its factors instead
(`_factor_improving`), with the same floats and no matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import SelfDualCone
from .errors import NotPreserving, NotRealForm
from .numerics import (
    DEFAULT_TOL,
    LinearOperator,
    Spectrum,
    _block_spectrum,
    _strongly_connected,
    _walk_lengths,
    hermitian_eig,
)

Witness = tuple[int, int, complex]


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of classifying one operator against one cone."""

    preserving: bool
    improving: bool
    real_form: bool
    witness: Witness | None = None

    def to_payload(self) -> dict:
        out = {
            "preserving": self.preserving,
            "improving": self.improving,
            "real_form": self.real_form,
        }
        if self.witness is not None:
            i, j, v = self.witness
            out["witness"] = {"row": i, "col": j, "re": v.real, "im": v.imag}
        return out


def classify(op: LinearOperator, cone: SelfDualCone, tol: float = DEFAULT_TOL) -> PositivityReport:
    """Decide whether an operator preserves / improves the cone.

    Tested on generators only: the matrix M of the operator in the generator
    basis must be real and entrywise >= -tol*scale to preserve, and entrywise
    >= +tol*scale to improve.  Entries inside the +-tol*scale band block
    `improving` without voiding `preserving`.  A float64 M is real as it
    stands.
    """
    return _classify(cone.operator_coords(op), tol)


def _classify(m: np.ndarray, tol: float) -> PositivityReport:
    """`classify` on the generator-basis matrix M itself."""
    scale = float(np.abs(m).max()) if np.iscomplexobj(m) else _abs_max(m)
    if scale == 0.0:
        return PositivityReport(preserving=True, improving=False, real_form=True)
    thresh = tol * scale

    real_form = True
    if np.iscomplexobj(m):
        imag = np.abs(m.imag)
        imax = np.unravel_index(np.argmax(imag), m.shape)
        real_form = bool(imag[imax] <= thresh)
    rmin = np.unravel_index(np.argmin(m.real), m.shape)
    least = m.real[rmin]
    preserving = real_form and bool(least >= -thresh)
    improving = real_form and bool(least >= thresh)

    witness: Witness | None = None
    if not real_form:
        witness = (int(imax[0]), int(imax[1]), _unsigned_zeros(m[imax]))
    elif not preserving or not improving:
        witness = (int(rmin[0]), int(rmin[1]), _unsigned_zeros(m[rmin]))
    return PositivityReport(preserving, improving, real_form, witness)


def _unsigned_zeros(value) -> complex:
    """The entry with -0.0 parts made +0.0: a gathered generator-basis matrix
    keeps the sign of a zero that a dense product may drop."""
    return complex(value.real + 0.0, value.imag + 0.0)


def dominates(a: LinearOperator, b: LinearOperator, cone: SelfDualCone,
              tol: float = DEFAULT_TOL) -> bool:
    """Operator order A >= B: both fix the real form and A-B preserves the cone."""
    for name, op in (("first", a), ("second", b)):
        if not classify(op, cone, tol).real_form:
            raise NotRealForm(f"{name} operand does not preserve the real form")
    return classify(a - b, cone, tol).preserving


@dataclass(frozen=True)
class ErgodicityReport:
    """Reachability structure of a cone-preserving operator.

    ``k_table[i, j]`` is the least k with <u_i|A^k u_j> > 0 (the walk length
    in the support digraph, k=0 on the diagonal), or -1 when no power
    connects the pair.  ``borderline`` lists entries whose magnitude fell
    inside the edge threshold band and were therefore not counted as edges.
    """

    ergodic: bool
    k_table: np.ndarray
    failing_pair: tuple[int, int] | None = None
    borderline: tuple[Witness, ...] = ()

    @property
    def max_k(self) -> int:
        return int(self.k_table.max())

    def to_payload(self) -> dict:
        out: dict = {"ergodic": self.ergodic, "max_k": self.max_k}
        if self.failing_pair is not None:
            out["failing_pair"] = list(self.failing_pair)
        if self.borderline:
            out["borderline"] = [
                {"row": i, "col": j, "re": v.real, "im": v.imag}
                for i, j, v in self.borderline
            ]
        n = self.k_table.shape[0]
        if n <= 16:
            out["k_table"] = [[int(k) for k in row] for row in self.k_table]
        return out


def is_ergodic(op: LinearOperator, cone: SelfDualCone, tol: float = DEFAULT_TOL) -> ErgodicityReport:
    """Ergodicity of a cone-preserving operator.

    Builds the digraph with an edge j->i whenever the generator-basis entry
    M[i, j] clears tol*max|M|, then one sweep per generator checks that every
    ordered generator pair is connected by some power (walks of length < dim).
    """
    m = cone.operator_coords(op)
    if not _classify(m, tol).preserving:
        raise NotPreserving("ergodicity is defined for cone-preserving operators only")
    m = m.real
    thresh = tol * _abs_max(m)
    edges = m > thresh
    borderline = tuple(
        (int(i), int(j), complex(m[i, j]))
        for i, j in zip(*np.nonzero((m > 0.0) & (m <= thresh)))
    )
    out = np.ascontiguousarray(edges.T)
    table = np.array([_walk_lengths(out, j) for j in range(m.shape[0])]).T
    missing = np.argwhere(table < 0)
    failing = (int(missing[0][0]), int(missing[0][1])) if missing.size else None
    return ErgodicityReport(failing is None, table, failing, borderline)


def _abs_max(m: np.ndarray) -> float:
    """max|M| of a float64 M, read as max(max M, -min M) without the dim x dim
    temporary of np.abs: the same float, a -0.0 made +0.0."""
    return max(float(m.max()), float(-m.min())) + 0.0


def _metzler_coords(h: LinearOperator, cone: SelfDualCone,
                    tol: float) -> tuple[np.ndarray, float] | None:
    """Re M and max|Re M|, M the generator-basis matrix of H, when -H is
    Metzler there (M real, no entry off its diagonal above tol * max|M|), else None."""
    h.require_hermitian()
    m = cone.operator_coords(h)
    if np.iscomplexobj(m):
        thresh = tol * float(np.abs(m).max())
        if np.abs(m.imag).max() > thresh:
            return None
        m = m.real
        scale = _abs_max(m)
    else:
        scale = _abs_max(m)
        thresh = tol * scale
    above = m > thresh
    np.fill_diagonal(above, False)
    return None if above.any() else (m, scale)


def _factor_improving(h: LinearOperator, cone: SelfDualCone, tol: float) -> bool | None:
    """`generates_improving_semigroup` of a real Kronecker sum
    H = H0 (x) 1 - X (x) K on a sign cone whose signs t[a] depend on the
    base index alone (`SelfDualCone._fibers`), read from the entry table of
    H (`numerics._EntryTable`) with H0 and X flipped to t[a] t[b] h0[a, b]
    and t[a] t[b] x[a, b]; None where the dense route decides.  The nodes
    of one `stability._KroneckerFamily` share their cone's fibers, with
    t[a] t[b], and their tables carry the facts of X alone.

    The Metzler test and the edge threshold tol * max|H| compare the same
    floats as the dense route.  A fiber {a} x S is strongly connected when
    every coupled slot's digraph p -> q, x[a, a] y[p, q] > thresh, is, that
    is when x[a, a] > 0 and thresh < x[a, a] times the slots' least
    bottleneck; a Cartesian product of strongly connected digraphs is
    strongly connected.  With every fiber strongly connected, -H is
    irreducible iff the d0-vertex quotient is: a -> b when some entry from
    fiber a to fiber b is an edge.  When a fiber test fails, tol is
    negative (the structural zeros would then be edges), or H0, X or a
    slot is complex or not finite, the dense route decides.
    """
    f = h._factors
    if f is None or (table := f.table) is None or not tol >= 0:
        return None
    h.require_hermitian()
    if (fibers := cone._fibers(h, f.h0.shape[0])) is None:
        return None
    thresh = tol * table.scale
    flip = fibers.flip
    diagonal = table.diagonal * flip[:, :, None]
    above = diagonal > thresh
    base = np.arange(f.h0.shape[0])
    above[base, base] = False
    if above.any():
        return False
    quotient = (diagonal < -thresh).any(axis=2)
    if table.low is not None:
        x = f.x * flip
        ends = x * table.low, x * table.high
        if np.minimum(*ends).min() < -thresh:  # an entry -x[a, b] y[p, q] above thresh
            return False
        quotient |= np.maximum(*ends) > thresh
        if not (table.x_positive_weights
                and (thresh < np.diagonal(f.x) * table.bottleneck).all()):
            return None
    quotient[base, base] = True
    return bool(quotient.all()) or _strongly_connected(quotient)  # a complete digraph is connected


def generates_positive_semigroup(h: LinearOperator, cone: SelfDualCone,
                                 tol: float = DEFAULT_TOL) -> bool:
    """Whether exp(-beta*H) preserves the cone for every beta >= 0.

    Criterion: H is real in the generator basis with no off-diagonal entry
    above +tol*scale, i.e. -H is Metzler there.  Equivalent to resolvent
    positivity (H+s)^{-1} >= 0 for all s above the spectral bound.
    """
    return _metzler_coords(h, cone, tol) is not None


def generates_improving_semigroup(h: LinearOperator, cone: SelfDualCone,
                                  tol: float = DEFAULT_TOL) -> bool:
    """Whether (H+s)^{-1} improves the cone for every s above the bound.

    On top of the Metzler criterion this needs the off-diagonal support
    digraph of -H to be strongly connected; reducible generators leave some
    generator pair forever uncoupled.  Strong connectivity holds iff every
    generator is reachable from generator 0 and generator 0 from every
    generator, so two sweeps from one vertex decide it, one along the edges
    and one against them.  The all-pairs walk lengths stay with `is_ergodic`.
    """
    if (verdict := _factor_improving(h, cone, tol)) is not None:
        return verdict
    if (coords := _metzler_coords(h, cone, tol)) is None:
        return False
    m, scale = coords
    return _strongly_connected(m < -tol * scale)  # the diagonal never shortens a walk


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenvector of a Hamiltonian, oriented toward a cone."""

    energy: float
    gap01: float
    simple: bool
    vector: np.ndarray


def _toward_cone(x: np.ndarray, cone: SelfDualCone) -> np.ndarray:
    """x times the unit scalar that makes its generator coordinates sum to a
    real number >= 0, so that a multiple of a cone member comes out in the
    cone.  A real x on a real cone is only ever negated."""
    coords = cone.coords(x)
    total = complex(coords.real.sum(), coords.imag.sum())
    if total.imag != 0.0:
        return x * (abs(total) / total)
    return -x if total.real < 0.0 else x


def ground_state(h: LinearOperator, cone: SelfDualCone, tol: float = DEFAULT_TOL) -> GroundState:
    """Spectrum-derived ground-state record oriented toward the cone:
    `NodeAnalysis.ground` of a fresh record.

    `simple` is `Spectrum.simple`, the relative gap threshold used
    everywhere for refusing degenerate ground states.
    The eigenvector's global phase is chosen so that its generator
    coordinates sum to a nonnegative real number, so that the representative
    lying in the cone (when one exists) is the one reported.
    """
    return NodeAnalysis(h, cone, tol).ground


@dataclass(frozen=True, eq=False)
class NodeAnalysis:
    """One Hamiltonian read against one cone, each fact computed once.

    The improving-class verdict needs only the generator-basis matrix.  The
    spectrum, its norm max|lambda| and the cone-oriented ground state all
    come from a single eigendecomposition, made the first time one of them
    is asked for, so a link that fails its arrow never decomposes anything.
    The record keeps facts, not an eigenbasis: its spectrum holds the
    eigenvalues and the ground vector alone.  A Kronecker sum (a lattice
    node, a tower level, the `stability` coupling recipe) reads its
    eigenpairs from the d0 x d0 blocks that its family's block cache
    (`numerics._BlockCache`) decomposed for a run of the family's nodes
    (`numerics._block_spectrum`), which forms no eigenbasis, and its
    improving verdict is read from its factors and the entry table its
    family built (`_factor_improving`), so neither builds its matrix; any other
    Hamiltonian takes `hermitian_eig`, which copies out and phase-fixes the
    ground column alone.
    """

    hamiltonian: LinearOperator
    cone: SelfDualCone
    tol: float = DEFAULT_TOL

    @cached_property
    def improving(self) -> bool:
        return generates_improving_semigroup(self.hamiltonian, self.cone, self.tol)

    @cached_property
    def spectrum(self) -> Spectrum:
        if self.hamiltonian._factors is not None:
            return _block_spectrum(self.hamiltonian)
        return hermitian_eig(self.hamiltonian)

    @property
    def norm(self) -> float:
        return self.spectrum.norm

    @cached_property
    def ground(self) -> GroundState:
        spec = self.spectrum
        psi = _toward_cone(spec.ground_vector, self.cone)
        return GroundState(spec.ground_energy, spec.gap01, spec.simple, psi)
