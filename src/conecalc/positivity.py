"""Classification of operators against a cone: preserving/improving maps,
operator domination, ergodicity, and the semigroup-generator classes.

All tests reduce to the operator's matrix in the cone's generator basis.  A
map preserves the cone iff that matrix is real with nonnegative entries, and
improves it iff the entries are strictly positive; both follow from linearity
over the generators.  Ergodicity and irreducibility are digraph reachability
on the support pattern of that matrix, one frontier sweep per source
(`numerics._walk_lengths`): one from every generator for ergodicity's least
walk lengths, and for irreducibility one from generator 0 against the
edges, then one along them unless the support is symmetric.  A real
Kronecker sum on a cone whose signs depend on its base index alone is
decided from its factors instead (`_factors_improving`, one pass over a run
of a family's nodes), with the same floats and no matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .cones import SelfDualCone
from .errors import ConecalcError, NotPreserving, NotRealForm
from .numerics import (
    DEFAULT_TOL,
    LinearOperator,
    Spectrum,
    _block_spectra,
    _shifts,
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


def _factors_improving(hs, cones, tol: float) -> list[bool | None]:
    """`generates_improving_semigroup` of each real Kronecker sum
    H = H0 (x) 1 - X (x) K of a run of a family's nodes, on a sign cone
    whose signs t[a] depend on the base index alone
    (`SelfDualCone._fibers`), read from the entry table of H
    (`numerics._EntryTable`) with H0 and X flipped to t[a] t[b] h0[a, b]
    and t[a] t[b] x[a, b]; None where the dense route decides.  The nodes
    of one `stability._KroneckerFamily` share their cone's fibers, with
    t[a] t[b], and their tables carry the facts of X alone.  The run's
    tables are read in one pass: their diagonals side by side, each
    against its own threshold.

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
    verdicts: list[bool | None] = [None] * len(hs)
    read, flips = [], []
    for i, (h, cone) in enumerate(zip(hs, cones)):
        f = h._factors
        if f is None or f.table is None or not tol >= 0:
            continue
        h.require_hermitian()
        if (fibers := cone._fibers(h, f.h0.shape[0])) is not None:
            read.append(i)
            flips.append(fibers.flip)
    if not read:
        return verdicts
    tables = [hs[i]._factors.table for i in read]
    f = hs[read[0]]._factors
    base = np.arange(f.h0.shape[0])
    width = [table.diagonal.shape[2] for table in tables]
    starts = [0, *itertools.accumulate(width[:-1])]
    thresh = [tol * table.scale for table in tables]
    flip = np.array(flips)  # (node, a, b)
    diagonal = np.concatenate([table.diagonal for table in tables], axis=2)
    diagonal *= flip.transpose(1, 2, 0).repeat(width, axis=2)
    edge = np.repeat(thresh, width)
    above = diagonal > edge
    above[base, base] = False
    metzler = ~np.logical_or.reduceat(above.any(axis=(0, 1)), starts)
    quotient = np.logical_or.reduceat(diagonal < -edge, starts, axis=2).transpose(2, 0, 1)
    # the entries -x[a, b] y[p, q] off the slots' diagonals lie between
    # x[a, b] low and x[a, b] high; a node whose slots are all 1 x 1 has
    # none, and its 0.0 bounds change no verdict
    coupled = np.array([table.low is not None for table in tables])
    bounds = np.array([(table.low, table.high, table.bottleneck) if table.low is not None
                       else (0.0, 0.0, 0.0) for table in tables])
    at = np.array(thresh)[:, None, None]
    x = f.x * flip
    ends = x * bounds[:, 0, None, None], x * bounds[:, 1, None, None]
    metzler &= ~(np.minimum(*ends).min(axis=(1, 2)) < -at[:, 0, 0])
    quotient |= np.maximum(*ends) > at
    fibers = ~coupled | (tables[0].x_positive_weights
                         & (at[:, :, 0] < np.diagonal(f.x) * bounds[:, 2, None]).all(axis=1))
    quotient[:, base, base] = True
    for i, ok, connected, q in zip(read, metzler.tolist(), fibers.tolist(), quotient):
        if not ok:
            verdicts[i] = False
        elif connected:  # a complete digraph is connected
            verdicts[i] = bool(q.all()) or _strongly_connected(q)
    return verdicts


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
    and one against them.  A symmetric support, such as that of a real
    symmetric H, takes one sweep alone: there a walk reversed is a walk,
    so it is strongly connected exactly when it is connected.  The
    all-pairs walk lengths stay with `is_ergodic`.
    """
    return _improving([h], [cone], tol)[0]


def _improving(hs, cones, tol: float) -> list[bool]:
    """`generates_improving_semigroup` of each (H, cone) of a run: the
    Kronecker sums that their factors decide read in one pass
    (`_factors_improving`), and every other H by the dense route."""
    verdicts = _factors_improving(hs, cones, tol)
    for i, verdict in enumerate(verdicts):
        if verdict is None:
            coords = _metzler_coords(hs[i], cones[i], tol)
            # the diagonal never shortens a walk
            verdicts[i] = coords is not None and _strongly_connected(coords[0] < -tol * coords[1])
    return verdicts


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


def _grounds(spectra, cones) -> list[GroundState]:
    """The ground state of each spectrum of a run, oriented toward its cone
    as `_toward_cone` orients a record's own.  A real vector on a sign
    cone is negated when its coordinates sum below 0; the run's sums are
    read in one pass, and a node's own sum is taken again only where the
    pass's, which adds in another order, lies within its rounding bound of
    0, so every sign is `_toward_cone`'s.  Other vectors and cones are read
    one by one."""
    vectors = [spectrum.ground_vector for spectrum in spectra]
    signed = [i for i, (x, cone) in enumerate(zip(vectors, cones))
              if cone._sign_basis is not None and not np.iscomplexobj(x) and x.size == cone.dim]
    if signed:
        dims = [vectors[i].size for i in signed]
        starts = [0, *itertools.accumulate(dims[:-1])]
        coords = (np.concatenate([vectors[i] for i in signed])
                  * np.concatenate([cones[i]._sign_basis.signs for i in signed]))
        total = np.add.reduceat(coords, starts)
        eps = float(np.finfo(float).eps)
        bound = np.add.reduceat(np.abs(coords), starts) * [4.0 * eps * dim for dim in dims]
        for j in np.flatnonzero(np.abs(total) <= bound).tolist():
            total[j] = coords[starts[j]:starts[j] + dims[j]].sum()
        del coords
        flipped = [signed[j] for j in np.flatnonzero(total < 0.0).tolist()]
        if flipped:
            x = -np.concatenate([vectors[i] for i in flipped])
            x.setflags(write=False)
            start = 0
            for i in flipped:
                start, vectors[i] = start + vectors[i].size, x[start:start + vectors[i].size]
    for i in set(range(len(vectors))).difference(signed):
        vectors[i] = _toward_cone(vectors[i], cones[i])
    return [GroundState(spec.ground_energy, spec.gap01, spec.simple, psi)
            for spec, psi in zip(spectra, vectors)]


def _runs(records):
    """The records of Kronecker sums in runs of consecutive ones that
    share H0 and X, while a run's rows, the sum of its dimensions, stay
    within `DIM_CAP`, as `lattice._covering_edges` bounds its runs of
    edges, so a node at the cap is a run of its own.  Any other record is
    in no run and reads its own facts."""
    run, rows = [], 0
    for record in records:
        f, h = record.hamiltonian._factors, record.hamiltonian
        if run and not (f is not None and (g := run[0].hamiltonian._factors) is not None
                        and f.h0 is g.h0 and f.x is g.x
                        and rows + h.dim <= numerics.DIM_CAP):
            yield run
            run, rows = [], 0
        if f is not None:
            run.append(record)
            rows += h.dim
    if run:
        yield run


def _run_verdicts(run) -> None:
    """Read the improving verdicts of a run of Kronecker-sum records
    (`_runs`) in one pass (`_improving`), leaving out a record whose
    verdict is decided already.  A run whose verdicts do not read leaves
    every verdict unread, so that each record raises its own failure, read
    alone, where its reader asks for it."""
    todo = [record for record in run if "improving" not in record.__dict__]
    try:
        verdicts = _improving([record.hamiltonian for record in todo],
                              [record.cone for record in todo], run[0].tol)
    except ConecalcError:
        return
    for record, verdict in zip(todo, verdicts):
        record.__dict__["improving"] = verdict


def _run_spectra(run) -> None:
    """Read the spectra and cone-oriented ground states of the records of
    a run of Kronecker sums (`_runs`) still `unread`, in one pass each
    (`numerics._block_spectra`, `_grounds`), the blocks let go on return.
    A record whose spectrum does not read is left unread, and so are the
    records after it, so that each raises its own failure, read alone,
    where its reader asks for it."""
    todo = [record for record in run if record.unread]
    ops = [record.hamiltonian for record in todo]
    spectra, _ = _block_spectra(ops, [_shifts(op._factors.slots) for op in ops])
    read = todo[:len(spectra)]
    for record, spectrum, ground in zip(read, spectra,
                                        _grounds(spectra, [record.cone for record in read])):
        record.__dict__.update(spectrum=spectrum, ground=ground)


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
    is asked for, so a dense node past a link that fails its arrow is
    never decomposed.
    The record keeps facts, not an eigenbasis: its spectrum holds the
    eigenvalues and the ground vector alone.  A Kronecker sum (a lattice
    node, a tower level, the `stability` coupling recipe) reads its
    eigenpairs from its d0 x d0 blocks (`numerics._block_spectra`), which
    forms no eigenbasis, and its improving verdict from its factors and the
    entry table its family built (`_factors_improving`), so neither builds
    its matrix.  Each property reads its own record's fact alone, a run of
    one.  The callers that hold many records, a lattice's family
    (`stability._KroneckerFamily.records`) and a chain of records
    (`inheritance._verified_links`), read what each run of them (`_runs`)
    has not read, one pass per fact: the verdicts (`_run_verdicts`), then
    the spectra with their ground states (`_run_spectra`), which set the
    properties' values.  Any other Hamiltonian takes `hermitian_eig`,
    which copies out and phase-fixes the ground column alone.
    """

    hamiltonian: LinearOperator
    cone: SelfDualCone
    tol: float = DEFAULT_TOL

    @cached_property
    def improving(self) -> bool:
        return generates_improving_semigroup(self.hamiltonian, self.cone, self.tol)

    @cached_property
    def spectrum(self) -> Spectrum:
        if (f := self.hamiltonian._factors) is None:
            return hermitian_eig(self.hamiltonian)
        spectra, failure = _block_spectra([self.hamiltonian], [_shifts(f.slots)])
        if failure is not None:
            raise failure
        return spectra[0]

    @property
    def norm(self) -> float:
        return self.spectrum.norm

    @property
    def unread(self) -> bool:
        """Whether the spectrum is still to be read: so it is of a record
        whose run's spectra pass (`_run_spectra`) stopped at or before it."""
        return "spectrum" not in self.__dict__

    @cached_property
    def ground(self) -> GroundState:
        spec = self.spectrum
        return GroundState(spec.ground_energy, spec.gap01, spec.simple,
                           _toward_cone(spec.ground_vector, self.cone))
