"""Classification of operators against a cone: preserving/improving maps,
operator domination, ergodicity, and the semigroup-generator classes.

All tests reduce to the operator's matrix in the cone's generator basis.  A
map preserves the cone iff that matrix is real with nonnegative entries, and
improves it iff the entries are strictly positive; both follow from linearity
over the generators.  Ergodicity and irreducibility are digraph reachability
on the support pattern of that matrix: ergodicity reports the least walk
length between every generator pair, while irreducibility only asks for
strong connectivity, which forward and reverse reachability from a single
generator decide.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cones import SelfDualCone
from .errors import InputNotInClass, NotPreserving, NotRealForm
from .numerics import DEFAULT_TOL, LinearOperator, Spectrum, hermitian_eig

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
    m = cone.operator_coords(op)
    scale = float(np.abs(m).max())
    if scale == 0.0:
        return PositivityReport(preserving=True, improving=False, real_form=True)
    thresh = tol * scale

    real_form = True
    if np.iscomplexobj(m):
        imag = np.abs(m.imag)
        imax = np.unravel_index(np.argmax(imag), m.shape)
        real_form = bool(imag[imax] <= thresh)
    rmin = np.unravel_index(np.argmin(m.real), m.shape)
    preserving = real_form and bool(m.real.min() >= -thresh)
    improving = real_form and bool(m.real.min() >= thresh)

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
        m = cone.operator_coords(op)
        scale = max(float(np.abs(m).max()), 1e-300)
        if np.iscomplexobj(m) and np.abs(m.imag).max() > tol * scale:
            raise NotRealForm(f"{name} operand does not preserve the real form")
    return classify(a - b, cone, tol).preserving


def _reach_table(out_edges: list[list[int]], n: int) -> np.ndarray:
    """k_table[i, j] = least walk length from j to i, or -1 if unreachable."""
    table = -np.ones((n, n), dtype=int)
    for j in range(n):
        table[j, j] = 0
        queue = deque([j])
        while queue:
            v = queue.popleft()
            for w in out_edges[v]:
                if table[w, j] < 0:
                    table[w, j] = table[v, j] + 1
                    queue.append(w)
    return table


@dataclass(frozen=True)
class ErgodicityReport:
    """Reachability structure of a cone-preserving operator.

    ``k_table[i, j]`` is the least k with <u_i|A^k u_j> > 0 (BFS distance in
    the support digraph, k=0 on the diagonal), or -1 when no power connects
    the pair.  ``borderline`` lists entries whose magnitude fell inside the
    edge threshold band and were therefore not counted as edges.
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
    M[i, j] clears tol*max|M|, then BFS-checks that every ordered generator
    pair is connected by some power; walk lengths never need to exceed dim-1.
    """
    report = classify(op, cone, tol)
    if not report.preserving:
        raise NotPreserving("ergodicity is defined for cone-preserving operators only")
    m = cone.operator_coords(op).real
    n = m.shape[0]
    scale = float(np.abs(m).max())
    thresh = tol * scale
    out_edges = [list(np.nonzero(m[:, j] > thresh)[0]) for j in range(n)]
    borderline = tuple(
        (int(i), int(j), complex(m[i, j]))
        for i, j in zip(*np.nonzero((m > 0.0) & (m <= thresh)))
    )
    table = _reach_table(out_edges, n)
    missing = np.argwhere(table < 0)
    failing = (int(missing[0][0]), int(missing[0][1])) if missing.size else None
    return ErgodicityReport(failing is None, table, failing, borderline)


def _metzler_offdiag_ok(m: np.ndarray, thresh: float) -> tuple[bool, Witness | None]:
    off = m.real.copy()
    np.fill_diagonal(off, -np.inf)
    worst = np.unravel_index(np.argmax(off), off.shape)
    if off[worst] > thresh:
        return False, (int(worst[0]), int(worst[1]), complex(m[worst]))
    return True, None


def _metzler_coords(h: LinearOperator, cone: SelfDualCone, tol: float) -> np.ndarray | None:
    """H in the generator basis when -H is Metzler there, else None."""
    h.require_hermitian()
    m = cone.operator_coords(h)
    scale = float(np.abs(m).max())
    if scale == 0.0:
        return m
    if np.iscomplexobj(m) and np.abs(m.imag).max() > tol * scale:
        return None
    ok, _ = _metzler_offdiag_ok(m, tol * scale)
    return m if ok else None


def generates_positive_semigroup(h: LinearOperator, cone: SelfDualCone,
                                 tol: float = DEFAULT_TOL) -> bool:
    """Whether exp(-beta*H) preserves the cone for every beta >= 0.

    Criterion: H is real in the generator basis with no off-diagonal entry
    above +tol*scale, i.e. -H is Metzler there.  Equivalent to resolvent
    positivity (H+s)^{-1} >= 0 for all s above the spectral bound.
    """
    return _metzler_coords(h, cone, tol) is not None


def _reaches_all(edges: np.ndarray) -> bool:
    """Whether a frontier sweep from vertex 0 along edges[i, j] (j -> i) visits every vertex."""
    seen = np.zeros(edges.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = edges[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    return bool(seen.all())


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
    m = _metzler_coords(h, cone, tol)
    if m is None:
        return False
    m = m.real
    n = m.shape[0]
    if n == 1:
        return True
    edges = -m > tol * float(np.abs(m).max())
    np.fill_diagonal(edges, False)
    return _reaches_all(edges) and _reaches_all(edges.T)


def positive_combination(h: LinearOperator, h_prime: LinearOperator,
                         s: float, t: float, cone: SelfDualCone,
                         tol: float = DEFAULT_TOL) -> LinearOperator:
    """s*H + t*H' for positive weights, staying in the positive-semigroup class."""
    if s <= 0 or t <= 0:
        raise ValueError("weights must be positive")
    for name, op in (("first", h), ("second", h_prime)):
        if not generates_positive_semigroup(op, cone, tol):
            raise InputNotInClass(f"{name} operand does not generate a positive semigroup")
    combo = LinearOperator(h.space, float(s) * h.mat + float(t) * h_prime.mat)
    if not generates_positive_semigroup(combo, cone, tol):
        raise InputNotInClass("combination unexpectedly left the class")
    return combo


@dataclass(frozen=True)
class GroundState:
    """Lowest eigenvector of a Hamiltonian, oriented toward a cone."""

    energy: float
    gap01: float
    simple: bool
    vector: np.ndarray
    strictly_positive: bool


def _toward_cone(x: np.ndarray, cone: SelfDualCone) -> np.ndarray:
    """x times the unit scalar that makes its generator coordinates sum to a
    real number >= 0, so that a multiple of a cone member comes out in the
    cone.  A real x on a real cone is only ever negated."""
    coords = cone.coords(x)
    total = complex(coords.real.sum(), coords.imag.sum())
    if total.imag != 0.0:
        return x * (abs(total) / total)
    return -x if total.real < 0.0 else x


def _oriented_ground(spec: Spectrum, cone: SelfDualCone, tol: float) -> GroundState:
    scale = max(spec.norm, 1e-300)
    simple = spec.gap01 > 1e-8 * scale
    psi = _toward_cone(spec.ground_vector, cone)
    strict = cone.strictly_positive(psi, tol)
    return GroundState(spec.ground_energy, spec.gap01, simple, psi, strict)


def ground_state(h: LinearOperator, cone: SelfDualCone, tol: float = DEFAULT_TOL) -> GroundState:
    """Spectrum-derived ground-state record with cone diagnostics.

    `simple` applies the relative gap threshold used everywhere for refusing
    degenerate ground states, with the norm read from the same spectrum.
    The eigenvector's global phase is chosen so that its generator
    coordinates sum to a nonnegative real number, so that the representative
    lying in the cone (when one exists) is the one reported.
    """
    return _oriented_ground(hermitian_eig(h), cone, tol)


@dataclass(frozen=True, eq=False)
class NodeAnalysis:
    """One Hamiltonian read against one cone, each fact computed once.

    The improving-class verdict needs only the generator-basis matrix.  The
    spectrum, its norm max|lambda| and the cone-oriented ground state all
    come from a single eigendecomposition, made the first time one of them
    is asked for, so a link that fails its arrow never decomposes anything.
    A record lives as long as its caller holds it; the ground vector is a
    view into the full eigenbasis, which stays alive with it.
    """

    hamiltonian: LinearOperator
    cone: SelfDualCone
    tol: float = DEFAULT_TOL

    @cached_property
    def improving(self) -> bool:
        return generates_improving_semigroup(self.hamiltonian, self.cone, self.tol)

    @cached_property
    def spectrum(self) -> Spectrum:
        return hermitian_eig(self.hamiltonian)

    @property
    def norm(self) -> float:
        return self.spectrum.norm

    @cached_property
    def ground(self) -> GroundState:
        return _oriented_ground(self.spectrum, self.cone, self.tol)

    def on_cone(self, cone: SelfDualCone) -> "NodeAnalysis":
        """The same Hamiltonian read against another cone at the same
        tolerance.  The spectrum does not depend on the cone, so the new
        record shares this one's; its improving verdict and the orientation
        of its ground state are its own."""
        other = NodeAnalysis(self.hamiltonian, cone, self.tol)
        other.__dict__["spectrum"] = self.spectrum
        return other

    def release(self) -> None:
        """Forget the eigendecomposition and the ground state read from it,
        keeping the improving verdict; a later read decomposes again."""
        self.__dict__.pop("spectrum", None)
        self.__dict__.pop("ground", None)
