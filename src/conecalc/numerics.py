"""Dense linear-algebra substrate: Hermitian eigendecomposition, operator
exponentials, tensor products, partial trace, reachability sweeps, and
Kronecker sums H0 (x) 1 - X (x) K that keep their factors, not a matrix:
their spectra are read from d0 x d0 blocks and their entries from a table
of O(dim d0) values.

Everything here is a pure function of its arguments; operators are immutable
value objects tagged with a space identifier so that mismatched operands fail
loudly instead of broadcasting.

Operators, eigenbases and isometries are float64 when their entries are real
and complex128 when some imaginary part is nonzero; `_freeze` alone makes
that choice.  Real operators stay real through every product and
decomposition, so a real symmetric Hamiltonian is decomposed by real `eigh`,
and mixed operands promote to complex as numpy does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    BadFactorization,
    DimMismatch,
    Inconsistent,
    NonHermitian,
    NotDensityMatrix,
)
from . import DEFAULT_TOL, DIM_CAP, TOL_LIMIT  # noqa: F401 - read here by the other modules

HERMITIAN_TOL = 1e-12
SIMPLE_GAP_FACTOR = 1e-8  # a ground state is simple when gap01 > this * ||H||
DENSITY_TOL = 1e-10  # Hermiticity, unit trace and eigenvalues >= -this of a density matrix
BLOCK_RESIDUAL_TOL = 1e-10  # a block ground pair is kept when ||H psi - E psi|| <= this * ||H||
PHASE_PIVOT_FACTOR = 1e-8  # an eigenvector's phase pivot is its first entry above this * its largest


def _numeric(a) -> np.ndarray:
    """`a` as a float64 array when its entries are real, an imaginary part
    that is exactly zero included, and as complex128 otherwise.  An array
    that already has that dtype is returned as it is."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if a.imag.any():
            return a.astype(np.complex128, copy=False)
        a = a.real
    return a.astype(np.float64, copy=False)


def _freeze(a: np.ndarray) -> np.ndarray:
    """An immutable C-ordered copy of `a`, with the dtype `_numeric` picks;
    an array that already is one, and owns its data, is kept as it is."""
    out = _numeric(a)
    if (out is a and a.flags.owndata and a.flags.c_contiguous
            and not a.flags.writeable):
        return a
    out = np.array(out, copy=True, order="C")
    out.setflags(write=False)
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) for two matrices, as one broadcast multiply into a new
    array that owns its data.  Each entry is the same single product
    a[i, j] * b[k, l], so the values equal np.kron's, without its per-call
    overhead."""
    (m, n), (p, q) = a.shape, b.shape
    out = np.empty((m * p, n * q), dtype=np.result_type(a, b))
    np.multiply(a[:, None, :, None], b[None, :, None, :], out=out.reshape(m, p, n, q))
    return out


def _adopt(space: str, fresh: np.ndarray) -> "LinearOperator":
    """The operator on ``fresh``, a new array nothing else holds, frozen in
    place instead of copied."""
    fresh.setflags(write=False)
    return LinearOperator(space, fresh)


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Dense square matrix, tagged with its space: float64 when real,
    complex128 otherwise.  An operator made by `_kronecker_sum` keeps its
    factors instead, and builds its matrix only when ``.mat`` is first
    read."""

    space: str
    mat: np.ndarray
    _factors = None  # not a field: the _KroneckerFactors of a Kronecker sum

    def __post_init__(self):
        mat = _freeze(self.mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimMismatch(f"operator on {self.space!r} is not square: {mat.shape}")
        object.__setattr__(self, "mat", mat)

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set: the matrix of a
        # Kronecker sum, built on its first read
        if name != "mat" or self._factors is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        mat = self._factors.matrix()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        return mat

    @property
    def dim(self) -> int:
        if self._factors is not None:
            return self._factors.dim
        return self.mat.shape[0]

    def norm(self) -> float:
        """Spectral norm."""
        return float(np.linalg.norm(self.mat, 2))

    def is_hermitian(self) -> bool:
        """Whether max|H - H^*| <= HERMITIAN_TOL max|H|.  A real Kronecker
        sum reads both maxima from its entry table, the same floats."""
        if self._factors is not None and (table := self._factors.table) is not None:
            return table.skew <= HERMITIAN_TOL * max(table.scale, 1e-300)
        scale = max(np.abs(self.mat).max(), 1e-300)
        return float(np.abs(self.mat - self.mat.conj().T).max()) <= HERMITIAN_TOL * scale

    def require_hermitian(self) -> None:
        """Raise `NonHermitian` unless `is_hermitian()`.  The matrix is
        immutable, so a passed check is remembered and not repeated."""
        if self.__dict__.get("_hermitian"):
            return
        if not self.is_hermitian():
            raise NonHermitian(f"operator on {self.space!r} is not Hermitian")
        self.__dict__["_hermitian"] = True

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_same_space(other)
        return _adopt(self.space, self.mat + other.mat)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_same_space(other)
        return _adopt(self.space, self.mat - other.mat)

    def _check_same_space(self, other: "LinearOperator") -> None:
        if self.space != other.space or self.dim != other.dim:
            raise DimMismatch(
                f"operands live on different spaces: "
                f"{self.space!r} (dim {self.dim}) vs {other.space!r} (dim {other.dim})"
            )


def identity(space: str, dim: int) -> LinearOperator:
    eye = np.eye(dim)
    eye.setflags(write=False)  # so the operator keeps it, uncopied
    return LinearOperator(space, eye)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Hermitian spectrum, ascending, with its phase-fixed ground vector:
    every eigenvalue and one eigenvector, never an eigenbasis, whether read
    from a dense `hermitian_eig` or from the blocks of a Kronecker sum
    (`_block_spectrum`)."""

    eigenvalues: np.ndarray
    ground_vector: np.ndarray  # pairs with eigenvalues[0]
    gap01: float = field(init=False)

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float, copy=True)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "ground_vector", _freeze(self.ground_vector))
        gap = float(vals[1] - vals[0]) if vals.size > 1 else float("inf")
        object.__setattr__(self, "gap01", gap)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def norm(self) -> float:
        """Spectral norm of the decomposed operator, max |lambda|."""
        return float(max(-self.eigenvalues[0], self.eigenvalues[-1]))

    @property
    def simple(self) -> bool:
        """Whether the lowest eigenvalue is simple: gap01 above
        SIMPLE_GAP_FACTOR times the norm.  Degenerate and nearly degenerate
        ground states are refused, never resolved."""
        return self.gap01 > SIMPLE_GAP_FACTOR * max(self.norm, 1e-300)


def uniform_vector(n: int) -> np.ndarray:
    """The unit vector whose n entries all equal 1/sqrt(n)."""
    return np.full(n, 1.0 / math.sqrt(n))


def _fix_phase(vec: np.ndarray) -> None:
    """Rotate ``vec`` in place so that its first non-negligible component
    is real positive."""
    mags = np.abs(vec)
    pivot = vec[np.argmax(mags > PHASE_PIVOT_FACTOR * mags.max())]
    vec *= pivot.conjugate() / np.abs(pivot)


def hermitian_eig(op: LinearOperator) -> Spectrum:
    """Eigenvalues and ground vector of a Hermitian operator.

    Eigenvalues come out ascending.  The ground vector is a copy of the
    first `eigh` column, rotated so that its first non-negligible component
    is real positive, so repeated runs on the same matrix produce identical
    output.  The rest of the eigenbasis is dropped.
    """
    op.require_hermitian()
    vals, vecs = np.linalg.eigh(op.mat)
    ground = vecs[:, 0].copy()
    _fix_phase(ground)
    ground.setflags(write=False)
    return Spectrum(vals, ground)


def _walk_lengths(out: np.ndarray, source: int) -> np.ndarray:
    """Least walk length from `source` to every vertex along out[j, i]
    (an edge j -> i), -1 where no walk exists: a frontier sweep, in which
    each step adds 1 to every vertex not yet reached, until no vertex is
    left to reach or no new vertex was reached.  Each step gathers the
    frontier's rows, so a C-ordered `out` is read row by row."""
    lengths = np.zeros(out.shape[0], dtype=int)
    unseen = np.arange(out.shape[0]) != source
    frontier = ~unseen
    while np.count_nonzero(frontier) and np.count_nonzero(unseen):
        lengths += unseen
        frontier = out[frontier].any(axis=0) & unseen
        unseen ^= frontier
    lengths[unseen] = -1
    return lengths


def _strongly_connected(edges: np.ndarray) -> bool:
    """Whether every vertex reaches vertex 0 and vertex 0 every vertex:
    two sweeps, one along the edges and one against them."""
    return bool(_walk_lengths(np.ascontiguousarray(edges.T), 0).min() >= 0
                and _walk_lengths(edges, 0).min() >= 0)


def _bottleneck(y: np.ndarray, off: np.ndarray) -> float:
    """The largest off-diagonal entry w of Y (``off`` masks them) for which
    the digraph p -> q, y[p, q] >= w (p != q), is strongly connected; inf
    for a 1 x 1 Y, whose one vertex is connected.

    Rounding is monotone, so for c > 0 the digraph p -> q, c y[p, q] > t is
    strongly connected exactly when t < c w, with c w the rounded product.
    """
    if y.shape[0] == 1:
        return math.inf

    def connected(w: float) -> bool:
        return _strongly_connected((y >= w) & off)

    # no vertex keeps an out-edge or an in-edge above its largest one, so
    # w is at most the least of those; it usually is that bound, and at the
    # least entry every pair is an edge
    blanked = np.where(off, y, -np.inf)
    bound = min(blanked.max(axis=1).min(), blanked.max(axis=0).min())
    if bound == np.where(off, y, np.inf).min() or connected(bound):
        return float(bound)
    below = np.sort(y[off & (y < bound)])
    lo, hi = 0, below.size - 1
    while lo < hi:  # bisection: connected(below[lo]) holds
        mid = (lo + hi + 1) // 2
        if connected(below[mid]):
            lo = mid
        else:
            hi = mid - 1
    return float(below[lo])


class _SlotFacts(NamedTuple):
    """What the entry table of a Kronecker sum reads from a real, finite
    slot Y: its off-diagonal extremes and bottleneck (`_bottleneck`), its
    distinct diagonal entries (none when all are zero), and whether it is
    exactly symmetric."""

    low: float
    high: float
    bottleneck: float
    diagonal: np.ndarray
    symmetric: bool


class _Slot(NamedTuple):
    """One coupling slot of a Kronecker sum: Y, its eigenpairs, and its
    `_SlotFacts` (None when Y is complex or has a non-finite entry)."""

    mat: np.ndarray
    values: np.ndarray
    vectors: np.ndarray  # column k pairs with values[k]
    facts: _SlotFacts | None


def _finite_real(a: np.ndarray) -> bool:
    return not np.iscomplexobj(a) and bool(np.isfinite(a).all())


def _kronecker_slot(y: np.ndarray) -> _Slot:
    """Y with its eigendecomposition and facts, made once and shared by
    every node that has the slot."""
    values, vectors = np.linalg.eigh(y)
    return _Slot(y, values, vectors, _slot_facts(y) if _finite_real(y) else None)


def _slot_facts(y: np.ndarray) -> _SlotFacts:
    n = y.shape[0]
    off = ~np.eye(n, dtype=bool)
    low, high = float(np.where(off, y, np.inf).min()), float(np.where(off, y, -np.inf).max())
    diagonal = np.diagonal(y)
    return _SlotFacts(low, high, _bottleneck(y, off),
                      np.array(sorted(set(diagonal.tolist())) if diagonal.any() else []),
                      bool((y == y.T).all()))


class _EntryTable(NamedTuple):
    """The entries of a real Kronecker sum H = H0 (x) 1 - X (x) K, as
    `_KroneckerFactors.matrix` writes them, without the dim x dim matrix.

    Entry ((a, s), (b, t)) is ``diagonal[a, b, i]`` when s = t, for the
    index i of the distinct diagonal entries that s picks in the slots that
    have nonzero ones (every such s gives one of these values, in the same
    float order); it is -x[a, b] y_mu[p, q] when s and t differ in slot mu
    alone, at (p, q); and 0 otherwise.  The off-diagonal slot entries y[p, q],
    p != q, lie in [low, high] (both None when every slot is 1 x 1), and as
    rounding is monotone the least and greatest product x[a, b] y over them
    are x[a, b] low and x[a, b] high, in some order.  ``bottleneck`` is the
    least `_bottleneck` of those slots (inf when there are none).  ``scale``
    is max|H| and ``skew`` max|H - H^T|, the floats the dense matrix gives;
    ``coupled_skew`` is the part of ``skew`` that the off-diagonal slot
    entries give (0.0 when X and every slot are symmetric).  ``x_max`` is
    max|X|, ``x_symmetric`` whether X = X^T exactly, and
    ``x_positive_weights`` whether every diagonal entry of X is positive.

    A table is made for H0 alone (`_base_table`) and then one slot at a
    time (`_table_with_slot`), so a family of sums that share their leading
    slots, as `stability._KroneckerFamily` does, extends each prefix's
    table by one slot.  Every entry is the float the loop over all slots
    gives, min and max are taken in slot order, and max|H| and the skew are
    read again at every step.  The facts of X alone are read once, by
    `_base_table`, and carried from each table to the next.
    """

    diagonal: np.ndarray
    low: float | None
    high: float | None
    bottleneck: float
    scale: float
    skew: float
    coupled_skew: float
    x_max: float
    x_symmetric: bool
    x_positive_weights: bool


def _table_of(diagonal: np.ndarray, low, high, bottleneck: float, coupled_skew: float,
              x_facts: tuple[float, bool, bool]) -> _EntryTable:
    scale = max(float(diagonal.max()), float(-diagonal.min()))
    skew = float(np.abs(diagonal - diagonal.transpose(1, 0, 2)).max())
    if low is not None:
        scale = max(scale, x_facts[0] * max(-low, high))
    return _EntryTable(diagonal, low, high, bottleneck, scale + 0.0, max(skew, coupled_skew),
                       coupled_skew, *x_facts)


def _base_table(h0: np.ndarray, x: np.ndarray) -> _EntryTable | None:
    """The `_EntryTable` of H0 (x) 1 - X (x) K with no slot yet, or None
    when H0 or X is complex or has a non-finite entry."""
    if not (_finite_real(h0) and _finite_real(x)):
        return None
    x_facts = (float(np.abs(x).max()), bool((x == x.T).all()), bool((np.diagonal(x) > 0).all()))
    return _table_of(h0[:, :, None], None, None, math.inf, 0.0, x_facts)


def _table_with_slot(table: _EntryTable | None, x: np.ndarray,
                     slot: _Slot) -> _EntryTable | None:
    """``table`` with one more slot to the right, or None when there is no
    table or the slot is complex or has a non-finite entry."""
    if table is None or slot.facts is None:
        return None
    facts, diagonal = slot.facts, table.diagonal
    if facts.diagonal.size:
        d0 = x.shape[0]
        diagonal = (diagonal[:, :, :, None] - x[:, :, None, None] * facts.diagonal).reshape(
            d0, d0, -1)
    low, high, bottleneck, coupled_skew = (table.low, table.high, table.bottleneck,
                                           table.coupled_skew)
    if slot.mat.shape[0] > 1:
        low = facts.low if low is None else min(low, facts.low)
        high = facts.high if high is None else max(high, facts.high)
        bottleneck = min(bottleneck, facts.bottleneck)
        if not (facts.symmetric and table.x_symmetric):
            terms = x[:, :, None, None] * slot.mat
            swapped = np.abs(terms - terms.transpose(1, 0, 3, 2))
            coupled_skew = max(coupled_skew,
                               float(swapped[:, :, ~np.eye(len(slot.mat), dtype=bool)].max()))
    return _table_of(diagonal, low, high, bottleneck, coupled_skew,
                     (table.x_max, table.x_symmetric, table.x_positive_weights))


class _BlockCache:
    """The eigenpairs of the d0 x d0 blocks H0 - k X of the Kronecker sums
    of one family, for one run of its nodes at a time.

    A block is keyed by the bits of its shift k, not by float equality:
    -0.0 and 0.0 can give blocks whose zeros differ in sign.  A load is one
    batched `eigh` of the blocks at the distinct shifts of a run of nodes,
    held as the rows of the read-only ``values`` and ``vectors`` until the
    run's spectra are read and the cache is cleared.  LAPACK runs once per
    matrix of a batch, so a block has the same eigenpairs alone, in any
    batch and at any place in one.
    """

    def __init__(self, h0: np.ndarray, x: np.ndarray):
        self.h0, self.x = h0, x
        self.clear()

    def clear(self) -> None:
        self.row_of = {}  # the bits of a shift -> its row
        self.values = self.vectors = None

    def load(self, k: np.ndarray) -> None:
        """Hold the blocks at the distinct shifts of ``k`` alone, decomposed
        in one batched `eigh` once the blocks held before are let go."""
        self.clear()
        bits = list(dict.fromkeys(k.view(np.int64).tolist()))
        shifts = np.array(bits, dtype=np.int64).view(np.float64)
        values, vectors = np.linalg.eigh(self.h0 - shifts[:, None, None] * self.x)
        values.setflags(write=False)
        vectors.setflags(write=False)
        self.row_of = dict(zip(bits, range(len(bits))))
        self.values, self.vectors = values, vectors

    def rows(self, k: np.ndarray) -> np.ndarray | None:
        """The row of every shift of ``k``, or None when some are not held."""
        bits = k.view(np.int64).tolist()
        if not all(map(self.row_of.__contains__, bits)):
            return None
        return np.fromiter(map(self.row_of.__getitem__, bits), dtype=np.intp, count=len(bits))


@dataclass(frozen=True, eq=False)
class _KroneckerFactors:
    """H0, X and the slots of H = H0 (x) 1 - X (x) K, from which every
    reading of a `_kronecker_sum` is taken: its dimension, its product with
    a vector or a block, and, only when something reads it, its matrix.
    It also keeps what its family read for it: the `_BlockCache` that holds
    the blocks H0 - k X, the `_EntryTable` (None when a factor is complex
    or has a non-finite entry) and the shifts k, the eigenvalues of K in
    slot order, until its family has read its spectrum and lets them go
    (`release_shifts`)."""

    h0: np.ndarray
    x: np.ndarray
    slots: tuple[_Slot, ...]
    shifts: np.ndarray | None
    table: _EntryTable | None
    blocks: _BlockCache

    @property
    def k(self) -> np.ndarray:
        """The shifts held, or, once they are let go, summed again
        (`_shifts`), with the same bits."""
        return self.shifts if self.shifts is not None else _shifts(self.slots)

    def release_shifts(self) -> None:
        object.__setattr__(self, "shifts", None)

    @cached_property
    def dim(self) -> int:
        return self.h0.shape[0] * math.prod(slot.mat.shape[0] for slot in self.slots)

    def matrix(self) -> np.ndarray:
        """The dense H, a new array.  Each entry is h0[i, j] less the
        products x[i, j] y_mu[p, q], slot by slot, as when
        X (x) (1 (x) Y_mu (x) 1) is subtracted from H0 (x) 1 one slot at a
        time.  The terms are written into the positions they fill, so no
        other dim x dim array is formed."""
        d0, dims = self.h0.shape[0], [slot.mat.shape[0] for slot in self.slots]
        total = math.prod(dims)
        mat = np.zeros((d0 * total, d0 * total),
                       dtype=np.result_type(self.h0, self.x, *(slot.mat for slot in self.slots)))
        _slot_view(mat, d0, total, 1, 1)[...] = self.h0[:, :, None, None, None, None]
        for k, slot in enumerate(self.slots):
            view = _slot_view(mat, d0, math.prod(dims[:k]), dims[k], math.prod(dims[k + 1:]))
            view -= self.x[:, :, None, None, None, None] * slot.mat[:, :, None, None]
        return mat

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi by reshape, for a vector or a dim x k block: H0 on the base
        axis, and X times Y_mu on slot axis mu, in O(dim k (d0 + sum_mu
        n_mu)).  A block's columns ride along as one more trailing axis."""
        d0, shape = self.h0.shape[0], psi.shape
        psi = psi.reshape(d0, -1)
        k_psi = np.zeros_like(psi, dtype=np.result_type(psi, *(slot.mat for slot in self.slots)))
        before, after = d0, psi.shape[1]
        for slot in self.slots:
            n = slot.mat.shape[0]
            after //= n
            axis = k_psi.reshape(before, n, after)
            axis += slot.mat @ psi.reshape(before, n, after)
            before *= n
        return (self.h0 @ psi - self.x @ k_psi).reshape(shape)


def _shifts(slots, k: np.ndarray | None = None) -> np.ndarray:
    """The eigenvalues of the Kronecker sum of ``slots``, summed slot by
    slot in slot order, onto the shifts ``k`` of the slots before them
    when given: a node's shifts, summed from none or from its prefix's,
    have the same bits."""
    k = np.zeros(1) if k is None else k
    for slot in slots:
        k = (k[:, None] + slot.values).ravel()
    return k


def _slot_view(mat: np.ndarray, d0: int, before: int, n: int, after: int) -> np.ndarray:
    """The entries ((i, b, p, a), (j, b, q, a)) of a square ``mat`` on
    C^d0 (x) C^before (x) C^n (x) C^after, as a writable view indexed
    [i, j, p, q, b, a]: where X (x) 1 (x) Y (x) 1 can be nonzero."""
    row, col = mat.strides
    size = before * n * after
    return as_strided(mat, shape=(d0, d0, n, n, before, after),
                      strides=(row * size, col * size, row * after, col * after,
                               (row + col) * n * after, row + col))


def _kronecker_sum(space: str, h0: LinearOperator, x: LinearOperator, slots, k: np.ndarray,
                   table: _EntryTable | None, blocks: _BlockCache) -> LinearOperator:
    """H = H0 (x) 1 - X (x) K on ``space``, K = sum_mu 1 (x) Y_mu (x) 1 the
    Kronecker sum of the slots (`_kronecker_slot`), in order, given what
    `stability._KroneckerFamily`, which lays out every such sum, read for
    it: the eigenvalues k of K, its entry table and its family's block cache.

    The operator keeps these (`_KroneckerFactors`), not its matrix.  Its
    Hermitian test reads the entry table, `_block_spectrum` reads its
    spectrum from the cached d0 x d0 blocks, `positivity` decides its
    improving class from the factors, and `stability._commutes` its
    commutation with a pushed observable from its product with the
    observable's frame; the matrix is built the first time ``.mat`` is
    read, with the entries the table describes.  The family keeps its
    dimension within `DIM_CAP`.
    """
    h0._check_same_space(x)
    factors = _KroneckerFactors(h0.mat, x.mat, tuple(slots), k, table, blocks)
    op = object.__new__(LinearOperator)
    object.__setattr__(op, "space", space)
    object.__setattr__(op, "_factors", factors)
    return op


def _block_spectrum(op: LinearOperator) -> Spectrum:
    """The spectrum of a `_kronecker_sum` from its d0 x d0 blocks.

    The product V of the slots' eigenbases diagonalises K, so H is unitarily
    equivalent to the direct sum of the blocks H0 - k X, k running over the
    eigenvalues of K, each a sum of one eigenvalue per slot (Horn & Johnson,
    *Topics in Matrix Analysis*, 4.4).  The blocks' eigenpairs are read from
    the family's `_BlockCache`: a node of a run that its family loaded reads
    the blocks of the whole run, decomposed in one batched `eigh`, each
    block its nodes share once, and a node read alone is a run of one,
    whose blocks are let go once read.  The ground vector is
    phi (x) v, phi the lowest block eigenvector and v the column of V at its
    k, built in O(dim), and no dim x dim eigenbasis is formed: the spectrum
    has the shape of a dense record's, every eigenvalue and the ground
    vector.  The pair is kept only when H applied by reshape
    (`_KroneckerFactors.apply`), with no matrix formed, confirms it:
    ||H psi - E psi|| <= BLOCK_RESIDUAL_TOL * ||H||.  Slot eigenpairs that
    disagree with the slots raise `Inconsistent`.
    """
    op.require_hermitian()
    f = op._factors
    k = f.k
    rows = f.blocks.rows(k)
    alone = rows is None  # not of a loaded run
    if alone:
        f.blocks.load(k)
        rows = f.blocks.rows(k)
    values = f.blocks.values[rows]
    block, level = divmod(int(values.argmin()), f.h0.shape[0])
    ground = f.blocks.vectors[rows[block], :, level].copy()  # _fix_phase rotates it in place
    if alone:
        f.blocks.clear()
    for slot, column in zip(f.slots, np.unravel_index(block, [s.values.size for s in f.slots])):
        ground = np.multiply.outer(ground, slot.vectors[:, column]).ravel()
    _fix_phase(ground)
    eigenvalues = np.sort(values, axis=None)
    scale = max(-eigenvalues[0], eigenvalues[-1])
    residual = float(np.linalg.norm(f.apply(ground) - eigenvalues[0] * ground))
    if not residual <= BLOCK_RESIDUAL_TOL * scale:
        raise Inconsistent(f"block ground pair of the operator on {op.space!r} has residual "
                           f"{residual:.3e}, above {BLOCK_RESIDUAL_TOL:g} * ||H||")
    return Spectrum(eigenvalues, ground)


def op_exp(op: LinearOperator, t: float) -> LinearOperator:
    """exp(t*M) for Hermitian M, via eigendecomposition.

    The eigenbasis route keeps the semigroup law exact to rounding, which the
    positivity checks downstream rely on much more than on speed.
    """
    op.require_hermitian()
    if not np.isfinite(t):
        raise ValueError("time parameter must be finite")
    return _eigh_exp(op.space, *np.linalg.eigh(op.mat), t)


def _eigh_exp(space: str, vals: np.ndarray, vecs: np.ndarray, t: float) -> LinearOperator:
    """exp(t*M) on ``space`` from the `eigh` output (vals, vecs) of a
    Hermitian M, so one decomposition serves every t."""
    out = (vecs * np.exp(float(t) * vals)) @ vecs.conj().T
    return _adopt(space, 0.5 * (out + out.conj().T))


def op_exp_unitary(op: LinearOperator, s: float) -> LinearOperator:
    """exp(i*s*M) for Hermitian M."""
    op.require_hermitian()
    vals, vecs = np.linalg.eigh(op.mat)
    out = (vecs * np.exp(1j * float(s) * vals)) @ vecs.conj().T
    return _adopt(op.space, out)


def product_space(a: str, b: str) -> str:
    return f"{a}*{b}"


def kron(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """Kronecker product on the product space: (A(x)B)(x(x)y) = Ax(x)By."""
    return _adopt(product_space(a.space, b.space), _kron(a.mat, b.mat))


def _check_density(mat: np.ndarray) -> None:
    scale = max(np.abs(mat).max(), 1.0)
    if np.abs(mat - mat.conj().T).max() > DENSITY_TOL * scale:
        raise NotDensityMatrix("not Hermitian")
    if abs(np.trace(mat).real - 1.0) > DENSITY_TOL or abs(np.trace(mat).imag) > DENSITY_TOL:
        raise NotDensityMatrix(f"trace is {np.trace(mat):.3e}, expected 1")
    if np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min() < -DENSITY_TOL:
        raise NotDensityMatrix("negative eigenvalue")


def partial_trace(rho: LinearOperator, keep_dim: int) -> LinearOperator:
    """Trace out the second tensor factor of a density matrix.

    ``rho`` acts on a product space whose first factor has dimension
    ``keep_dim``; the result is the reduced density matrix on that factor.
    """
    d = rho.dim
    if keep_dim < 1 or d % keep_dim != 0:
        raise BadFactorization(f"dim {d} does not factor with first factor {keep_dim}")
    _check_density(rho.mat)
    return _reduced(rho, keep_dim)


def _reduced(rho: LinearOperator, keep_dim: int) -> LinearOperator:
    """`partial_trace` of an operator already known to factor and to be a
    density matrix."""
    env_dim = rho.dim // keep_dim
    blocks = rho.mat.reshape(keep_dim, env_dim, keep_dim, env_dim)
    return LinearOperator(f"{rho.space}[0:{keep_dim}]", np.einsum("ijkj->ik", blocks))
