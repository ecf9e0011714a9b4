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
        if np.iscomplexobj(self.mat):
            scale = max(np.abs(self.mat).max(), 1e-300)
            return float(np.abs(self.mat - self.mat.conj().T).max()) <= HERMITIAN_TOL * scale
        # a real H's maxima with one dim x dim temporary, the skew, made
        # absolute in place: the same floats as the two np.abs arrays
        scale = max(self.mat.max(), -self.mat.min(), 1e-300)
        skew = self.mat - self.mat.T
        np.abs(skew, out=skew)
        return float(skew.max()) <= HERMITIAN_TOL * scale

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
    (`_block_spectra`)."""

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

    @classmethod
    def _read(cls, eigenvalues: np.ndarray, ground_vector: np.ndarray, gap01: float):
        """The spectrum of read-only arrays, kept uncopied, whose gap01
        was read with theirs: how `_block_spectra` hands each node of a
        run views of the run's arrays."""
        spectrum = object.__new__(cls)
        for name, value in (("eigenvalues", eigenvalues), ("ground_vector", ground_vector),
                            ("gap01", gap01)):
            object.__setattr__(spectrum, name, value)
        return spectrum

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
    one sweep on ``edges`` as it is, and one on a transposed copy unless
    ``edges`` is symmetric, where each walk reversed is a walk, so a
    symmetric digraph is strongly connected exactly when it is connected."""
    if _walk_lengths(edges, 0).min() < 0:
        return False
    return bool(np.array_equal(edges, edges.T)
                or _walk_lengths(np.ascontiguousarray(edges.T), 0).min() >= 0)


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


def _kronecker_slot(y: np.ndarray, facts: _SlotFacts | None = None) -> _Slot:
    """Y with its eigendecomposition and facts, made once and shared by
    every node that has the slot; ``facts``, when given, are the
    `_slot_facts` of Y that a caller has read already."""
    values, vectors = np.linalg.eigh(y)
    if facts is None and _finite_real(y):
        facts = _slot_facts(y)
    return _Slot(y, values, vectors, facts)


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
              x_facts: tuple[float, bool, bool], symmetric: bool = False) -> _EntryTable:
    """The table of ``diagonal`` and its slot facts; a ``symmetric``
    diagonal, known to equal its transpose entry for entry, has skew 0.0
    without being read."""
    scale = max(float(diagonal.max()), float(-diagonal.min()))
    skew = 0.0 if symmetric else float(np.abs(diagonal - diagonal.transpose(1, 0, 2)).max())
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
    # a symmetric diagonal less the same multiples of a symmetric X stays
    # symmetric, entry for entry (equal floats less one value stay equal)
    return _table_of(diagonal, low, high, bottleneck, coupled_skew,
                     (table.x_max, table.x_symmetric, table.x_positive_weights),
                     table.x_symmetric and table.skew == 0.0)


@dataclass(frozen=True, eq=False)
class _KroneckerFactors:
    """H0, X and the slots of H = H0 (x) 1 - X (x) K, from which every
    reading of a `_kronecker_sum` is taken: its dimension, its products
    and its spectrum, read in runs of its family's nodes (`_applied`,
    `_block_spectra`), and, only when something reads it, its matrix.  It
    also keeps the `_EntryTable` that its family read for it (None when a
    factor is complex or has a non-finite entry)."""

    h0: np.ndarray
    x: np.ndarray
    slots: tuple[_Slot, ...]
    table: _EntryTable | None

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


def _shifts(slots) -> np.ndarray:
    """The eigenvalues of the Kronecker sum of ``slots``, summed slot by
    slot in slot order."""
    k = np.zeros(1)
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


def _kronecker_sum(space: str, h0: LinearOperator, x: LinearOperator, slots,
                   table: _EntryTable | None) -> LinearOperator:
    """H = H0 (x) 1 - X (x) K on ``space``, K = sum_mu 1 (x) Y_mu (x) 1 the
    Kronecker sum of the slots (`_kronecker_slot`), in order, given the
    entry table that `stability._KroneckerFamily`, which lays out every
    such sum, read for it.

    The operator keeps these (`_KroneckerFactors`), not its matrix.  Its
    Hermitian test reads the entry table, `_block_spectra` reads its
    spectrum from its d0 x d0 blocks, `positivity` decides its improving
    class from the factors, and `stability` its commutation with a pushed
    observable from its products with the observable's frame
    (`_applied`); the matrix is built the first time ``.mat`` is read,
    with the entries the table describes.  The family keeps its dimension
    within `DIM_CAP`.
    """
    h0._check_same_space(x)
    factors = _KroneckerFactors(h0.mat, x.mat, tuple(slots), table)
    op = object.__new__(LinearOperator)
    object.__setattr__(op, "space", space)
    object.__setattr__(op, "_factors", factors)
    return op


def _applied(ops, v: np.ndarray) -> np.ndarray:
    """H v for every node of a run of `_kronecker_sum` nodes that share H0
    and X: ``v`` holds a vector, or a block of c columns, per node, node
    after node, and so does the result.

    K adds, slot by slot, the product of Y with the node's entries viewed
    as (before, n, after), its other indices kept.  H0 and X then act on
    the base index of the whole run at once, each as one product with the
    nodes' (d0, N_I c) views side by side, N_I the node's slot states."""
    f = ops[0]._factors
    d0, c = f.h0.shape[0], (v.shape[1] if v.ndim == 2 else 1)
    dims = [op.dim for op in ops]
    v2 = v.reshape(v.shape[0], c)
    kv = np.zeros(v2.shape, dtype=np.result_type(
        v, *{slot.mat.dtype for op in ops for slot in op._factors.slots}))
    blocks, start = [], 0
    for op, dim in zip(ops, dims):
        rows, before, after = slice(start, start + dim), d0, dim // d0 * c
        for slot in op._factors.slots:
            n = slot.mat.shape[0]
            after //= n
            view = kv[rows].reshape(before, n, after)
            view += slot.mat @ v2[rows].reshape(before, n, after)
            before *= n
        blocks.append(rows)
        start += dim
    base = (f.h0 @ np.concatenate([v2[rows].reshape(d0, -1) for rows in blocks], axis=1)
            - f.x @ np.concatenate([kv[rows].reshape(d0, -1) for rows in blocks], axis=1))
    out = np.empty(v2.shape, dtype=base.dtype)
    column = 0
    for rows in blocks:
        view = out[rows].reshape(d0, -1)
        view[...] = base[:, column:column + view.shape[1]]
        column += view.shape[1]
    return out.reshape(v.shape)


def _block_spectra(ops, shifts) -> tuple[list[Spectrum], Exception | None]:
    """The spectra of a run of `_kronecker_sum` nodes that share H0 and X,
    given each node's shifts k, the eigenvalues of its K in slot order
    (`_shifts`), read in array passes over the run: the spectra of the
    longest leading nodes that read, and the failure of the node after
    them (None when every node reads).  A node read alone is a run of one.

    The product V of the slots' eigenbases diagonalises K, so H is unitarily
    equivalent to the direct sum of the blocks H0 - k X, k running over the
    eigenvalues of K, each a sum of one eigenvalue per slot (Horn & Johnson,
    *Topics in Matrix Analysis*, 4.4).  The blocks at the run's distinct
    shifts, told apart by their bits (-0.0 and 0.0 can give blocks whose
    zeros differ in sign), are decomposed in one batched `eigh` and let go
    on return; LAPACK runs once per matrix of a batch, so a block has the
    same eigenpairs alone, in any batch and at any place in one.  One
    stable sort of the run's eigenvalues by node and value gives every
    node's ascending eigenvalues and its first least one, the ground pair
    `argmin` picks.  The ground vector is phi (x) v, phi the lowest block
    eigenvector and v the column of V at its k, built by `np.multiply.outer`
    products and its phase fixed as `_fix_phase` fixes it, the run's
    phases in one pass (`_ground_vectors`), so no dim x dim eigenbasis is
    formed.  A node reads when
    H applied by reshape (`_applied`), with no matrix formed, confirms its
    pair: ||H psi - E psi|| <= BLOCK_RESIDUAL_TOL * ||H||.  A node that is
    not Hermitian fails with `NonHermitian`, and one whose slot eigenpairs
    disagree with its slots with `Inconsistent`.
    """
    failure = None
    for i, op in enumerate(ops):
        try:
            op.require_hermitian()
        except NonHermitian as exc:
            ops, shifts, failure = ops[:i], shifts[:i], exc
            break
    if not ops:
        return [], failure
    f = ops[0]._factors
    d0 = f.h0.shape[0]
    size = np.array([k.size for k in shifts], dtype=np.intp)
    values, vectors, inverse = _blocks(f.h0, f.x, np.concatenate(shifts))
    flat = values[inverse].ravel()  # node after node, its blocks in k order
    first_block = size.cumsum() - size
    dims = size * d0
    starts = first_block * d0  # of a node's eigenvalues in flat, and of its ground vector
    order = np.lexsort((flat, np.arange(size.size).repeat(dims)))
    eigenvalues = flat[order]
    block, level = np.divmod(order[starts] - starts, d0)
    ground, pieces = _ground_vectors(vectors[inverse[first_block + block], :, level], block, ops)
    energy = eigenvalues[starts]
    miss = _applied(ops, ground)
    miss -= energy.repeat(dims) * ground
    residual = np.sqrt(np.add.reduceat(miss.real ** 2 + miss.imag ** 2 if np.iscomplexobj(miss)
                                       else miss * miss, starts)).tolist()
    eigenvalues.setflags(write=False)
    spectra = []
    for i, (start, dim, vector) in enumerate(zip(starts.tolist(), dims.tolist(), pieces)):
        low, high = eigenvalues[start], eigenvalues[start + dim - 1]
        if not residual[i] <= BLOCK_RESIDUAL_TOL * max(-low, high):
            return spectra, Inconsistent(
                f"block ground pair of the operator on {ops[i].space!r} has residual "
                f"{residual[i]:.3e}, above {BLOCK_RESIDUAL_TOL:g} * ||H||")
        if np.iscomplexobj(vector) and not vector.imag.any():
            vector = _freeze(vector)  # a real copy, as `_numeric` makes it
        else:
            vector.base.setflags(write=False)
        gap = float(eigenvalues[start + 1] - low) if dim > 1 else math.inf
        spectra.append(Spectrum._read(eigenvalues[start:start + dim], vector, gap))
    return spectra, failure


def _blocks(h0: np.ndarray, x: np.ndarray, k: np.ndarray):
    """(values, vectors, row): the eigenpairs of the blocks H0 - k X at the
    distinct shifts of ``k``, told apart by their bits, from one batched
    `eigh`, and the row of each shift of ``k``."""
    bits, row = np.unique(k.view(np.int64), return_inverse=True)
    values, vectors = np.linalg.eigh(h0 - bits.view(np.float64)[:, None, None] * x)
    return values, vectors, row


def _ground_vectors(phi: np.ndarray, block: np.ndarray, ops) -> tuple[np.ndarray, list]:
    """The ground vector phi[i] (x) v_1 (x) ... of every node i of a run,
    phase fixed, node after node in one array, and each node's own: v_j is
    column c_j of the node's j-th slot's eigenbasis, c the digits of its
    ``block`` in the slots' dimensions.  Each is the chain of
    `np.multiply.outer` products in slot order, in its own dtype, complex
    only when phi or one of its slots is, and its phase is fixed as
    `_fix_phase` fixes it, in one pass over the run's vectors of that
    dtype; a node's own is a view of the array that pass holds."""
    pieces = []
    for g, rest, op in zip(phi, block.tolist(), ops):
        slots = op._factors.slots
        columns = []
        for slot in reversed(slots):
            rest, column = divmod(rest, slot.mat.shape[0])
            columns.append(column)
        for slot, column in zip(slots, reversed(columns)):
            g = np.multiply.outer(g, slot.vectors[:, column]).ravel()
        pieces.append(g)
    kinds = dict.fromkeys(piece.dtype for piece in pieces)
    for kind in kinds:
        at = [i for i, piece in enumerate(pieces) if piece.dtype == kind]
        out = np.concatenate([pieces[i] for i in at])
        dims = np.array([pieces[i].size for i in at])
        starts = dims.cumsum() - dims
        mags = np.abs(out)  # `_fix_phase`, node by node
        big = (mags > (PHASE_PIVOT_FACTOR * np.maximum.reduceat(mags, starts)).repeat(dims)
               ).nonzero()[0]
        pivot = np.append(big, out.size)[np.searchsorted(big, starts)]
        pivot = out[np.where(pivot < starts + dims, pivot, starts)]
        out *= (pivot.conjugate() / np.abs(pivot)).repeat(dims)
        for i, start, dim in zip(at, starts.tolist(), dims.tolist()):
            pieces[i] = out[start:start + dim]
    return (out if len(kinds) == 1 else np.concatenate(pieces)), pieces


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
