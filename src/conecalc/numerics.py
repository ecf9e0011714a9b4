"""Dense linear-algebra substrate: Hermitian eigendecomposition, operator
exponentials, tensor products, partial trace, and Kronecker sums
H0 (x) 1 - X (x) K whose spectra are read from d0 x d0 blocks.

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
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import BadFactorization, DimMismatch, Inconsistent, NonHermitian, NotDensityMatrix

DEFAULT_TOL = 1e-9
HERMITIAN_TOL = 1e-12
SIMPLE_GAP_FACTOR = 1e-8  # a ground state is simple when gap01 > this * ||H||
DIM_CAP = 4096
DENSITY_TOL = 1e-10  # Hermiticity, unit trace and eigenvalues >= -this of a density matrix
BLOCK_RESIDUAL_TOL = 1e-10  # a block ground pair is kept when ||H psi - E psi|| <= this * ||H||


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
    complex128 otherwise.  An operator made by `_kronecker_sum` also keeps
    its factors, from which `NodeAnalysis` reads its spectrum."""

    space: str
    mat: np.ndarray
    _factors = None  # not a field: the _KroneckerFactors of a Kronecker sum

    def __post_init__(self):
        mat = _freeze(self.mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimMismatch(f"operator on {self.space!r} is not square: {mat.shape}")
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def norm(self) -> float:
        """Spectral norm."""
        return float(np.linalg.norm(self.mat, 2))

    def is_hermitian(self) -> bool:
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

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_same_space(other)
        return _adopt(self.space, self.mat @ other.mat)

    def __rmul__(self, scalar) -> "LinearOperator":
        return LinearOperator(self.space, scalar * self.mat)

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(self.space, self.mat.conj().T)

    def _check_same_space(self, other: "LinearOperator") -> None:
        if self.space != other.space or self.dim != other.dim:
            raise DimMismatch(
                f"operands live on different spaces: "
                f"{self.space!r} (dim {self.dim}) vs {other.space!r} (dim {other.dim})"
            )


def identity(space: str, dim: int) -> LinearOperator:
    return LinearOperator(space, np.eye(dim))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full Hermitian spectrum, ascending, with phase-fixed eigenvectors.
    A spectrum read from the blocks of a Kronecker sum (`_block_spectrum`)
    keeps the ground vector alone, as its one eigenvector column."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]
    gap01: float = field(init=False)

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float, copy=True)
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", _freeze(self.eigenvectors))
        gap = float(vals[1] - vals[0]) if vals.size > 1 else float("inf")
        object.__setattr__(self, "gap01", gap)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

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


def _fix_phases(vecs: np.ndarray) -> None:
    """Rotate every column in place so that its first non-negligible
    component is real positive."""
    mags = np.abs(vecs)
    rows = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    pivots = vecs[rows, np.arange(vecs.shape[1])]
    vecs *= pivots.conjugate() / np.abs(pivots)


def hermitian_eig(op: LinearOperator) -> Spectrum:
    """Full eigendecomposition of a Hermitian operator.

    Eigenvalues come out ascending and every eigenvector has its first
    non-negligible component rotated to the positive real axis, so repeated
    runs on the same matrix produce identical output.  The phases are fixed
    in the array `eigh` returned, which the spectrum then keeps uncopied.
    """
    op.require_hermitian()
    vals, vecs = np.linalg.eigh(op.mat)
    _fix_phases(vecs)
    vecs.setflags(write=False)
    return Spectrum(vals, vecs)


class _Slot(NamedTuple):
    """One coupling slot of a Kronecker sum: Y and its eigenpairs."""

    mat: np.ndarray
    values: np.ndarray
    vectors: np.ndarray  # column k pairs with values[k]


def _kronecker_slot(y: np.ndarray) -> _Slot:
    """Y with its eigendecomposition, made once and shared by every node
    that has the slot."""
    values, vectors = np.linalg.eigh(y)
    return _Slot(y, values, vectors)


class _KroneckerFactors(NamedTuple):
    """H0, X and the slots of H = H0 (x) 1 - X (x) K."""

    h0: np.ndarray
    x: np.ndarray
    slots: tuple[_Slot, ...]


def _diagonal_blocks(mat: np.ndarray, d0: int, before: int, n: int, after: int) -> np.ndarray:
    """The entries ((i, b, p, a), (j, b, q, a)) of a square ``mat`` on
    C^d0 (x) C^before (x) C^n (x) C^after, as a writable view indexed
    [i, j, p, q, b, a]: where X (x) 1 (x) Y (x) 1 can be nonzero."""
    row, col = mat.strides
    size = before * n * after
    return as_strided(mat, shape=(d0, d0, n, n, before, after),
                      strides=(row * size, col * size, row * after, col * after,
                               (row + col) * n * after, row + col))


def _kronecker_sum(space: str, h0: LinearOperator, x: LinearOperator, slots) -> LinearOperator:
    """H = H0 (x) 1 - X (x) K on ``space``, K = sum_mu 1 (x) Y_mu (x) 1 the
    Kronecker sum of the slots (`_kronecker_slot`), in order.

    Each entry is h0[i, j] less the products x[i, j] y_mu[p, q], slot by
    slot, as when X (x) (1 (x) Y_mu (x) 1) is subtracted from H0 (x) 1 one
    slot at a time.  The terms are written into the positions they fill, so
    no other dim x dim array is formed.  The operator keeps H0, X and the
    slots, from which `_block_spectrum` reads its spectrum.
    """
    h0._check_same_space(x)
    slots = tuple(slots)
    d0 = h0.dim
    dims = [slot.mat.shape[0] for slot in slots]
    total = math.prod(dims)
    mat = np.zeros((d0 * total, d0 * total),
                   dtype=np.result_type(h0.mat, x.mat, *(slot.mat for slot in slots)))
    _diagonal_blocks(mat, d0, total, 1, 1)[...] = h0.mat[:, :, None, None, None, None]
    for k, slot in enumerate(slots):
        view = _diagonal_blocks(mat, d0, math.prod(dims[:k]), dims[k], math.prod(dims[k + 1:]))
        view -= x.mat[:, :, None, None, None, None] * slot.mat[:, :, None, None]
    op = _adopt(space, mat)
    object.__setattr__(op, "_factors", _KroneckerFactors(h0.mat, x.mat, slots))
    return op


def _block_spectrum(op: LinearOperator) -> Spectrum:
    """The spectrum of a `_kronecker_sum` from its d0 x d0 blocks.

    The product V of the slots' eigenbases diagonalises K, so H is unitarily
    equivalent to the direct sum of the blocks H0 - k X, k running over the
    eigenvalues of K, each a sum of one eigenvalue per slot (Horn & Johnson,
    *Topics in Matrix Analysis*, 4.4).  One batched `eigh` of the blocks
    gives every eigenvalue.  The ground vector is phi (x) v, phi the lowest
    block eigenvector and v the column of V at its k, built in O(dim), and
    no dim x dim eigenbasis is formed.  The pair is kept only when one dense
    product confirms it, ||H psi - E psi|| <= BLOCK_RESIDUAL_TOL * ||H||;
    factors that disagree with the matrix raise `Inconsistent`.
    """
    op.require_hermitian()
    f = op._factors
    k = np.zeros(1)
    for slot in f.slots:
        k = (k[:, None] + slot.values).ravel()
    values, vectors = np.linalg.eigh(f.h0 - k[:, None, None] * f.x)
    block, level = divmod(int(values.argmin()), f.h0.shape[0])
    ground = vectors[block, :, level]
    for slot, column in zip(f.slots, np.unravel_index(block, [s.values.size for s in f.slots])):
        ground = np.multiply.outer(ground, slot.vectors[:, column]).ravel()
    _fix_phases(ground[:, None])
    eigenvalues = np.sort(values, axis=None)
    scale = max(-eigenvalues[0], eigenvalues[-1])
    residual = float(np.linalg.norm(op.mat @ ground - eigenvalues[0] * ground))
    if not residual <= BLOCK_RESIDUAL_TOL * scale:
        raise Inconsistent(f"block ground pair of the operator on {op.space!r} has residual "
                           f"{residual:.3e}, above {BLOCK_RESIDUAL_TOL:g} * ||H||")
    return Spectrum(eigenvalues, ground[:, None])


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
