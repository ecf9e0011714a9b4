"""Dense linear-algebra substrate: Hermitian eigendecomposition, operator
exponentials, tensor products, partial trace.

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

from dataclasses import dataclass, field

import numpy as np

from .errors import BadFactorization, DimMismatch, NonHermitian, NotDensityMatrix

DEFAULT_TOL = 1e-9
HERMITIAN_TOL = 1e-12
DIM_CAP = 4096


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
    complex128 otherwise."""

    space: str
    mat: np.ndarray

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

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        scale = max(np.abs(self.mat).max(), 1e-300)
        return float(np.abs(self.mat - self.mat.conj().T).max()) <= tol * scale

    def require_hermitian(self, tol: float = HERMITIAN_TOL) -> None:
        """Raise `NonHermitian` unless `is_hermitian(tol)`.  The matrix is
        immutable, so a passed check is remembered for its tolerance and
        not repeated."""
        passed = self.__dict__.setdefault("_hermitian_at", set())
        if tol in passed:
            return
        if not self.is_hermitian(tol):
            raise NonHermitian(f"operator on {self.space!r} is not Hermitian")
        passed.add(tol)

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
    """Full Hermitian spectrum, ascending, with phase-fixed eigenvectors."""

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


def op_exp(op: LinearOperator, t: float) -> LinearOperator:
    """exp(t*M) for Hermitian M, via eigendecomposition.

    The eigenbasis route keeps the semigroup law exact to rounding, which the
    positivity checks downstream rely on much more than on speed.
    """
    op.require_hermitian()
    if not np.isfinite(t):
        raise ValueError("time parameter must be finite")
    vals, vecs = np.linalg.eigh(op.mat)
    out = (vecs * np.exp(float(t) * vals)) @ vecs.conj().T
    return _adopt(op.space, 0.5 * (out + out.conj().T))


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


def _check_density(mat: np.ndarray, tol: float = 1e-10) -> None:
    scale = max(np.abs(mat).max(), 1.0)
    if np.abs(mat - mat.conj().T).max() > tol * scale:
        raise NotDensityMatrix("not Hermitian")
    if abs(np.trace(mat).real - 1.0) > tol or abs(np.trace(mat).imag) > tol:
        raise NotDensityMatrix(f"trace is {np.trace(mat):.3e}, expected 1")
    if np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min() < -tol:
        raise NotDensityMatrix("negative eigenvalue")


def partial_trace(rho: LinearOperator, keep_dim: int) -> LinearOperator:
    """Trace out the second tensor factor of a density matrix.

    ``rho`` acts on a product space whose first factor has dimension
    ``keep_dim``; the result is the reduced density matrix on that factor.
    """
    d = rho.dim
    if keep_dim < 1 or d % keep_dim != 0:
        raise BadFactorization(f"dim {d} does not factor with first factor {keep_dim}")
    env_dim = d // keep_dim
    _check_density(rho.mat)
    blocks = rho.mat.reshape(keep_dim, env_dim, keep_dim, env_dim)
    reduced = np.einsum("ijkj->ik", blocks)
    return LinearOperator(f"{rho.space}[0:{keep_dim}]", reduced)
