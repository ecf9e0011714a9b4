"""Simplicial self-dual cones, read through generator coordinates.

A cone here is given by an orthonormal generator basis {u_i}; its members are
exactly the nonnegative real combinations of the generators.  For this class
membership, strict positivity and duality are coordinate tests, and tensor
products stay in the class, which is all the constructions downstream ever
need.

Orthants, their tensor products and the Marshall sign cones of `spin` have
generators u_i = s_i e_i with s_i = +-1.  Such a cone keeps its sign vector s
and reads every coordinate as one product with s_i: each entry of the dense
product is a single term times +-1, so the values are the same, and no
generator matrix or matrix product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .numerics import DEFAULT_TOL, LinearOperator, _freeze, _kron, _numeric, product_space

GENERATOR_ORTHO_TOL = 1e-10


class _SignBasis:
    """The generator stack diag(signs), orthonormal as every sign is +-1."""

    __slots__ = ("signs", "positive")

    def __init__(self, signs):
        signs = np.array(signs, dtype=float)
        if signs.ndim != 1 or signs.size < 1:
            raise DimMismatch(f"sign basis needs n >= 1 signs, got {signs.shape}")
        if not (np.abs(signs) == 1.0).all():
            raise ValueError("generators are not orthonormal")
        signs.setflags(write=False)
        self.signs = signs
        self.positive = bool((signs > 0).all())  # every sign is +1

    def matrix(self) -> np.ndarray:
        """The dense generator stack, read-only."""
        gen = np.diag(self.signs)
        gen.setflags(write=False)
        return gen

    def coords(self, x: np.ndarray) -> np.ndarray:
        """G^* x for a vector, or for a matrix column by column: row i of the
        result is signs[i] times row i of x, in a new array."""
        if self.positive:
            return x.copy()
        return x * self.signs.reshape((-1,) + (1,) * (x.ndim - 1))

    def operator_coords(self, mat: np.ndarray) -> np.ndarray:
        """G^* A G: entry (i, j) is signs[i] * A[i, j] * signs[j].  For the
        standard basis it is ``mat`` itself, uncopied."""
        if self.positive:
            return mat
        return mat * self.signs[:, None] * self.signs


@dataclass(frozen=True, eq=False)
class SelfDualCone:
    """Self-dual cone spanned by an orthonormal generator basis.

    ``generators`` stacks the generators as columns; the stack must be unitary,
    which is what makes the cone self-dual and the coordinate tests exact.
    A sign cone (see the module docstring) builds that matrix only when it
    is read, and answers every coordinate query without it.
    """

    space: str
    generators: np.ndarray
    _sign_basis = None  # not a field: the _SignBasis of a sign cone

    def __post_init__(self):
        gen = _freeze(self.generators)
        if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
            raise DimMismatch(f"generator stack must be square, got {gen.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram is a refusal
            err = np.abs(gen.conj().T @ gen - np.eye(gen.shape[0])).max()
        if not err <= GENERATOR_ORTHO_TOL:
            raise ValueError("generators are not orthonormal")
        object.__setattr__(self, "generators", gen)

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set: the generator
        # matrix of a sign cone, built on its first read
        if name != "generators" or self._sign_basis is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        gen = self._sign_basis.matrix()
        object.__setattr__(self, "generators", gen)
        return gen

    @property
    def dim(self) -> int:
        if self._sign_basis is not None:
            return self._sign_basis.signs.size
        return self.generators.shape[0]

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates <u_i|x> of a vector in the generator basis."""
        x = _numeric(x)
        if x.shape != (self.dim,):
            raise DimMismatch(f"vector shape {x.shape} on cone of dim {self.dim}")
        if self._sign_basis is not None:
            return self._sign_basis.coords(x)
        return self.generators.conj().T @ x

    def _check_operator(self, op: LinearOperator) -> None:
        if op.dim != self.dim or op.space != self.space:
            raise DimMismatch(
                f"operator on {op.space!r} (dim {op.dim}) vs cone on "
                f"{self.space!r} (dim {self.dim})"
            )

    def operator_coords(self, op: LinearOperator) -> np.ndarray:
        """Matrix of an operator expressed in the generator basis.  On an
        orthant or a tensor product of orthants it is ``op.mat`` itself,
        which is read-only."""
        self._check_operator(op)
        if self._sign_basis is not None:
            return self._sign_basis.operator_coords(op.mat)
        return self.generators.conj().T @ op.mat @ self.generators

    def _base_signs(self, op: LinearOperator, d0: int) -> np.ndarray | None:
        """For an operator on this cone's space whose first tensor factor
        has dimension ``d0``: the sign t[a] of the generator on every row
        (a, s), when the cone is a sign cone whose signs are constant on each
        fiber {a} x S, and None for any other cone.  Its generator-basis
        matrix is then the operator's entries times t[a] t[b]."""
        self._check_operator(op)
        if self._sign_basis is None:
            return None
        signs = self._sign_basis.signs.reshape(d0, -1)
        return signs[:, 0] if (signs == signs[:, :1]).all() else None

    def _column_coords(self, mat: np.ndarray) -> np.ndarray:
        """G^* M: the generator coordinates of every column of M."""
        if self._sign_basis is not None:
            return self._sign_basis.coords(mat)
        return self.generators.conj().T @ mat

    def _pulled_generators(self, tau: np.ndarray) -> np.ndarray:
        """tau^* G: every generator pulled back through the isometry tau, as
        columns.  For a sign cone, column j is s_j conj(tau[j])."""
        if self._sign_basis is None:
            return tau.conj().T @ self.generators
        pulled = self._sign_basis.coords(tau)
        np.conjugate(pulled, out=pulled)
        return pulled.T

    def strictly_positive(self, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        """Strict positivity: every generator coordinate >= +tol*|x|.

        Every nonzero cone member dominates a positive multiple of some
        generator, so pairing strictly with all generators is equivalent to
        pairing strictly with every nonzero member.  The zero vector is a
        member but never strictly positive.
        """
        c = self.coords(x)
        scale = float(np.linalg.norm(x))
        if scale == 0.0:
            return False
        return bool(
            (c.real >= tol * scale).all() and (np.abs(c.imag) <= tol * scale).all()
        )


def _signed_cone(space: str, signs) -> SelfDualCone:
    """The cone with generators signs[i] * e_i, kept as its sign vector."""
    cone = object.__new__(SelfDualCone)
    object.__setattr__(cone, "space", space)
    object.__setattr__(cone, "_sign_basis", _SignBasis(signs))
    return cone


def orthant(space: str, n: int) -> SelfDualCone:
    """The nonnegative orthant: standard-basis generators e_1..e_n."""
    if n < 1:
        raise ValueError("orthant dimension must be >= 1")
    return _signed_cone(space, np.ones(n))


def tensor_cone(p: SelfDualCone, q: SelfDualCone) -> SelfDualCone:
    """Conical hull of {u_i (x) v_j}: the self-dual cone of the product space.

    Generator order follows the Kronecker convention, (i, j) -> i*dim(q)+j.
    The product of two sign cones is one again, with signs s_i t_j.
    """
    space = product_space(p.space, q.space)
    if p._sign_basis is not None and q._sign_basis is not None:
        return _signed_cone(space, np.outer(p._sign_basis.signs, q._sign_basis.signs).ravel())
    return SelfDualCone(space, _kron(p.generators, q.generators))
