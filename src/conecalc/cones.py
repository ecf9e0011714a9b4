"""Simplicial self-dual cones, read through generator coordinates.

A cone here is given by an orthonormal generator basis {u_i}; its members are
exactly the nonnegative real combinations of the generators.  For this class
membership, strict positivity and duality are coordinate tests, and tensor
products stay in the class, which is all the constructions downstream ever
need.

Orthants, their tensor products and the Marshall sign cones of `spin` have
signed-permutation generators, u_i = s_i e_{r_i} with s_i = +-1.  Such a cone
keeps (r, s) and reads every coordinate by gather: each entry of the dense
product is a single term times +-1, so the values are the same, and no
generator matrix or matrix product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .numerics import DEFAULT_TOL, LinearOperator, _freeze, _kron, _numeric, product_space

GENERATOR_ORTHO_TOL = 1e-10


class _SignedPermutation:
    """The generator stack whose column i is signs[i] * e_{rows[i]}.

    It is orthonormal exactly when ``rows`` is a permutation of 0..n-1 and
    every sign is +1 or -1, which is checked in O(n) when rows are in order.
    """

    __slots__ = ("rows", "signs", "in_order", "positive")

    def __init__(self, rows, signs):
        rows = np.array(rows, dtype=np.intp)
        signs = np.array(signs, dtype=float)
        n = rows.size
        if n < 1 or rows.shape != (n,) or signs.shape != (n,):
            raise DimMismatch(f"signed permutation needs n >= 1 rows and signs, got "
                              f"{rows.shape} and {signs.shape}")
        in_order = bool((rows == np.arange(n)).all())
        permutes = in_order or bool((np.sort(rows) == np.arange(n)).all())
        if not permutes or not (np.abs(signs) == 1.0).all():
            raise ValueError("generators are not orthonormal")
        rows.setflags(write=False)
        signs.setflags(write=False)
        self.rows = rows
        self.signs = signs
        self.in_order = in_order  # rows is 0..n-1
        self.positive = bool((signs > 0).all())  # every sign is +1

    def matrix(self) -> np.ndarray:
        """The dense generator stack, read-only."""
        gen = np.zeros((self.rows.size, self.rows.size))
        gen[self.rows, np.arange(self.rows.size)] = self.signs
        gen.setflags(write=False)
        return gen

    def coords(self, x: np.ndarray) -> np.ndarray:
        """G^* x for a vector, or for a matrix column by column: row i of the
        result is signs[i] times row rows[i] of x, in a new array."""
        out = x[self.rows]
        if not self.positive:
            out *= self.signs.reshape((-1,) + (1,) * (out.ndim - 1))
        return out

    def operator_coords(self, mat: np.ndarray) -> np.ndarray:
        """G^* A G: entry (i, j) is signs[i] * A[rows[i], rows[j]] * signs[j].
        For the standard basis it is ``mat`` itself, uncopied."""
        if self.positive and self.in_order:
            return mat
        out = mat.copy() if self.in_order else mat[np.ix_(self.rows, self.rows)]
        if not self.positive:
            out *= self.signs[:, None]
            out *= self.signs
        return out


@dataclass(frozen=True, eq=False)
class SelfDualCone:
    """Self-dual cone spanned by an orthonormal generator basis.

    ``generators`` stacks the generators as columns; the stack must be unitary,
    which is what makes the cone self-dual and the coordinate tests exact.
    A signed-permutation cone (see the module docstring) builds that matrix
    only when it is read, and answers every coordinate query without it.
    """

    space: str
    generators: np.ndarray
    label: str = ""
    _perm = None  # not a field: the _SignedPermutation of a signed-permutation cone

    def __post_init__(self):
        gen = _freeze(self.generators)
        if gen.ndim != 2 or gen.shape[0] != gen.shape[1]:
            raise DimMismatch(f"generator stack must be square, got {gen.shape}")
        gram = gen.conj().T @ gen
        if np.abs(gram - np.eye(gen.shape[0])).max() > GENERATOR_ORTHO_TOL:
            raise ValueError("generators are not orthonormal")
        object.__setattr__(self, "generators", gen)

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set: the generator
        # matrix of a signed-permutation cone, built on its first read
        if name != "generators" or self._perm is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        gen = self._perm.matrix()
        object.__setattr__(self, "generators", gen)
        return gen

    @property
    def dim(self) -> int:
        if self._perm is not None:
            return self._perm.rows.size
        return self.generators.shape[0]

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates <u_i|x> of a vector in the generator basis."""
        x = _numeric(x)
        if x.shape != (self.dim,):
            raise DimMismatch(f"vector shape {x.shape} on cone of dim {self.dim}")
        if self._perm is not None:
            return self._perm.coords(x)
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
        if self._perm is not None:
            return self._perm.operator_coords(op.mat)
        return self.generators.conj().T @ op.mat @ self.generators

    def _base_signs(self, op: LinearOperator, d0: int) -> np.ndarray | None:
        """For an operator on this cone's space whose first tensor factor
        has dimension ``d0``: the sign t[a] of the generator on every row
        (a, s), when the cone is a signed permutation of the first factor
        alone tensored with the orthant of the rest, and None for any other
        cone.  Its generator-basis matrix is then the operator's entries
        times t[a] t[b], with rows and columns permuted together."""
        self._check_operator(op)
        if self._perm is None:
            return None
        rows, signs, n = self._perm.rows, self._perm.signs, self.dim // d0
        if self._perm.in_order and self._perm.positive:
            return np.ones(d0)
        base = rows[::n] // n
        if not (np.array_equal(rows, (base[:, None] * n + np.arange(n)).ravel())
                and np.array_equal(signs, np.repeat(signs[::n], n))):
            return None
        out = np.empty(d0)
        out[base] = signs[::n]
        return out

    def _column_coords(self, mat: np.ndarray) -> np.ndarray:
        """G^* M: the generator coordinates of every column of M."""
        if self._perm is not None:
            return self._perm.coords(mat)
        return self.generators.conj().T @ mat

    def _pulled_generators(self, tau: np.ndarray) -> np.ndarray:
        """tau^* G: every generator pulled back through the isometry tau, as
        columns.  For a signed permutation, column j is s_j conj(tau[r_j])."""
        if self._perm is None:
            return tau.conj().T @ self.generators
        pulled = self._perm.coords(tau)
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


def _signed_permutation_cone(space: str, rows, signs, label: str = "") -> SelfDualCone:
    """The cone with generators signs[i] * e_{rows[i]}, kept in that form."""
    perm = _SignedPermutation(rows, signs)
    cone = object.__new__(SelfDualCone)
    for name, value in (("space", space), ("label", label), ("_perm", perm)):
        object.__setattr__(cone, name, value)
    return cone


def orthant(space: str, n: int, label: str = "") -> SelfDualCone:
    """The nonnegative orthant: standard-basis generators e_1..e_n."""
    if n < 1:
        raise ValueError("orthant dimension must be >= 1")
    return _signed_permutation_cone(space, np.arange(n), np.ones(n), label or f"R+^{n}")


def tensor_cone(p: SelfDualCone, q: SelfDualCone, label: str = "") -> SelfDualCone:
    """Conical hull of {u_i (x) v_j}: the self-dual cone of the product space.

    Generator order follows the Kronecker convention, (i, j) -> i*dim(q)+j.
    The product of two signed-permutation cones is one again: generator
    (i, j) is s_i t_j e_{r_i * dim(q) + r'_j}.
    """
    space = product_space(p.space, q.space)
    label = label or f"{p.label or p.space}(x){q.label or q.space}"
    if p._perm is not None and q._perm is not None:
        rows = (p._perm.rows[:, None] * q.dim + q._perm.rows).ravel()
        signs = np.outer(p._perm.signs, q._perm.signs).ravel()
        return _signed_permutation_cone(space, rows, signs, label)
    return SelfDualCone(space, _kron(p.generators, q.generators), label)
