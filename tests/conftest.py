"""Shared random-instance builders and independent oracles for the tests.

Oracles here deliberately avoid the code paths they check: matrix
exponentials come from scipy's Pade implementation, ergodicity from explicit
matrix powers, and simplex integrals from composite Simpson quadrature.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from conecalc import inheritance, lattice
from conecalc.numerics import LinearOperator


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_hermitian(gen: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_real_symmetric(gen: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = gen.normal(size=(n, n))
    return scale * 0.5 * (a + a.T)


def random_metzler_generator(gen: np.random.Generator, n: int,
                             block_split: int | None = None) -> np.ndarray:
    """Random Hermitian H with nonpositive off-diagonal entries.

    With ``block_split`` = k, all coupling between the first k and the last
    n-k coordinates is removed, making H reducible.
    """
    h = random_real_symmetric(gen, n)
    off = -np.abs(h)
    np.fill_diagonal(off, np.diag(h))
    if block_split is not None:
        off[:block_split, block_split:] = 0.0
        off[block_split:, :block_split] = 0.0
    return off


def random_nonneg_irreducible(gen: np.random.Generator, n: int) -> np.ndarray:
    """Entrywise nonnegative symmetric matrix with a connected support graph."""
    m = np.abs(random_real_symmetric(gen, n))
    for i in range(n):  # a ring keeps every pair connected
        j = (i + 1) % n
        m[i, j] = m[j, i] = max(m[i, j], 0.5)
    return m


def random_density(gen: np.random.Generator, n: int) -> np.ndarray:
    a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unit(gen: np.random.Generator, n: int, real: bool = False) -> np.ndarray:
    v = gen.normal(size=n) if real else gen.normal(size=n) + 1j * gen.normal(size=n)
    return v / np.linalg.norm(v)


def op(space: str, mat) -> LinearOperator:
    return LinearOperator(space, np.asarray(mat, dtype=complex))


@pytest.fixture
def arrow_calls(monkeypatch) -> list:
    """Records every `check_arrow` call, under whichever module binds it."""
    calls = []
    original = inheritance.check_arrow

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (inheritance, lattice):
        if getattr(module, "check_arrow", None) is original:
            monkeypatch.setattr(module, "check_arrow", counting)
    return calls


def expm_oracle(mat: np.ndarray) -> np.ndarray:
    """Independent matrix exponential (scaling-and-squaring, not eigenbasis)."""
    return expm(np.asarray(mat, dtype=complex))


def power_connectivity_oracle(m: np.ndarray, max_k: int) -> np.ndarray:
    """least_k[i, j] via explicit matrix powers: smallest k with (M^k)_ij > 0."""
    n = m.shape[0]
    table = -np.ones((n, n), dtype=int)
    power = np.eye(n)
    for k in range(max_k + 1):
        hit = (power > 1e-12) & (table < 0)
        table[hit] = k
        power = power @ m
    return table


def simpson_weights(num_points: int, length: float) -> np.ndarray:
    """Composite Simpson weights on [0, length] with an odd number of nodes."""
    assert num_points % 2 == 1 and num_points >= 3
    h = length / (num_points - 1)
    w = np.ones(num_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def duhamel_term_oracle(a: np.ndarray, b: np.ndarray, beta: float, order: int,
                        num_points: int = 81) -> np.ndarray:
    """Simplex integral of B(s_1)...B(s_order) e^{-beta A}, B(s) = e^{-sA} B e^{sA}.

    Composite Simpson per axis; order 0 returns e^{-beta A} directly.
    """
    if order == 0:
        return expm_oracle(-beta * a)
    if order == 1:
        nodes = np.linspace(0.0, beta, num_points)
        w = simpson_weights(num_points, beta)
        total = np.zeros_like(a, dtype=complex)
        for s, ws in zip(nodes, w):
            total += ws * expm_oracle(-s * a) @ b @ expm_oracle(-(beta - s) * a)
        return total
    if order == 2:
        outer_nodes = np.linspace(0.0, beta, num_points)
        outer_w = simpson_weights(num_points, beta)
        total = np.zeros_like(a, dtype=complex)
        for s2, w2 in zip(outer_nodes, outer_w):
            if s2 == 0.0:
                continue
            inner_nodes = np.linspace(0.0, s2, num_points)
            inner_w = simpson_weights(num_points, s2)
            inner = np.zeros_like(a, dtype=complex)
            for s1, w1 in zip(inner_nodes, inner_w):
                inner += w1 * (expm_oracle(-s1 * a) @ b @ expm_oracle((s1 - s2) * a) @ b
                               @ expm_oracle(-(beta - s2) * a))
            total += w2 * inner
        return total
    raise ValueError("oracle implemented for orders 0..2 only")
