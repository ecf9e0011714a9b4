"""Spin-1/2 systems on a bipartite site set: spin operators, the
Marshall-Lieb-Mattis Hamiltonian, magnetization sectors, the Marshall-sign
cone, and the ground-state total-spin verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import SelfDualCone
from .errors import DimCap, PreconditionFailed, SignRuleFailed
from .inheritance import Embedding
from .numerics import DEFAULT_TOL, LinearOperator
from .positivity import generates_improving_semigroup
from .stability import good_quantum_number

SITE_CAP = 12

_HALF_PAULI = (
    np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
)


@dataclass(frozen=True)
class SpinSystem:
    """N spin-1/2 sites (labelled 1..N) split into two sublattices."""

    sites: int
    sublattice_a: tuple[int, ...]
    sublattice_b: tuple[int, ...]

    def __post_init__(self):
        a, b = set(self.sublattice_a), set(self.sublattice_b)
        if a & b:
            raise ValueError(f"sublattices overlap: {sorted(a & b)}")
        if a | b != set(range(1, self.sites + 1)):
            raise ValueError("sublattices must cover all sites exactly")
        object.__setattr__(self, "sublattice_a", tuple(sorted(a)))
        object.__setattr__(self, "sublattice_b", tuple(sorted(b)))

    @property
    def space(self) -> str:
        return f"spins{self.sites}"

    @property
    def dim(self) -> int:
        return 2 ** self.sites


def _check_cap(n: int) -> None:
    if n > SITE_CAP:
        raise DimCap(f"{n} sites exceed the {SITE_CAP}-site cap")
    if n < 1:
        raise ValueError("need at least one site")


def _site_operator(n: int, site: int, component: int) -> np.ndarray:
    # site is 1-based; site 1 is the leftmost (most significant) tensor factor
    before = 2 ** (site - 1)
    after = 2 ** (n - site)
    return np.kron(np.kron(np.eye(before), _HALF_PAULI[component]), np.eye(after))


def spin_operators(n: int) -> list[tuple[LinearOperator, LinearOperator, LinearOperator]]:
    """Per-site spin operators (S^x, S^y, S^z), each half a Pauli matrix."""
    _check_cap(n)
    space = f"spins{n}"
    return [
        tuple(LinearOperator(space, _site_operator(n, x, j)) for j in range(3))
        for x in range(1, n + 1)
    ]


def _collective(n: int, sites: tuple[int, ...], component: int) -> np.ndarray:
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for x in sites:
        total += _site_operator(n, x, component)
    return total


def mlm_hamiltonian(system: SpinSystem) -> LinearOperator:
    """S_A . S_B: every site of one sublattice coupled to every site of the other."""
    _check_cap(system.sites)
    n = system.sites
    mat = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(3):
        mat += _collective(n, system.sublattice_a, j) @ _collective(n, system.sublattice_b, j)
    return LinearOperator(system.space, mat)


def heisenberg_hamiltonian(system: SpinSystem,
                           edges: tuple[tuple[int, int], ...]) -> LinearOperator:
    """sum over edges of S_x . S_y, for an arbitrary coupling graph."""
    _check_cap(system.sites)
    n = system.sites
    mat = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for x, y in edges:
        for j in range(3):
            mat += _site_operator(n, x, j) @ _site_operator(n, y, j)
    return LinearOperator(system.space, mat)


def total_spin(n: int) -> tuple[LinearOperator, LinearOperator]:
    """(S_tot^2, S_tot^z); the first has eigenvalues S(S+1)."""
    _check_cap(n)
    space = f"spins{n}"
    everything = tuple(range(1, n + 1))
    sq = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(3):
        comp = _collective(n, everything, j)
        sq += comp @ comp
    return LinearOperator(space, sq), LinearOperator(space, _collective(n, everything, 2))


def _down_count(index: int) -> int:
    return bin(index).count("1")


@dataclass(frozen=True, eq=False)
class MSector:
    """The kernel of S_tot^z - M, realized as an explicit isometric subspace.

    Basis states are the Ising configurations with the right number of down
    spins, listed by ascending computational-basis index.
    """

    m: float
    indices: tuple[int, ...]
    embedding: Embedding

    @property
    def dim(self) -> int:
        return len(self.indices)


def m_sector(n: int, m: float) -> MSector:
    """Build the magnetization-M subspace of n spins."""
    _check_cap(n)
    downs = n / 2.0 - m
    if abs(downs - round(downs)) > 1e-12 or not 0 <= round(downs) <= n:
        raise PreconditionFailed(f"sector M={m} is empty for {n} sites")
    k = int(round(downs))
    indices = tuple(i for i in range(2 ** n) if _down_count(i) == k)
    tau = np.zeros((2 ** n, len(indices)))
    for col, idx in enumerate(indices):
        tau[idx, col] = 1.0
    emb = Embedding(f"spins{n}_M{m:g}", f"spins{n}", tau)
    return MSector(m, indices, emb)


def _marshall_signs(system: SpinSystem, sector: MSector) -> np.ndarray:
    signs = np.empty(sector.dim)
    for col, idx in enumerate(sector.indices):
        downs_on_a = sum(
            1 for site in system.sublattice_a if (idx >> (system.sites - site)) & 1
        )
        signs[col] = -1.0 if downs_on_a % 2 else 1.0
    return signs


def marshall_cone(system: SpinSystem, sector: MSector,
                  hamiltonian: LinearOperator | None = None,
                  tol: float = DEFAULT_TOL) -> SelfDualCone:
    """Sign-rule cone on a sector: generators eps(sigma)|sigma>, with eps the
    parity of down spins on sublattice A.

    Validity is not assumed: the restricted Hamiltonian (Marshall-Lieb-Mattis
    by default) must come out Metzler in this basis, in both the A and the B
    sign gauge, or the construction aborts.
    """
    if hamiltonian is None:
        hamiltonian = mlm_hamiltonian(system)
    restricted = sector.embedding.compress(hamiltonian).mat
    scale = max(float(np.abs(restricted).max()), 1e-300)
    for sub, gauge in ((system.sublattice_a, "A"), (system.sublattice_b, "B")):
        gauged = SpinSystem(system.sites, sub, tuple(
            s for s in range(1, system.sites + 1) if s not in sub))
        signs = _marshall_signs(gauged, sector)
        conjugated = restricted * np.outer(signs, signs)
        off = conjugated.real.copy()
        np.fill_diagonal(off, -np.inf)
        if off.max() > tol * scale:
            raise SignRuleFailed(
                f"restricted Hamiltonian is not Metzler in the {gauge}-gauge sign basis"
            )
    signs = _marshall_signs(system, sector)
    return SelfDualCone(sector.embedding.from_space, np.diag(signs).astype(complex),
                        label=f"marshall_M{sector.m:g}")


@dataclass(frozen=True)
class MlmReport:
    """Ground-state total-spin verification on one magnetization sector."""

    sites: int
    sublattice_a: tuple[int, ...]
    sublattice_b: tuple[int, ...]
    m: float
    sector_dim: int
    s_star: float
    mu: float
    mu_snapped: float
    expected: float
    ok: bool
    ground_energy: float
    gap01: float

    def to_payload(self) -> dict:
        return {
            "sites": self.sites,
            "sublattice_a": list(self.sublattice_a),
            "sublattice_b": list(self.sublattice_b),
            "sector_m": self.m,
            "sector_dim": self.sector_dim,
            "s_star": self.s_star,
            "mu": self.mu,
            "mu_snapped": self.mu_snapped,
            "expected": self.expected,
            "ok": self.ok,
            "ground_energy": self.ground_energy,
            "gap01": self.gap01,
        }


def verify_mlm(system: SpinSystem, m: float = 0.0, tol: float = DEFAULT_TOL) -> MlmReport:
    """Check that the sector ground state carries total spin S = max(S*, |M|),
    with S* = ||A|-|B||/2 the spin of the absolute ground state.

    The quantum number of the restricted Hamiltonian with respect to the
    restricted S_tot^2 must equal S(S+1) after snapping.
    """
    sector = m_sector(system.sites, m)
    h = mlm_hamiltonian(system)
    cone = marshall_cone(system, sector, h, tol)
    h_r = sector.embedding.compress(h)
    s_sq, _ = total_spin(system.sites)
    o_r = sector.embedding.compress(s_sq)
    if not generates_improving_semigroup(h_r, cone, tol):
        raise SignRuleFailed("restricted Hamiltonian is not improving-class on the sign cone")
    gqn = good_quantum_number(h_r, o_r, cone, tol)
    s_star = abs(len(system.sublattice_a) - len(system.sublattice_b)) / 2.0
    s = max(s_star, abs(m))
    expected = s * (s + 1.0)
    ok = abs(gqn.snapped - expected) <= 1e-8
    return MlmReport(system.sites, system.sublattice_a, system.sublattice_b,
                     m, sector.dim, s_star, gqn.value, gqn.snapped, expected, ok,
                     gqn.ground.energy, gqn.gap01)


def complete_bipartite_edges(system: SpinSystem) -> tuple[tuple[int, int], ...]:
    return tuple(
        (x, y) for x in system.sublattice_a for y in system.sublattice_b
    )


def all_sector_dims(n: int) -> dict[float, int]:
    """Dimension of every magnetization sector; they must sum to 2^n."""
    _check_cap(n)
    return {
        n / 2.0 - k: math.comb(n, k) for k in range(n + 1)
    }
