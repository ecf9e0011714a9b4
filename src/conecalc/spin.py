"""Spin-1/2 systems on a bipartite site set: spin operators, the
Marshall-Lieb-Mattis Hamiltonian, magnetization sectors, the Marshall-sign
cone, and the ground-state total-spin verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cones import SelfDualCone, _signed_permutation_cone
from .errors import DimCap, PreconditionFailed, SignRuleFailed
from .inheritance import Embedding
from .numerics import DEFAULT_TOL, LinearOperator, _kron, hermitian_eig
from .positivity import NodeAnalysis
from .stability import _quantum_number

SITE_CAP = 12

_HALF_PAULI = (
    np.array([[0.0, 0.5], [0.5, 0.0]]),
    np.array([[0.0, -0.5j], [0.5j, 0.0]]),
    np.array([[0.5, 0.0], [0.0, -0.5]]),
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
    return _kron(_kron(np.eye(before), _HALF_PAULI[component]), np.eye(after))


def spin_operators(n: int) -> list[tuple[LinearOperator, LinearOperator, LinearOperator]]:
    """Per-site spin operators (S^x, S^y, S^z), each half a Pauli matrix."""
    _check_cap(n)
    space = f"spins{n}"
    return [
        tuple(LinearOperator(space, _site_operator(n, x, j)) for j in range(3))
        for x in range(1, n + 1)
    ]


def _bits(n: int, basis: np.ndarray, site: int) -> np.ndarray:
    """Bit of `site` in each basis index: 0 = up, 1 = down."""
    return (basis >> (n - site)) & 1


def _down_count(n: int, basis: np.ndarray) -> np.ndarray:
    return sum(_bits(n, basis, x) for x in range(1, n + 1))


def _exchange(n: int, basis: np.ndarray, pairs) -> np.ndarray:
    """sum over (x, y) in pairs of S_x . S_y, on the span of the ascending
    computational-basis states `basis`.

    S_x . S_y = S_x^z S_y^z + (S_x^+ S_y^- + S_x^- S_y^+) / 2.  The first term
    is +1/4 where bits x and y agree and -1/4 where they differ; the second
    joins two states that differ by swapping those bits, with amplitude 1/2.
    Every entry is dyadic, so the matrix equals the compression of the
    kron-built operator exactly.
    """
    dim = basis.size
    mat = np.zeros((dim, dim))
    diag = np.zeros(dim)
    rows = np.arange(dim)
    for x, y in pairs:
        differ = (_bits(n, basis, x) ^ _bits(n, basis, y)).astype(bool)
        diag += np.where(differ, -0.25, 0.25)
        swapped = basis[differ] ^ ((1 << (n - x)) | (1 << (n - y)))
        mat[rows[differ], np.searchsorted(basis, swapped)] += 0.5
    mat[rows, rows] = diag
    return mat


def _bipartite_pairs(system: SpinSystem) -> list[tuple[int, int]]:
    return [(x, y) for x in system.sublattice_a for y in system.sublattice_b]


def _total_spin_sq(n: int, basis: np.ndarray) -> np.ndarray:
    # S_tot^2 = sum_x S_x . S_x + 2 sum_{x<y} S_x . S_y, and S_x . S_x = 3/4
    mat = 2.0 * _exchange(n, basis, itertools.combinations(range(1, n + 1), 2))
    mat[np.diag_indices(basis.size)] += 0.75 * n
    return mat


def mlm_hamiltonian(system: SpinSystem) -> LinearOperator:
    """S_A . S_B: every site of one sublattice coupled to every site of the other."""
    _check_cap(system.sites)
    n = system.sites
    return LinearOperator(system.space, _exchange(n, np.arange(2 ** n), _bipartite_pairs(system)))


def total_spin(n: int) -> tuple[LinearOperator, LinearOperator]:
    """(S_tot^2, S_tot^z); the first has eigenvalues S(S+1)."""
    _check_cap(n)
    space = f"spins{n}"
    basis = np.arange(2 ** n)
    return (LinearOperator(space, _total_spin_sq(n, basis)),
            LinearOperator(space, np.diag(n / 2.0 - _down_count(n, basis))))


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


def _sector_basis(n: int, m: float) -> np.ndarray:
    """Ascending indices of the Ising configurations with magnetization m."""
    _check_cap(n)
    downs = n / 2.0 - m
    if abs(downs - round(downs)) > 1e-12 or not 0 <= round(downs) <= n:
        raise PreconditionFailed(f"sector M={m} is empty for {n} sites")
    basis = np.arange(2 ** n)
    return basis[_down_count(n, basis) == round(downs)]


def _sector_space(n: int, m: float) -> str:
    return f"spins{n}_M{m:g}"


def m_sector(n: int, m: float) -> MSector:
    """Build the magnetization-M subspace of n spins."""
    basis = _sector_basis(n, m)
    tau = np.zeros((2 ** n, basis.size))
    tau[basis, np.arange(basis.size)] = 1.0
    emb = Embedding(_sector_space(n, m), f"spins{n}", tau)
    return MSector(m, tuple(int(i) for i in basis), emb)


def _marshall_signs(n: int, sublattice: tuple[int, ...], basis: np.ndarray) -> np.ndarray:
    """(-1)^(number of down spins on the sublattice) for each basis state."""
    parity = np.zeros(basis.size, dtype=basis.dtype)
    for site in sublattice:
        parity ^= _bits(n, basis, site)
    return 1.0 - 2.0 * parity


def _sign_cone(system: SpinSystem, m: float, basis: np.ndarray, restricted: np.ndarray,
               tol: float) -> SelfDualCone:
    """The Marshall-sign cone of a sector, once the sector matrix of the
    Hamiltonian is Metzler in both the A and the B sign gauge."""
    n = system.sites
    scale = max(float(np.abs(restricted).max()), 1e-300)
    signs_a = _marshall_signs(n, system.sublattice_a, basis)
    for signs, gauge in ((signs_a, "A"), (_marshall_signs(n, system.sublattice_b, basis), "B")):
        off = (restricted * np.outer(signs, signs)).real.copy()
        np.fill_diagonal(off, -np.inf)
        if off.max() > tol * scale:
            raise SignRuleFailed(
                f"restricted Hamiltonian is not Metzler in the {gauge}-gauge sign basis"
            )
    return _signed_permutation_cone(_sector_space(n, m), np.arange(basis.size), signs_a,
                                    label=f"marshall_M{m:g}")


def marshall_cone(system: SpinSystem, sector: MSector,
                  hamiltonian: LinearOperator | None = None,
                  tol: float = DEFAULT_TOL) -> SelfDualCone:
    """Sign-rule cone on a sector: generators eps(sigma)|sigma>, with eps the
    parity of down spins on sublattice A.

    Validity is not assumed: the restricted Hamiltonian (Marshall-Lieb-Mattis
    by default, built in the sector basis) must come out Metzler in this
    basis, in both the A and the B sign gauge, or the construction aborts.
    """
    basis = np.asarray(sector.indices, dtype=np.int64)
    if hamiltonian is None:
        restricted = _exchange(system.sites, basis, _bipartite_pairs(system))
    else:
        restricted = sector.embedding.compress(hamiltonian).mat
    return _sign_cone(system, sector.m, basis, restricted, tol)


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
    n = system.sites
    basis = _sector_basis(n, m)
    h = _exchange(n, basis, _bipartite_pairs(system))
    cone = _sign_cone(system, m, basis, h, tol)
    h_r = LinearOperator(cone.space, h)
    o_r = LinearOperator(cone.space, _total_spin_sq(n, basis))
    node = NodeAnalysis(h_r, cone, tol)
    if not node.improving:
        raise SignRuleFailed("restricted Hamiltonian is not improving-class on the sign cone")
    o_spectrum = hermitian_eig(o_r)
    mu, mu_snapped = _quantum_number(node, o_r, o_spectrum.norm, o_spectrum.eigenvalues)
    s_star = abs(len(system.sublattice_a) - len(system.sublattice_b)) / 2.0
    s = max(s_star, abs(m))
    expected = s * (s + 1.0)
    ok = abs(mu_snapped - expected) <= 1e-8
    return MlmReport(system.sites, system.sublattice_a, system.sublattice_b,
                     m, basis.size, s_star, mu, mu_snapped, expected, ok,
                     node.ground.energy, node.ground.gap01)

