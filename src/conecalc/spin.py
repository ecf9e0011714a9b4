"""Spin-1/2 systems on a bipartite site set: the Marshall-Lieb-Mattis
Hamiltonian, magnetization sectors, the Marshall-sign cone, and the
ground-state total-spin verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cones import SelfDualCone, _signed_cone
from .errors import DimCap, PreconditionFailed, SignRuleFailed
from .inheritance import Embedding
from .numerics import DEFAULT_TOL, LinearOperator
from .positivity import NodeAnalysis, generates_positive_semigroup
from .stability import _quantum_numbers

SITE_CAP = 12
SECTOR_TOL = 1e-12  # a sector is non-empty when n/2 - M is within this of a whole number


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


def _bits(n: int, basis: np.ndarray, site: int) -> np.ndarray:
    """Bit of `site` in each basis index: 0 = up, 1 = down."""
    return (basis >> (n - site)) & 1


def _down_count(n: int, basis: np.ndarray) -> np.ndarray:
    return sum(_bits(n, basis, x) for x in range(1, n + 1))


def _exchange(n: int, basis: np.ndarray, pairs) -> np.ndarray:
    """sum over (x, y) in pairs of S_x . S_y, on the span of the ascending
    computational-basis states `basis`; the pairs are distinct.

    S_x . S_y = S_x^z S_y^z + (S_x^+ S_y^- + S_x^- S_y^+) / 2.  The first term
    is +1/4 where bits x and y agree and -1/4 where they differ; the second
    joins two states that differ by swapping those bits, with amplitude 1/2.
    Distinct pairs swap distinct bits, so each entry off the diagonal is
    written by one pair, in one pass over every (state, pair).  Every entry
    is dyadic, so the matrix equals the compression of the kron-built
    operator exactly.
    """
    pairs = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    dim = basis.size
    bits = (basis[:, None] >> (n - np.arange(1, n + 1))) & 1  # column s - 1 is site s
    differ = (bits[:, pairs[:, 0] - 1] ^ bits[:, pairs[:, 1] - 1]).astype(bool)
    masks = (1 << (n - pairs[:, 0])) | (1 << (n - pairs[:, 1]))
    rows, which = np.nonzero(differ)
    mat = np.zeros((dim, dim))
    mat[rows, np.searchsorted(basis, basis[rows] ^ masks[which])] = 0.5
    diagonal = np.arange(dim)
    mat[diagonal, diagonal] = 0.25 * (len(pairs) - 2 * differ.sum(axis=1))
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
    if abs(downs - round(downs)) > SECTOR_TOL or not 0 <= round(downs) <= n:
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


def _sign_cone(system: SpinSystem, m: float, basis: np.ndarray) -> SelfDualCone:
    """The Marshall-sign cone of a sector, its validity not yet tested.

    The signs of sublattice B need no cone of their own: every state of a
    sector has the same number of down spins, so they are the signs of
    sublattice A times one global sign, and both give the same matrix."""
    n = system.sites
    return _signed_cone(_sector_space(n, m), _marshall_signs(n, system.sublattice_a, basis))


def _require_metzler(h: LinearOperator, cone: SelfDualCone, tol: float) -> None:
    if not generates_positive_semigroup(h, cone, tol):
        raise SignRuleFailed("restricted Hamiltonian is not Metzler in the sign basis")


def marshall_cone(system: SpinSystem, sector: MSector,
                  hamiltonian: LinearOperator | None = None,
                  tol: float = DEFAULT_TOL) -> SelfDualCone:
    """Sign-rule cone on a sector: generators eps(sigma)|sigma>, with eps the
    parity of down spins on sublattice A.

    Validity is not assumed: the restricted Hamiltonian (Marshall-Lieb-Mattis
    by default, built in the sector basis) must be Hermitian and come out
    Metzler in this basis, or the construction aborts.
    """
    basis = np.asarray(sector.indices, dtype=np.int64)
    if hamiltonian is None:
        restricted = LinearOperator(_sector_space(system.sites, sector.m),
                                    _exchange(system.sites, basis, _bipartite_pairs(system)))
    else:
        restricted = sector.embedding.compress(hamiltonian)
    cone = _sign_cone(system, sector.m, basis)
    _require_metzler(restricted, cone, tol)
    return cone


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


def _total_spin_values(n: int, m: float) -> np.ndarray:
    """The eigenvalues S(S+1) of S_tot^2 on the sector M of n sites, for
    S = |M|, |M|+1, ..., n/2 (Lieb and Mattis, J. Math. Phys. 3:749, 1962),
    each the float S * (S + 1.0) that `verify_mlm` expects.  The S = n/2
    multiplet has a state in every sector, so the last value is the norm."""
    s = np.arange(round(2 * abs(m)), n + 1, 2) / 2.0
    return s * (s + 1.0)


def verify_mlm(system: SpinSystem, m: float = 0.0, tol: float = DEFAULT_TOL) -> MlmReport:
    """Check that the sector ground state carries total spin S = max(S*, |M|),
    with S* = ||A|-|B||/2 the spin of the absolute ground state.

    The quantum number of the restricted Hamiltonian with respect to the
    restricted S_tot^2 must equal S(S+1) after snapping.  Only H is
    decomposed: the snap candidates and the norm of S_tot^2 are its
    closed-form sector spectrum, against which the residual and
    snap-distance tests then certify the ground state.
    """
    n = system.sites
    basis = _sector_basis(n, m)
    h_r = LinearOperator(_sector_space(n, m), _exchange(n, basis, _bipartite_pairs(system)))
    cone = _sign_cone(system, m, basis)
    node = NodeAnalysis(h_r, cone, tol)
    if not node.improving:  # the Metzler test is read again only to name the failure
        _require_metzler(h_r, cone, tol)
        raise SignRuleFailed("restricted Hamiltonian is not improving-class on the sign cone")
    o_r = LinearOperator(cone.space, _total_spin_sq(n, basis))
    o_r.require_hermitian()
    values = _total_spin_values(n, m)  # ascending, so the last is the norm
    readings, failure = _quantum_numbers([node], o_r, float(values[-1]), [values], [None])
    if failure is not None:
        raise failure
    (mu, mu_snapped, _, _), = readings
    s_star = abs(len(system.sublattice_a) - len(system.sublattice_b)) / 2.0
    s = max(s_star, round(2 * abs(m)) / 2.0)  # the |M| of the sector built
    expected = s * (s + 1.0)
    return MlmReport(system.sites, system.sublattice_a, system.sublattice_b,
                     m, basis.size, s_star, mu, mu_snapped, expected, mu_snapped == expected,
                     node.ground.energy, node.ground.gap01)
