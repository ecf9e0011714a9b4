"""Spin-1/2 systems on a bipartite site set: the Marshall-Lieb-Mattis
Hamiltonian, magnetization sectors, the Marshall-sign cone, and the
ground-state total-spin verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import SITE_CAP
from .cones import SelfDualCone, _signed_cone
from .errors import DimCap, PreconditionFailed, SignRuleFailed
from .inheritance import Embedding
from .numerics import DEFAULT_TOL, LinearOperator, _adopt
from .positivity import NodeAnalysis, generates_positive_semigroup
from .stability import _quantum_numbers

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


class _Swaps(NamedTuple):
    """One pass over every pair x < y of sites of a sector table, the pairs
    in combinations order: where each pair's two bits differ, and there the
    row of the state that swaps them."""

    first: np.ndarray   # the columns x - 1 and y - 1 of each pair
    second: np.ndarray
    differ: np.ndarray  # differ[row, pair]: bits x and y of the row's state differ
    rows: np.ndarray    # each (row, pair) where they differ, row-major
    which: np.ndarray
    cols: np.ndarray    # the row of the state with those two bits swapped


@dataclass(frozen=True, eq=False)
class _SectorTable:
    """The states of one magnetization sector of n sites, or all 2^n of
    them, with their bits: every sector matrix and sign is read from it.

    ``basis`` lists the states by ascending computational-basis index,
    ``bits[row, s - 1]`` is the bit of site s in ``basis[row]`` (0 = up,
    1 = down), and ``rank[state]`` is the row of a state of the table, an
    array over all 2^n states (a lookup table; Sandvik, AIP Conf. Proc.
    1297:135, 2010)."""

    n: int
    basis: np.ndarray
    bits: np.ndarray
    rank: np.ndarray

    @cached_property
    def _swaps(self) -> _Swaps:
        # the columns of the pairs x < y, in combinations order
        first, second = np.nonzero(np.tri(self.n, k=-1, dtype=bool).T)
        differ = self.bits[:, first] != self.bits[:, second]
        rows, which = np.nonzero(differ)
        masks = (1 << (self.n - 1 - first)) | (1 << (self.n - 1 - second))
        return _Swaps(first, second, differ, rows, which,
                      self.rank[self.basis[rows] ^ masks[which]])

    def _exchange(self, weight: float, kept: np.ndarray | None = None) -> np.ndarray:
        """weight times the sum of S_x . S_y over the kept pairs (x, y) of
        the pass, or over every pair.

        S_x . S_y = S_x^z S_y^z + (S_x^+ S_y^- + S_x^- S_y^+) / 2.  The first
        term is +1/4 where bits x and y agree and -1/4 where they differ; the
        second joins two states that differ by swapping those bits, with
        amplitude 1/2.  Distinct pairs swap distinct bits, so each entry off
        the diagonal is written by one pair.  Every entry is dyadic, so the
        matrix equals the compression of the kron-built operator exactly."""
        _, _, differ, rows, which, cols = self._swaps
        if kept is not None:
            on = kept[which]
            differ, rows, cols = differ[:, kept], rows[on], cols[on]
        dim = self.basis.size
        mat = np.zeros((dim, dim))
        mat[rows, cols] = 0.5 * weight
        flips = np.count_nonzero(differ, axis=1)
        mat.flat[::dim + 1] = 0.25 * weight * (differ.shape[1] - 2 * flips)
        return mat

    def hamiltonian(self, system: SpinSystem) -> np.ndarray:
        """S_A . S_B: the pairs of the pass that join the two sublattices."""
        in_a = np.zeros(self.n, dtype=bool)
        in_a[np.array(system.sublattice_a, dtype=np.int64) - 1] = True
        return self._exchange(1.0, in_a[self._swaps.first] != in_a[self._swaps.second])

    def total_spin_sq(self) -> np.ndarray:
        # S_tot^2 = sum_x S_x . S_x + 2 sum_{x<y} S_x . S_y, and S_x . S_x = 3/4
        mat = self._exchange(2.0)
        mat.flat[::self.basis.size + 1] += 0.75 * self.n
        return mat

    def marshall_signs(self, sublattice: tuple[int, ...]) -> np.ndarray:
        """(-1)^(number of down spins on the sublattice) for each state."""
        columns = np.array(sublattice, dtype=np.int64) - 1
        return 1.0 - 2.0 * (self.bits[:, columns].sum(axis=1) & 1)


def _sector_table(n: int, downs: int | None = None) -> _SectorTable:
    """The table of the states of n sites with `downs` down spins, or of
    every state when `downs` is None."""
    states = np.arange(2 ** n)
    bits = (states[:, None] >> np.arange(n - 1, -1, -1)) & 1  # column s - 1 is site s
    if downs is None:
        return _SectorTable(n, states, bits, states)
    inside = bits.sum(axis=1) == downs
    return _SectorTable(n, states[inside], bits[inside], np.cumsum(inside) - 1)


def mlm_hamiltonian(system: SpinSystem) -> LinearOperator:
    """S_A . S_B: every site of one sublattice coupled to every site of the other."""
    _check_cap(system.sites)
    return _adopt(system.space, _sector_table(system.sites).hamiltonian(system))


def total_spin(n: int) -> tuple[LinearOperator, LinearOperator]:
    """(S_tot^2, S_tot^z); the first has eigenvalues S(S+1)."""
    _check_cap(n)
    space = f"spins{n}"
    table = _sector_table(n)
    return (_adopt(space, table.total_spin_sq()),
            _adopt(space, np.diag(n / 2.0 - table.bits.sum(axis=1))))


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


def _sector_downs(n: int, m: float) -> int:
    """The number of down spins of the Ising configurations with
    magnetization m, checked before any array is built."""
    _check_cap(n)
    if not math.isfinite(m):
        raise ValueError(f"sector M={m} is not a finite number")
    downs = n / 2.0 - m
    if abs(downs - round(downs)) > SECTOR_TOL or not 0 <= round(downs) <= n:
        raise PreconditionFailed(f"sector M={m} is empty for {n} sites")
    return round(downs)


def _sector_space(n: int, m: float) -> str:
    return f"spins{n}_M{m:g}"


def m_sector(n: int, m: float) -> MSector:
    """Build the magnetization-M subspace of n spins."""
    basis = _sector_table(n, _sector_downs(n, m)).basis
    tau = np.zeros((2 ** n, basis.size))
    tau[basis, np.arange(basis.size)] = 1.0
    emb = Embedding(_sector_space(n, m), f"spins{n}", tau)
    return MSector(m, tuple(int(i) for i in basis), emb)


def _sign_cone(system: SpinSystem, m: float, table: _SectorTable) -> SelfDualCone:
    """The Marshall-sign cone of a sector, its validity not yet tested.

    The signs of sublattice B need no cone of their own: every state of a
    sector has the same number of down spins, so they are the signs of
    sublattice A times one global sign, and both give the same matrix."""
    return _signed_cone(_sector_space(system.sites, m), table.marshall_signs(system.sublattice_a))


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
    n = system.sites
    table = _sector_table(n, _sector_downs(n, sector.m))
    if hamiltonian is None:
        restricted = _adopt(_sector_space(n, sector.m), table.hamiltonian(system))
    else:
        restricted = sector.embedding.compress(hamiltonian)
    cone = _sign_cone(system, sector.m, table)
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
    table = _sector_table(n, _sector_downs(n, m))
    h_r = _adopt(_sector_space(n, m), table.hamiltonian(system))
    cone = _sign_cone(system, m, table)
    node = NodeAnalysis(h_r, cone, tol)
    if not node.improving:  # the Metzler test is read again only to name the failure
        _require_metzler(h_r, cone, tol)
        raise SignRuleFailed("restricted Hamiltonian is not improving-class on the sign cone")
    o_r = _adopt(cone.space, table.total_spin_sq())
    del table  # its pair pass, kept for S_tot^2, is not held beside the checks that follow
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
                     m, h_r.dim, s_star, mu, mu_snapped, expected, mu_snapped == expected,
                     node.ground.energy, node.ground.gap01)
