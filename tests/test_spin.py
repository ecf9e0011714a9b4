import itertools
import math
import time

import numpy as np
import pytest
from conftest import (
    all_sector_dims,
    complete_bipartite_edges,
    dense_mlm_hamiltonian,
    dense_site_spin,
    dense_total_spin,
    dense_verify_mlm,
    heisenberg_hamiltonian,
    random_spin_system,
    rng,
    same_bits,
)

from conecalc import spin
from conecalc.errors import DimCap, NonHermitian, PreconditionFailed, SignRuleFailed
from conecalc.inheritance import Embedding
from conecalc.numerics import hermitian_eig
from conecalc.positivity import generates_improving_semigroup, ground_state
from conecalc.spin import (
    SpinSystem,
    m_sector,
    marshall_cone,
    mlm_hamiltonian,
    total_spin,
    verify_mlm,
)
from conecalc.stability import SNAP_TOL_FACTOR

EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_i, _j, _k] = 1.0
    EPSILON[_j, _i, _k] = -1.0


class TestSpinOperators:
    """The per-site spin matrices of the dense oracle, and the site cap of
    the builders that stand in for them."""

    def test_single_site_z(self):
        assert np.allclose(dense_site_spin(1, 1, 2), np.diag([0.5, -0.5]))

    def test_disjoint_sites_commute(self):
        a, b = dense_site_spin(2, 1, 0), dense_site_spin(2, 2, 1)
        assert np.abs(a @ b - b @ a).max() <= 1e-14

    def test_commutation_relations_three_sites(self):
        # [S_x^j, S_y^k] = i delta_xy sum_l eps_jkl S_x^l, every pair checked
        # against the explicit matrices
        n = 3
        ops = [[dense_site_spin(n, x, j) for j in range(3)] for x in range(1, n + 1)]
        for x in range(n):
            for y in range(n):
                for j in range(3):
                    for k in range(3):
                        comm = ops[x][j] @ ops[y][k] - ops[y][k] @ ops[x][j]
                        want = np.zeros_like(comm)
                        if x == y:
                            for l in range(3):
                                if EPSILON[j, k, l]:
                                    want = want + 1j * EPSILON[j, k, l] * ops[x][l]
                        assert np.abs(comm - want).max() <= 1e-12

    def test_site_cap(self):
        with pytest.raises(DimCap):
            total_spin(13)
        with pytest.raises(DimCap):
            mlm_hamiltonian(SpinSystem(13, tuple(range(1, 8)), tuple(range(8, 14))))


class TestMlmHamiltonian:
    def test_two_site_spectrum(self):
        # singlet at -3/4, triplet at +1/4
        h = mlm_hamiltonian(SpinSystem(2, (1,), (2,)))
        vals = hermitian_eig(h).eigenvalues
        assert np.allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_algebraic_identity(self):
        # S_A . S_B = (S_tot^2 - S_A^2 - S_B^2) / 2
        system = SpinSystem(4, (1, 2), (3, 4))
        h = mlm_hamiltonian(system)
        n = system.sites

        def collective_sq(sites):
            total = np.zeros((2 ** n, 2 ** n), dtype=complex)
            for j in range(3):
                s = sum(dense_site_spin(n, x, j) for x in sites)
                total += s @ s
            return total

        s_sq, _ = total_spin(n)
        identity_rhs = 0.5 * (s_sq.mat - collective_sq(system.sublattice_a)
                              - collective_sq(system.sublattice_b))
        assert np.abs(h.mat - identity_rhs).max() <= 1e-12

    def test_commutes_with_total_spin(self):
        h = mlm_hamiltonian(SpinSystem(4, (1, 2), (3, 4)))
        s_sq, s_z = total_spin(4)
        for o in (s_sq, s_z):
            comm = h.mat @ o.mat - o.mat @ h.mat
            assert np.abs(comm).max() <= 1e-10

    def test_complete_bipartite_heisenberg_coincides(self):
        system = SpinSystem(4, (1, 3), (2, 4))
        heis = heisenberg_hamiltonian(system, complete_bipartite_edges(system))
        assert np.abs(heis.mat - mlm_hamiltonian(system).mat).max() <= 1e-14


class TestTotalSpin:
    def test_two_site_eigenvalues(self):
        s_sq, _ = total_spin(2)
        assert np.allclose(hermitian_eig(s_sq).eigenvalues, [0.0, 2.0, 2.0, 2.0],
                           atol=1e-12)

    def test_single_site_is_three_quarters(self):
        s_sq, _ = total_spin(1)
        assert np.allclose(s_sq.mat, 0.75 * np.eye(2), atol=1e-14)

    def test_z_component_is_traceless(self):
        _, s_z = total_spin(3)
        assert abs(np.trace(s_z.mat)) <= 1e-14

    def test_eigenvalues_have_spin_form(self):
        # every eigenvalue is S(S+1) for S in {N/2, N/2-1, ...}
        s_sq, _ = total_spin(3)
        allowed = {s * (s + 1) for s in (1.5, 0.5)}
        for val in hermitian_eig(s_sq).eigenvalues:
            assert min(abs(val - a) for a in allowed) <= 1e-10


class TestMSector:
    def test_dimensions_are_binomial(self):
        for n in (2, 4, 6):
            for k in range(n + 1):
                m = n / 2.0 - k
                assert m_sector(n, m).dim == math.comb(n, k)

    def test_sector_dims_sum_to_full_space(self):
        for n in (3, 5, 8):
            assert sum(all_sector_dims(n).values()) == 2 ** n

    def test_z_restriction_is_constant(self):
        _, s_z = total_spin(4)
        for m in (-1.0, 0.0, 1.0):
            sector = m_sector(4, m)
            restricted = sector.embedding.compress(s_z)
            assert np.abs(restricted.mat - m * np.eye(sector.dim)).max() <= 1e-12

    def test_empty_sector_raises(self):
        with pytest.raises(PreconditionFailed):
            m_sector(2, 3.0)
        with pytest.raises(PreconditionFailed):
            m_sector(2, 0.25)


class TestMarshallCone:
    def test_two_site_signs(self):
        system = SpinSystem(2, (1,), (2,))
        sector = m_sector(2, 0.0)
        cone = marshall_cone(system, sector)
        # basis order: index 1 = up-down, index 2 = down-up; the second
        # carries a down spin on sublattice A, hence the flipped sign
        assert np.allclose(cone.generators, np.diag([1.0, -1.0]))

    def test_restricted_hamiltonian_is_metzler_in_sign_basis(self):
        system = SpinSystem(2, (1,), (2,))
        sector = m_sector(2, 0.0)
        cone = marshall_cone(system, sector)
        h_r = sector.embedding.compress(mlm_hamiltonian(system))
        transformed = cone.operator_coords(h_r)
        off = transformed.real.copy()
        np.fill_diagonal(off, 0.0)
        assert off.max() <= 1e-12

    def test_four_site_balanced_sector(self):
        system = SpinSystem(4, (1, 2), (3, 4))
        sector = m_sector(4, 0.0)
        assert sector.dim == 6
        marshall_cone(system, sector)  # must not raise

    def test_sign_rule_failure_is_detected(self):
        # a ferromagnetic (negated) coupling breaks the Metzler form
        system = SpinSystem(2, (1,), (2,))
        sector = m_sector(2, 0.0)
        h = mlm_hamiltonian(system)
        flipped = type(h)(h.space, -h.mat)
        with pytest.raises(SignRuleFailed):
            marshall_cone(system, sector, flipped)

    def test_non_hermitian_hamiltonian_is_refused(self):
        system = SpinSystem(2, (1,), (2,))
        h = mlm_hamiltonian(system)
        skew = type(h)(h.space, h.mat + np.triu(np.ones((4, 4)), 1))
        with pytest.raises(NonHermitian):
            marshall_cone(system, m_sector(2, 0.0), skew)


@pytest.mark.parametrize("n", range(2, 11))
def test_both_sublattice_sign_gauges_give_one_matrix(n):
    # every state of a sector has n/2 - M down spins, so the B signs are the
    # A signs times one global sign: testing the A gauge alone suffices
    tables = [spin._sector_table(n, k) for k in range(n + 1)]
    for mask in range(2 ** (n - 1)):  # A holds site n; swapping A and B swaps the gauges
        a = tuple(x for x in range(1, n + 1) if x == n or mask >> (x - 1) & 1)
        b = tuple(x for x in range(1, n + 1) if x not in a)
        for table in tables:
            signs_a, signs_b = table.marshall_signs(a), table.marshall_signs(b)
            assert np.array_equal(np.outer(signs_a, signs_a), np.outer(signs_b, signs_b))


class TestVerifyMlm:
    def test_balanced_four_sites(self):
        start = time.monotonic()
        report = verify_mlm(SpinSystem(4, (1, 2), (3, 4)))
        elapsed = time.monotonic() - start
        assert report.ok
        assert report.s_star == 0.0
        assert report.mu_snapped == pytest.approx(0.0, abs=1e-8)
        assert elapsed < 5.0

    def test_star_four_sites(self):
        report = verify_mlm(SpinSystem(4, (1, 2, 3), (4,)))
        assert report.ok
        assert report.s_star == 1.0
        assert report.mu_snapped == pytest.approx(2.0, abs=1e-8)

    def test_two_sites_singlet(self):
        report = verify_mlm(SpinSystem(2, (1,), (2,)))
        assert report.ok
        assert report.mu_snapped == pytest.approx(0.0, abs=1e-8)
        assert report.ground_energy == pytest.approx(-0.75, abs=1e-12)

    def test_ground_state_is_simple_and_strictly_positive(self):
        # Perron-Frobenius structure of the sign-rule cone, desk scale
        cases = [
            SpinSystem(2, (1,), (2,)),
            SpinSystem(4, (1, 2), (3, 4)),
            SpinSystem(4, (1, 2, 3), (4,)),
            SpinSystem(6, (1, 2, 3), (4, 5, 6)),
            SpinSystem(8, (1, 2, 3, 4), (5, 6, 7, 8)),
        ]
        for system in cases:
            sector = m_sector(system.sites, 0.0)
            h = mlm_hamiltonian(system)
            cone = marshall_cone(system, sector, h)
            h_r = sector.embedding.compress(h)
            assert generates_improving_semigroup(h_r, cone)
            g = ground_state(h_r, cone)
            assert g.simple and cone.strictly_positive(g.vector)


class TestHeisenbergVariant:
    def test_path_graph_passes_cone_checks(self):
        # nearest-neighbor chain on 4 sites, bipartition by parity
        system = SpinSystem(4, (1, 3), (2, 4))
        edges = ((1, 2), (2, 3), (3, 4))
        h = heisenberg_hamiltonian(system, edges)
        sector = m_sector(4, 0.0)
        cone = marshall_cone(system, sector, h)
        h_r = sector.embedding.compress(h)
        assert generates_improving_semigroup(h_r, cone)
        g = ground_state(h_r, cone)
        assert g.simple and cone.strictly_positive(g.vector)

    def test_complete_bipartite_case_matches_mlm_spin(self):
        system = SpinSystem(4, (1, 3), (2, 4))
        h = heisenberg_hamiltonian(system, complete_bipartite_edges(system))
        sector = m_sector(4, 0.0)
        cone = marshall_cone(system, sector, h)
        report = verify_mlm(system)
        assert report.ok and report.mu_snapped == pytest.approx(0.0, abs=1e-8)


def _sector_cases():
    """Two seeded bipartitions for each n <= 8, then one of 9 and one of 10 sites."""
    gen = rng(511)
    cases = [random_spin_system(gen, n) for n in range(2, 9) for _ in range(2)]
    return cases + [SpinSystem(9, (1, 4, 5, 8), (2, 3, 6, 7, 9)),
                    SpinSystem(10, (2, 3, 5, 7, 10), (1, 4, 6, 8, 9))]


def site_bits(n: int, basis: np.ndarray, site: int) -> np.ndarray:
    """Bit of `site` in each basis index: 0 = up, 1 = down."""
    return (basis >> (n - site)) & 1


def exchange_oracle(n: int, basis: np.ndarray, pairs) -> np.ndarray:
    """The sector table's exchange one pair at a time: the diagonal
    accumulated, and the swap entries of each pair added where its two bits
    differ, each swapped state found by binary search in `basis`."""
    dim = basis.size
    mat = np.zeros((dim, dim))
    diag = np.zeros(dim)
    rows = np.arange(dim)
    for x, y in pairs:
        differ = (site_bits(n, basis, x) ^ site_bits(n, basis, y)).astype(bool)
        diag += np.where(differ, -0.25, 0.25)
        swapped = basis[differ] ^ ((1 << (n - x)) | (1 << (n - y)))
        mat[rows[differ], np.searchsorted(basis, swapped)] += 0.5
    mat[rows, rows] = diag
    return mat


def total_spin_sq_oracle(n: int, basis: np.ndarray) -> np.ndarray:
    """S_tot^2 = 3n/4 + 2 sum_{x<y} S_x . S_y, by `exchange_oracle`."""
    mat = 2.0 * exchange_oracle(n, basis, itertools.combinations(range(1, n + 1), 2))
    mat[np.diag_indices(basis.size)] += 0.75 * n
    return mat


def marshall_signs_oracle(n: int, sublattice, basis: np.ndarray) -> np.ndarray:
    """(-1)^(down spins on the sublattice) of each state, one site at a time."""
    parity = np.zeros(basis.size, dtype=np.int64)
    for site in sublattice:
        parity ^= site_bits(n, basis, site)
    return 1.0 - 2.0 * parity


def crossing_pairs(system: SpinSystem) -> list[tuple[int, int]]:
    return [(x, y) for x in system.sublattice_a for y in system.sublattice_b]


class TestSectorBuilders:
    """The sector tables' builders against the per-pair loop and the
    kron-built dense operators, on every sector and on the full space."""

    @pytest.mark.parametrize("system", _sector_cases(),
                             ids=lambda s: f"n{s.sites}-A{s.sublattice_a}")
    def test_sector_matrices_equal_compressed_dense_operators(self, system):
        n = system.sites
        h = dense_mlm_hamiltonian(system).mat
        s_sq = dense_total_spin(n)[0].mat
        pairs = crossing_pairs(system)
        for table in [spin._sector_table(n, k) for k in range(n + 1)] + [spin._sector_table(n)]:
            block = np.ix_(table.basis, table.basis)
            exchange = table.hamiltonian(system)
            assert same_bits(exchange, exchange_oracle(n, table.basis, pairs))
            assert np.array_equal(exchange, h[block])
            total = table.total_spin_sq()
            assert same_bits(total, total_spin_sq_oracle(n, table.basis))
            assert np.array_equal(total, s_sq[block])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_bipartition_and_sector_equals_the_dense_operators(self, n):
        # H, S_tot^2, S_z and the Marshall signs of every sector and of the
        # full space, for every split of the sites (A holds site 1)
        s_sq, s_z = (op.mat for op in dense_total_spin(n))
        states = np.arange(2 ** n)
        downs = sum(site_bits(n, states, x) for x in range(1, n + 1))
        tables = [spin._sector_table(n, k) for k in range(n + 1)] + [spin._sector_table(n)]
        for k, table in enumerate(tables):
            assert np.array_equal(table.basis, states[downs == k] if k <= n else states)
            assert np.array_equal(table.rank[table.basis], np.arange(table.basis.size))
            block = np.ix_(table.basis, table.basis)
            if k <= n:
                assert np.array_equal(s_z[block], (n / 2.0 - k) * np.eye(table.basis.size))
            total = table.total_spin_sq()
            assert np.array_equal(total, s_sq[block])
            assert same_bits(total, total_spin_sq_oracle(n, table.basis))
        for mask in range(2 ** (n - 1)):
            a = (1, *(x for x in range(2, n + 1) if mask >> (x - 2) & 1))
            system = SpinSystem(n, a, tuple(x for x in range(1, n + 1) if x not in a))
            h = dense_mlm_hamiltonian(system).mat
            for table in tables:
                exchange = table.hamiltonian(system)
                assert np.array_equal(exchange, h[np.ix_(table.basis, table.basis)])
                assert same_bits(exchange, exchange_oracle(n, table.basis, crossing_pairs(system)))
                for side in (system.sublattice_a, system.sublattice_b):
                    assert same_bits(table.marshall_signs(side),
                                     marshall_signs_oracle(n, side, table.basis))

    @pytest.mark.parametrize("n", (10, 11, 12))
    def test_sectors_at_the_site_cap_equal_the_pair_loop(self, n):
        gen = rng(560 + n)
        for _ in range(2):
            system = random_spin_system(gen, n)
            table = spin._sector_table(n, n // 2 + int(gen.integers(-1, 2)))
            assert same_bits(table.hamiltonian(system),
                             exchange_oracle(n, table.basis, crossing_pairs(system)))
            assert same_bits(table.total_spin_sq(), total_spin_sq_oracle(n, table.basis))
            assert same_bits(table.marshall_signs(system.sublattice_a),
                             marshall_signs_oracle(n, system.sublattice_a, table.basis))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_space_operators_equal_dense_operators(self, n):
        system = random_spin_system(rng(520 + n), n) if n >= 2 else SpinSystem(1, (1,), ())
        assert np.array_equal(mlm_hamiltonian(system).mat, dense_mlm_hamiltonian(system).mat)
        for built, dense in zip(total_spin(n), dense_total_spin(n)):
            assert np.array_equal(built.mat, dense.mat)


def _refuse(*args, **kwargs):
    raise AssertionError("dense spin operator built")


def assert_matches_dense_route(got, want):
    """`verify_mlm`'s payload against the dense oracle's: every field equal
    except `mu_snapped`, which is exactly `expected`, and within the snap
    tolerance of the oracle's value, which snaps to eigvalsh of S_tot^2."""
    got, want = got.to_payload(), want.to_payload()
    half = got["sites"] / 2.0
    assert got["mu_snapped"] == got["expected"]
    assert abs(got["mu_snapped"] - want["mu_snapped"]) <= SNAP_TOL_FACTOR * half * (half + 1.0)
    del got["mu_snapped"], want["mu_snapped"]
    assert got == want


class TestTotalSpinSectorSpectrum:
    """The closed-form snap candidates and norm of `verify_mlm` against the
    spectrum of the dense oracle's S_tot^2, compressed into each sector."""

    @pytest.mark.parametrize("system", [s for s in _sector_cases() if s.sites <= 8],
                             ids=lambda s: f"n{s.sites}-A{s.sublattice_a}")
    def test_closed_form_matches_the_compressed_dense_spectrum(self, system):
        n = system.sites
        s_sq = dense_total_spin(n)[0].mat
        half = n / 2.0
        norm = half * (half + 1.0)
        for m in all_sector_dims(n):
            basis = np.asarray(m_sector(n, m).indices)
            dense = np.linalg.eigvalsh(s_sq[np.ix_(basis, basis)])
            values = spin._total_spin_values(n, m)
            gaps = np.abs(dense[:, None] - values[None, :])
            assert gaps.min(axis=1).max() <= 1e-10 * norm  # every eigenvalue is a candidate
            assert gaps.min(axis=0).max() <= 1e-10 * norm  # every candidate is an eigenvalue
            assert values[-1] == norm and abs(dense.max() - norm) <= 1e-10 * norm
            report = verify_mlm(system, m)
            assert report.ok and report.mu_snapped in values.tolist()


class TestVerifyMlmInSector:
    def test_builds_no_dense_operator(self, monkeypatch):
        gen = rng(530)
        systems = [SpinSystem(6, (1, 2, 3), (4, 5, 6)), SpinSystem(6, (1, 3, 5), (2, 4, 6))]
        systems += [random_spin_system(gen, 6) for _ in range(3)]
        s_sq = dense_total_spin(6)[0]
        dense = {}
        for system in systems:
            h = dense_mlm_hamiltonian(system)
            for m in (3.0 - k for k in range(7)):
                dense[system, m] = dense_verify_mlm(system, m, hamiltonian=h, s_sq=s_sq)
        for name in ("mlm_hamiltonian", "total_spin", "m_sector"):
            monkeypatch.setattr(spin, name, _refuse)
        monkeypatch.setattr(Embedding, "compress", _refuse)
        for (system, m), want in dense.items():
            assert_matches_dense_route(verify_mlm(system, m), want)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_payload_equals_dense_route(self, n):
        gen = rng(540 + n)
        system = random_spin_system(gen, n)
        m = n / 2.0 - int(gen.integers(0, n + 1))
        assert_matches_dense_route(verify_mlm(system, m), dense_verify_mlm(system, m))

    def test_one_eigendecomposition_and_no_svd(self, decompositions):
        # only H is decomposed; the S_tot^2 candidates and norm are closed-form
        report = verify_mlm(SpinSystem(8, (1, 3, 5, 7), (2, 4, 6, 8)), 0.0)
        assert report.ok and report.sector_dim == 70
        assert decompositions["eigh"] == 1 and decompositions["svd"] == 0
        assert decompositions.shapes == [("eigh", (70, 70))]

    def test_a_sector_given_within_sector_tol_expects_its_exact_spin(self):
        # the sector built is M = 0, so the expected S(S+1) is that of M = 0
        report = verify_mlm(SpinSystem(6, (1, 3, 5), (2, 4, 6)), 1e-13)
        assert report.m == 1e-13 and report.expected == 0.0
        assert report.ok and report.mu_snapped == 0.0

    def test_empty_sector_raises_before_any_build(self, monkeypatch):
        monkeypatch.setattr(spin, "_sector_table", _refuse)
        with pytest.raises(PreconditionFailed):
            verify_mlm(SpinSystem(10, (1, 2, 3, 4, 5), (6, 7, 8, 9, 10)), 1.5)
        with pytest.raises(PreconditionFailed):
            m_sector(10, 0.5)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_sector_is_refused_by_name_before_any_build(self, monkeypatch, m):
        monkeypatch.setattr(spin, "_sector_table", _refuse)
        for call in (lambda: verify_mlm(SpinSystem(4, (1, 2), (3, 4)), m),
                     lambda: m_sector(4, m),
                     lambda: marshall_cone(SpinSystem(4, (1, 2), (3, 4)),
                                           spin.MSector(m, (), None))):
            with pytest.raises(ValueError, match=f"^sector M={m} is not a finite number$"):
                call()
