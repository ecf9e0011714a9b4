import math
import time

import numpy as np
import pytest
from conftest import (
    all_sector_dims,
    complete_bipartite_edges,
    dense_mlm_hamiltonian,
    dense_total_spin,
    dense_verify_mlm,
    heisenberg_hamiltonian,
    random_spin_system,
    rng,
)

from conecalc import spin
from conecalc.errors import DimCap, PreconditionFailed, SignRuleFailed
from conecalc.inheritance import Embedding
from conecalc.numerics import hermitian_eig
from conecalc.positivity import generates_improving_semigroup, ground_state
from conecalc.spin import (
    SpinSystem,
    m_sector,
    marshall_cone,
    mlm_hamiltonian,
    spin_operators,
    total_spin,
    verify_mlm,
)

EPSILON = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPSILON[_i, _j, _k] = 1.0
    EPSILON[_j, _i, _k] = -1.0


class TestSpinOperators:
    def test_single_site_z(self):
        ops = spin_operators(1)
        assert np.allclose(ops[0][2].mat, np.diag([0.5, -0.5]))

    def test_disjoint_sites_commute(self):
        ops = spin_operators(2)
        comm = ops[0][0].mat @ ops[1][1].mat - ops[1][1].mat @ ops[0][0].mat
        assert np.abs(comm).max() <= 1e-14

    def test_commutation_relations_three_sites(self):
        # [S_x^j, S_y^k] = i delta_xy sum_l eps_jkl S_x^l, every pair checked
        # against the explicit matrices
        n = 3
        ops = spin_operators(n)
        for x in range(n):
            for y in range(n):
                for j in range(3):
                    for k in range(3):
                        comm = ops[x][j].mat @ ops[y][k].mat - ops[y][k].mat @ ops[x][j].mat
                        want = np.zeros_like(comm)
                        if x == y:
                            for l in range(3):
                                if EPSILON[j, k, l]:
                                    want = want + 1j * EPSILON[j, k, l] * ops[x][l].mat
                        assert np.abs(comm - want).max() <= 1e-12

    def test_site_cap(self):
        with pytest.raises(DimCap):
            spin_operators(13)


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
        ops = spin_operators(n)

        def collective_sq(sites):
            total = np.zeros((2 ** n, 2 ** n), dtype=complex)
            for j in range(3):
                s = sum(ops[x - 1][j].mat for x in sites)
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
            assert g.simple and g.strictly_positive


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
        assert g.simple and g.strictly_positive

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


class TestSectorBuilders:
    """The bit-pattern builders against the kron-built dense operators."""

    @pytest.mark.parametrize("system", _sector_cases(),
                             ids=lambda s: f"n{s.sites}-A{s.sublattice_a}")
    def test_sector_matrices_equal_compressed_dense_operators(self, system):
        n = system.sites
        h = dense_mlm_hamiltonian(system)
        s_sq, _ = dense_total_spin(n)
        sectors = range(n + 1) if n <= 8 else (n // 2, n // 2 - 1)
        for k in sectors:
            sector = m_sector(n, n / 2.0 - k)
            basis = np.asarray(sector.indices)
            pairs = [(x, y) for x in system.sublattice_a for y in system.sublattice_b]
            assert np.array_equal(spin._exchange(n, basis, pairs),
                                  sector.embedding.compress(h).mat)
            assert np.array_equal(spin._total_spin_sq(n, basis),
                                  sector.embedding.compress(s_sq).mat)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_full_space_operators_equal_dense_operators(self, n):
        system = random_spin_system(rng(520 + n), n) if n >= 2 else SpinSystem(1, (1,), ())
        assert np.array_equal(mlm_hamiltonian(system).mat, dense_mlm_hamiltonian(system).mat)
        for built, dense in zip(total_spin(n), dense_total_spin(n)):
            assert np.array_equal(built.mat, dense.mat)


def _refuse(*args, **kwargs):
    raise AssertionError("dense spin operator built")


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
        for name in ("mlm_hamiltonian", "total_spin", "_site_operator", "m_sector"):
            monkeypatch.setattr(spin, name, _refuse)
        monkeypatch.setattr(Embedding, "compress", _refuse)
        for (system, m), want in dense.items():
            assert verify_mlm(system, m).to_payload() == want.to_payload()

    @pytest.mark.parametrize("n", range(2, 10))
    def test_payload_equals_dense_route(self, n):
        gen = rng(540 + n)
        system = random_spin_system(gen, n)
        m = n / 2.0 - int(gen.integers(0, n + 1))
        assert verify_mlm(system, m).to_payload() == dense_verify_mlm(system, m).to_payload()

    def test_two_eigendecompositions_and_no_svd(self, decompositions):
        report = verify_mlm(SpinSystem(8, (1, 3, 5, 7), (2, 4, 6, 8)), 0.0)
        assert report.ok and report.sector_dim == 70
        assert decompositions["eigh"] == 2 and decompositions["svd"] == 0

    def test_empty_sector_raises_before_any_build(self, monkeypatch):
        monkeypatch.setattr(spin, "_exchange", _refuse)
        with pytest.raises(PreconditionFailed):
            verify_mlm(SpinSystem(10, (1, 2, 3, 4, 5), (6, 7, 8, 9, 10)), 1.5)
        with pytest.raises(PreconditionFailed):
            m_sector(10, 0.5)
