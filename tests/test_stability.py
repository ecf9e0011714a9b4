import math

import numpy as np
import pytest

from conftest import op, random_metzler_generator, rng

from conecalc.cones import SelfDualCone, orthant, tensor_cone
from conecalc.errors import (
    ChainFailed,
    MuMismatch,
    NotCommuting,
    NotDensityMatrix,
    NotInAPlus,
    NotSimple,
    PreconditionFailed,
)
from conecalc.inheritance import (
    ArrowChain,
    ChainNode,
    append_factor_embedding,
    concatenate,
    identity_embedding,
    verify_chain,
)
from conecalc.numerics import DEFAULT_TOL, LinearOperator, hermitian_eig, identity, kron
from conecalc.positivity import ground_state
from conecalc.stability import (
    PAULI_X,
    StabilityClassRecord,
    commutes_with_observable,
    extension_tower,
    good_quantum_number,
    ground_state_factorizes,
    is_decoupled_extension,
    quantum_number_along_chain,
    relative_entropy,
)

UNIFORM2 = np.array([1.0, 1.0]) / np.sqrt(2.0)


def seed_hamiltonian(space="base"):
    """diag(0, 1) with a small coupling to make it irreducible."""
    return op(space, np.diag([0.0, 1.0]) - 0.1 * PAULI_X)


def negated(cone: SelfDualCone) -> SelfDualCone:
    return SelfDualCone(cone.space, -cone.generators)


def two_pass_telescopes(chain, o, overlaps, snapped, tol=DEFAULT_TOL):
    """Telescope residuals recomputed link by link from scratch: both ground
    states on the cones the quantum numbers were read on, and the observable
    re-extended from the base for every link."""
    out = []
    for j, emb in enumerate(chain.embeddings):
        g1 = ground_state(chain.nodes[j].hamiltonian, chain.mu_cone(j), tol)
        g2 = ground_state(chain.nodes[j + 1].hamiltonian, chain.mu_cone(j + 1), tol)
        o_j = o
        for k in range(j):
            o_j = chain.embeddings[k].extend(o_j)
        lhs = complex(np.vdot(o_j.mat @ g1.vector, emb.pull(g2.vector)))
        out.append(abs(lhs - snapped[j] * overlaps[j]))
    return tuple(out)


class TestCommutesWithObservable:
    def test_identity_always_commutes(self):
        h = op("s", random_metzler_generator(rng(3), 4))
        assert commutes_with_observable(h, identity("s", 4))

    def test_disjoint_factors_commute(self):
        h = kron(op("a", PAULI_X), identity("b", 2))
        o = kron(identity("a", 2), op("b", PAULI_X))
        assert commutes_with_observable(h, LinearOperator(h.space, o.mat))

    def test_anticommuting_pair_fails(self):
        # [sigma_x, sigma_z] = -2i sigma_y has norm 2
        sz = np.diag([1.0, -1.0])
        comm = PAULI_X @ sz - sz @ PAULI_X
        assert np.linalg.norm(comm, 2) == pytest.approx(2.0)
        assert not commutes_with_observable(op("s", PAULI_X), op("s", sz))


class TestGoodQuantumNumber:
    def test_identity_observable(self):
        h = op("s", -PAULI_X)
        gqn = good_quantum_number(h, identity("s", 2), orthant("s", 2))
        assert gqn.value == pytest.approx(1.0, abs=1e-12)
        assert gqn.snapped == 1.0

    def test_swap_symmetric_ground_state(self):
        # H = -sx(x)1 - 1(x)sx has ground state uniform(x)uniform; the swap
        # observable fixes it, so mu = 1 (checked against a direct 4x4 eig)
        h = -1.0 * kron(op("a", PAULI_X), identity("b", 2)) \
            - 1.0 * kron(identity("a", 2), op("b", PAULI_X))
        swap = np.array([
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ], dtype=float)
        cone = tensor_cone(orthant("a", 2), orthant("b", 2))
        gqn = good_quantum_number(h, LinearOperator(h.space, swap), cone)
        spec = hermitian_eig(h)
        psi = spec.ground_vector
        assert np.allclose(swap @ psi, psi, atol=1e-12)
        assert gqn.snapped == 1.0

    def test_degenerate_ground_state_is_refused(self):
        h = op("s", np.zeros((2, 2)))
        with pytest.raises((NotSimple, NotInAPlus)):
            good_quantum_number(h, identity("s", 2), orthant("s", 2))

    def test_noncommuting_observable_is_refused(self):
        h = op("s", -PAULI_X)
        with pytest.raises(NotCommuting):
            good_quantum_number(h, op("s", np.diag([1.0, -1.0])), orthant("s", 2))

    def test_reducible_hamiltonian_is_refused(self):
        h = op("s", np.diag([0.0, 1.0]))
        with pytest.raises(NotInAPlus):
            good_quantum_number(h, identity("s", 2), orthant("s", 2))


class TestExtensionTower:
    def test_depth_zero_is_singleton(self):
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 0)
        assert len(chain.nodes) == 1 and chain.embeddings == ()

    def test_depth_one_ground_state_factorizes(self):
        # 4x4 oracle: the extension's ground state is psi_H (x) uniform
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 1)
        h1 = chain.nodes[1].hamiltonian
        psi = hermitian_eig(h1).ground_vector
        base = hermitian_eig(h)
        want = np.kron(base.ground_vector, UNIFORM2)
        overlap = abs(np.vdot(psi, want))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_depth_five_dims_and_verification(self):
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 5)
        assert [n.hamiltonian.dim for n in chain.nodes] == [2, 4, 8, 16, 32, 64]
        report = verify_chain(chain)
        assert all(o == pytest.approx(1.0, abs=1e-10) for o in report.overlaps)

    def test_rejects_reducible_seed(self):
        with pytest.raises(PreconditionFailed):
            extension_tower(op("s", np.diag([0.0, 1.0])), orthant("s", 2),
                            identity("s", 2), 1)


class TestChainInvariance:
    def test_tower_keeps_quantum_number(self):
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 3)
        report = quantum_number_along_chain(chain, h)
        assert len(set(report.snapped)) == 1
        assert report.mu_star == pytest.approx(hermitian_eig(h).ground_energy, abs=1e-10)
        assert all(r <= 1e-8 for r in report.telescope_residuals)

    def test_singleton_chain(self):
        h = op("s", -PAULI_X)
        chain = ArrowChain((ChainNode(h, orthant("s", 2)),), ())
        report = quantum_number_along_chain(chain, h)
        assert report.snapped == (-1.0,)

    def test_noncommuting_node_is_localized(self):
        # a perturbation whose factor coupling does not fix the uniform vector
        # breaks commutation with the pushed-forward observable at node 2
        h0 = op("base", -PAULI_X)
        o = op("base", PAULI_X)
        p0 = orthant("base", 2)
        chain01 = extension_tower(h0, p0, o, 1)
        h1 = chain01.nodes[1].hamiltonian
        p1 = chain01.nodes[1].cone
        y = op("f", np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]))
        h2 = kron(h1, identity("f", 3)) - kron(identity(h1.space, 4), y)
        p2 = tensor_cone(p1, orthant("f", 3))
        emb = append_factor_embedding(h1.space, h2.space, 4, np.full(3, 1 / math.sqrt(3)))
        chain = ArrowChain(chain01.nodes + (ChainNode(h2, p2),),
                           chain01.embeddings + (emb,))
        verify_chain(chain)  # the arrows themselves are fine
        with pytest.raises(NotCommuting) as err:
            quantum_number_along_chain(chain, o)
        assert err.value.index == 2

    def test_interior_node_with_its_own_incoming_cone(self):
        # node 1 is entered on the orthant but left on the negated orthant, so
        # the ground state its quantum number is read from has the opposite
        # sign to the one its incoming overlap uses
        h0 = op("base", -PAULI_X)
        o = op("base", PAULI_X)
        tower = extension_tower(h0, orthant("base", 2), o, 2)
        n1, n2 = tower.nodes[1], tower.nodes[2]
        chain = ArrowChain(
            (tower.nodes[0], ChainNode(n1.hamiltonian, negated(n1.cone), n1.cone),
             ChainNode(n2.hamiltonian, negated(n2.cone))),
            tower.embeddings)
        report = quantum_number_along_chain(chain, o)
        assert report.snapped == (1.0, 1.0, 1.0)
        assert report.overlaps == pytest.approx((1.0, 1.0), abs=1e-10)
        assert report.telescope_residuals == two_pass_telescopes(
            chain, o, report.overlaps, report.snapped)
        assert report.telescope_residuals == pytest.approx((2.0, 0.0), abs=1e-10)

    def test_broken_link_raises_chain_failed(self):
        h = op("s", -PAULI_X)
        good = ChainNode(h, orthant("s", 2))
        bad = ChainNode(op("s2", np.diag([0.0, 1.0])), orthant("s2", 2))
        emb = identity_embedding("s", 2)
        chain = ArrowChain((good, bad), (emb,))
        with pytest.raises(ChainFailed) as err:
            quantum_number_along_chain(chain, h)
        assert err.value.index == 0


class TestDecoupledExtension:
    def base(self):
        return op("base", -PAULI_X)

    def test_pure_transverse_extension(self):
        h_star = self.base()
        h2 = kron(h_star, identity("env", 2)) - kron(identity("base", 2), op("env", PAULI_X))
        emb = append_factor_embedding("base", h2.space, 2, UNIFORM2)
        rep = is_decoupled_extension(h2, h_star, emb, orthant("env", 2))
        assert rep.decoupled
        assert np.allclose(rep.env_operator.mat, -PAULI_X, atol=1e-12)

    def test_coupled_perturbation_is_not(self):
        # best one-factor fit leaves residual ||(X - mean)(x)sx|| = 0.4
        h_star = self.base()
        x = op("base", np.diag([1.0, 0.2]))
        h2 = kron(h_star, identity("env", 2)) - kron(x, op("env", PAULI_X))
        emb = append_factor_embedding("base", h2.space, 2, UNIFORM2)
        rep = is_decoupled_extension(h2, h_star, emb, orthant("env", 2))
        assert not rep.decoupled
        assert rep.residual == pytest.approx(0.4, abs=1e-10)

    def test_bare_tensor_identity_is_not(self):
        # the zero environment term is reducible for dim >= 2
        h_star = self.base()
        h2 = kron(h_star, identity("env", 2))
        emb = append_factor_embedding("base", h2.space, 2, UNIFORM2)
        rep = is_decoupled_extension(h2, h_star, emb, orthant("env", 2))
        assert not rep.decoupled
        assert rep.residual <= 1e-12

    def test_tower_members_are_decoupled_extensions_of_predecessors(self):
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 3)
        for j in range(len(chain.nodes) - 1):
            prev = chain.nodes[j].hamiltonian
            nxt = chain.nodes[j + 1].hamiltonian
            rep = is_decoupled_extension(nxt, prev, chain.embeddings[j],
                                         orthant(f"q{j + 1}", 2))
            assert rep.decoupled


class TestRelativeEntropy:
    def test_zero_on_equal_states(self):
        rho = op("s", np.diag([0.3, 0.7]))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states_are_infinitely_far(self):
        rho = op("s", np.diag([1.0, 0.0]))
        sigma = op("s", np.diag([0.0, 1.0]))
        assert relative_entropy(rho, sigma) == math.inf

    def test_scalar_formula(self):
        rho = op("s", np.diag([0.5, 0.5]))
        sigma = op("s", np.diag([0.25, 0.75]))
        want = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert want == pytest.approx(0.14384103622589042, abs=1e-15)
        assert relative_entropy(rho, sigma) == pytest.approx(want, abs=1e-12)

    def test_rejects_non_density(self):
        with pytest.raises(NotDensityMatrix):
            relative_entropy(op("s", np.eye(2)), op("s", np.eye(2) / 2))


class TestGroundStateFactorizes:
    def test_decoupled_extension_is_weak(self):
        h_star = op("base", -PAULI_X)
        h2 = kron(h_star, identity("env", 2)) - kron(identity("base", 2), op("env", PAULI_X))
        rep = ground_state_factorizes(h2, h_star, orthant("env", 2))
        assert rep.weak
        assert rep.entropy <= 1e-9
        assert np.allclose(rep.omega, UNIFORM2, atol=1e-10)

    def test_coupled_extension_is_not_weak(self):
        h_star = op("base", -PAULI_X)
        x = op("base", np.diag([1.0, 0.2]))
        h2 = kron(h_star, identity("env", 2)) - kron(x, op("env", PAULI_X))
        rep = ground_state_factorizes(h2, h_star, orthant("env", 2))
        assert not rep.weak
        assert rep.entropy > 1e-6

    def test_trivial_environment(self):
        h_star = op("base", -PAULI_X)
        h2 = LinearOperator("base*e", h_star.mat.copy())
        rep = ground_state_factorizes(h2, h_star, orthant("e", 1))
        assert rep.weak
        assert np.allclose(rep.omega, [1.0], atol=1e-12)


class TestStabilityClassStructure:
    def test_record_collects_verified_members(self):
        h = seed_hamiltonian()
        cone = orthant("base", 2)
        record = StabilityClassRecord.for_base("H*", h, cone, h)
        tower = extension_tower(h, cone, h, 2)
        record.add_member("tower2", tower)
        assert len(record.members) == 1
        assert record.members[0][1].mu_star == record.mu_star

    def test_mismatched_member_is_rejected(self):
        # base -sx on the orthant has mu = +1 for O = sx; +sx on the cone
        # with a flipped second generator is improving-class with ground
        # state (1,-1)/sqrt(2), carrying mu = -1
        from conecalc.cones import SelfDualCone

        h = op("base", -PAULI_X)
        o = op("base", PAULI_X)
        record = StabilityClassRecord.for_base("H*", h, orthant("base", 2), o)
        assert record.mu_star == 1.0
        flipped = SelfDualCone("base", np.diag([1.0, -1.0]).astype(complex))
        foreign = ArrowChain((ChainNode(op("base", PAULI_X), flipped),), ())
        with pytest.raises(MuMismatch):
            record.add_member("foreign", foreign)

    def test_reachability_is_monotone(self):
        # members reachable from a later Hamiltonian are reachable from an
        # earlier one by chain concatenation
        h = seed_hamiltonian()
        cone = orthant("base", 2)
        c12 = extension_tower(h, cone, h, 1)
        h2 = c12.nodes[1].hamiltonian
        p2 = c12.nodes[1].cone
        c23 = extension_tower(h2, p2, kron(h, identity("q1", 2)), 1)
        joined = concatenate(c12, c23)
        verify_chain(joined)
        report = quantum_number_along_chain(joined, h)
        assert len(set(report.snapped)) == 1

    def test_relation_is_reflexive_and_transitive(self):
        h = op("s", -PAULI_X)
        p = orthant("s", 2)
        refl = ArrowChain((ChainNode(h, p), ChainNode(h, p)),
                          (identity_embedding("s", 2),))
        verify_chain(refl)  # H -> H
        both_ways = concatenate(refl, refl)  # symmetric closure on this pair
        verify_chain(both_ways)
