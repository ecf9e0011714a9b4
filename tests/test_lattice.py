import math

import numpy as np
import pytest

from conftest import (
    combined_factor_operator,
    expm_oracle,
    factor_cone,
    op,
    random_lattice_spec,
    rng,
)

from conecalc.cones import orthant
from conecalc import inheritance, lattice
from conecalc.errors import DimCap, DimMismatch, LinkFailed, SpecFailed
from conecalc.inheritance import ArrowChain, ChainNode, _kronecker_embedding, verify_chain
from conecalc.lattice import (
    LatticeSpec,
    build_lattice,
    build_node,
    hasse_export,
    subset_embedding,
    verify_spec,
)
from conecalc.numerics import DEFAULT_TOL, DIM_CAP, LinearOperator, hermitian_eig
from conecalc.positivity import generates_improving_semigroup, is_ergodic
from conecalc.stability import PAULI_X, is_decoupled_extension, quantum_number_along_chain

RING3 = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def demo_spec(ell: int = 3) -> LatticeSpec:
    """Two-level base with a flip observable; couplings with uniform Perron
    vectors so quantum numbers can transfer."""
    factors = [
        (2, op("f1", PAULI_X)),
        (3, op("f2", RING3)),
        (2, op("f3", PAULI_X)),
    ][:ell]
    return LatticeSpec(
        h0=op("base", -PAULI_X),
        cone=orthant("base", 2),
        observable=op("base", PAULI_X),
        x=op("base", np.eye(2) + 0.5 * PAULI_X),
        factors=tuple(factors),
    )


class TestVerifySpec:
    def test_demo_passes_everything(self):
        report = verify_spec(demo_spec())
        assert report.ok
        assert report.mu_compatible
        assert report.notes == ()

    def test_identity_coupling_is_not_ergodic(self):
        spec = demo_spec(1)
        bad = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                          ((2, op("f1", np.eye(2))),))
        report = verify_spec(bad)
        assert report.y_ergodic == (False,)
        assert not report.ok
        assert any("ergodic" in n for n in report.notes)

    def test_reducible_h0_is_named(self):
        spec = demo_spec(1)
        flat = LatticeSpec(op("base", np.eye(2)), spec.cone, spec.observable, spec.x,
                           spec.factors)
        report = verify_spec(flat)
        assert not report.h0_improving and report.h0_commutes
        assert report.notes == ("H0 is not improving-class on the base cone",)
        with pytest.raises(SpecFailed, match="^H0 is not improving-class on the base cone$"):
            build_lattice(flat)

    def test_non_commuting_h0_and_x_are_named(self):
        spec = demo_spec(1)
        tilted = op("base", -PAULI_X + 0.3 * np.diag([1.0, -1.0]))
        x = op("base", 2 * np.eye(2) + PAULI_X + 0.3 * np.diag([1.0, -1.0]))
        both = LatticeSpec(tilted, spec.cone, spec.observable, x, spec.factors)
        report = verify_spec(both)
        assert report.h0_improving and report.x_preserving
        assert not report.h0_commutes and not report.x_commutes
        assert report.notes == ("coupling operator X does not commute with the observable",
                                "H0 does not commute with the observable")
        with pytest.raises(SpecFailed, match="X does not commute.*; H0 does not commute"):
            build_lattice(both)

    def test_non_commuting_h0_alone_is_named(self):
        spec = demo_spec(1)
        tilted = op("base", -PAULI_X + 0.3 * np.diag([1.0, -1.0]))
        report = verify_spec(LatticeSpec(tilted, spec.cone, spec.observable, spec.x,
                                         spec.factors))
        assert report.notes == ("H0 does not commute with the observable",)

    def test_negative_entry_coupling_operator_fails_with_witness(self):
        spec = demo_spec(1)
        bad_x = op("base", np.eye(2) - 0.5 * PAULI_X)
        report = verify_spec(LatticeSpec(spec.h0, spec.cone, spec.observable,
                                         bad_x, spec.factors))
        assert not report.x_preserving
        assert any("negative" in n for n in report.notes)

    def test_factor_operators_may_live_on_any_space(self):
        spec = demo_spec()
        renamed = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                              tuple((n, op(f"slot{mu}", y.mat))
                                    for mu, (n, y) in enumerate(spec.factors, start=1)))
        assert verify_spec(renamed) == verify_spec(spec)
        assert build_lattice(renamed).to_payload() == build_lattice(spec).to_payload()

    def test_factor_dimension_must_match_its_operator(self):
        spec = demo_spec(2)
        want = r"^factor 2: n = 3 but Y_2 on 'f2' has dimension 2$"
        with pytest.raises(DimMismatch, match=want):
            LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                        (spec.factors[0], (3, op("f2", PAULI_X))))

    def test_non_uniform_coupling_spoils_mu_compatibility(self):
        spec = demo_spec(1)
        lopsided = np.array([[0.0, 1.0], [1.0, 1.0]])
        report = verify_spec(LatticeSpec(spec.h0, spec.cone, spec.observable,
                                         spec.x, ((2, op("f1", lopsided)),)))
        assert report.ok  # the standing assumptions themselves still hold
        assert not report.mu_compatible
        with pytest.raises(SpecFailed, match="uniform"):
            build_lattice(LatticeSpec(spec.h0, spec.cone, spec.observable,
                                      spec.x, ((2, op("f1", lopsided)),)))


class TestBuildNode:
    def test_empty_subset_is_the_base(self):
        spec = demo_spec()
        node = build_node(spec, ())
        assert np.array_equal(node.hamiltonian.mat, spec.h0.mat)
        assert node.embedding.dim_from == node.embedding.dim_to == 2
        assert node.mu_snapped == 1.0

    def test_singleton_matches_explicit_formula(self):
        spec = demo_spec()
        node = build_node(spec, (1,))
        want = np.kron(spec.h0.mat, np.eye(2)) - np.kron(spec.x.mat, PAULI_X)
        assert np.array_equal(node.hamiltonian.mat, want)
        assert generates_improving_semigroup(node.hamiltonian, node.cone)

    def test_singleton_ground_state_oracle(self):
        # with Y omega = omega, the node Hamiltonian restricted to the
        # uniform-factor sector is H0 - X, so the ground state is
        # psi_{H0 - X} (x) uniform and mu survives
        spec = demo_spec()
        node = build_node(spec, (1,))
        reduced = hermitian_eig(LinearOperator("base", spec.h0.mat - spec.x.mat))
        psi = hermitian_eig(node.hamiltonian).ground_vector
        want = np.kron(reduced.ground_vector, np.array([1.0, 1.0]) / math.sqrt(2))
        assert abs(np.vdot(psi, want)) == pytest.approx(1.0, abs=1e-10)
        assert node.mu_snapped == 1.0

    def test_middle_insertion_embedding(self):
        # {1,3} -> {1,2,3} inserts the uniform vector at the middle slot
        spec = demo_spec()
        emb = subset_embedding(spec, (1, 3), (1, 2, 3))
        assert emb.dim_from == 2 * 2 * 2
        assert emb.dim_to == 2 * 2 * 3 * 2
        x = rng(5).normal(size=8)
        pushed = emb.push(x)
        want = np.kron(np.kron(x.reshape(2, 2, 2), np.full(3, 1 / math.sqrt(3))[None, None, :, None]).reshape(-1), [1.0])
        # reshape oracle: insert axis of size 3 between slots 1 and 3
        tensor = x.reshape(2, 2, 2)
        expanded = np.einsum("abc,m->abmc", tensor, np.full(3, 1 / math.sqrt(3)))
        assert np.allclose(pushed, expanded.reshape(-1), atol=1e-12)

    def test_dim_cap(self):
        # 2 * 2^12 = 8192 > DIM_CAP: refused before any node matrix is formed
        spec = demo_spec()
        wide = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                           tuple((2, op(f"f{mu}", PAULI_X)) for mu in range(1, 13)))
        with pytest.raises(DimCap, match=f"total dimension 8192 exceeds cap {DIM_CAP}"):
            build_node(wide, ())
        with pytest.raises(DimCap):
            build_lattice(wide)


@pytest.fixture(scope="module")
def diagram():
    return build_lattice(demo_spec())


class TestBuildLattice:
    def test_counts_match_enumeration_oracle(self, diagram):
        ell = 3
        want_nodes = 2 ** ell
        want_edges = sum(math.comb(ell, k) * (ell - k) for k in range(ell + 1))
        assert want_edges == ell * 2 ** (ell - 1) == 12
        assert len(diagram.nodes) == want_nodes
        assert len(diagram.covering_edges) == want_edges

    def test_node_order_is_size_then_lex(self, diagram):
        subsets = [n.subset for n in diagram.nodes]
        assert subsets == sorted(subsets, key=lambda s: (len(s), s))
        assert subsets[0] == () and subsets[-1] == (1, 2, 3)

    def test_every_node_improving_class(self, diagram):
        for node in diagram.nodes:
            assert generates_improving_semigroup(node.hamiltonian, node.cone)

    def test_quantum_number_is_constant_after_snapping(self, diagram):
        values = {node.mu_snapped for node in diagram.nodes}
        assert values == {1.0}

    def test_combined_coupling_is_ergodic_on_every_node(self, diagram):
        spec = demo_spec()
        for node in diagram.nodes:
            if not node.subset:
                continue
            y = combined_factor_operator(spec, node.subset)
            assert is_ergodic(y, factor_cone(spec, node.subset)).ergodic

    def test_strict_positivity_of_sampled_matrix_elements(self, diagram):
        # <phi| e^{-H_I} |psi> > 0 for nonzero cone members phi, psi
        gen = rng(23)
        for node in diagram.nodes:
            e = expm_oracle(-node.hamiltonian.mat)
            for _ in range(5):
                phi = node.cone.from_coords(gen.uniform(0.0, 1.0, size=node.cone.dim))
                psi = node.cone.from_coords(gen.uniform(0.0, 1.0, size=node.cone.dim))
                assert np.vdot(phi, e @ psi).real > 0

    def test_order_preservation_along_saturated_paths(self, diagram):
        # every containment, not only coverings: the chain walking one slot at
        # a time verifies end to end
        spec = demo_spec()
        by_subset = {n.subset: n for n in diagram.nodes}
        subsets = list(by_subset)
        for small in subsets:
            for large in subsets:
                if small == large or not set(small) <= set(large):
                    continue
                path = [small]
                current = small
                for mu in sorted(set(large) - set(small)):
                    current = tuple(sorted(current + (mu,)))
                    path.append(current)
                nodes = tuple(ChainNode(by_subset[s].hamiltonian, by_subset[s].cone)
                              for s in path)
                embeddings = tuple(subset_embedding(spec, path[j], path[j + 1])
                                   for j in range(len(path) - 1))
                chain = ArrowChain(nodes, embeddings)
                verify_chain(chain)
                observable = by_subset[small].embedding.extend(spec.observable)
                report = quantum_number_along_chain(chain, observable)
                assert len(set(report.snapped)) == 1
                assert report.mu_star == pytest.approx(1.0, abs=1e-8)

    def test_coupled_nodes_are_inequivalent_to_base(self, diagram):
        # X != 1 makes every nonempty node a genuinely coupled extension
        spec = demo_spec()
        for node in diagram.nodes:
            if not node.subset:
                continue
            env_dim = node.hamiltonian.dim // spec.h0.dim
            env_cone = orthant("env", env_dim)
            rep = is_decoupled_extension(node.hamiltonian, spec.h0,
                                         node.embedding, env_cone)
            assert not rep.decoupled

    def test_single_slot_lattice(self):
        diagram = build_lattice(demo_spec(1))
        assert len(diagram.nodes) == 2
        assert len(diagram.covering_edges) == 1

    def test_decomposition_budget(self, decompositions):
        # no node-sized matrix is decomposed: each node's spectrum is one
        # batched eigh of its d0 x d0 blocks, each slot is decomposed once,
        # and so is the observable
        spec = demo_spec()
        diagram = build_lattice(spec)
        shapes = decompositions.shapes
        blocks = [s for name, s in shapes if name == "eigh" and len(s) == 3]
        assert sorted(blocks) == sorted((n.hamiltonian.dim // 2, 2, 2) for n in diagram.nodes)
        slots = [s for name, s in shapes if name == "eigh" and len(s) == 2]
        assert sorted(slots) == sorted([(n, n) for n, _ in spec.factors] + [(2, 2)])
        assert decompositions["eigh"] == len(diagram.nodes) + spec.ell + 1
        assert max(s[-1] for _, s in shapes) <= max(n for n, _ in spec.factors)

    def test_each_edge_checks_its_arrow_once(self, arrow_calls):
        diagram = build_lattice(demo_spec())
        assert len(diagram.covering_edges) == 12
        assert len(arrow_calls) == 12

    def test_a_failed_edge_is_named_in_the_chain_wording(self, monkeypatch):
        # the first edge appends -uniform: only the cone test would refuse
        # that sign, so with it passed, the edge fails on its ground overlap
        spec = demo_spec(1)

        def flipped(spec, small, large):
            emb = subset_embedding(spec, small, large)
            if small == large:
                return emb
            return _kronecker_embedding(emb.from_space, emb.to_space, [2, -lattice._uniform(2)])

        monkeypatch.setattr(inheritance, "inherits_positivity", lambda *args: True)
        monkeypatch.setattr(lattice, "subset_embedding", flipped)
        with pytest.raises(LinkFailed) as info:
            build_lattice(spec)
        assert info.value.index == 0
        assert info.value.reason.startswith("() -> (1,): ground overlap -")
        assert info.value.reason.endswith(" is not strictly positive")


class TestStructuralCriterionDecides:
    def test_improving_node_with_a_tiny_sampled_exponential_entry(self):
        # weak couplings leave e^{-H_{1}} strictly positive, but its smallest
        # generator-basis entry is ~1e-10 of its largest, below the default
        # tolerance: a sampled strict-positivity check would refuse this node
        spec = LatticeSpec(
            h0=op("base", np.eye(2) - 1e-5 * PAULI_X),
            cone=orthant("base", 2),
            observable=op("base", PAULI_X),
            x=op("base", np.eye(2)),
            factors=((3, op("f1", 1e-5 * (np.ones((3, 3)) - np.eye(3)))),),
        )
        diagram = build_lattice(spec)
        assert [node.mu_snapped for node in diagram.nodes] == [1.0, 1.0]
        assert diagram.assumptions == verify_spec(spec)
        e = expm_oracle(-diagram.node((1,)).hamiltonian.mat).real
        assert 0.0 < e.min() < DEFAULT_TOL * e.max()

    @pytest.mark.parametrize("seed", range(24))
    def test_improving_nodes_have_ergodic_couplings_and_positive_exponentials(self, seed):
        # Perron-Frobenius: -H_I Metzler and irreducible on the cone makes
        # every e^{-beta H_I}, beta > 0, strictly positive there
        spec = random_lattice_spec(rng(1000 + seed))
        assert verify_spec(spec).ok
        diagram = build_lattice(spec)
        for node in diagram.nodes:
            if node.subset:
                y = combined_factor_operator(spec, node.subset)
                assert is_ergodic(y, factor_cone(spec, node.subset)).ergodic
            g = node.cone.generators
            e = g.conj().T @ expm_oracle(-node.hamiltonian.mat) @ g
            assert e.real.min() > 0.0
            assert np.abs(e.imag).max() <= 1e-12 * e.real.max()


class TestHasseExport:
    def test_single_slot_text(self):
        dot = hasse_export(build_lattice(demo_spec(1)))
        assert dot == (
            "digraph hasse {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  h [label="H_{}"];\n'
            '  h1 [label="H_{1}"];\n'
            "  { rank=same; h; }\n"
            "  { rank=same; h1; }\n"
            "  h1 -> h;\n"
            "}\n"
        )

    def test_three_slot_structure(self):
        dot = hasse_export(build_lattice(demo_spec()))
        lines = dot.splitlines()
        assert sum(1 for ln in lines if "label=" in ln) == 8
        assert sum(1 for ln in lines if "->" in ln) == 12
        assert sum(1 for ln in lines if "rank=same" in ln) == 4

    def test_byte_stable_across_rebuilds(self):
        a = hasse_export(build_lattice(demo_spec()))
        b = hasse_export(build_lattice(demo_spec()))
        assert a == b
        assert a.encode("utf-8") == b.encode("utf-8")
