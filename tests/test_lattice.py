import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from conftest import (
    combined_factor_operator,
    edge_loop_oracle,
    expm_oracle,
    factor_cone,
    frame_oracle,
    link_oracle,
    op,
    oracle_record,
    quantum_number_oracle,
    random_lattice_spec,
    rng,
    same_bits,
    shifts_oracle,
    subset_embedding,
)

from conecalc.cones import SelfDualCone, _signed_cone, orthant
from conecalc import inheritance, lattice, numerics, positivity, stability
from conecalc.errors import DimCap, DimMismatch, LinkFailed, NotPreserving, SpecFailed
from conecalc.inheritance import (
    ArrowChain,
    ChainNode,
    verify_chain,
)
from conecalc.lattice import (
    LatticeSpec,
    build_lattice,
    build_node,
    hasse_export,
    verify_spec,
)
from conecalc.numerics import DEFAULT_TOL, DIM_CAP, LinearOperator, _slot_facts, hermitian_eig
from conecalc.positivity import (
    GroundState,
    NodeAnalysis,
    generates_improving_semigroup,
    is_ergodic,
)
from conecalc.stability import (
    PAULI_X,
    is_decoupled_extension,
    quantum_number_along_chain,
)

RING3 = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


def refuse(*args, **kwargs):
    raise AssertionError("an edge built an embedding of its own")


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


def expected_runs(spec: LatticeSpec, subsets, cap: int = DIM_CAP) -> list[int]:
    """The distinct shift bit patterns of each run of consecutive subsets
    that `build_lattice` decomposes together: a run takes the next subset
    while its frames, its nodes' dimensions times d0, hold no more than
    ``cap`` entries."""
    values = {mu: np.linalg.eigh(y.mat)[0] for mu, (_, y) in enumerate(spec.factors, start=1)}
    runs, rows = [set()], 0
    for subset in subsets:
        shifts = shifts_oracle([values[mu] for mu in subset])
        dim = spec.h0.dim * shifts.size
        if runs[-1] and (rows + dim) * spec.h0.dim > cap:
            runs.append(set())
            rows = 0
        runs[-1] |= set(shifts.view(np.int64).tolist())
        rows += dim
    return [len(run) for run in runs]


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

    def test_non_preserving_factor_is_named(self):
        spec = demo_spec()
        negated = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                              ((2, op("f1", -PAULI_X)),) + spec.factors[1:])
        report = verify_spec(negated)
        assert report.y_ergodic == (False, True, True)
        assert report.notes == ("Y_1 is not cone-preserving on its orthant",)
        with pytest.raises(SpecFailed, match="^Y_1 is not cone-preserving on its orthant$"):
            build_lattice(negated)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0)])
    def test_a_non_finite_factor_is_named(self, bad):
        spec = demo_spec()
        y = np.array(PAULI_X, dtype=type(bad))
        y[0, 1] = bad
        broken = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                             (spec.factors[0], (2, op("f2", y)), spec.factors[2]))
        report = verify_spec(broken)
        assert report.y_ergodic == (True, False, True)
        assert report.y_uniform_eigen == (True, False, True)
        assert report.notes == ("Y_2 has a non-finite entry",)
        with pytest.raises(SpecFailed, match="^Y_2 has a non-finite entry$"):
            build_lattice(broken)


def slot_oracle(y: np.ndarray, mu: int, tol: float = DEFAULT_TOL) -> tuple[bool, tuple]:
    """A slot's ergodicity verdict and note as `is_ergodic` gives them."""
    n = y.shape[0]
    try:
        report = is_ergodic(op(f"f{mu}", y), orthant(f"f{mu}", n), tol)
    except NotPreserving:
        return False, (f"Y_{mu} is not cone-preserving on its orthant",)
    if report.ergodic:
        return True, ()
    return False, (f"Y_{mu} is not ergodic: pair {report.failing_pair} unconnected",)


def ergodicity_cases(seed: int) -> list[np.ndarray]:
    """Seeded real slots of 1 to 6 rows, symmetric and directed: sparse
    supports, an all-zero slot, negative entries (some inside the tol band),
    -0.0 entries, and entries at tol max|Y| and one ulp either side of it."""
    gen = rng(52000 + seed)
    n = 1 + seed % 6
    scale = float(gen.uniform(0.5, 4.0))
    edge = DEFAULT_TOL * scale
    cases = [np.zeros((n, n))]
    for _ in range(6):
        y = gen.uniform(0.0, scale, (n, n)) * (gen.uniform(size=(n, n)) < 0.5)
        y[gen.uniform(size=(n, n)) < 0.2] = -0.0
        if gen.uniform() < 0.5:
            y = np.maximum(y, y.T)
        near = gen.uniform(size=(n, n)) < 0.4
        y[near] = gen.choice([edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)],
                             size=int(near.sum()))
        if gen.uniform() < 0.3:
            y[int(gen.integers(n)), int(gen.integers(n))] = -gen.choice(
                [edge, np.nextafter(edge, np.inf), 0.5 * scale])
        y.flat[int(gen.integers(n * n))] = scale  # max|Y| is the scale the band reads
        cases.append(y)
    # a directed ring whose one link sits at the edge of the band
    for link in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)):
        y = np.roll(np.eye(n), 1, axis=1) * scale
        y[n - 1, 0] = link
        cases.append(y)
    return cases


class TestErgodicityReading:
    @pytest.mark.parametrize("seed", range(36))
    def test_the_bottleneck_reading_is_the_reachability_one(self, seed):
        for y in ergodicity_cases(seed):
            ergodic, notes = slot_oracle(y, 1)
            assert lattice._ergodic_by_bottleneck(y, _slot_facts(y), DEFAULT_TOL) == ergodic
            spec = demo_spec(1)
            report = verify_spec(LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                                             ((y.shape[0], op("f1", y)),)))
            assert report.y_ergodic == (ergodic,)
            assert report.notes == notes

    def test_a_passing_lattice_reads_each_slot_once(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lattice, "is_ergodic", counted("is_ergodic", lattice.is_ergodic))
        monkeypatch.setattr(numerics, "_bottleneck", counted("_bottleneck", numerics._bottleneck))
        monkeypatch.setattr(LinearOperator, "norm", counted("norm", LinearOperator.norm))
        spec = demo_spec()
        spec = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                           spec.factors + ((3, op("f4", RING3)),))
        diagram = build_lattice(spec)
        assert diagram.assumptions.ok and diagram.assumptions._slot_facts is None
        assert calls == {"_bottleneck": 4}
        # a multiple of the identity is named by the reachability reading
        calls.clear()
        bad = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                          spec.factors[:3] + ((3, op("f4", 0.7 * np.eye(3))),))
        with pytest.raises(SpecFailed, match=r"^Y_4 is not ergodic: pair \(0, 1\) unconnected$"):
            build_lattice(bad)
        assert calls == {"_bottleneck": 4, "is_ergodic": 1}

    def test_the_report_compares_without_its_slot_facts(self):
        spec = demo_spec()
        report = verify_spec(spec)
        assert len(report._slot_facts) == 3 and "_slot_facts" not in repr(report)
        assert report._observable is not None and "_observable" not in repr(report)
        assert report == dataclasses.replace(report, _slot_facts=None, _observable=None)
        assert not {"_slot_facts", "_observable"} & set(report.to_payload())

    def test_a_passing_lattice_decomposes_its_observable_once(self, monkeypatch):
        # one eigh of O gives both commutation scales and the snap values
        spec = demo_spec()
        seen = []
        for name in ("eigh", "eigvalsh"):
            def recorded(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                if a is spec.observable.mat:
                    seen.append(_name)
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)
        diagram = build_lattice(spec)
        assert seen == ["eigh"]
        assert diagram.assumptions._observable is None

    def test_a_passing_lattice_decides_h0_s_verdict_once(self, monkeypatch):
        # verify_spec decides H0's improving verdict, and node (), whose
        # Hamiltonian is H0, takes it: every node is decided once
        decided = []
        original = positivity._improving

        def recorded(hs, cones, tol):
            decided.extend(h.dim for h in hs)
            return original(hs, cones, tol)

        monkeypatch.setattr(positivity, "_improving", recorded)
        spec = demo_spec()
        diagram = build_lattice(spec)
        assert len(decided) == len(diagram.nodes) == 2 ** spec.ell
        assert decided.count(spec.h0.dim) == 1

    @pytest.mark.parametrize("seed", range(24))
    def test_node_empty_s_own_verdict_is_the_spec_check_s(self, seed):
        # what makes the hand-over exact: the family's own reading of node ()
        # and verify_spec's dense reading of H0 agree, whether H0 is
        # improving, a multiple of the identity, not Metzler or has an
        # off-diagonal coordinate at the edge of the tolerance band
        gen = rng(99000 + seed)
        spec = random_lattice_spec(gen, structured=bool(seed % 2))
        q = spec.cone.generators
        coords = q.conj().T @ spec.h0.mat @ q
        kind = seed // 2 % 4
        if kind == 1:
            coords = gen.normal() * np.eye(len(coords))
        elif kind == 2:
            coords[0, 1] = coords[1, 0] = abs(coords[0, 1]) + 0.1
        elif kind == 3:
            band = DEFAULT_TOL * np.abs(coords).max()
            coords[0, 1] = coords[1, 0] = -band * (1 + gen.choice([-1e-6, 0.0, 1e-6]))
        h = q @ coords @ q.conj().T
        spec = LatticeSpec(op("base", 0.5 * (h + h.conj().T)), spec.cone, spec.observable,
                           spec.x, spec.factors)
        (((), record),), = lattice._family(spec).records([()])
        assert record.improving == generates_improving_semigroup(spec.h0, spec.cone)


class TestBuildNode:
    def test_empty_subset_is_the_base(self):
        spec = demo_spec()
        node = build_node(spec, ())
        assert np.array_equal(node.hamiltonian.mat, spec.h0.mat)
        assert node.hamiltonian.space == spec.h0.space
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

    def test_middle_insertion_embedding(self, edge_embeddings):
        # {1,3} -> {1,2,3} inserts the uniform vector at the middle slot
        spec = demo_spec()
        diagram = build_lattice(spec)
        emb = edge_embeddings(diagram)[diagram.covering_edges.index(((1, 3), (1, 2, 3)))]
        assert emb.dim_from == 2 * 2 * 2
        assert emb.dim_to == 2 * 2 * 3 * 2
        x = rng(5).normal(size=8)
        pushed = emb.isometry @ x
        # reshape oracle: insert axis of size 3 between slots 1 and 3
        tensor = x.reshape(2, 2, 2)
        expanded = np.einsum("abc,m->abmc", tensor, np.full(3, 1 / math.sqrt(3)))
        assert np.allclose(pushed, expanded.reshape(-1), atol=1e-12)

    def test_a_lattice_of_no_slots_is_its_base_node(self):
        # ell = 0: one node, no edge and so no run of edges, and the payload
        # that the loop over edges gave
        h0 = op("base", np.array([[0.3, -1.0], [-1.0, 0.3]]))
        spec = LatticeSpec(h0, orthant("base", 2), op("base", PAULI_X), op("base", np.eye(2)), ())
        diagram = build_lattice(spec)
        assert [node.subset for node in diagram.nodes] == [()]
        assert diagram.covering_edges == diagram.edge_overlaps == ()
        assert diagram.to_payload() == {
            "nodes": [{"subset": [], "dim": 2, "ground_energy": -0.7,
                       "mu": 0.9999999999999998, "mu_snapped": 1.0}],
            "edges": [], "edge_overlaps": [], "node_count": 1, "edge_count": 0,
        }

    def test_dim_cap(self):
        # 2 * 2^12 = 8192 > DIM_CAP: refused before any node matrix is formed
        spec = demo_spec()
        wide = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                           tuple((2, op(f"f{mu}", PAULI_X)) for mu in range(1, 13)))
        with pytest.raises(DimCap, match=f"Kronecker sum dimension 8192 exceeds cap {DIM_CAP}"):
            build_node(wide, ())
        with pytest.raises(DimCap):
            build_lattice(wide)

    def test_node_count_cap(self, monkeypatch):
        # 13 one-dimensional slots: every node has the base's dimension 2,
        # and 2^13 nodes are refused before the spec is checked
        spec = demo_spec()
        flat = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                           tuple((1, op(f"f{mu}", [[0.0]])) for mu in range(1, 14)))
        monkeypatch.setattr(lattice, "verify_spec", refuse)
        with pytest.raises(DimCap, match=rf"^lattice of 13 slots has 2\^13 nodes, over cap "
                                         rf"{DIM_CAP}$"):
            build_lattice(flat)


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
                phi = node.cone.generators @ gen.uniform(0.0, 1.0, size=node.cone.dim)
                psi = node.cone.generators @ gen.uniform(0.0, 1.0, size=node.cone.dim)
                assert np.vdot(phi, e @ psi).real > 0

    def test_order_preservation_along_saturated_paths(self, edge_embeddings):
        # every containment, not only coverings: the chain of the lattice's
        # own edges walking one slot at a time verifies end to end
        spec = demo_spec()
        diagram = build_lattice(spec)
        edges = dict(zip(diagram.covering_edges, edge_embeddings(diagram)))
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
                embeddings = tuple(edges[path[j], path[j + 1]] for j in range(len(path) - 1))
                chain = ArrowChain(nodes, embeddings)
                verify_chain(chain)
                observable = subset_embedding(spec, (), small).extend(spec.observable)
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
            rep = is_decoupled_extension(node.hamiltonian, spec.h0, env_cone)
            assert not rep.decoupled

    def test_single_slot_lattice(self):
        diagram = build_lattice(demo_spec(1))
        assert len(diagram.nodes) == 2
        assert len(diagram.covering_edges) == 1

    @pytest.mark.parametrize("cap", [DIM_CAP, 48])
    def test_decomposition_budget(self, decompositions, cap, monkeypatch):
        # no node-sized matrix is decomposed: the blocks of the nodes come
        # from one batched eigh per run of consecutive nodes, one block per
        # distinct shift bit pattern of the run, and a run grows while its
        # frames hold no more entries than the cap: the whole lattice at
        # DIM_CAP, and runs of at most 12 blocks, 24 rows, under a cap of
        # 48; each slot is decomposed once, and so is the observable
        spec = demo_spec()
        monkeypatch.setattr(numerics, "DIM_CAP", cap)
        diagram = build_lattice(spec)
        want = expected_runs(spec, [node.subset for node in diagram.nodes], cap)
        assert (len(want) == 1) is (cap == DIM_CAP) and max(want) <= cap // 4
        assert sum(want) < sum(n.hamiltonian.dim // 2 for n in diagram.nodes)
        shapes = decompositions.shapes
        blocks = [s for name, s in shapes if name == "eigh" and len(s) == 3]
        assert blocks == [(n, 2, 2) for n in want]
        matrices = [s for name, s in shapes if name == "eigh" and len(s) == 2]
        assert sorted(matrices) == sorted([(n, n) for n, _ in spec.factors] + [(2, 2)])
        assert decompositions["eigh"] == len(want) + spec.ell + 1
        assert max(s[-1] for _, s in shapes) <= max(n for n, _ in spec.factors)

    def test_repeated_slots_share_one_batch(self, decompositions):
        # six sigma_x slots, as `lattice_ell3` grown to its cap repeats y1:
        # the 64 nodes' shifts are the 13 integers -6..6, one run of 13
        # blocks, each decomposed once
        spec = LatticeSpec(demo_spec().h0, orthant("base", 2), op("base", PAULI_X),
                           demo_spec().x, tuple((2, op(f"f{mu}", PAULI_X)) for mu in range(1, 7)))
        build_lattice(spec)
        blocks = [s for name, s in decompositions.shapes if name == "eigh" and len(s) == 3]
        assert blocks == [(13, 2, 2)]

    def test_distinct_slots_hold_no_more_blocks_than_the_cap_allows(self, decompositions,
                                                                     monkeypatch):
        # generic slots share no shift, so 3^4 = 81 blocks over the lattice:
        # under a cap of 64 frame entries, the top node's, each run holds at
        # most 16 blocks, one per two rows, and no node keeps a block
        base = demo_spec()
        ys = [np.array([[a, b], [b, a]]) for a, b in [(0.1, 1.2), (0.3, 0.7), (0.2, 1.9),
                                                      (0.05, 0.45)]]
        spec = LatticeSpec(base.h0, base.cone, base.observable, base.x,
                           tuple((2, op(f"f{mu}", y)) for mu, y in enumerate(ys, start=1)))
        monkeypatch.setattr(numerics, "DIM_CAP", 64)
        diagram = build_lattice(spec)
        want = expected_runs(spec, [node.subset for node in diagram.nodes], 64)
        assert sum(want) == 81 and max(want) <= 16 and len(want) > 1
        blocks = [s for name, s in decompositions.shapes if name == "eigh" and len(s) == 3]
        assert blocks == [(n, 2, 2) for n in want]
        factors = diagram.nodes[-1].hamiltonian._factors
        assert [f.name for f in dataclasses.fields(factors)] == ["h0", "x", "slots", "table"]

    def test_each_edge_checks_its_arrow_once(self, monkeypatch):
        # the arrow of every link, a chain's (`check_arrow`) or an edge's,
        # is decided by `inheritance._arrow`: once per edge, on the records
        # of its two nodes, and no edge builds an embedding of its own
        calls, original = [], inheritance._arrow
        monkeypatch.setattr(lattice, "_arrow",
                            lambda *args: calls.append(args[:2]) or original(*args))
        monkeypatch.setattr(lattice, "_row_embedding", refuse)
        diagram = build_lattice(demo_spec())
        assert len(diagram.covering_edges) == 12
        space = {node.subset: node.hamiltonian.space for node in diagram.nodes}
        assert [(source.hamiltonian.space, target.hamiltonian.space) for source, target in calls] \
            == [(space[small], space[large]) for small, large in diagram.covering_edges]

    def test_a_failed_edge_is_named_in_the_chain_wording(self, monkeypatch):
        # the first edge inserts -uniform: only the cone test would refuse
        # that sign, so with it passed, the edge fails on its ground overlap
        spec = demo_spec(1)
        original = lattice._insertion_rows

        def flipped(below, n, above):
            cols, vals = original(below, n, above)
            return cols, -vals

        monkeypatch.setattr(lattice, "_inherited_rows",
                            lambda small, big, vals, tol: np.ones(vals.shape, dtype=bool))
        monkeypatch.setattr(lattice, "_insertion_rows", flipped)
        with pytest.raises(LinkFailed) as info:
            build_lattice(spec)
        assert info.value.index == 0
        assert info.value.reason.startswith("() -> (1,): ground overlap -")
        assert info.value.reason.endswith(" is not strictly positive")


@pytest.mark.parametrize("seed", range(12))
def test_edges_and_frames_have_the_bits_of_the_subset_oracle(seed, edge_embeddings, node_frames):
    # each covering edge is one slot insertion and each node frame one
    # _kron per slot; both keep the bits of one block per slot, among
    # slots of dimension 1, 2 and 3
    gen = rng(1900 + seed)
    spec = random_lattice_spec(gen, structured=seed % 2 == 0)
    factors = list(spec.factors)
    for _ in range(int(gen.integers(0, 3))):
        unit = op("unit", np.array([[gen.uniform(0.1, 2.0)]]))
        factors.insert(int(gen.integers(len(factors) + 1)), (1, unit))
    spec = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x, tuple(factors))
    diagram = build_lattice(spec)
    for (small, large), emb in zip(diagram.covering_edges, edge_embeddings(diagram)):
        want = subset_embedding(spec, small, large)
        assert (emb.from_space, emb.to_space) == (want.from_space, want.to_space)
        assert (emb.dim_to, emb.dim_from) == (want.dim_to, want.dim_from)
        assert same_bits(emb._cols, want._cols) and same_bits(emb._vals, want._vals)
        assert same_bits(emb.isometry, want.isometry)
    assert len(node_frames) == len(diagram.nodes)
    eye = np.eye(spec.h0.dim)
    for node, frame in zip(diagram.nodes, node_frames):
        assert same_bits(frame, subset_embedding(spec, (), node.subset).push(eye))


def shared_read_spec(seed: int) -> LatticeSpec:
    """A seeded lattice of one of three kinds: distinct random slots
    (`random_lattice_spec`), the same with 1 x 1 slots inserted among
    them, or the base of `demo_spec` with two to four sigma_x slots and
    RING3 inserted among them, so that many subsets share their shifts."""
    gen = rng(2100 + seed)
    if seed % 3 == 2:
        ys = [PAULI_X] * int(gen.integers(2, 5))
        ys.insert(int(gen.integers(len(ys) + 1)), RING3)
        base = demo_spec(1)
        return LatticeSpec(base.h0, base.cone, base.observable, base.x,
                           tuple((len(y), op(f"f{mu}", y)) for mu, y in enumerate(ys, start=1)))
    spec = random_lattice_spec(gen, structured=seed % 2 == 0)
    factors = list(spec.factors)
    if seed % 3 == 1:
        for _ in range(int(gen.integers(1, 3))):
            unit = op("unit", np.array([[gen.uniform(0.1, 2.0)]]))
            factors.insert(int(gen.integers(len(factors) + 1)), (1, unit))
    return LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x, tuple(factors))


def float_bits(value) -> str:
    return float(value).hex()


def same_table(got, want) -> bool:
    """Two `_EntryTable`s, or None, with the same bits."""
    if got is None or want is None:
        return got is want
    return same_bits(got.diagonal, want.diagonal) and all(
        (a is None and b is None) or float_bits(a) == float_bits(b)
        for a, b in zip(got[1:], want[1:]))


@pytest.mark.parametrize("seed", range(24))
def test_every_node_and_edge_has_the_bits_of_the_per_node_loops(seed):
    # the family reads each node's shifts, table and frame from its prefix
    # and its blocks from one cache; the per-node loops read each node on
    # its own.  Eigenvalues, ground vector, improving verdict, mu and every
    # edge overlap keep their bits
    spec = shared_read_spec(seed)
    diagram = build_lattice(spec)
    o_spectrum = hermitian_eig(spec.observable)
    snap_to = np.concatenate([o_spectrum.eigenvalues, [0.0]])
    records = {}
    for node in diagram.nodes:
        want = oracle_record(spec, node.subset)
        got = NodeAnalysis(node.hamiltonian, node.cone)
        factors = node.hamiltonian._factors
        assert same_bits(numerics._shifts(factors.slots),
                         shifts_oracle([slot.values for slot in want.hamiltonian._factors.slots]))
        assert same_table(factors.table, want.hamiltonian._factors.table)
        assert same_bits(got.spectrum.eigenvalues, want.spectrum.eigenvalues)
        assert same_bits(got.spectrum.ground_vector, want.spectrum.ground_vector)
        assert got.improving is want.improving is True
        frame = frame_oracle(spec.h0.dim, [spec.factors[mu - 1][0] for mu in node.subset])
        mu, mu_snapped = quantum_number_oracle(want, spec.observable, o_spectrum.norm, snap_to,
                                               frame)[:2]
        assert float_bits(node.mu) == float_bits(mu)
        assert float_bits(node.mu_snapped) == float_bits(mu_snapped)
        assert float_bits(node.ground_energy) == float_bits(want.ground.energy)
        records[node.subset] = want
    for j, (small, large) in enumerate(diagram.covering_edges):
        link = link_oracle(j, records[small], records[large],
                              subset_embedding(spec, small, large))
        assert float_bits(diagram.edge_overlaps[j]) == float_bits(link.overlap)



def explicit_spec() -> LatticeSpec:
    """The spec of `configs/lattice_explicit.json`: a real explicit base
    cone, the rotation by 45 degrees of the orthant."""
    half = math.sqrt(0.5)
    return LatticeSpec(
        h0=op("base", np.diag([-1.0, 1.0])), cone=SelfDualCone("base", [[half, half],
                                                                        [half, -half]]),
        observable=op("base", np.diag([1.0, -1.0])), x=op("base", np.diag([1.5, 0.5])),
        factors=((2, op("f1", [[0.0, 1.0], [1.0, 1.8e-10]])), (3, op("f2", RING3))))


def edge_spec(seed: int) -> LatticeSpec:
    """`shared_read_spec`, or on every fourth seed `explicit_spec`."""
    return explicit_spec() if seed % 4 == 3 else shared_read_spec(seed)


def lattice_records(spec: LatticeSpec, tol: float = DEFAULT_TOL):
    """The spec's family, its subsets and their records, read as
    `build_lattice` reads them."""
    family, subsets = lattice._family(spec), lattice._all_subsets(spec.ell)
    return family, subsets, {subset: record for run in family.records(subsets, tol)
                             for subset, record in run}


def edge_outcome(verify):
    """The edges and the overlap bits that ``verify()`` gives, or the type,
    index and words of what it raises."""
    try:
        edges, overlaps = verify()
    except (LinkFailed, ValueError) as exc:
        return type(exc).__name__, getattr(exc, "index", None), str(exc)
    return edges, [float_bits(overlap) for overlap in overlaps]


@pytest.mark.parametrize("cap", [DIM_CAP, 12])
@pytest.mark.parametrize("seed", range(24))
def test_batched_edges_have_the_bits_of_the_per_edge_loop(seed, cap, monkeypatch):
    # a run of edges pulls every target ground vector by one bincount and
    # tests all its edges in one array pass; the loop builds each edge's
    # embedding and decides it as a chain link.  Over sign cones with
    # negative base signs, explicit cones, real and complex, one-dimensional
    # slots and slots that share their shifts, in one run or, under a cap of
    # 12 rows, in many, the edges come in the same order and every overlap
    # has the same bits
    family, subsets, records = lattice_records(edge_spec(seed))
    monkeypatch.setattr(numerics, "DIM_CAP", cap)
    got = edge_outcome(lambda: lattice._covering_edges(family, records, subsets, DEFAULT_TOL))
    assert got == edge_outcome(lambda: edge_loop_oracle(family, records, subsets))
    assert len(got[0]) == len(family.dims) * 2 ** (len(family.dims) - 1)


def test_the_edge_specs_take_every_route(monkeypatch):
    # over the seeds above: a sign cone with a negative base sign, explicit
    # cones with real and with complex ground vectors, a one-dimensional
    # slot, and, under the cap of 12 rows, lattices read in more than one
    # run of edges
    seen, runs = Counter(), []
    original = lattice._verified_run
    monkeypatch.setattr(lattice, "_verified_run",
                        lambda *args: runs.append(args) or original(*args))
    for seed in range(24):
        family, subsets, records = lattice_records(edge_spec(seed))
        signs = family.cone._sign_basis
        seen["negative sign" if signs is not None and (signs.signs < 0).any() else
             "orthant" if signs is not None else "explicit"] += 1
        seen["complex"] += np.iscomplexobj(records[subsets[-1]].ground.vector)
        seen["one-dimensional slot"] += 1 in family.dims
        runs.clear()
        with monkeypatch.context() as capped:
            capped.setattr(numerics, "DIM_CAP", 12)
            lattice._covering_edges(family, records, subsets, DEFAULT_TOL)
        seen["runs > 1"] += len(runs) > 1
    assert all(seen[key] >= 2 for key in ("negative sign", "orthant", "explicit", "complex",
                                          "one-dimensional slot", "runs > 1")), seen


def injured(record: NodeAnalysis, injury: str, gen) -> NodeAnalysis:
    """A copy of a node's record with its ground vector negated, or one
    entry of it negated, or one generator of its cone negated."""
    out = NodeAnalysis(record.hamiltonian, record.cone, record.tol)
    ground = record.ground
    if injury == "cone":
        cone = record.cone
        if cone._sign_basis is not None:
            signs = cone._sign_basis.signs.copy()
            signs[int(gen.integers(signs.size))] *= -1.0
            cone = _signed_cone(cone.space, signs)
        else:
            generators = cone.generators.copy()
            generators[:, int(gen.integers(cone.dim))] *= -1.0
            cone = SelfDualCone(cone.space, generators)
        out = NodeAnalysis(record.hamiltonian, cone, record.tol)
        out.__dict__["spectrum"] = record.spectrum
        return out
    vector = -ground.vector if injury == "negated" else ground.vector.copy()
    if injury == "one entry":
        vector[int(np.abs(vector).argmax())] *= -1.0
    out.__dict__["improving"] = record.improving
    out.__dict__["ground"] = GroundState(ground.energy, ground.gap01, ground.simple, vector)
    return out


@pytest.mark.parametrize("cap", [DIM_CAP, 12])
@pytest.mark.parametrize("injury", ["negated", "one entry", "cone"])
def test_an_injured_node_fails_its_edges_as_the_per_edge_loop_does(injury, cap, monkeypatch):
    # one node's record injured, on each seed: the first edge that fails,
    # in one run or, under a cap of 12 rows, in a later one, raises
    # LinkFailed at the same index with the same words, and the injury
    # makes some edge fail on most seeds
    failed = 0
    for seed in range(24):
        gen = rng(2700 + seed)
        family, subsets, records = lattice_records(edge_spec(seed))
        subset = subsets[int(gen.integers(1, len(subsets)))]
        records[subset] = injured(records[subset], injury, gen)
        with monkeypatch.context() as capped:
            capped.setattr(numerics, "DIM_CAP", cap)
            got = edge_outcome(lambda: lattice._covering_edges(family, records, subsets,
                                                               DEFAULT_TOL))
        assert got == edge_outcome(lambda: edge_loop_oracle(family, records, subsets))
        failed += got[0] == "LinkFailed"
    assert failed >= 16


@pytest.mark.parametrize("seed", range(4))
def test_an_inheritance_tolerance_past_the_limit_raises_as_the_per_edge_loop_does(seed):
    family, subsets, records = lattice_records(edge_spec(seed), 0.75)
    got = edge_outcome(lambda: lattice._covering_edges(family, records, subsets, 0.75))
    assert got == edge_outcome(lambda: edge_loop_oracle(family, records, subsets))
    assert got == ("ValueError", None, "inheritance tolerance 0.75 must be below 1/sqrt(2)")


def test_a_read_node_lets_its_shifts_go():
    # a run's shifts are summed while the run is read and let go with it:
    # neither the family nor any node keeps them; a lone re-read sums them
    # again, slot by slot, with the same bits
    base = demo_spec()
    ys = [np.array([[a, 1.0 + a], [1.0 + a, a]]) for a in np.linspace(0.05, 0.9, 9)]
    spec = LatticeSpec(base.h0, base.cone, base.observable, base.x,
                       tuple((2, op(f"f{mu}", y)) for mu, y in enumerate(ys, start=1)))
    family = lattice._family(spec)
    for run in family.records(lattice._all_subsets(spec.ell)):
        assert not any(isinstance(value, dict) and value and isinstance(
            next(iter(value.values())), np.ndarray) for value in vars(family).values())
    diagram = build_lattice(spec)
    values = {mu: np.linalg.eigh(y.mat)[0] for mu, (_, y) in enumerate(spec.factors, start=1)}
    for node in diagram.nodes:
        factors = node.hamiltonian._factors
        assert not hasattr(factors, "shifts")
        assert same_bits(numerics._shifts(factors.slots),
                         shifts_oracle([values[mu] for mu in node.subset]))


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
        top = next(n for n in diagram.nodes if n.subset == (1,))
        e = expm_oracle(-top.hamiltonian.mat).real
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

    def test_the_ids_of_twelve_slots_are_distinct(self):
        # joined digits name both {12} and {1, 2} h12 once a slot index has
        # two digits; from 10 slots on the indices are joined by "_", and
        # below 10 the ids keep their bytes.  Combinatorics alone: every
        # subset of 12 slots, with no lattice built
        subsets = lattice._all_subsets(12)
        ids = {lattice._node_id(subset, 12) for subset in subsets}
        assert len(subsets) == len(ids) == 4096
        assert (lattice._node_id((1, 2), 12), lattice._node_id((12,), 12)) == ("h1_2", "h12")
        assert lattice._node_id((), 12) == "h"
        for ell in range(10):
            ids = [lattice._node_id(subset, ell) for subset in lattice._all_subsets(ell)]
            assert ids == ["h" + "".join(map(str, subset)) for subset in lattice._all_subsets(ell)]
            assert len(set(ids)) == 2 ** ell
