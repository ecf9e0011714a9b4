import weakref

import numpy as np
import pytest
from scipy.optimize import nnls

from conftest import cone_contains, op, random_metzler_generator, random_unit, rng
from test_cones import haar_cone

from conecalc.cones import SelfDualCone, orthant, tensor_cone
from conecalc.errors import ArrowFailed, DimMismatch, LinkFailed
from conecalc.inheritance import (
    ArrowChain,
    Embedding,
    append_factor_embedding,
    check_arrow,
    conditional_expectation,
    ground_overlap,
    identity_embedding,
    inherits_positivity,
    verify_chain,
)
from conecalc import positivity
from conecalc.numerics import DEFAULT_TOL, LinearOperator, identity, kron
from conecalc.positivity import NodeAnalysis, classify

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
UNIFORM2 = np.array([1.0, 1.0]) / np.sqrt(2.0)


def flip_op(space="s"):
    return op(space, -SIGMA_X)


def tower_link():
    """(H, orthant2) embedded into (H(x)1 - 1(x)sigma_x, tensor cone)."""
    h1 = flip_op("a")
    p1 = orthant("a", 2)
    h2 = kron(h1, identity("b", 2)) - kron(identity("a", 2), op("b", SIGMA_X))
    p2 = tensor_cone(p1, orthant("b", 2))
    emb = append_factor_embedding("a", h2.space, 2, UNIFORM2)
    return h1, p1, h2, p2, emb


def records(h1, p1, h2, p2, tol=DEFAULT_TOL):
    """The source and target records of one link, at one tolerance."""
    return NodeAnalysis(h1, p1, tol), NodeAnalysis(h2, p2, tol)


class TestEmbedding:
    def test_requires_orthonormal_columns(self):
        with pytest.raises(ValueError):
            Embedding("a", "b", np.array([[1.0], [1.0]]))

    def test_projection_is_idempotent(self):
        emb = append_factor_embedding("a", "ab", 3, UNIFORM2)
        pi = emb.projection().mat
        assert np.abs(pi @ pi - pi).max() <= 1e-12

    def test_compose(self):
        # appending v1 then v2 is appending v1 (x) v2
        e1 = append_factor_embedding("a", "ab", 2, UNIFORM2)
        e2 = append_factor_embedding("ab", "abc", 4, UNIFORM2)
        both = append_factor_embedding("a", "abc", 2, np.kron(UNIFORM2, UNIFORM2))
        x = random_unit(rng(3), 2)
        assert np.allclose(both.isometry @ x, e2.isometry @ (e1.isometry @ x))


    def test_an_appended_vector_is_judged_once_on_its_squared_norm(self):
        # |v| - 1 = 8e-11 is within ISOMETRY_TOL but v^* v - 1 = 1.6e-10 is
        # not: the refusal is the vector's own, not the isometry's it builds
        for vec in ([1 + 8e-11, 0.0], [1j * (1 + 8e-11), 0.0]):
            with pytest.raises(ValueError, match="^appended vector must be normalized$"):
                append_factor_embedding("a", "ab", 2, np.array(vec))
        for vec in ([1 + 4e-11, 0.0], [1j * (1 + 4e-11), 0.0]):
            assert append_factor_embedding("a", "ab", 2, np.array(vec)).dim_to == 4


class TestConeInheritance:
    def test_uniform_append_inherits(self):
        p1 = orthant("a", 2)
        p2 = tensor_cone(p1, orthant("b", 2))
        emb = append_factor_embedding("a", "a*b", 2, UNIFORM2)
        assert inherits_positivity(p1, p2, emb)
        # independent certificate: each small generator really is a nonneg
        # combination of the projected big generators
        pulled = emb.isometry.conj().T @ p2.generators
        stacked = np.vstack([pulled.real, pulled.imag])
        for i in range(2):
            u = p1.generators[:, i]
            _, residual = nnls(stacked, np.concatenate([u.real, u.imag]))
            assert residual <= 1e-10

    def test_identity_is_reflexive(self):
        p = haar_cone(5, 3)
        assert inherits_positivity(p, p, identity_embedding("s", 3))

    def test_basis_vector_append_inherits(self):
        p1 = orthant("a", 2)
        p2 = tensor_cone(p1, orthant("b", 2))
        emb = append_factor_embedding("a", "a*b", 2, np.array([1.0, 0.0]))
        assert inherits_positivity(p1, p2, emb)

    def test_signed_vector_append_fails(self):
        p1 = orthant("a", 2)
        p2 = tensor_cone(p1, orthant("b", 2))
        emb = append_factor_embedding("a", "a*b", 2, np.array([1.0, -1.0]) / np.sqrt(2))
        assert not inherits_positivity(p1, p2, emb)

    @pytest.mark.parametrize("angle, inherited", [(0.6e-8, True), (0.9e-8, False)])
    def test_tolerance_scale_tilt_is_decided_by_the_rays(self, angle, inherited):
        # u_0 is tilted by angle and phase-shifted by angle: each pulled
        # generator is in the small cone within tol, and e_0, the only one
        # near the ray of u_0, sits sqrt(2) * angle off it
        c, s = np.cos(angle), np.sin(angle)
        p1 = SelfDualCone("s", np.array([[c, s], [-s, c]]) * [np.exp(1j * angle), 1.0])
        p2 = orthant("s", 2)
        emb = identity_embedding("s", 2)
        assert all(cone_contains(p1, g, 1e-8) for g in p2.generators.T)
        assert nnls_inherits(p1, p2, emb) == inherited
        assert inherits_positivity(p1, p2, emb, 1e-8) == inherited


def nnls_inherits(p1, p2, emb, tol=1e-8):
    """The three-condition test with one nonnegative-least-squares solve per
    small-cone generator: the oracle for `inherits_positivity`."""
    if not classify(emb.projection(), p2, tol).preserving:
        return False
    pulled = emb.isometry.conj().T @ p2.generators
    for j in range(pulled.shape[1]):
        if not cone_contains(p1, pulled[:, j], tol):
            return False
    stacked = np.vstack([pulled.real, pulled.imag])
    for i in range(p1.dim):
        u = p1.generators[:, i]
        _, residual = nnls(stacked, np.concatenate([u.real, u.imag]))
        if residual > tol:
            return False
    return True


def random_unitary(gen, n, real):
    a = gen.normal(size=(n, n))
    if not real:
        a = a + 1j * gen.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_small_cone(gen, space, n):
    kind = gen.integers(3)
    if kind == 0:
        return orthant(space, n)
    return SelfDualCone(space, random_unitary(gen, n, real=kind == 1))


def random_factor_cone(gen, space, d):
    kind = gen.integers(4)
    if kind == 0:
        gens = np.eye(d)
    elif kind == 1:
        gens = np.eye(d)[:, gen.permutation(d)]
    elif kind == 2:
        gens = np.diag(gen.choice([-1.0, 1.0], size=d))
    else:
        gens = random_unitary(gen, d, real=True)
    return SelfDualCone(space, gens)


def random_append_vector(gen, factor):
    kind = gen.integers(4)
    d = factor.dim
    if kind == 0:  # interior of the factor cone
        v = factor.generators @ gen.uniform(0.1, 1.0, size=d)
    elif kind == 1:
        v = np.eye(d)[gen.integers(d)]
    elif kind == 2:
        v = gen.normal(size=d)
    else:
        v = np.ones(d)
    return v / np.linalg.norm(v)


def random_inheritance_case(gen):
    """(small cone, big cone, append-vector embedding) over a product space."""
    n, d = int(gen.integers(1, 5)), int(gen.integers(2, 4))
    p1 = random_small_cone(gen, "a", n)
    factor = random_factor_cone(gen, "b", d)
    p2 = tensor_cone(p1, factor)
    if gen.random() < 0.15:  # a big cone with no product structure at all
        p2 = SelfDualCone(p2.space, random_unitary(gen, n * d, real=bool(gen.integers(2))))
    emb = append_factor_embedding("a", p2.space, n, random_append_vector(gen, factor))
    return p1, p2, emb


def test_agrees_with_nnls_oracle_on_random_cases():
    gen = rng(2024)
    verdicts = []
    for case in range(1200):
        p1, p2, emb = random_inheritance_case(gen)
        expected = nnls_inherits(p1, p2, emb)
        assert inherits_positivity(p1, p2, emb) == expected, f"case {case}"
        verdicts.append(expected)
    share = sum(verdicts) / len(verdicts)
    assert 0.3 <= share <= 0.7, share


def test_rejects_tolerance_past_the_dominant_coordinate_bound():
    p = orthant("s", 2)
    with pytest.raises(ValueError):
        inherits_positivity(p, p, identity_embedding("s", 2), tol=0.75)


class TestConditionalExpectation:
    def test_block_diagonal_is_fixed(self):
        emb = append_factor_embedding("a", "ab", 2, np.array([1.0, 0.0]))
        pi = emb.projection().mat
        gen = rng(7)
        a = gen.normal(size=(4, 4))
        block = pi @ a @ pi + (np.eye(4) - pi) @ a @ (np.eye(4) - pi)
        fixed = conditional_expectation(emb, op("ab", block))
        assert np.allclose(fixed.mat, block, atol=1e-12)

    def test_cross_terms_vanish(self):
        emb = append_factor_embedding("a", "ab", 2, np.array([1.0, 0.0]))
        x = emb.isometry @ random_unit(rng(9), 2)        # inside ran(pi)
        y = np.kron(random_unit(rng(11), 2), [0.0, 1.0])  # inside ran(pi)^perp
        cross = np.outer(x, y.conj())
        assert np.abs(conditional_expectation(emb, op("ab", cross)).mat).max() <= 1e-12

    def test_embedded_operator_is_fixed(self):
        # operators living on the embedded copy pass through unchanged
        emb = append_factor_embedding("a", "ab", 3, UNIFORM2)
        o = op("a", random_metzler_generator(rng(13), 3))
        extended = emb.extend(o)
        fixed = conditional_expectation(emb, extended)
        assert np.allclose(fixed.mat, extended.mat, atol=1e-12)


class TestArrow:
    def test_tower_link_verifies(self):
        h1, p1, h2, p2, emb = tower_link()
        assert check_arrow(*records(h1, p1, h2, p2), emb)

    def test_reflexive(self):
        h = flip_op()
        p = orthant("s", 2)
        assert check_arrow(*records(h, p, h, p), identity_embedding("s", 2))

    @pytest.mark.parametrize("tol, ok", [(1e-4, True), (1e-9, False)])
    def test_inheritance_runs_at_the_arrow_tolerance(self, tol, ok):
        # the small cone is the orthant tilted by 1e-6, and h1 is -sigma_x in
        # its generator basis, so only the inheritance test sees the tilt
        angle = 1e-6
        c, s = np.cos(angle), np.sin(angle)
        p1 = SelfDualCone("s", np.array([[c, s], [-s, c]]))
        h1 = op("s", p1.generators @ -SIGMA_X @ p1.generators.T)
        res = check_arrow(*records(h1, p1, flip_op(), orthant("s", 2), tol),
                          identity_embedding("s", 2))
        assert res.ok == ok
        assert res.reasons == (() if ok else ("cone inheritance failed",))

    def test_reducible_target_fails_with_reason(self):
        h1, p1, _, p2, emb = tower_link()
        decoupled = kron(flip_op("a"), identity("b", 2))  # no coupling on factor 2
        res = check_arrow(*records(h1, p1, decoupled, p2), emb)
        assert not res
        assert any("improving" in r for r in res.reasons)


class TestGroundOverlap:
    def test_tower_link_overlap_is_one(self):
        # ground state of the extension is psi (x) uniform, and the embedding
        # appends exactly the uniform vector
        h1, p1, h2, p2, emb = tower_link()
        rep = ground_overlap(*records(h1, p1, h2, p2), emb)
        assert rep.overlap == pytest.approx(1.0, abs=1e-12)
        assert rep.improving_ok

    def test_identity_link(self):
        h = flip_op()
        p = orthant("s", 2)
        rep = ground_overlap(*records(h, p, h, p), identity_embedding("s", 2))
        assert rep.overlap == pytest.approx(1.0, abs=1e-12)

    def test_random_verified_link_has_positive_overlap(self):
        gen = rng(17)
        h1 = op("a", random_metzler_generator(gen, 4))
        p1 = orthant("a", 4)
        h2 = kron(h1, identity("b", 2)) - kron(identity("a", 4), op("b", SIGMA_X))
        p2 = tensor_cone(p1, orthant("b", 2))
        emb = append_factor_embedding("a", h2.space, 4, UNIFORM2)
        rep = ground_overlap(*records(h1, p1, h2, p2), emb)
        assert rep.overlap > 1e-6

    def test_requires_arrow(self):
        h1, p1, _, p2, emb = tower_link()
        bad = kron(identity("a", 2), identity("b", 2))
        with pytest.raises(ArrowFailed):
            ground_overlap(*records(h1, p1, bad, p2), emb)


def three_link_tower():
    h = flip_op("a")
    p = orthant("a", 2)
    nodes = [NodeAnalysis(h, p)]
    embeddings = []
    for level in range(3):
        aux = f"b{level}"
        h2 = kron(nodes[-1].hamiltonian, identity(aux, 2)) - kron(
            identity(nodes[-1].hamiltonian.space, nodes[-1].hamiltonian.dim),
            op(aux, SIGMA_X))
        p2 = tensor_cone(nodes[-1].cone, orthant(aux, 2))
        embeddings.append(append_factor_embedding(
            nodes[-1].hamiltonian.space, h2.space, nodes[-1].hamiltonian.dim, UNIFORM2))
        nodes.append(NodeAnalysis(h2, p2))
    return ArrowChain(tuple(nodes), tuple(embeddings))


class TestChain:
    def test_singleton_chain(self):
        chain = ArrowChain((NodeAnalysis(flip_op(), orthant("s", 2)),), ())
        report = verify_chain(chain)
        assert report.overlaps == ()
        assert report.product == 1.0

    def test_three_link_tower_overlaps_are_one(self):
        report = verify_chain(three_link_tower())
        assert len(report.overlaps) == 3
        for o in report.overlaps:
            assert o == pytest.approx(1.0, abs=1e-10)
        assert report.product == pytest.approx(1.0, abs=1e-10)

    def test_each_link_checks_its_arrow_once(self, arrow_calls):
        verify_chain(three_link_tower())
        assert len(arrow_calls) == 3

    def test_broken_middle_link_is_localized(self):
        chain = three_link_tower()
        # swap link 1's embedding for a signed vector: inheritance fails there
        bad = append_factor_embedding(
            chain.nodes[1].hamiltonian.space, chain.nodes[2].hamiltonian.space,
            chain.nodes[1].hamiltonian.dim, np.array([1.0, -1.0]) / np.sqrt(2))
        broken = ArrowChain(chain.nodes,
                            (chain.embeddings[0], bad, chain.embeddings[2]))
        with pytest.raises(LinkFailed) as err:
            verify_chain(broken)
        assert err.value.index == 1
        assert str(err.value) == "link 1: cone inheritance failed"

    def test_a_kept_failure_keeps_no_node_alive(self):
        chain = three_link_tower()
        bad = append_factor_embedding(
            chain.nodes[1].hamiltonian.space, chain.nodes[2].hamiltonian.space,
            chain.nodes[1].hamiltonian.dim, np.array([1.0, -1.0]) / np.sqrt(2))
        broken = ArrowChain(chain.nodes, (chain.embeddings[0], bad, chain.embeddings[2]))
        nodes = [weakref.ref(node.hamiltonian) for node in chain.nodes]
        del chain, bad
        with pytest.raises(LinkFailed) as err:
            verify_chain(broken)
        del broken
        assert err.value.index == 1
        assert [node() for node in nodes] == [None] * 4

    def test_concatenation_of_verified_chains_verifies(self):
        first = three_link_tower()
        h_end = first.nodes[-1].hamiltonian
        p_end = first.nodes[-1].cone
        h_next = kron(h_end, identity("c", 2)) - kron(
            identity(h_end.space, h_end.dim), op("c", SIGMA_X))
        p_next = tensor_cone(p_end, orthant("c", 2))
        emb = append_factor_embedding(h_end.space, h_next.space, h_end.dim, UNIFORM2)
        second = ArrowChain((NodeAnalysis(h_end, p_end), NodeAnalysis(h_next, p_next)), (emb,))
        verify_chain(second)
        joined = ArrowChain(first.nodes[:-1] + second.nodes,
                            first.embeddings + second.embeddings)
        assert len(joined.nodes) == 5
        verify_chain(joined)

    def test_mismatched_concatenation_rejected(self):
        first = three_link_tower()
        other = ArrowChain((NodeAnalysis(flip_op(), orthant("s", 2)),), ())
        with pytest.raises(DimMismatch):
            ArrowChain(first.nodes[:-1] + other.nodes, first.embeddings + other.embeddings)


class TestCompressionPreservation:
    def test_compressions_of_preserving_operators_preserve(self):
        # downward: tau^* A tau preserves the small cone when A preserves the
        # big one; upward: A(+)0 preserves the big cone and is fixed by the
        # conditional expectation
        gen = rng(19)
        p1 = orthant("a", 3)
        p2 = tensor_cone(p1, orthant("b", 2))
        emb = append_factor_embedding("a", "a*b", 3, UNIFORM2)
        assert inherits_positivity(p1, p2, emb)
        for _ in range(100):
            big = op("a*b", p2.generators @ np.abs(gen.normal(size=(6, 6)))
                    @ p2.generators.conj().T)
            assert classify(big, p2).preserving
            small = emb.compress(LinearOperator("a*b", big.mat))
            assert classify(small, p1).preserving

            a = op("a", p1.generators @ np.abs(gen.normal(size=(3, 3)))
                   @ p1.generators.conj().T)
            assert classify(a, p1).preserving
            extended = emb.extend(a)
            assert classify(extended, p2).preserving
            fixed = conditional_expectation(emb, extended)
            assert np.allclose(fixed.mat, extended.mat, atol=1e-12)

    def test_compressed_ground_projector_preserves_small_cone(self):
        # the compressed ground-state projector of a verified link preserves
        # (indeed improves) the small cone
        h1, p1, h2, p2, emb = tower_link()
        from conecalc.positivity import ground_state

        g2 = ground_state(h2, p2)
        rho = np.outer(g2.vector, g2.vector.conj())
        compressed = emb.compress(op(h2.space, rho))
        rep = classify(compressed, p1)
        assert rep.preserving and rep.improving


class TestRecordOperands:
    def test_arrow_reads_the_records_verdicts(self, monkeypatch):
        h1, p1, h2, p2, emb = tower_link()
        pair = records(h1, p1, h2, p2)
        assert all(record.improving for record in pair)
        calls = []
        monkeypatch.setattr(positivity, "generates_improving_semigroup",
                            lambda *args: calls.append(args))
        assert check_arrow(*pair, emb)
        assert ground_overlap(*pair, emb).overlap == pytest.approx(1.0, abs=1e-12)
        assert calls == []

    def test_records_at_different_tolerances_are_refused(self):
        h1, p1, h2, p2, emb = tower_link()
        pair = NodeAnalysis(h1, p1), NodeAnalysis(h2, p2, 1e-6)
        for check in (check_arrow, ground_overlap):
            with pytest.raises(ValueError, match="records at tolerances"):
                check(*pair, emb)
