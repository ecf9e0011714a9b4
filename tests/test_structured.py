"""Signed-permutation cones and Kronecker embeddings against the dense path.

Each structured cone is compared with the explicit cone of its own generator
matrix, and each Kronecker embedding with the isometry embedding of its own
matrix (`conftest.dense_cone`, `conftest.dense_embedding`).  Values must be
equal under `np.array_equal`, verdicts and payloads identical, and a reported
witness must carry the same sign of zero.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import dense_cone, dense_embedding, random_spin_system, rng, same_bits

from conecalc.cones import SelfDualCone, _signed_permutation_cone, orthant, tensor_cone
from conecalc.errors import NotPreserving
from conecalc.inheritance import (
    Embedding,
    _kronecker_embedding,
    append_factor_embedding,
    identity_embedding,
    inherits_positivity,
)
from conecalc.jsonio import canonical_dumps
from conecalc.lattice import LatticeSpec, subset_embedding
from conecalc.numerics import LinearOperator
from conecalc.positivity import classify, generates_improving_semigroup, is_ergodic
from conecalc.spin import m_sector, marshall_cone

SEEDS = range(60)


def signed_factor(gen: np.random.Generator, space: str, n: int) -> SelfDualCone:
    """An orthant, a negated orthant, a permuted orthant or a random signed
    permutation."""
    kind = int(gen.integers(4))
    if kind == 0:
        return orthant(space, n)
    rows = np.arange(n) if kind == 1 else gen.permutation(n)
    signs = {1: -np.ones(n), 2: np.ones(n), 3: gen.choice([-1.0, 1.0], n)}[kind]
    return _signed_permutation_cone(space, rows, signs)


def sector_cone(gen: np.random.Generator) -> SelfDualCone:
    """The Marshall cone of a random magnetization sector of 2-6 spins."""
    n = int(gen.integers(2, 7))
    system = random_spin_system(gen, n)
    return marshall_cone(system, m_sector(n, n / 2.0 - int(gen.integers(0, n + 1))))


def structured_cone(seed: int) -> SelfDualCone:
    """A signed permutation, a tensor product of two or three of them, or a
    Marshall sector cone."""
    gen = rng(seed)
    if seed % 5 == 4:
        return sector_cone(gen)
    cone = signed_factor(gen, "a", int(gen.integers(1, 5)))
    for k in range(int(gen.integers(0, 3))):
        cone = tensor_cone(cone, signed_factor(gen, f"b{k}", int(gen.integers(1, 4))))
    return cone


def in_basis(cone: SelfDualCone, m: np.ndarray) -> LinearOperator:
    """The operator whose generator-basis matrix is m; exact, as every entry
    of G m G^* is a single term times +-1."""
    g = cone.generators
    return LinearOperator(cone.space, g @ m @ g.conj().T)


def coordinate_matrices(gen: np.random.Generator, n: int) -> list[np.ndarray]:
    """Nonnegative with zeros, strictly positive, with negative entries,
    complex, zero, and with -0.0 entries."""
    sparse = gen.uniform(0.0, 1.0, (n, n)) * (gen.uniform(size=(n, n)) < 0.5)
    signed = gen.normal(size=(n, n))
    negzero = np.where(gen.uniform(size=(n, n)) < 0.5, -0.0, gen.uniform(0.0, 1.0, (n, n)))
    return [sparse, gen.uniform(0.5, 1.0, (n, n)), signed,
            signed + 1j * gen.normal(size=(n, n)), np.zeros((n, n)), negzero,
            -sparse]


def zero_signs(witness) -> tuple[bool, bool] | None:
    if witness is None:
        return None
    return bool(np.signbit(witness[2].real)), bool(np.signbit(witness[2].imag))


def random_real_unit(gen: np.random.Generator, k: int) -> np.ndarray:
    """Positive, mixed-sign, or with a zero entry."""
    kind = int(gen.integers(3))
    v = gen.uniform(0.1, 1.0, k)
    if kind == 1:
        v *= gen.choice([-1.0, 1.0], k)
    if kind == 2 and k > 1:
        v[int(gen.integers(k))] = 0.0
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("seed", SEEDS)
class TestConeOracle:
    def test_generators_are_built_only_when_read(self, seed):
        cone = structured_cone(seed)
        cone.coords(np.ones(cone.dim))
        classify(LinearOperator(cone.space, np.eye(cone.dim)), cone)
        assert "generators" not in cone.__dict__
        g = cone.generators
        assert np.array_equal(g.conj().T @ g, np.eye(cone.dim))
        assert cone.generators is g

    def test_coordinates_and_membership(self, seed):
        cone = structured_cone(seed)
        dense = dense_cone(cone)
        gen = rng(1000 + seed)
        n = cone.dim
        g = cone.generators
        vectors = [gen.normal(size=n), gen.normal(size=n) + 1j * gen.normal(size=n),
                   g @ gen.uniform(0.0, 1.0, n), g @ gen.uniform(0.5, 1.0, n),
                   g[:, int(gen.integers(n))], np.zeros(n),
                   g @ np.where(np.arange(n) == 0, -1e-12, 1.0)]
        for x in vectors:
            assert np.array_equal(cone.coords(x), dense.coords(x))
            assert cone.contains(x) == dense.contains(x)
            assert cone.strictly_positive(x) == dense.strictly_positive(x)
            assert np.array_equal(cone.involution(x), dense.involution(x))
        for m in coordinate_matrices(gen, n):
            a = in_basis(cone, m)
            assert np.array_equal(cone.operator_coords(a), dense.operator_coords(a))
            a = LinearOperator(cone.space, m)
            assert np.array_equal(cone.operator_coords(a), dense.operator_coords(a))

    def test_classification_payloads(self, seed):
        cone = structured_cone(seed)
        dense = dense_cone(cone)
        gen = rng(2000 + seed)
        for m in coordinate_matrices(gen, cone.dim):
            for a in (in_basis(cone, m), LinearOperator(cone.space, m)):
                report, oracle = classify(a, cone), classify(a, dense)
                assert report == oracle
                assert zero_signs(report.witness) == zero_signs(oracle.witness)
                assert canonical_dumps(report.to_payload()) == canonical_dumps(oracle.to_payload())
                if not oracle.preserving:
                    with pytest.raises(NotPreserving):
                        is_ergodic(a, cone)
                    continue
                ergodic, expected = is_ergodic(a, cone), is_ergodic(a, dense)
                assert np.array_equal(ergodic.k_table, expected.k_table)
                assert ergodic.borderline == expected.borderline
                assert canonical_dumps(ergodic.to_payload()) == canonical_dumps(expected.to_payload())

    def test_improving_semigroup_verdicts(self, seed):
        cone = structured_cone(seed)
        dense = dense_cone(cone)
        gen = rng(3000 + seed)
        n = cone.dim
        for split in (None, int(gen.integers(1, n)) if n > 1 else None):
            off = -np.abs(gen.normal(size=(n, n)))
            off = 0.5 * (off + off.T)
            if split is not None:
                off[:split, split:] = off[split:, :split] = 0.0
            np.fill_diagonal(off, gen.normal(size=n))
            for m in (off, -off, off + 0.2 * np.eye(n)):
                h = in_basis(cone, m)
                assert (generates_improving_semigroup(h, cone)
                        == generates_improving_semigroup(h, dense))


class TestNegativeZero:
    def test_zero_witness_on_a_negated_orthant(self):
        # the gather and the dense product may give a zero entry different
        # signs; the report carries +0.0 either way
        cone = _signed_permutation_cone("s", [0, 1], [-1.0, -1.0])
        a = LinearOperator("s", np.array([[1.0, -0.0], [-0.0, 1.0]]))
        report, oracle = classify(a, cone), classify(a, dense_cone(cone))
        assert report.preserving and not report.improving
        assert report.witness == oracle.witness == (0, 1, 0j)
        assert zero_signs(report.witness) == zero_signs(oracle.witness) == (False, False)
        assert report.to_payload() == oracle.to_payload()


@pytest.mark.parametrize("seed", SEEDS)
class TestEmbeddingOracle:
    def test_append_embedding_products(self, seed):
        gen = rng(4000 + seed)
        d, k = int(gen.integers(1, 6)), int(gen.integers(1, 4))
        v = random_real_unit(gen, k)
        emb = append_factor_embedding("s", "s*e", d, v)
        assert same_bits(emb.isometry, np.kron(np.eye(d), v.reshape(-1, 1)))
        dense = dense_embedding(emb)
        a = LinearOperator("s", gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
        assert np.array_equal(emb.extend(a).mat, dense.extend(a).mat)
        assert np.array_equal(emb.projection().mat, dense.projection().mat)

    def test_subset_embedding_products(self, seed):
        gen = rng(5000 + seed)
        h0 = LinearOperator("base", np.eye(int(gen.integers(1, 4))))
        dims = [int(n) for n in gen.integers(2, 4, size=int(gen.integers(1, 4)))]
        spec = LatticeSpec(h0, orthant("base", h0.dim), h0, h0,
                           tuple((n, LinearOperator(f"f{mu}", np.ones((n, n))))
                                 for mu, n in enumerate(dims, start=1)))
        large = tuple(mu for mu in range(1, len(dims) + 1) if gen.uniform() < 0.7)
        small = tuple(mu for mu in large if gen.uniform() < 0.5)
        emb = subset_embedding(spec, small, large)
        tau = np.eye(h0.dim)  # the dense construction
        for mu in large:
            n = dims[mu - 1]
            tau = np.kron(tau, np.eye(n) if mu in small else np.full((n, 1), 1 / math.sqrt(n)))
        assert same_bits(emb.isometry, tau)
        dense = dense_embedding(emb)
        a = LinearOperator(emb.from_space, gen.normal(size=(emb.dim_from, emb.dim_from)))
        assert np.array_equal(emb.extend(a).mat, dense.extend(a).mat)
        assert np.array_equal(emb.projection().mat, dense.projection().mat)

    def test_orthonormality_verdict(self, seed):
        gen = rng(6000 + seed)
        d = int(gen.integers(1, 4))
        vectors = [random_real_unit(gen, int(gen.integers(1, 4)))
                   * (1.0 + float(gen.choice([0.0, 1e-12, 3e-11, -3e-11, 2e-10, 1e-6])))
                   for _ in range(int(gen.integers(1, 3)))]
        tau = np.eye(d)
        for v in vectors:
            tau = np.kron(tau, v.reshape(-1, 1))
        try:
            Embedding("s", "t", tau)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        try:
            emb = _kronecker_embedding("s", "t", [d, *vectors])
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected
        if got is None:
            assert same_bits(emb.isometry, tau)


def inheritance_case(seed: int):
    """(p1, p2, emb): an append embedding into a tensor cone, the identity
    between two signed permutations, or a subset embedding."""
    gen = rng(7000 + seed)
    kind = seed % 3
    if kind == 0:
        p1 = signed_factor(gen, "a", int(gen.integers(1, 5)))
        q = signed_factor(gen, "b", int(gen.integers(1, 4)))
        p2 = tensor_cone(p1, q)
        return p1, p2, append_factor_embedding("a", p2.space, p1.dim,
                                               random_real_unit(gen, q.dim))
    if kind == 1:
        p1 = signed_factor(gen, "a", int(gen.integers(1, 5)))
        p2 = p1 if gen.uniform() < 0.5 else signed_factor(gen, "a", p1.dim)
        return p1, p2, identity_embedding("a", p1.dim)
    h0 = LinearOperator("base", np.eye(2))
    dims = (2, 3)
    spec = LatticeSpec(h0, orthant("base", 2), h0, h0,
                       tuple((n, LinearOperator(f"f{mu}", np.ones((n, n))))
                             for mu, n in enumerate(dims, start=1)))
    p1 = tensor_cone(orthant("base", 2), signed_factor(gen, "f1", 2))
    p2 = tensor_cone(p1, signed_factor(gen, "f2", 3))
    return p1, p2, subset_embedding(spec, (1,), (1, 2))


def test_inheritance_verdicts_equal_the_dense_path():
    verdicts = set()
    for seed in SEEDS:
        p1, p2, emb = inheritance_case(seed)
        expected = inherits_positivity(dense_cone(p1), dense_cone(p2), dense_embedding(emb))
        for c1 in (p1, dense_cone(p1)):
            for c2 in (p2, dense_cone(p2)):
                assert inherits_positivity(c1, c2, emb) == expected, seed
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_complex_isometry_into_a_structured_cone():
    # the pulled-back generators carry the conjugate phase of the appended
    # vector, which the phase of the small cone's generators cancels
    phase = np.exp(0.7j)
    p1 = SelfDualCone("a", np.conj(phase) * np.eye(2))
    p2 = orthant("a*b", 4)
    emb = append_factor_embedding("a", "a*b", 2, phase * np.array([0.6, 0.8]))
    assert emb._cols is None
    assert inherits_positivity(p1, p2, emb)
    assert inherits_positivity(p1, dense_cone(p2), emb)
    assert not inherits_positivity(SelfDualCone("a", phase * np.eye(2)), p2, emb)


class TestConstruction:
    def test_rows_must_be_a_permutation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            _signed_permutation_cone("s", [0, 0], [1.0, 1.0])

    def test_signs_must_be_units(self):
        with pytest.raises(ValueError, match="orthonormal"):
            _signed_permutation_cone("s", [1, 0], [1.0, 0.5])

    def test_tensor_with_an_explicit_cone_is_dense(self):
        explicit = dense_cone(orthant("b", 2))
        cone = tensor_cone(orthant("a", 2), explicit)
        assert cone._perm is None
        assert np.array_equal(cone.generators, np.eye(4))

    def test_complex_appended_vector_takes_the_dense_path(self):
        emb = append_factor_embedding("s", "s*e", 2, np.array([1.0, 1j]) / math.sqrt(2.0))
        assert emb._cols is None

    def test_large_tensor_cone_forms_no_dense_matrix(self):
        # the dense generators of this cone would take 256 MB; the operator is
        # made first, from zero pages it never touches
        zeros = np.zeros((4096, 4096), dtype=complex)
        zeros.setflags(write=False)
        op = LinearOperator("a*b", zeros)
        tracemalloc.start()
        try:
            cone = tensor_cone(orthant("a", 2048), orthant("b", 2))
            coords = cone.operator_coords(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coords is op.mat
        assert peak < 2 * 2 ** 20
