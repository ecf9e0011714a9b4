"""Sign cones, Kronecker embeddings and Kronecker-sum spectra
against the dense path.

Each structured cone is compared with the explicit cone of its own generator
matrix, and each Kronecker embedding with the isometry embedding of its own
matrix (`conftest.dense_cone`, `conftest.dense_embedding`).  Values must be
equal under `np.array_equal`, verdicts and payloads identical, and a reported
witness must carry the same sign of zero; only a gathered `pull` may round
apart from the dense product, within its stated bound.  A Kronecker sum's
block spectrum is compared with `hermitian_eig` of the same matrix.
"""

import copy
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import (
    block_spectrum_oracle,
    commutes_oracle,
    dense_cone,
    dense_embedding,
    entry_table_oracle,
    factor_improving_oracle,
    frame_oracle,
    kronecker_apply_oracle,
    kronecker_embedding_oracle,
    link_oracle,
    permuted_cone,
    random_hermitian,
    random_lattice_spec,
    random_metzler_generator,
    random_nonneg_irreducible,
    random_real_symmetric,
    random_spin_system,
    rng,
    same_bits,
    subset_embedding,
)

from conecalc import inheritance, lattice, numerics, positivity, stability
from conecalc.cli import run_config
from conecalc.cones import (
    SelfDualCone,
    _signed_cone,
    orthant,
    tensor_cone,
)
from conecalc.errors import ConecalcError, Inconsistent, NonHermitian, NotPreserving, NotSimple
from conecalc.inheritance import (
    TOL_LIMIT,
    ArrowChain,
    Embedding,
    _appended_embedding,
    _projector_improves,
    append_factor_embedding,
    check_arrow,
    ground_overlap,
    identity_embedding,
    inherits_positivity,
)
from conecalc.jsonio import canonical_dumps
from conecalc.lattice import (
    UNIFORM_EIGEN_TOL,
    LatticeSpec,
    _all_subsets,
    build_lattice,
    build_node,
    verify_spec,
)
from conecalc.numerics import (
    DEFAULT_TOL,
    LinearOperator,
    hermitian_eig,
    identity,
    kron,
    uniform_vector,
)
from conecalc.positivity import (
    NodeAnalysis,
    _abs_max,
    _factors_improving,
    _metzler_coords,
    classify,
    generates_improving_semigroup,
    is_ergodic,
)
from conecalc.spec import Entry, RunContext, _coupling_recipe
from conecalc.spin import m_sector, marshall_cone
from conecalc.stability import (
    COMMUTATOR_TOL,
    PAULI_X,
    _commutator,
    _commuting,
    _KroneckerFamily,
    _quantum_numbers,
    extension_tower,
    quantum_number_along_chain,
)

SEEDS = range(60)


def signed_factor(gen: np.random.Generator, space: str, n: int) -> SelfDualCone:
    """An orthant, a negated orthant or random signs."""
    kind = int(gen.integers(3))
    if kind == 0:
        return orthant(space, n)
    return _signed_cone(space, -np.ones(n) if kind == 1 else gen.choice([-1.0, 1.0], n))


def sector_cone(gen: np.random.Generator) -> SelfDualCone:
    """The Marshall cone of a random magnetization sector of 2-6 spins."""
    n = int(gen.integers(2, 7))
    system = random_spin_system(gen, n)
    return marshall_cone(system, m_sector(n, n / 2.0 - int(gen.integers(0, n + 1))))


def structured_cone(seed: int) -> SelfDualCone:
    """A sign cone, a tensor product of two or three of them, or a Marshall
    sector cone."""
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
            assert cone.strictly_positive(x) == dense.strictly_positive(x)
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
        # the signed product and the dense product may give a zero entry
        # different signs; the report carries +0.0 either way
        cone = _signed_cone("s", [-1.0, -1.0])
        a = LinearOperator("s", np.array([[1.0, -0.0], [-0.0, 1.0]]))
        report, oracle = classify(a, cone), classify(a, dense_cone(cone))
        assert report.preserving and not report.improving
        assert report.witness == oracle.witness == (0, 1, 0j)
        assert zero_signs(report.witness) == zero_signs(oracle.witness) == (False, False)
        assert report.to_payload() == oracle.to_payload()


def signed_unit(gen: np.random.Generator, k: int) -> np.ndarray:
    """A real unit vector with entries of both signs and, past its first
    entry, some of them 0.0 or -0.0."""
    v = gen.uniform(0.1, 1.0, k) * gen.choice([-1.0, 1.0], k)
    zeros = gen.uniform(size=k) < 0.3
    zeros[0] = False
    v[zeros] = gen.choice([0.0, -0.0], int(zeros.sum()))
    return v / np.linalg.norm(v)


def assert_kron_bits(emb: Embedding, tau: np.ndarray) -> None:
    """The isometry, built on this first read, is np.kron's, the sign of
    every zero included."""
    assert "isometry" not in emb.__dict__
    assert same_bits(emb.isometry, tau)
    assert np.array_equal(np.signbit(emb.isometry), np.signbit(tau))


def product_vector(gen: np.random.Generator, n: int, complex_: bool) -> np.ndarray:
    """Normal entries, real or complex, some of them 0.0 or -0.0."""
    x = gen.normal(size=n) + (1j * gen.normal(size=n) if complex_ else 0.0)
    x[gen.uniform(size=n) < 0.2] = 0.0
    x[gen.uniform(size=n) < 0.2] = -0.0
    return x


def assert_gathered_products(emb: Embedding, dense: Embedding, gen: np.random.Generator):
    """`push` of a vector or a block has the dense product's values, as
    each entry is a single product.  `pull` sums each column's m rows in
    row order, so it may round apart from the dense product, by at most
    2 m eps sum_r |vals[r] x[r]| per entry."""
    m = emb.dim_to // emb.dim_from
    for complex_ in (False, True):
        x = product_vector(gen, emb.dim_from * 3, complex_).reshape(emb.dim_from, 3)
        assert np.array_equal(emb.push(x), dense.push(x))
        assert np.array_equal(emb.push(x[:, 0]), dense.push(x[:, 0]))
        y = product_vector(gen, emb.dim_to, complex_)
        bound = 2 * m * np.finfo(float).eps * (np.abs(dense.isometry).T @ np.abs(y))
        assert (np.abs(emb.pull(y) - dense.pull(y)) <= bound).all()


@pytest.mark.parametrize("seed", SEEDS)
class TestEmbeddingOracle:
    def test_append_embedding_products(self, seed):
        gen = rng(4000 + seed)
        d, k = int(gen.integers(1, 6)), int(gen.integers(1, 4))
        v = signed_unit(gen, k)
        emb = append_factor_embedding("s", "s*e", d, v)
        tau = np.kron(np.eye(d), v.reshape(-1, 1))
        dense = Embedding("s", "s*e", tau)
        a = LinearOperator("s", gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
        assert np.array_equal(emb.extend(a).mat, dense.extend(a).mat)
        assert np.array_equal(emb.projection().mat, dense.projection().mat)
        assert_gathered_products(emb, dense, gen)
        assert_kron_bits(emb, tau)  # none of the products above read it

    def test_block_list_products(self, seed):
        # the block-list oracle of lattice edges and subset embeddings:
        # identities and signed vectors in any order, against the dense
        # construction
        gen = rng(5000 + seed)
        blocks = [int(gen.integers(1, 4)) if gen.uniform() < 0.5
                  else signed_unit(gen, int(gen.integers(1, 4)))
                  for _ in range(int(gen.integers(1, 6)))]
        emb = kronecker_embedding_oracle("s", "t", blocks)
        tau = np.ones((1, 1))  # the dense construction
        for block in blocks:
            tau = np.kron(tau, np.eye(block) if np.ndim(block) == 0 else block.reshape(-1, 1))
        assert_kron_bits(emb, tau)
        dense = dense_embedding(emb)
        a = LinearOperator(emb.from_space, gen.normal(size=(emb.dim_from, emb.dim_from)))
        assert np.array_equal(emb.extend(a).mat, dense.extend(a).mat)
        assert np.array_equal(emb.projection().mat, dense.projection().mat)
        assert_gathered_products(emb, dense, gen)

    def test_an_insertion_has_the_bits_of_its_block_list(self, seed):
        # a run of lattice edges, each a uniform vector between two
        # identities, and a signed unit vector appended after an identity,
        # by index arithmetic against the block-list oracle
        gen = rng(5500 + seed)
        below, n, above = gen.integers(1, 5, size=(3, int(gen.integers(1, 5))))
        cols, vals = lattice._insertion_rows(below, n, above)
        col = row = 0
        for b, k, a in zip(below.tolist(), n.tolist(), above.tolist()):
            want = kronecker_embedding_oracle("s", "t", [b, uniform_vector(k), a])
            assert same_bits(cols[row:row + b * k * a] - col, want._cols)
            assert same_bits(vals[row:row + b * k * a], want._vals)
            col, row = col + b * a, row + b * k * a
        assert row == cols.size == vals.size
        vec = signed_unit(gen, int(gen.integers(1, 4)))
        got = _appended_embedding("s", "t", int(below[0]), vec)
        want = kronecker_embedding_oracle("s", "t", [int(below[0]), vec])
        assert (got.dim_to, got.dim_from) == (want.dim_to, want.dim_from)
        assert same_bits(got._cols, want._cols) and same_bits(got._vals, want._vals)
        assert not (got._cols.flags.writeable or got._vals.flags.writeable)

    def test_orthonormality_verdict(self, seed):
        gen = rng(6000 + seed)
        d = int(gen.integers(1, 4))
        vectors = [signed_unit(gen, int(gen.integers(1, 4)))
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
            emb = kronecker_embedding_oracle("s", "t", [d, *vectors])
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected
        if got is None:
            assert_kron_bits(emb, tau)
        if len(vectors) == 1:  # the one append of `append_factor_embedding` agrees
            try:
                emb = append_factor_embedding("s", "t", d, vectors[0])
            except ValueError:
                assert expected is not None
            else:
                assert expected is None
                assert_kron_bits(emb, tau)


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


TOLS = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, float(np.nextafter(TOL_LIMIT, 0.0)))
BROKEN_LINK = np.array([1.0, -1.0]) / math.sqrt(2.0)  # a broken chain-tower link


def edge_unit(gen: np.random.Generator, k: int) -> np.ndarray:
    """A real unit vector: positive, mixed-sign, with a zero entry, or with
    one entry -eps, eps between 1e-13 and 1e-1."""
    if gen.uniform() < 0.6 or k == 1:
        return random_real_unit(gen, k)
    v = gen.uniform(0.1, 1.0, k)
    v[int(gen.integers(k))] = -(10.0 ** gen.uniform(-13.0, -1.0))
    return v / np.linalg.norm(v)


def inheritance_case(seed: int):
    """(p1, p2, emb) of sign cones and a Kronecker embedding:
    an append embedding, the identity, a lattice subset embedding (factors
    inserted between kept ones included) or the broken tower link."""
    gen = rng(9000 + seed)
    kind = seed % 4
    if kind in (0, 3):
        p1 = signed_factor(gen, "a", int(gen.integers(1, 5)))
        q = signed_factor(gen, "b", 2 if kind == 3 else int(gen.integers(1, 4)))
        base = p1 if gen.uniform() < 0.7 else signed_factor(gen, "a", p1.dim)
        v = BROKEN_LINK * float(gen.choice([-1.0, 1.0])) if kind == 3 else edge_unit(gen, q.dim)
        return p1, tensor_cone(base, q), append_factor_embedding("a", "a*b", p1.dim, v)
    if kind == 1:
        p1 = signed_factor(gen, "a", int(gen.integers(1, 5)))
        p2 = p1 if gen.uniform() < 0.5 else signed_factor(gen, "a", p1.dim)
        return p1, p2, identity_embedding("a", p1.dim)
    h0 = LinearOperator("base", np.eye(int(gen.integers(1, 4))))
    dims = [int(n) for n in gen.integers(2, 4, size=int(gen.integers(1, 4)))]
    spec = LatticeSpec(h0, orthant("base", h0.dim), h0, h0,
                       tuple((n, LinearOperator(f"f{mu}", np.ones((n, n))))
                             for mu, n in enumerate(dims, start=1)))
    large = tuple(mu for mu in range(1, len(dims) + 1) if gen.uniform() < 0.8)
    small = tuple(mu for mu in large if gen.uniform() < 0.5)
    factors = {mu: signed_factor(gen, f"f{mu}", n) for mu, n in enumerate(dims, start=1)}
    p1 = p2 = signed_factor(gen, "base", h0.dim)
    if gen.uniform() < 0.3:
        p2 = signed_factor(gen, "base", h0.dim)
    for mu in large:
        if mu in small:
            p1 = tensor_cone(p1, factors[mu])
            same = gen.uniform() < 0.8
            p2 = tensor_cone(p2, factors[mu] if same else signed_factor(gen, f"f{mu}", dims[mu - 1]))
        else:
            p2 = tensor_cone(p2, signed_factor(gen, f"f{mu}", dims[mu - 1]))
    return p1, p2, subset_embedding(spec, small, large)


class ShapeOnly:
    """Stands in for an isometry of which only the shape may be read."""

    def __init__(self, shape: tuple[int, int]):
        self.shape = shape


def without_isometry(emb: Embedding) -> Embedding:
    """A copy of a Kronecker embedding whose isometry cannot be read: any
    product with it raises."""
    bare = copy.copy(emb)
    bare.__dict__["isometry"] = ShapeOnly(emb.isometry.shape)
    return bare


def test_inheritance_verdicts_equal_the_dense_path():
    # every pulled coordinate is +-vals[r] itself, so below 1/sqrt(2) the
    # tolerance never decides: an entry -eps fails membership at every tol
    verdicts = set()
    for seed in range(240):
        p1, p2, emb = inheritance_case(seed)
        bare = without_isometry(emb)  # the structured route reads (cols, vals) only
        got = [inherits_positivity(p1, p2, bare, tol) for tol in TOLS]
        c1, c2, e = dense_cone(p1), dense_cone(p2), dense_embedding(emb)
        assert got == [inherits_positivity(c1, c2, e, tol) for tol in TOLS], seed
        assert len(set(got)) == 1, seed
        assert inherits_positivity(p1, c2, emb) == inherits_positivity(c1, p2, emb) == got[0]
        verdicts.update(got)
    assert verdicts == {True, False}


def projector_coordinates(gen: np.random.Generator, n: int) -> list[np.ndarray]:
    """All positive, all negative, mixed signs, with zeros and -0.0 entries,
    the zero vector, and one tiny entry of either sign at every tolerance's
    edge."""
    pos = gen.uniform(0.1, 1.0, n)
    zeros = np.where(gen.uniform(size=n) < 0.5, 0.0, pos)
    tiny = pos.copy()
    tiny[int(gen.integers(n))] = 10.0 ** gen.uniform(-13.0, -0.5)
    out = [pos, -pos, gen.normal(size=n), zeros, -zeros, np.zeros(n), -np.zeros(n),
           tiny, -tiny]
    if n > 1:
        flip = tiny.copy()
        flip[int(np.argmin(flip))] *= -1.0
        out.append(flip)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_projector_verdict_equals_classify(seed):
    cone = structured_cone(seed)
    dense = dense_cone(cone)
    gen = rng(8000 + seed)
    for c in projector_coordinates(gen, cone.dim):
        x = cone.generators @ c
        projector = LinearOperator(cone.space, np.outer(x, x))
        for tol in TOLS:
            expected = classify(projector, cone, tol).improving
            assert classify(projector, dense, tol).improving == expected
            assert _projector_improves(x, cone, cone.space, tol) == expected


def test_projector_verdict_changes_with_the_tolerance():
    cone = _signed_cone("s", [-1.0, 1.0, 1.0])
    x = cone.generators @ np.array([1.0, 0.5, 1e-4])  # smallest entry 1e-8
    assert [_projector_improves(x, cone, "s", tol) for tol in (1e-9, 1e-6)] == [True, False]
    assert not _projector_improves(-x * [1.0, 1.0, -1.0], cone, "s", 1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_node_cone_equals_the_stepwise_tensor(seed):
    # one tensor_cone with the joint slot orthant gives the cone and space of
    # tensoring the slot orthants in one at a time
    gen = rng(9500 + seed)
    base = structured_cone(seed)
    if seed % 4 == 3:
        base = dense_cone(base)
    dims = [int(n) for n in gen.integers(1, 4, size=int(gen.integers(1, 4)))]
    h0 = LinearOperator(base.space, np.eye(base.dim))
    family = _KroneckerFamily(h0, base, h0, [np.ones((n, n)) for n in dims],
                              [f"f{mu}" for mu in range(1, len(dims) + 1)])
    for subset in _all_subsets(len(dims)):
        stepwise = base
        for mu in subset:
            stepwise = tensor_cone(stepwise, orthant(f"f{mu}", dims[mu - 1]))
        cone = family.node(subset).cone
        assert cone.space == stepwise.space
        assert (cone._sign_basis is None) == (base._sign_basis is None)
        if base._sign_basis is None:
            assert same_bits(cone.generators, stepwise.generators)
            continue
        assert same_bits(cone._sign_basis.signs, stepwise._sign_basis.signs)


def renamed(space: str, names: dict) -> str:
    return "*".join(names.get(part, part) for part in space.split("*"))


def assert_same_node(got, want, names: dict) -> None:
    """Two nodes with the same matrix and cone bits, ``got``'s slot spaces
    renamed to ``want``'s by ``names``."""
    assert renamed(got.hamiltonian.space, names) == want.hamiltonian.space
    assert same_bits(got.hamiltonian.mat, want.hamiltonian.mat)
    assert renamed(got.cone.space, names) == want.cone.space
    assert same_bits(got.cone._sign_basis.signs, want.cone._sign_basis.signs)


def assert_same_embedding(got: Embedding, want: Embedding) -> None:
    assert (got.dim_to, got.dim_from) == (want.dim_to, want.dim_from)
    assert same_bits(got._cols, want._cols) and same_bits(got._vals, want._vals)


@pytest.mark.parametrize("seed", range(12))
def test_tower_levels_are_lattice_nodes(seed):
    # level j of a tower is the lattice node {1..j} with X = 1 and sigma_x
    # in every slot, and link j-1 is the lattice's {1..j-1} -> {1..j}
    gen = rng(9600 + seed)
    n, depth = int(gen.integers(1, 4)), int(gen.integers(1, 5))
    h = LinearOperator("base", random_metzler_generator(gen, n))
    chain = extension_tower(h, orthant("base", n), h, depth)
    spec = LatticeSpec(h, orthant("base", n), h, identity("base", n),
                       tuple((2, LinearOperator(f"f{mu}", PAULI_X)) for mu in range(1, depth + 1)))
    names = {f"q{mu}": f"f{mu}" for mu in range(1, depth + 1)}
    for j in range(1, depth + 1):
        subset = tuple(range(1, j + 1))
        assert_same_node(chain.nodes[j], build_node(spec, subset), names)
        assert_same_embedding(chain.embeddings[j - 1],
                              subset_embedding(spec, subset[:-1], subset))


@pytest.mark.parametrize("seed", range(12))
def test_a_coupling_member_is_a_one_slot_lattice_chain(seed):
    gen = rng(9700 + seed)
    n, m = int(gen.integers(1, 4)), int(gen.integers(1, 4))
    h = LinearOperator("base", random_metzler_generator(gen, n))
    x = LinearOperator("base", gen.uniform(0.5, 1.5) * np.eye(n))
    y = LinearOperator("env", gen.uniform(0.5, 1.5) * np.ones((m, m)))
    ctx = RunContext(operators={"x": Entry(n, "base", None, x), "y": Entry(m, "env", None, y)})
    build = _coupling_recipe(ctx, ("h_star", "h", Entry(n, "base", None, h)), type="coupling",
                             x="x", y="y")
    base = NodeAnalysis(h, orthant("base", n))
    chain = build(base)
    spec = LatticeSpec(h, orthant("base", n), h, x, ((m, y),))
    assert chain.nodes[0] is base
    assert_same_node(chain.nodes[1], build_node(spec, (1,)), {"env": "f1"})
    assert_same_embedding(chain.embeddings[0], subset_embedding(spec, (), (1,)))


def refuse(*args, **kwargs):
    raise AssertionError("a dense product was formed")


class TestStructuredLinksFormNothingDense:
    def test_tower_link(self, monkeypatch):
        # the arrow decides on the signs and (cols, vals), the overlap
        # gathers the pulled ground state, and the projector test is O(dim)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        h1 = LinearOperator("a", -flip)
        h2 = kron(h1, LinearOperator("b", np.eye(2))) - kron(LinearOperator("a", np.eye(2)),
                                                            LinearOperator("b", flip))
        p1 = _signed_cone("a", [-1.0, -1.0])
        p2 = tensor_cone(p1, orthant("b", 2))
        source, target = NodeAnalysis(h1, p1), NodeAnalysis(h2, p2)
        emb = append_factor_embedding("a", h2.space, 2, np.array([1.0, 1.0]) / math.sqrt(2.0))
        monkeypatch.setattr(Embedding, "projection", refuse)
        monkeypatch.setattr(inheritance, "classify", refuse)
        assert check_arrow(source, target, without_isometry(emb))
        assert ground_overlap(source, target, without_isometry(emb)).improving_ok

    def test_lattice(self, monkeypatch, edge_embeddings):
        h0 = LinearOperator("base", np.array([[0.3, -1.0], [-1.0, 0.0]]))
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = LatticeSpec(h0, orthant("base", 2), LinearOperator("base", np.eye(2)),
                           LinearOperator("base", np.eye(2)),
                           ((2, LinearOperator("f1", flip)),
                            (3, LinearOperator("f2", np.ones((3, 3)) - np.eye(3)))))
        # the edges are decided in one array pass over their rows: no edge
        # forms an embedding of its own, and none takes a dense test
        monkeypatch.setattr(Embedding, "projection", refuse)
        monkeypatch.setattr(inheritance, "classify", refuse)
        monkeypatch.setattr(lattice, "_row_embedding", refuse)
        for name in ("inherits_positivity", "_projector_improves"):
            monkeypatch.setattr(lattice, name, refuse)
        diagram = build_lattice(spec)
        assert len(diagram.covering_edges) == len(edge_embeddings(diagram)) == 4

    def test_tower_quantum_numbers(self, monkeypatch):
        h = LinearOperator("base", np.diag([0.0, 1.0]) - 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        chain = extension_tower(h, orthant("base", 2), h, 4)
        monkeypatch.setattr(Embedding, "projection", refuse)
        monkeypatch.setattr(inheritance, "classify", refuse)
        monkeypatch.setattr(inheritance, "_kron", refuse)
        report = quantum_number_along_chain(chain, h)
        assert len(set(report.snapped)) == 1
        assert all("isometry" not in emb.__dict__ for emb in chain.embeddings)


def dense_copy(h: LinearOperator) -> LinearOperator:
    """The same matrix without its factors, which `NodeAnalysis` decomposes
    by `hermitian_eig`."""
    return LinearOperator(h.space, np.array(h.mat))


def reading(record: NodeAnalysis, o: LinearOperator, o_norm: float, o_values):
    """The quantum number of O on the record, snapped to O's eigenvalues
    ``o_values``, or the name of the error that refused it."""
    try:
        readings, failure = _quantum_numbers([record], o, o_norm, o_values, [None])
        if failure is not None:
            raise failure
        return readings[0][1]
    except ConecalcError as exc:
        return type(exc).__name__


def assert_routes_agree(h: LinearOperator, cone: SelfDualCone, o: LinearOperator | None = None,
                        o_norm: float = 0.0, o_values=None) -> None:
    """The block spectrum of a Kronecker sum against `hermitian_eig` of its
    matrix: eigenvalues within 1e-12 ||H||, ground vectors with overlap
    1 - 1e-12, and the same simple, improving and snapped-mu verdicts."""
    block, dense = NodeAnalysis(h, cone), NodeAnalysis(dense_copy(h), cone)
    assert h._factors is not None and dense.hamiltonian._factors is None
    got, want = block.spectrum, dense.spectrum
    assert got.ground_vector.shape == (h.dim,)
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-12 * want.norm
    assert got.simple == want.simple
    if want.simple:
        assert abs(np.vdot(got.ground_vector, want.ground_vector)) >= 1.0 - 1e-12
    assert block.improving == dense.improving
    if o is not None:
        assert reading(block, o, o_norm, o_values) == reading(dense, o, o_norm, o_values)


def slot_by_slot(h0: np.ndarray, x: np.ndarray, ys: list[np.ndarray]) -> np.ndarray:
    """H0 (x) 1 - sum_mu X (x) (1 (x) Y_mu (x) 1) by np.kron, one slot at a time."""
    dims = [y.shape[0] for y in ys]
    mat = np.kron(h0, np.eye(math.prod(dims)))
    for k, y in enumerate(ys):
        mat = mat - np.kron(x, np.kron(np.kron(np.eye(math.prod(dims[:k])), y),
                                       np.eye(math.prod(dims[k + 1:]))))
    return mat


def random_kronecker_sum(seed: int) -> LinearOperator:
    """H0 (x) 1 - X (x) K over 1-4 base dimensions and 0-3 slots of 1-3
    dimensions.  Even seeds draw an improving-class sum (-H0 Metzler, X and
    every Y nonnegative and irreducible), odd ones Hermitian H0, X and Y,
    complex for every other odd seed."""
    gen = rng(12000 + seed)
    d0 = int(gen.integers(1, 5))
    dims = [int(n) for n in gen.integers(1, 4, size=int(gen.integers(0, 4)))]
    if seed % 2 == 0:
        h0 = random_metzler_generator(gen, d0)
        x = gen.uniform(0.1, 1.0) * random_nonneg_irreducible(gen, d0)
        ys = [random_nonneg_irreducible(gen, n) for n in dims]
    elif seed % 4 == 1:
        h0, x = random_real_symmetric(gen, d0), random_real_symmetric(gen, d0)
        ys = [random_real_symmetric(gen, n) for n in dims]
    else:
        h0, x = random_hermitian(gen, d0), random_hermitian(gen, d0)
        ys = [random_hermitian(gen, n) for n in dims]
    family = _KroneckerFamily(LinearOperator("base", h0), orthant("base", d0),
                              LinearOperator("base", x),
                              [LinearOperator(f"f{mu}", y).mat for mu, y in enumerate(ys, start=1)],
                              [f"f{mu}" for mu in range(1, len(dims) + 1)])
    h = family.node(tuple(range(1, len(dims) + 1))).hamiltonian
    assert h.space == "*".join(["base"] + [f"f{mu}" for mu in range(1, len(dims) + 1)])
    assert np.array_equal(h.mat, slot_by_slot(h0, x, ys))
    return h


@pytest.mark.parametrize("seed", range(32))
def test_a_family_reads_its_nodes_as_the_per_node_loops_do(seed):
    # families of 1-3 slots of 1-3 dimensions, complex in three seeds out of
    # four, over a real or complex H0 and X: every node's shifts, entry
    # table (None when a factor is complex), spectrum and frame have the
    # bits of the loops over its own slots, whether the family loads its
    # cache in runs of nodes or each node loads its own, in order
    gen = rng(22000 + seed)
    d0 = int(gen.integers(1, 4))
    dims = [int(n) for n in gen.integers(1, 4, size=int(gen.integers(1, 4)))]
    draw = random_real_symmetric if seed % 8 < 4 else random_hermitian
    h0, x = LinearOperator("base", draw(gen, d0)), LinearOperator("base", draw(gen, d0))
    ys = [LinearOperator(f"f{mu}", (random_real_symmetric if seed % 4 == 0 or gen.random() < 0.3
                                    else random_hermitian)(gen, n)).mat
          for mu, n in enumerate(dims, start=1)]
    family = _KroneckerFamily(h0, orthant("base", d0), x, ys,
                              [f"f{mu}" for mu in range(1, len(dims) + 1)])
    subsets = _all_subsets(len(dims))
    # a record of a run, read with its run, or of a node read alone
    records = ({subset: record for run in family.records(subsets) for subset, record in run}
               if seed % 2 else {})
    for subset in subsets:
        h = family.node(subset).hamiltonian
        slots = h._factors.slots
        want = entry_table_oracle(h0.mat, x.mat, slots)
        got = h._factors.table
        assert (got is None) == (want is None)
        if want is not None:
            assert same_bits(got.diagonal, want.diagonal)
            assert [float(v).hex() if v is not None else v for v in got[1:]] \
                == [float(v).hex() if v is not None else v for v in want[1:]]
        spectrum = (records[subset] if seed % 2 else NodeAnalysis(h, orthant(h.space, h.dim))
                    ).spectrum
        oracle = block_spectrum_oracle(h)
        assert same_bits(spectrum.eigenvalues, oracle.eigenvalues)
        assert same_bits(spectrum.ground_vector, oracle.ground_vector)
        assert same_bits(family.frames([subset])[0],
                         frame_oracle(d0, [dims[mu - 1] for mu in subset]))
    assert same_bits(np.concatenate(family.frames(subsets)),
                     np.concatenate([frame_oracle(d0, [dims[mu - 1] for mu in subset])
                                     for subset in subsets]))


class TestBlockSpectrumOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kronecker_sums(self, seed):
        h = random_kronecker_sum(seed)
        dense = hermitian_eig(dense_copy(h))
        assert_routes_agree(h, orthant(h.space, h.dim), h, dense.norm, dense.eigenvalues)

    @pytest.mark.parametrize("seed", range(40))
    def test_towers(self, seed):
        gen = rng(13000 + seed)
        n, depth = int(gen.integers(1, 5)), int(gen.integers(0, 7))
        h = LinearOperator("base", random_metzler_generator(gen, n))
        chain = extension_tower(h, orthant("base", n), h, depth)
        for node in chain.nodes[1:]:
            assert_routes_agree(node.hamiltonian, node.cone)
        dense = ArrowChain(
            tuple(NodeAnalysis(dense_copy(node.hamiltonian) if j else node.hamiltonian, node.cone)
                  for j, node in enumerate(chain.nodes)),
            tuple(dense_embedding(emb) for emb in chain.embeddings))
        got, want = quantum_number_along_chain(chain, h), quantum_number_along_chain(dense, h)
        assert got.snapped == want.snapped
        scale = max(h.norm(), 1.0)
        assert np.abs(np.subtract(got.values, want.values)).max() <= 1e-12 * scale
        assert np.abs(np.subtract(got.overlaps, want.overlaps)).max(initial=0.0) <= 1e-12
        assert max(got.telescope_residuals + want.telescope_residuals, default=0.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(16))
    def test_lattices(self, seed):
        # every node against its dense route, and every edge overlap against
        # the one of dense records and a dense embedding
        spec = random_lattice_spec(rng(400 + seed), structured=seed % 4 != 3)
        diagram = build_lattice(spec)
        o_spectrum = hermitian_eig(spec.observable)
        # the pushed observable's eigenvalues, as a lattice node snaps to them
        pushed_values = np.concatenate([o_spectrum.eigenvalues, [0.0]])
        records = {}
        for node in diagram.nodes:
            observable = subset_embedding(spec, (), node.subset).extend(spec.observable)
            assert_routes_agree(node.hamiltonian, node.cone, observable, o_spectrum.norm,
                                pushed_values)
            records[node.subset] = NodeAnalysis(dense_copy(node.hamiltonian), node.cone)
            assert node.mu_snapped == reading(records[node.subset], observable,
                                              o_spectrum.norm, pushed_values)
        for j, (small, large) in enumerate(diagram.covering_edges):
            emb = dense_embedding(subset_embedding(spec, small, large))
            want = link_oracle(j, records[small], records[large], emb).overlap
            assert abs(diagram.edge_overlaps[j] - want) <= 1e-12

    def test_equal_slot_spectra_are_refused_as_not_simple(self):
        # H = 1 - eps K, K the Kronecker sum of two copies of sigma_x: k = 0
        # twice, and the gap 2 eps is below SIMPLE_GAP_FACTOR ||H|| while
        # every coupling eps clears the improving threshold tol ||H||
        eps = 3e-9
        one = LinearOperator("base", np.eye(1))
        flip = eps * np.array([[0.0, 1.0], [1.0, 0.0]])
        h = _KroneckerFamily(one, orthant("base", 1), one, [flip, flip],
                             ["f1", "f2"]).node((1, 2)).hamiltonian
        dense = hermitian_eig(dense_copy(h))
        assert NodeAnalysis(h, orthant(h.space, 4)).improving
        assert not NodeAnalysis(h, orthant(h.space, 4)).spectrum.simple
        assert_routes_agree(h, orthant(h.space, 4), h, dense.norm, dense.eigenvalues)
        assert reading(NodeAnalysis(h, orthant(h.space, 4)), h, dense.norm,
                       dense.eigenvalues) == NotSimple.__name__

    def test_factors_that_disagree_with_the_matrix_raise(self, monkeypatch):
        # the blocks are read at shifts summed from a slot's eigenvalues, the
        # residual applies the slot matrix itself, so eigenpairs that do not
        # belong to it are caught
        h = LinearOperator("base", np.diag([0.0, 1.0]) - 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        family = _KroneckerFamily(h, orthant("base", 2), identity("base", 2), (PAULI_X,) * 2,
                                  ["q1", "q2"])
        slot = family.slots[0]
        monkeypatch.setitem(family.__dict__, "slots",
                            (slot._replace(values=slot.values + 0.5), slot))
        node = family.node((1, 2))
        with pytest.raises(Inconsistent, match="block ground pair .* has residual"):
            NodeAnalysis(node.hamiltonian, node.cone).spectrum


class TestConstruction:
    def test_signs_must_be_units(self):
        with pytest.raises(ValueError, match="orthonormal"):
            _signed_cone("s", [1.0, 0.5])

    def test_tensor_with_an_explicit_cone_is_dense(self):
        explicit = dense_cone(orthant("b", 2))
        cone = tensor_cone(orthant("a", 2), explicit)
        assert cone._sign_basis is None
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


def kronecker_case(seed: int):
    """(H, node cone) of a real Kronecker sum H0 (x) 1 - X (x) K with 1-4
    base dimensions and 0-3 slots of 1-3 dimensions, read from its factors.

    The kind cycles through: an improving-class sum, Hermitian factors with
    any signs, a non-symmetric Y or X (at the Hermitian tolerance or far
    past it), an X with a zero diagonal entry (its fibers fall back to the
    dense sweeps), and a reducible base.  The base cone is an orthant, a
    sign cone of the base index, or an explicit signed permutation of it,
    whose sums take the dense route; every fifth node gets random signs
    over the whole product space, which need not factor."""
    gen = rng(15000 + seed)
    d0 = int(gen.integers(1, 5))
    dims = [int(n) for n in gen.integers(1, 4, size=int(gen.integers(0, 4)))]
    kind = seed % 5
    split = int(gen.integers(1, d0)) if kind == 4 and d0 > 1 else None
    h0 = random_metzler_generator(gen, d0, split)
    x = gen.uniform(0.1, 1.0) * random_nonneg_irreducible(gen, d0)
    ys = [random_nonneg_irreducible(gen, n) for n in dims]
    if kind == 1:
        h0, x = random_real_symmetric(gen, d0), random_real_symmetric(gen, d0)
        ys = [random_real_symmetric(gen, n) for n in dims]
    elif kind == 2:
        bump = gen.choice([1e-14, 1e-12, 1e-3])
        if ys and ys[0].shape[0] > 1:
            ys[0][0, 1] += bump
        else:
            x[0, -1] += bump
    elif kind == 3:
        x[int(gen.integers(d0)), int(gen.integers(d0))] = 0.0
        np.fill_diagonal(x, np.where(gen.uniform(size=d0) < 0.5, 0.0, np.diagonal(x)))
    base = [orthant("base", d0), signed_factor(gen, "base", d0),
            permuted_cone(gen, "base", d0)][seed % 3]
    names = [f"f{mu}" for mu in range(1, len(dims) + 1)]
    node = _KroneckerFamily(LinearOperator("base", h0), base, LinearOperator("base", x),
                            ys, names).node(tuple(range(1, len(ys) + 1)))
    h, cone = node.hamiltonian, node.cone
    if seed % 5 == 4 and cone._sign_basis is not None:
        cone = _signed_cone(cone.space, gen.choice([-1.0, 1.0], cone.dim))
    return h, cone


def near_threshold_tols(gen: np.random.Generator, m: np.ndarray):
    """DEFAULT_TOL and three tolerances at which tol * max|M| lands on an
    off-diagonal entry of M, or one float either side of it."""
    scale = np.abs(m).max()
    off = np.abs(m[~np.eye(m.shape[0], dtype=bool)])
    off = off[off > 0.0]
    if not off.size or scale == 0.0:
        return [DEFAULT_TOL]
    tol = float(gen.choice(off)) / scale
    return [DEFAULT_TOL, tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0)]


class TestEntryTableOracle:
    """The verdicts that a real Kronecker sum reads from its factors against
    the dense route on its own matrix: bit for bit, or the same boolean."""

    @pytest.mark.parametrize("seed", range(150))
    def test_scale_hermitian_metzler_and_improving(self, seed):
        h, cone = kronecker_case(seed)
        table = h._factors.table
        dense = dense_copy(h)
        assert same_bits(np.float64(table.scale), np.abs(dense.mat).max())
        assert same_bits(np.float64(table.skew), np.abs(dense.mat - dense.mat.T).max())
        assert h.is_hermitian() == dense.is_hermitian()
        if not dense.is_hermitian():
            with pytest.raises(NonHermitian):
                generates_improving_semigroup(h, cone)
            return
        for tol in near_threshold_tols(rng(16000 + seed), cone.operator_coords(dense)):
            verdict = _factors_improving([h], [cone], tol)[0]
            assert verdict is factor_improving_oracle(h, cone, tol)
            want = generates_improving_semigroup(dense, cone, tol)
            assert generates_improving_semigroup(h, cone, tol) == want
            if verdict is None:  # a cone whose signs do not factor, or a fiber fallback
                factored = cone._fibers(h, h._factors.h0.shape[0]) is not None
                assert not factored or _metzler_coords(dense, cone, tol) is not None
            else:
                assert verdict == want

    def test_every_route_is_taken(self):
        # over the seeds above: factor verdicts of both signs, Metzler
        # failures, and the three fallbacks (explicit cones, sign cones whose
        # signs do not factor, fibers that are not connected) all occur
        counts = Counter()
        for seed in range(150):
            h, cone = kronecker_case(seed)
            if not h.is_hermitian():
                counts["non-hermitian"] += 1
                continue
            dense = dense_copy(h)
            metzler = _metzler_coords(dense, cone, DEFAULT_TOL) is not None
            verdict = _factors_improving([h], [cone], DEFAULT_TOL)[0]
            if verdict is None:
                counts["explicit" if cone._sign_basis is None
                       else "cone" if cone._fibers(h, h._factors.h0.shape[0]) is None
                       else "fiber"] += 1
            else:
                counts[(metzler, verdict)] += 1
        assert all(counts[key] >= 3 for key in ["non-hermitian", "explicit", "cone", "fiber",
                                                (True, True), (True, False), (False, False)]), counts

    def test_a_zero_weight_fiber_takes_the_dense_sweeps(self):
        # x[1, 1] = 0 leaves fiber 1 without edges, yet the sum is irreducible
        # through fiber 0: the fiber test fails, and the dense sweeps decide
        h0 = LinearOperator("base", np.array([[0.0, -1.0], [-1.0, 0.0]]))
        x = LinearOperator("base", np.array([[1.0, 0.0], [0.0, 0.0]]))
        node = _KroneckerFamily(h0, orthant("base", 2), x, (PAULI_X,), ["f1"]).node((1,))
        assert _factors_improving([node.hamiltonian], [node.cone], DEFAULT_TOL) == [None]
        assert generates_improving_semigroup(node.hamiltonian, node.cone)
        assert generates_improving_semigroup(dense_copy(node.hamiltonian), node.cone)

    @pytest.mark.parametrize("seed", range(40))
    def test_product_with_a_vector_and_a_block(self, seed):
        h, _ = kronecker_case(seed)
        for shape in ((h.dim,), (h.dim, 3)):
            psi = rng(17000 + seed).normal(size=shape)
            want = h._factors.matrix() @ psi
            got = numerics._applied([h], psi)
            assert got.shape == shape
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
            assert np.abs(got - kronecker_apply_oracle(h, psi)).max() \
                <= 1e-12 * max(np.abs(want).max(), 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_product_over_a_run_of_nodes(self, seed):
        # the nodes of every slot subset, stacked node after node, one
        # product for the run
        gen = rng(17500 + seed)
        d0 = int(gen.integers(1, 4))
        ys = [random_nonneg_irreducible(gen, int(n)) for n in gen.integers(1, 4, size=3)]
        h0 = LinearOperator("base", random_metzler_generator(gen, d0))
        x = LinearOperator("base", random_nonneg_irreducible(gen, d0))
        family = _KroneckerFamily(h0, orthant("base", d0), x, ys, ["f1", "f2", "f3"])
        hs = [family.node(subset).hamiltonian
              for subset in [(), (1,), (3,), (1, 2), (2, 3), (1, 2, 3)]]
        for c in ((), (2,)):
            psis = [gen.normal(size=(h.dim, *c)) for h in hs]
            got = numerics._applied(hs, np.concatenate(psis))
            at = np.cumsum([h.dim for h in hs])[:-1]
            for h, psi, part in zip(hs, psis, np.split(got, at)):
                want = kronecker_apply_oracle(h, psi)
                assert np.abs(part - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


def test_abs_max_is_the_dense_float(monkeypatch):
    gen = rng(18000)
    cases = [gen.normal(size=(n, n)) for n in (1, 2, 5, 33)]
    cases += [-np.abs(gen.normal(size=(4, 4))), np.zeros((3, 3)), np.full((3, 3), -0.0),
              np.array([[-0.0, 0.0], [0.0, -0.0]]), np.array([[-2.0, 1.0], [1.0, 2.0]])]
    for m in cases:
        assert same_bits(np.float64(_abs_max(m)), np.abs(m).max())

    # `classify` and `is_ergodic` read max|M| through `_abs_max`: with the
    # dense float in its place every payload is the same, on matrices that
    # preserve the orthant with entries inside and around the edge band
    sparse = np.abs(gen.normal(size=(6, 6))) * (gen.random((6, 6)) < 0.4)
    sparse[gen.random((6, 6)) < 0.3] = 4e-4
    cases += [np.abs(gen.normal(size=(5, 5))), sparse, sparse - 2e-4 * np.eye(6),
              np.array([[2.0, -0.0], [1e-4, -0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])]

    def payloads() -> list[dict]:
        out = []
        for m in cases:
            a, cone = LinearOperator("v", m), orthant("v", m.shape[0])
            report = classify(a, cone, 1e-3)
            out.append(report.to_payload())
            if report.preserving:
                out.append(is_ergodic(a, cone, 1e-3).to_payload())
        return out

    fast = payloads()
    assert sum("ergodic" in payload for payload in fast) >= 5
    monkeypatch.setattr(positivity, "_abs_max", lambda m: float(np.abs(m).max()))
    assert payloads() == fast


def pushed_pairs(seed: int):
    """(node, embedding from the base, base observable O) for every node of
    a structured lattice spec; on odd seeds the observable does not commute
    with H0, and on every third seed the first slot's uniform vector is an
    eigenvector only within 0.9 UNIFORM_EIGEN_TOL."""
    gen = rng(19000 + seed)
    spec = random_lattice_spec(gen, structured=True)
    factors = list(spec.factors)
    if seed % 3 == 0:
        n, y = factors[0]
        bump = np.zeros((n, n))
        bump[0, 0] = 1.0
        u = uniform_vector(n)
        unit = np.linalg.norm(bump @ u - (u @ bump @ u) * u)
        y = LinearOperator(y.space, y.mat + 0.9 * UNIFORM_EIGEN_TOL * max(1.0, y.norm()) / unit
                           * bump)
        factors[0] = (n, y)
    o = spec.observable
    if seed % 2:
        o = LinearOperator("base", random_real_symmetric(gen, spec.h0.dim))
    spec = LatticeSpec(spec.h0, spec.cone, o, spec.x, tuple(factors))
    family = _KroneckerFamily(spec.h0, spec.cone, spec.x, [y.mat for _, y in spec.factors],
                              [f"f{mu}" for mu in range(1, spec.ell + 1)])
    for subset in _all_subsets(spec.ell):
        node = family.node(subset)
        yield node.hamiltonian, subset_embedding(spec, (), subset), o


def uniform_residual(y: np.ndarray) -> float:
    """|Y w - lambda w| for the uniform w, as `verify_spec` reads it."""
    w = uniform_vector(y.shape[0])
    image = y @ w
    return np.linalg.norm(image - float(np.vdot(w, image).real) * w)


@pytest.mark.parametrize("seed", range(8))
def test_the_uniform_floor_decides_only_what_the_full_threshold_does(seed, monkeypatch):
    # a circulant slot (directed or symmetric) of norm above 1, bumped so
    # that the uniform vector's residual is 0.9 and 1.1 times
    # UNIFORM_EIGEN_TOL max(1, ||Y||), above the floor UNIFORM_EIGEN_TOL,
    # where the norm decides as before; and half the floor, where the
    # floor decides with no norm taken
    gen = rng(53000 + seed)
    n = int(gen.integers(2, 6))
    y0 = sum(c * np.roll(np.eye(n), k, axis=1) for k, c in enumerate(gen.uniform(1.0, 3.0, n)))
    if seed % 2:
        y0 = y0 + y0.T
    bump = np.zeros((n, n))
    bump[tuple(gen.integers(n, size=2))] = 1.0
    unit = uniform_residual(bump)
    full = UNIFORM_EIGEN_TOL * max(1.0, np.linalg.norm(y0, 2))
    spec = random_lattice_spec(gen, structured=True)
    norms = []
    norm = LinearOperator.norm
    monkeypatch.setattr(LinearOperator, "norm", lambda self: norms.append(self) or norm(self))
    for target, want in ((0.9 * full, True), (1.1 * full, False),
                         (0.5 * UNIFORM_EIGEN_TOL, True)):
        y = y0 + target / unit * bump
        residual = uniform_residual(y)
        # the test of the parent, one threshold with the norm always taken
        assert (residual <= UNIFORM_EIGEN_TOL * max(1.0, np.linalg.norm(y, 2))) == want
        norms.clear()
        report = verify_spec(LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                                         ((n, LinearOperator("f1", y)),)))
        assert report.y_uniform_eigen == (want,)
        assert len(norms) == (residual > UNIFORM_EIGEN_TOL) == (target > UNIFORM_EIGEN_TOL)


def complex_chain(h: LinearOperator) -> list[tuple[LinearOperator, Embedding]]:
    """(node, embedding from the previous node) of an explicit two-link
    chain of dense nodes from H, each link appending v = (1, i)/sqrt(2):
    the first node adds -1 (x) sigma_y, of which v is an eigenvector, and
    the second -1 (x) sigma_x, of which it is not."""
    v = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    out = []
    for level, y in enumerate((np.array([[0.0, -1.0j], [1.0j, 0.0]]), PAULI_X), start=1):
        space = f"{h.space}*c{level}"
        emb = append_factor_embedding(h.space, space, h.dim, v)
        h = LinearOperator(space, np.kron(h.mat, np.eye(2)) - np.kron(np.eye(h.dim), y))
        out.append((h, emb))
    return out


def commutes(h: LinearOperator, o: np.ndarray, scale: float, frame=None) -> bool:
    """The commutation verdict of one H through its frame, a run of one."""
    return _commuting([h], o, [scale], [frame])[0]


def frame_verdict(h: LinearOperator, frame: np.ndarray, o: LinearOperator,
                  pushed: LinearOperator) -> bool:
    """The test of H and O through the frame, asserted equal to the
    frame-free test of H's dense matrix and the pushed observable
    T O T^*, and to the per-node test through the frame."""
    o_norm = float(np.abs(np.linalg.eigvalsh(o.mat)).max())
    dense = LinearOperator(h.space, h._factors.matrix() if h._factors is not None else h.mat)
    scale = float(np.abs(np.linalg.eigvalsh(dense.mat)).max()) * o_norm
    verdict = commutes(h, o.mat, scale, frame)
    assert verdict == commutes(dense, pushed.mat, scale)
    assert verdict == commutes_oracle(h, o.mat, scale, frame)
    return verdict


@pytest.mark.parametrize("seed", range(48))
def test_commutation_through_the_frame_is_the_dense_test(seed):
    # every pushed node of a lattice; tower levels, where sigma_x u = u in
    # every slot, so a level commutes as H0 does with O; and an explicit
    # chain whose complex embeddings give a complex frame
    for h, emb, o in pushed_pairs(seed):
        frame_verdict(h, emb.push(np.eye(o.dim)), o, emb.extend(o))
    gen = rng(19500 + seed)
    h = LinearOperator("base", random_metzler_generator(gen, 3))
    tower = extension_tower(h, orthant("base", 3), h, 4)
    links = [(node.hamiltonian, emb) for node, emb in zip(tower.nodes[1:], tower.embeddings)]
    for kind, chain in (("tower", links), ("complex", complex_chain(h))):
        for o in (h, LinearOperator("base", random_real_symmetric(gen, 3))):
            frame, pushed = np.eye(3), o
            for level, (h_j, emb) in enumerate(chain, start=1):
                frame, pushed = emb.push(frame), emb.extend(pushed)
                verdict = frame_verdict(h_j, frame, o, pushed)
                assert verdict is (o is h and (kind == "tower" or level == 1))
    assert np.iscomplexobj(frame)


@pytest.mark.parametrize("seed", range(12))
def test_the_spectral_norm_decides_past_the_frobenius_bound(seed):
    # a threshold between the commutator's spectral and Frobenius norms is
    # decided by the 2 d0 x 2 d0 route alone, and one just below the
    # spectral norm refuses, on Kronecker sums and on a dense node, over
    # bases of 2 to 16 states and complex frames: each node alone, and
    # the two nodes of one family in one run of unequal row counts, 3 d0
    # and 4 d0
    gen = rng(19600 + seed)
    d0 = (2, 3, 4, 7, 11, 16)[seed % 6]
    o = LinearOperator("base", random_hermitian(gen, d0))
    parts = [LinearOperator("base", random_hermitian(gen, d0)) for _ in range(2)]
    family = _KroneckerFamily(parts[0], orthant("base", d0), parts[1],
                              [random_hermitian(gen, 3), random_hermitian(gen, 4)], ["f1", "f2"])
    hs = [family.node((1,)).hamiltonian, family.node((2,)).hamiltonian,
          LinearOperator("v", random_hermitian(gen, 4 * d0))]
    frames, betweens, belows = [], [], []
    for h in hs:
        frame = np.linalg.qr(gen.standard_normal((h.dim, d0))
                             + 1j * gen.standard_normal((h.dim, d0)))[0]
        dense = h._factors.matrix() if h._factors is not None else h.mat
        c = _commutator(dense, frame @ o.mat @ frame.conj().T)
        spectral = float(np.linalg.norm(c, 2))
        frobenius = float(np.linalg.norm(c))
        assert spectral < 0.9 * frobenius
        between = 0.5 * (spectral + frobenius) / COMMUTATOR_TOL
        below = 0.999 * spectral / COMMUTATOR_TOL
        assert commutes(h, o.mat, between, frame)
        assert not commutes(h, o.mat, below, frame)
        frames.append(frame)
        betweens.append(between)
        belows.append(below)
    for scales in ([betweens[0], belows[1]], [belows[0], betweens[1]]):
        got = _commuting(hs[:2], o.mat, scales, frames[:2])
        assert got == [scale in betweens for scale in scales]
        assert got == [commutes_oracle(h, o.mat, scale, frame)
                       for h, scale, frame in zip(hs, scales, frames)]


@pytest.mark.parametrize("seed", range(12))
def test_each_family_s_run_and_each_dense_node_reads_with_its_own_factors(seed):
    # the levels of two towers, whose bases differ, each tower's in one run
    # of rows 2 d0, 4 d0 and 8 d0, and dense copies of their top levels,
    # each alone, over bases of 2 to 16 states and, on odd seeds, frames
    # turned complex by a phase: each is tested with its own H0 and X, and
    # no Kronecker sum's matrix is formed; the levels of the base that
    # commutes with O pass and the others fail
    gen = rng(19650 + seed)
    d0 = (2, 3, 5, 8, 12, 16)[seed % 6]
    o = LinearOperator("base", PAULI_X if d0 == 2 else random_real_symmetric(gen, d0))
    bases = [LinearOperator("base", gen.uniform(-1.0, 1.0) * np.eye(d0)
                            - gen.uniform(0.5, 1.5) * o.mat),
             LinearOperator("base", np.diag(gen.uniform(-1.0, 1.0, d0)) - 0.5 * o.mat)]
    phase = np.exp(1j * gen.uniform(0.1, 3.0)) if seed % 2 else 1.0
    runs = []
    for base in bases:
        family = _KroneckerFamily(base, orthant("base", d0), identity("base", d0),
                                  (PAULI_X,) * 3, ["q1", "q2", "q3"])
        subsets = [(1,), (1, 2), (1, 2, 3)]
        runs.append(([family.node(subset).hamiltonian for subset in subsets],
                     [phase * frame for frame in family.frames(subsets)]))
    runs += [([LinearOperator(hs[-1].space, hs[-1]._factors.matrix())], frames[-1:])
             for hs, frames in runs[:2]]
    got = []
    for hs, frames in runs:
        scales = [float(np.abs(np.linalg.eigvalsh(
            h._factors.matrix() if h._factors is not None else h.mat)).max()) for h in hs]
        verdicts = _commuting(hs, o.mat, scales, frames)
        assert verdicts == [commutes_oracle(h, o.mat, scale, frame)
                            for h, scale, frame in zip(hs, scales, frames)]
        got += verdicts
    assert got.count(True) == got.count(False) == 4
    assert not any("mat" in vars(h) for hs, _ in runs for h in hs if h._factors is not None)


def test_framed_commutation_makes_as_many_c_calls_at_every_base_dimension():
    # no pass runs once per base state: the same run of four family nodes
    # over bases of 2, 3, 16 and 33 states makes the same number of C-level
    # calls, with the oracle's verdicts; X = 1, and O commutes with H0, so
    # the nodes (), (1,) of sigma_x commute with O, and (2,), (1, 2), whose
    # slot 2 does not have the uniform vector as an eigenvector, do not
    subsets = [(), (1,), (2,), (1, 2)]
    counts = []
    for d0 in (2, 3, 16, 33):
        gen = rng(19680 + d0)
        h0 = random_real_symmetric(gen, d0)
        family = _KroneckerFamily(LinearOperator("base", h0), orthant("base", d0),
                                  identity("base", d0),
                                  [PAULI_X, np.array([[0.0, 1.0], [1.0, 1.0]])], ["f1", "f2"])
        hs = [family.node(subset).hamiltonian for subset in subsets]
        frames = family.frames(subsets)
        o = h0 @ h0 - 2.0 * h0
        o_norm = float(np.abs(np.linalg.eigvalsh(o)).max())
        scales = [float(np.abs(np.linalg.eigvalsh(h._factors.matrix())).max()) * o_norm
                  for h in hs]
        calls = Counter()
        sys.setprofile(lambda frame, event, arg: calls.update([event]))
        try:
            got = _commuting(hs, o, scales, frames)
        finally:
            sys.setprofile(None)
        assert got == [commutes_oracle(h, o, scale, frame)
                       for h, scale, frame in zip(hs, scales, frames)]
        assert got == [True, True, False, False]
        counts.append(calls["c_call"])
    assert len(set(counts)) == 1, counts


@pytest.mark.parametrize("seed", range(16))
def test_the_identity_frame_is_no_frame(seed):
    # on seeded Hermitian pairs, real and complex, the test through the
    # identity frame gives the frame-free verdict: by the Frobenius bound
    # on the exactly commuting pair (H, p(H)), and by the spectral fallback
    # at thresholds between the spectral and Frobenius norms, where it
    # passes, and just below the spectral norm, where it refuses
    gen = rng(19700 + seed)
    n = 2 + seed % 5
    draw = random_hermitian if seed % 2 else random_real_symmetric
    h = LinearOperator("s", draw(gen, n))
    o = draw(gen, n)
    c = _commutator(h.mat, o)
    spectral, frobenius = float(np.linalg.norm(c, 2)), float(np.linalg.norm(c))
    assert spectral < frobenius
    cases = [(h.mat @ h.mat - 2.0 * h.mat, 1.0, True),
             (o, 0.5 * (spectral + frobenius) / COMMUTATOR_TOL, True),
             (o, 0.999 * spectral / COMMUTATOR_TOL, False)]
    for obs, scale, want in cases:
        assert commutes(h, obs, scale) is want
        assert commutes(h, obs, scale, np.eye(n)) is want


class TestKroneckerNodesFormNoMatrix:
    """Along towers, lattices and `coupling` members no Kronecker-sum node's
    matrix is built, and no dense commutation test runs on one."""

    @pytest.fixture
    def made(self, monkeypatch):
        nodes, commuted = [], []
        build, commuting = stability._kronecker_sum, stability._commuting

        def recording_build(*args):
            nodes.append(build(*args))
            return nodes[-1]

        def recording_commuting(hs, o, scales, frames):
            commuted.extend(zip(hs, frames))
            return commuting(hs, o, scales, frames)

        monkeypatch.setattr(stability, "_kronecker_sum", recording_build)
        monkeypatch.setattr(stability, "_commuting", recording_commuting)
        return nodes, commuted

    @staticmethod
    def assert_no_matrix(nodes, commuted, base_dim):
        # every test without a frame is of a dense node on the base space
        assert nodes and all("mat" not in h.__dict__ for h in nodes)
        assert any(frame is not None for _, frame in commuted)
        assert all(h._factors is None and h.dim == base_dim
                   for h, frame in commuted if frame is None)

    def test_tower(self, made):
        h = LinearOperator("base", random_metzler_generator(rng(20000), 3))
        report = quantum_number_along_chain(extension_tower(h, orthant("base", 3), h, 5), h)
        assert len(set(report.snapped)) == 1
        self.assert_no_matrix(*made, 3)

    def test_lattice(self, made):
        spec = random_lattice_spec(rng(20001), structured=True)
        spec = LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x,
                           ((2, LinearOperator("f1", PAULI_X)),
                            (3, LinearOperator("f2", np.ones((3, 3)) - np.eye(3)))))
        assert len(build_lattice(spec).nodes) == 4
        self.assert_no_matrix(*made, spec.h0.dim)

    def test_stability_members(self, made):
        config = {"version": 1, "spaces": {"base": 2, "env": 3},
                  "operators": [
                      {"name": "h", "space": "base", "entries": [[0, -0.5], [-0.5, 1]]},
                      {"name": "one", "space": "base", "kind": "identity"},
                      {"name": "y", "space": "env", "entries": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}],
                  "cones": [{"name": "P", "kind": "orthant", "space": "base"}],
                  "task": "stability",
                  "params": {"h_star": "h", "cone": "P", "observable": "h", "members": [
                      {"id": "tower", "recipe": {"type": "tower", "depth": 3}},
                      {"id": "coupled", "recipe": {"type": "coupling", "x": "one", "y": "y"}}]}}
        report, _ = run_config(config, "digest")
        assert report["status"] == "pass", report
        self.assert_no_matrix(*made, 2)

    def test_a_lattice_holds_its_nodes_in_linear_memory(self):
        # 256 nodes of dimension 2 * 2^|I|: their matrices would hold
        # sum dim^2 = 32 * 5^8 bytes, about 12.5 MB
        flip = LinearOperator("base", PAULI_X)
        spec = LatticeSpec(LinearOperator("base", np.array([[0.3, -1.0], [-1.0, 0.3]])),
                           orthant("base", 2), flip, identity("base", 2),
                           tuple((2, LinearOperator(f"f{mu}", PAULI_X)) for mu in range(1, 9)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            diagram = build_lattice(spec)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(diagram.nodes) == 256 and len(diagram.covering_edges) == 1024
        assert held < 2 * 2 ** 20, held


def test_a_tower_reads_its_quantum_numbers_in_less_than_dim_squared_bytes():
    # depth 10 from a 2-dimensional base: one 2048 x 2048 float matrix
    # holds 8 times the bound
    h = LinearOperator("base", np.diag([0.0, 1.0]) - 0.1 * PAULI_X)
    _KroneckerFamily._flip_slot()  # the slot every level shares, made once per process
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chain = extension_tower(h, orthant("base", 2), h, 10)
        report = quantum_number_along_chain(chain, h)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    dim = chain.nodes[-1].hamiltonian.dim
    assert dim == 2048 and len(set(report.snapped)) == 1
    assert peak < dim * dim, peak


def test_a_lattice_reads_its_nodes_without_a_top_dimension_square():
    # 8 binary slots: what build_lattice allocates beyond what it keeps
    # stays below half of one 512 x 512 float matrix
    flip = LinearOperator("base", PAULI_X)
    spec = LatticeSpec(LinearOperator("base", np.array([[0.3, -1.0], [-1.0, 0.3]])),
                       orthant("base", 2), flip, identity("base", 2),
                       tuple((2, LinearOperator(f"f{mu}", PAULI_X)) for mu in range(1, 9)))
    tracemalloc.start()
    try:
        diagram = build_lattice(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dim = diagram.nodes[-1].hamiltonian.dim
    assert dim == 512
    assert peak - held < dim * dim * 8 // 2, peak - held
