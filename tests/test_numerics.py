import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    expm_oracle,
    op,
    random_density,
    random_hermitian,
    random_real_symmetric,
    random_unit,
    rng,
    same_bits,
)

from conecalc.errors import BadFactorization, NonHermitian, NotDensityMatrix
from conecalc.numerics import (
    HERMITIAN_TOL,
    LinearOperator,
    Spectrum,
    _blocks,
    _kron,
    hermitian_eig,
    identity,
    kron,
    op_exp,
    op_exp_unitary,
    partial_trace,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


class TestDtype:
    """Operators are float64 when their entries are real, an imaginary part
    that is exactly zero included, and complex128 otherwise."""

    @pytest.mark.parametrize("entries", [
        [[0, 1], [1, 0]], np.eye(2, dtype=bool), SIGMA_X.astype(np.float32), SIGMA_X,
    ])
    def test_real_input_gives_float64(self, entries):
        got = LinearOperator("s", entries).mat
        assert got.dtype == np.float64
        assert np.array_equal(got, np.asarray(entries, dtype=float))

    @pytest.mark.parametrize("imag", [0.0, -0.0])
    def test_a_zero_imaginary_part_gives_float64(self, imag):
        entries = SIGMA_X.astype(complex)
        entries.imag = imag
        for mat in (entries, entries.astype(np.complex64)):
            got = LinearOperator("s", mat).mat
            assert got.dtype == np.float64 and same_bits(got, SIGMA_X)

    def test_a_nonzero_imaginary_part_gives_complex128(self):
        for mat in (SIGMA_Y, SIGMA_Y.astype(np.complex64), SIGMA_X + 1e-300j * SIGMA_X):
            got = LinearOperator("s", mat).mat
            assert got.dtype == np.complex128 and np.array_equal(got, mat)

    def test_an_owned_frozen_array_is_kept_uncopied(self):
        for mat in (SIGMA_X.copy(), SIGMA_Y.copy()):
            mat.setflags(write=False)
            assert LinearOperator("s", mat).mat is mat
        writable = SIGMA_X.copy()
        got = LinearOperator("s", writable).mat
        assert got is not writable and not got.flags.writeable
        writable[0, 0] = 5.0
        assert got[0, 0] == 0.0

    def test_real_operators_stay_real(self):
        h = LinearOperator("s", random_real_symmetric(rng(2), 4))
        z = LinearOperator("s", random_hermitian(rng(3), 4))
        for real in (h + h, h - h, op_exp(h, -0.5), kron(h, h), identity("s", 4)):
            assert real.mat.dtype == np.float64
        assert hermitian_eig(h).ground_vector.dtype == np.float64
        for mixed in (h + z, kron(h, z), kron(z, h), op_exp_unitary(h, 0.5)):
            assert mixed.mat.dtype == np.complex128


class TestHermitianEig:
    def test_sigma_x_analytic(self):
        spec = hermitian_eig(op("s", SIGMA_X))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        assert spec.gap01 == pytest.approx(2.0)

    def test_identity_is_flat(self):
        spec = hermitian_eig(identity("s", 3))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
        assert spec.gap01 == 0.0

    def test_residuals_on_random_matrix(self):
        h = op("s", random_hermitian(rng(7), 8))
        spec = hermitian_eig(h)
        scale = np.linalg.norm(h.mat, 2)
        psi = spec.ground_vector
        assert np.linalg.norm(h.mat @ psi - spec.ground_energy * psi) <= 1e-10 * scale
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_phase_convention_is_deterministic(self):
        h = op("s", random_hermitian(rng(3), 6))
        a = hermitian_eig(h)
        b = hermitian_eig(LinearOperator("s", h.mat.copy()))
        assert np.array_equal(a.ground_vector, b.ground_vector)
        # the ground vector's first non-negligible component is real positive
        v = a.ground_vector
        lead = v[np.abs(v) > 1e-8 * np.abs(v).max()][0]
        assert lead.real > 0 and abs(lead.imag) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(op("s", [[0.0, 1.0], [0.0, 0.0]]))

    def test_norm_is_the_largest_absolute_eigenvalue(self):
        for shift in (-5.0, 0.0, 5.0):
            h = op("s", random_hermitian(rng(8), 7) + shift * np.eye(7))
            assert hermitian_eig(h).norm == pytest.approx(np.linalg.norm(h.mat, 2), rel=1e-12)

    def test_spectrum_keeps_a_frozen_ground_vector_uncopied(self):
        vec = np.eye(3)[0]
        copied = Spectrum(np.arange(3.0), vec)
        assert copied.ground_vector is not vec and not copied.ground_vector.flags.writeable
        vec = vec.copy()
        vec.setflags(write=False)
        assert Spectrum(np.arange(3.0), vec).ground_vector is vec
        for other in (np.eye(3)[:, 0], vec.astype(complex)):
            other.setflags(write=False)
            assert Spectrum(np.arange(3.0), other).ground_vector is not other

    def test_real_symmetric_input_is_decomposed_in_real_arithmetic(self):
        h = op("s", random_real_symmetric(rng(19), 6))
        spec = hermitian_eig(h)
        assert spec.ground_vector.dtype == np.float64
        vals, vecs = np.linalg.eigh(h.mat)
        assert np.array_equal(spec.eigenvalues, vals)
        assert np.array_equal(np.abs(spec.ground_vector), np.abs(vecs[:, 0]))


class TestOpExp:
    def test_zero_time_is_identity(self):
        h = op("s", random_hermitian(rng(5), 5))
        assert np.allclose(op_exp(h, 0.0).mat, np.eye(5), atol=1e-14)

    def test_two_by_two_closed_form(self):
        # exp(beta*sigma_x) = cosh(beta) I + sinh(beta) sigma_x, all entries > 0
        beta = 1.3
        got = op_exp(op("s", -SIGMA_X), -beta)
        want = np.cosh(beta) * np.eye(2) + np.sinh(beta) * SIGMA_X
        assert np.allclose(got.mat, want, atol=1e-12)
        assert (got.mat.real > 0).all()

    def test_semigroup_law(self):
        h = op("s", random_hermitian(rng(9), 6))
        s, t = 0.7, 1.9
        lhs = op_exp(h, s).mat @ op_exp(h, t).mat
        rhs = op_exp(h, s + t).mat
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * np.linalg.norm(rhs, 2)

    def test_spectrum_maps_exponentially(self):
        h = op("s", random_hermitian(rng(13), 7))
        t = 0.4
        vals = np.sort(np.linalg.eigvalsh(op_exp(h, t).mat))
        want = np.sort(np.exp(t * hermitian_eig(h).eigenvalues))
        assert np.allclose(vals, want, rtol=1e-9)

    def test_against_independent_exponential(self):
        h = op("s", random_hermitian(rng(17), 9))
        got = op_exp(h, -1.1).mat
        want = expm_oracle(-1.1 * h.mat)
        assert np.linalg.norm(got - want, 2) <= 1e-10 * np.linalg.norm(want, 2)


class TestKron:
    def test_identity_factors(self):
        assert np.array_equal(kron(identity("a", 2), identity("b", 3)).mat, np.eye(6))

    def test_basis_action(self):
        # (sigma_x (x) 1) e1(x)e1 = e2(x)e1
        big = kron(op("a", SIGMA_X), identity("b", 2))
        e11 = np.kron([1, 0], [1, 0]).astype(complex)
        e21 = np.kron([0, 1], [1, 0]).astype(complex)
        assert np.allclose(big.mat @ e11, e21)

    def test_equals_numpys_kron_bit_for_bit(self):
        gen = rng(29)
        for _ in range(40):
            a, b = (gen.normal(size=tuple(gen.integers(1, 5, size=2))) for _ in range(2))
            if gen.uniform() < 0.5:
                a = a + 1j * gen.normal(size=a.shape)
            if gen.uniform() < 0.5:
                b = b * np.where(gen.uniform(size=b.shape) < 0.3, -0.0, 1.0)
            assert same_bits(_kron(a, b), np.kron(a, b))
            assert same_bits(_kron(b, a), np.kron(b, a))

    def test_the_product_is_adopted_uncopied(self):
        got = kron(op("a", SIGMA_X), identity("b", 3)).mat
        assert got.flags.owndata and not got.flags.writeable

    def test_norm_is_multiplicative(self):
        gen = rng(23)
        for _ in range(20):
            a = op("a", random_hermitian(gen, 3))
            b = op("b", random_hermitian(gen, 4))
            assert kron(a, b).norm() == pytest.approx(a.norm() * b.norm(), rel=1e-10)


class TestPartialTrace:
    def test_product_state(self):
        psi = random_unit(rng(29), 3)
        omega = random_unit(rng(31), 2)
        rho = np.outer(np.kron(psi, omega), np.kron(psi, omega).conj())
        reduced = partial_trace(op("ab", rho), 3)
        assert np.allclose(reduced.mat, np.outer(psi, psi.conj()), atol=1e-12)

    def test_maximally_entangled_pair(self):
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        reduced = partial_trace(op("qq", np.outer(bell, bell)), 2)
        assert np.allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)

    def test_pure_state_matches_svd_oracle(self):
        psi = random_unit(rng(37), 6)
        reduced = partial_trace(op("ab", np.outer(psi, psi.conj())), 3)
        coeffs = psi.reshape(3, 2)
        want = np.sort(np.linalg.svd(coeffs, compute_uv=False) ** 2)
        got = np.sort(np.linalg.eigvalsh(reduced.mat))[-2:]
        assert np.allclose(got, want, atol=1e-12)

    def test_trace_and_positivity_preserved(self):
        gen = rng(41)
        for _ in range(25):
            rho = random_density(gen, 6)
            reduced = partial_trace(op("ab", rho), 2)
            assert np.trace(reduced.mat).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(reduced.mat).min() >= -1e-10

    def test_bad_factor(self):
        rho = random_density(rng(43), 6)
        with pytest.raises(BadFactorization):
            partial_trace(op("ab", rho), 4)

    def test_rejects_non_density(self):
        with pytest.raises(NotDensityMatrix):
            partial_trace(op("ab", np.eye(4)), 2)  # trace 4, not 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_eigh_ascends_with_a_unit_ground_vector(n, seed):
    spec = hermitian_eig(op("s", random_hermitian(rng(seed), n)))
    assert abs(np.linalg.norm(spec.ground_vector) - 1.0) <= 1e-10
    assert (np.diff(spec.eigenvalues) >= -1e-12).all()


@pytest.mark.parametrize("seed", range(12))
def test_a_block_has_the_same_eigenpairs_alone_and_in_any_batch(seed):
    # a family's block cache decomposes a block once, in whichever batch
    # first holds it, and every node reads those bits: numpy's batched eigh
    # runs LAPACK once per matrix, so a block's eigenpairs are the same alone,
    # in a batch, and in any slice or reordering of one
    gen = rng(23000 + seed)
    d0 = int(gen.integers(1, 6))
    draw = random_hermitian if seed % 2 else random_real_symmetric
    h0, x = draw(gen, d0), draw(gen, d0)
    k = gen.normal(size=int(gen.integers(2, 40)))
    blocks = h0 - k[:, None, None] * x
    values, vectors = np.linalg.eigh(blocks)
    order = gen.permutation(k.size)
    shuffled = np.linalg.eigh(blocks[order])
    start = int(gen.integers(k.size))
    part = np.linalg.eigh(blocks[start:])
    for i in range(k.size):
        alone = np.linalg.eigh(h0 - k[i] * x)
        assert same_bits(alone[0], values[i]) and same_bits(alone[1], vectors[i])
        j = int(np.argmax(order == i))
        assert same_bits(shuffled[0][j], values[i]) and same_bits(shuffled[1][j], vectors[i])
        if i >= start:
            assert same_bits(part[0][i - start], values[i])
            assert same_bits(part[1][i - start], vectors[i])


def test_the_blocks_key_a_shift_by_its_bits():
    # -0.0 and 0.0 are equal floats, yet H0 - k X at the two can differ in
    # the sign of a zero: each is its own block, decomposed once, and a row
    # holds the eigenpairs of its own block
    h0 = np.array([[-0.0, -1.0], [-1.0, 0.5]])
    x = np.array([[1.0, 0.25], [0.25, 2.0]])
    k = np.array([0.0, -0.0, 1.5, 0.0])
    values, vectors, rows = _blocks(h0, x, k)
    assert len(values) == 3 and rows[0] == rows[3] != rows[1]
    for shift, row in zip(k, rows):
        want_values, want_vectors = np.linalg.eigh(h0 - shift * x)
        assert same_bits(values[row], want_values) and same_bits(vectors[row], want_vectors)
    assert not (h0 - k[0] * x).tobytes() == (h0 - k[1] * x).tobytes()



def hermitian_oracle(mat: np.ndarray) -> bool:
    """max|H - H^*| <= HERMITIAN_TOL max|H|, read on the dense temporaries."""
    scale = max(np.abs(mat).max(), 1e-300)
    return float(np.abs(mat - mat.conj().T).max()) <= HERMITIAN_TOL * scale


@pytest.mark.parametrize("seed", range(12))
def test_the_hermitian_check_reads_the_floats_of_the_dense_one(seed):
    # real and complex, skews at the threshold and one ulp either side of
    # it, -0.0 entries and an all-zero matrix
    gen = rng(41000 + seed)
    n = int(gen.integers(1, 7))
    mats = [np.zeros((n, n)), np.where(gen.uniform(size=(n, n)) < 0.4, -0.0, 1.0)]
    for complex_ in (False, True):
        h = random_hermitian(gen, n) if complex_ else random_real_symmetric(gen, n)
        h = (h + h.conj().T) / 2
        i, j = int(gen.integers(n)), int(gen.integers(n))
        edge = HERMITIAN_TOL * np.abs(h).max()
        for skew in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), 1e-3):
            bumped = h.copy()
            bumped[i, j] += skew
            mats.append(bumped)
    for mat in mats:
        assert LinearOperator("s", mat).is_hermitian() == hermitian_oracle(mat)


def test_a_real_hermitian_check_holds_one_temporary():
    # the skew of a 924 x 924 real operator, the largest spin sector at the
    # site cap, takes its absolute value in place
    a = rng(41100).normal(size=(924, 924))
    h = LinearOperator("s", a + a.T)
    tracemalloc.start()
    try:
        assert h.is_hermitian()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * h.mat.nbytes
