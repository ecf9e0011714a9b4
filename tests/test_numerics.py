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
    LinearOperator,
    Spectrum,
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
        for real in (h + h, h - h, h @ h, 2.0 * h, h.adjoint(), op_exp(h, -0.5),
                     kron(h, h), identity("s", 4)):
            assert real.mat.dtype == np.float64
        assert hermitian_eig(h).eigenvectors.dtype == np.float64
        for mixed in (h + z, h @ z, 1j * h, kron(h, z), kron(z, h), op_exp_unitary(h, 0.5)):
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
        for k in range(8):
            residual = np.linalg.norm(
                h.mat @ spec.eigenvectors[:, k] - spec.eigenvalues[k] * spec.eigenvectors[:, k]
            )
            assert residual <= 1e-10 * scale

    def test_reconstruction_invariant(self):
        gen = rng(11)
        for _ in range(500):
            n = int(gen.integers(1, 33))
            h = op("s", random_hermitian(gen, n))
            spec = hermitian_eig(h)
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            scale = max(np.linalg.norm(h.mat, 2), 1e-300)
            assert np.linalg.norm(h.mat - rebuilt, 2) <= 1e-10 * scale

    def test_phase_convention_is_deterministic(self):
        h = op("s", random_hermitian(rng(3), 6))
        a = hermitian_eig(h)
        b = hermitian_eig(LinearOperator("s", h.mat.copy()))
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        # first non-negligible component of each eigenvector is real positive
        for k in range(6):
            v = a.eigenvectors[:, k]
            lead = v[np.abs(v) > 1e-8 * np.abs(v).max()][0]
            assert lead.real > 0 and abs(lead.imag) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(op("s", [[0.0, 1.0], [0.0, 0.0]]))

    def test_norm_is_the_largest_absolute_eigenvalue(self):
        for shift in (-5.0, 0.0, 5.0):
            h = op("s", random_hermitian(rng(8), 7) + shift * np.eye(7))
            assert hermitian_eig(h).norm == pytest.approx(np.linalg.norm(h.mat, 2), rel=1e-12)

    def test_spectrum_keeps_a_frozen_eigenbasis_uncopied(self):
        vecs = np.eye(3)
        copied = Spectrum(np.arange(3.0), vecs)
        assert copied.eigenvectors is not vecs and not copied.eigenvectors.flags.writeable
        vecs.setflags(write=False)
        assert Spectrum(np.arange(3.0), vecs).eigenvectors is vecs
        for other in (vecs.T.copy(order="F"), vecs.astype(complex), np.eye(4)[:3, :3]):
            other.setflags(write=False)
            assert Spectrum(np.arange(3.0), other).eigenvectors is not other

    def test_real_symmetric_input_is_decomposed_in_real_arithmetic(self):
        h = op("s", random_real_symmetric(rng(19), 6))
        spec = hermitian_eig(h)
        assert spec.eigenvectors.dtype == np.float64
        vals, vecs = np.linalg.eigh(h.mat)
        assert np.array_equal(spec.eigenvalues, vals)
        assert np.array_equal(np.abs(spec.eigenvectors), np.abs(vecs))


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
def test_eigh_orthonormal_columns(n, seed):
    spec = hermitian_eig(op("s", random_hermitian(rng(seed), n)))
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.abs(gram - np.eye(n)).max() <= 1e-10
    assert (np.diff(spec.eigenvalues) >= -1e-12).all()
