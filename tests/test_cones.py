import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cone_contains, dense_cone, random_unit, rng

from conecalc.cones import SelfDualCone, _signed_cone, orthant, tensor_cone
from conecalc.errors import DimMismatch


def haar_cone(seed: int, n: int, space: str = "s") -> SelfDualCone:
    """Cone with a random unitary generator stack."""
    gen = rng(seed)
    a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return SelfDualCone(space, q)


class TestConstruction:
    def test_orthant_generators(self):
        p = orthant("s", 2)
        assert np.array_equal(p.generators, np.eye(2))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SelfDualCone("s", np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_tensor_cone_is_orthant_structured(self):
        pq = tensor_cone(orthant("a", 2), orthant("b", 3))
        assert pq.dim == 6
        assert np.array_equal(pq.generators, np.eye(6))

    def test_coords_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            orthant("s", 3).coords(np.ones(4))


class TestContains:
    # the membership oracle of the NNLS and positivity checks: every
    # generator coordinate real and nonnegative
    def test_orthant_membership(self):
        p = orthant("s", 3)
        assert cone_contains(p, np.array([1.0, 2.0, 0.0]))
        assert cone_contains(p, np.zeros(3))
        assert not cone_contains(p, np.array([1.0, -1e-6, 0.0]), tol=1e-9)

    def test_generator_sum_is_member(self):
        p = haar_cone(5, 4)
        assert cone_contains(p, p.generators[:, 0] + p.generators[:, 1])

    def test_imaginary_multiple_is_not(self):
        p = haar_cone(7, 3)
        assert not cone_contains(p, 1j * p.generators[:, 0])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            orthant("s", 3).strictly_positive(np.ones(4))


class TestCoords:
    def test_generators_read_as_unit_vectors(self):
        p = haar_cone(17, 4)
        for i in range(4):
            assert np.allclose(p.coords(p.generators[:, i]), np.eye(4)[i], atol=1e-12)

    def test_complex_linear(self):
        gen = rng(19)
        p = haar_cone(19, 3)
        x, y = random_unit(gen, 3), random_unit(gen, 3)
        a, b = 0.3 - 2j, -1.1 + 0.5j
        assert np.allclose(p.coords(a * x + b * y), a * p.coords(x) + b * p.coords(y),
                           atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_generators_rebuild_every_vector(self, n, seed):
        # the generators are a basis: x = sum_i <u_i|x> u_i
        p = haar_cone(seed % 1000, n)
        x = random_unit(rng(seed), n)
        assert np.linalg.norm(p.generators @ p.coords(x) - x) <= 1e-10

    def test_signed_permutation_matches_its_dense_generators(self):
        # a sign cone against its dense generators, and an explicit signed
        # permutation against the signed gather of the vector
        rows, signs = [2, 0, 3, 1], np.array([1.0, -1.0, -1.0, 1.0])
        x = random_unit(rng(23), 4)
        p = _signed_cone("s", signs)
        assert np.allclose(p.coords(x), dense_cone(p).coords(x), atol=1e-15)
        stack = np.zeros((4, 4))
        stack[rows, np.arange(4)] = signs
        assert np.allclose(SelfDualCone("s", stack).coords(x), signs * x[rows], atol=1e-15)


class TestStrictlyPositive:
    def test_uniform_vector_of_flip_ground_state(self):
        # the lowest eigenvector of -sigma_x, (1,1)/sqrt(2), is strictly positive
        p = orthant("s", 2)
        assert p.strictly_positive(np.array([1.0, 1.0]) / np.sqrt(2))

    def test_single_generator_is_not_strict(self):
        p = haar_cone(9, 3)
        assert cone_contains(p, p.generators[:, 0])
        assert not p.strictly_positive(p.generators[:, 0])

    def test_all_ones_in_orthant(self):
        n = 5
        assert orthant("s", n).strictly_positive(np.ones(n) / np.sqrt(n))

    def test_zero_vector_never_strict(self):
        assert not orthant("s", 3).strictly_positive(np.zeros(3))

    def test_difference_of_generators_is_not_strict(self):
        p = haar_cone(29, 3)
        assert not p.strictly_positive(p.generators[:, 0] - p.generators[:, 1])

    def test_imaginary_interior_is_not_strict(self):
        p = haar_cone(31, 3)
        x = p.generators @ np.ones(3)
        assert p.strictly_positive(x)
        assert not p.strictly_positive(1j * x)

    def test_tolerance_is_relative_to_the_norm(self):
        p = orthant("s", 2)
        x = np.array([1.0, 1e-6])
        assert p.strictly_positive(x, tol=1e-9) and not p.strictly_positive(x, tol=1e-3)
        assert p.strictly_positive(1e6 * x, tol=1e-9)
        assert not p.strictly_positive(1e-6 * x, tol=1e-3)

    def test_strict_pairs_positively_with_random_combinations(self):
        gen = rng(13)
        p = haar_cone(15, 4)
        x = p.generators @ np.array([0.5, 1.0, 0.2, 0.9])
        assert p.strictly_positive(x)
        for _ in range(50):
            coeffs = gen.uniform(0.0, 1.0, size=4)
            if coeffs.max() < 1e-3:
                continue
            g = p.generators @ coeffs
            assert np.vdot(g, x).real > 0


class TestSelfDuality:
    def test_membership_matches_sampled_dual_characterization(self):
        gen = rng(47)
        for trial in range(200):
            n = int(gen.integers(2, 7))
            p = haar_cone(trial, n)
            x = p.generators @ (gen.normal(size=n) + 0.0j)
            member = cone_contains(p, x, tol=1e-9)
            # sample the cone densely and test the dual inequality directly
            pairings = [
                np.vdot(p.generators @ gen.uniform(0.0, 1.0, size=n), x).real
                for _ in range(64)
            ] + [np.vdot(p.generators[:, i], x).real for i in range(n)]
            dual_ok = all(val >= -1e-9 * max(np.linalg.norm(x), 1) for val in pairings)
            assert member == dual_ok

    def test_pointed(self):
        # P intersect -P = {0}
        gen = rng(53)
        p = haar_cone(59, 4)
        for _ in range(100):
            x = p.generators @ gen.normal(size=4)
            if cone_contains(p, x, 1e-12) and cone_contains(p, -x, 1e-12):
                assert np.linalg.norm(x) <= 1e-9


class TestTensorCone:
    def test_generator_membership(self):
        p = haar_cone(61, 2, "a")
        q = haar_cone(67, 3, "b")
        pq = tensor_cone(p, q)
        g = np.kron(p.generators[:, 0], q.generators[:, 1])
        assert cone_contains(pq, g)
        assert not pq.strictly_positive(g)

    def test_coefficient_solve(self):
        # (u1+u2)(x)(v1+v2) decomposes with all four coefficients 1
        p = haar_cone(71, 2, "a")
        q = haar_cone(73, 2, "b")
        pq = tensor_cone(p, q)
        x = np.kron(p.generators[:, 0] + p.generators[:, 1],
                    q.generators[:, 0] + q.generators[:, 1])
        coeffs = pq.coords(x)
        assert np.allclose(coeffs, np.ones(4), atol=1e-12)

    def test_product_of_strictly_positive_vectors_is_strict(self):
        p = haar_cone(79, 2, "a")
        q = haar_cone(83, 3, "b")
        x = p.generators @ np.array([0.4, 1.0])
        y = q.generators @ np.array([1.0, 0.2, 0.7])
        pq = tensor_cone(p, q)
        assert pq.strictly_positive(np.kron(x, y))
        assert not pq.strictly_positive(np.kron(x, q.generators[:, 0]))
