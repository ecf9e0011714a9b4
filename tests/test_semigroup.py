import numpy as np
import pytest

from conftest import (
    duhamel_term_oracle,
    expm_oracle,
    op,
    random_metzler_generator,
    random_nonneg_irreducible,
    rng,
    semigroup_positive_all_beta,
)

from conecalc.cones import orthant
from conecalc.errors import InputNotInClass, PreconditionFailed, SpectralBound
from conecalc.numerics import identity, op_exp
from conecalc.positivity import classify, generates_positive_semigroup
from conecalc.semigroup import perturbed_semigroup_improving, resolvent, trotter_verify

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestResolvent:
    def test_diagonal(self):
        r = resolvent(op("s", np.diag([1.0, 2.0])), 0.0)
        assert np.allclose(r.mat, np.diag([1.0, 0.5]), atol=1e-12)

    def test_flip_closed_form(self):
        r = resolvent(op("s", -SIGMA_X), 2.0)
        assert np.allclose(r.mat, np.array([[2, 1], [1, 2]]) / 3, atol=1e-12)

    def test_at_bound_raises(self):
        h = op("s", np.diag([1.0, 2.0]))
        with pytest.raises(SpectralBound):
            resolvent(h, -1.0)

    def test_agrees_with_laplace_quadrature(self):
        # (H+s)^{-1} = integral of exp(-beta (H+s)); Simpson on a long window
        gen = rng(211)
        h = op("s", random_metzler_generator(gen, 4) + 2.0 * np.eye(4))
        s = 1.0
        length, points = 40.0, 4001
        nodes = np.linspace(0.0, length, points)
        from conftest import simpson_weights

        w = simpson_weights(points, length)
        quad = sum(wk * expm_oracle(-b * (h.mat + s * np.eye(4))) for b, wk in zip(nodes, w))
        r = resolvent(h, s)
        assert np.linalg.norm(r.mat - quad, 2) <= 1e-6 * np.linalg.norm(r.mat, 2)


class TestSemigroupPositiveAllBeta:
    def test_flip_generator(self):
        assert semigroup_positive_all_beta(op("s", -SIGMA_X), orthant("s", 2))

    def test_positive_coupling_fails(self):
        assert not semigroup_positive_all_beta(op("s", SIGMA_X), orthant("s", 2))

    def test_any_diagonal(self):
        gen = rng(223)
        h = op("s", np.diag(gen.normal(size=5)))
        assert semigroup_positive_all_beta(h, orthant("s", 5))

    def test_criterion_agrees_with_sampled_exponentials(self):
        # structural criterion vs direct beta-sampled positivity of the
        # independently computed exponential; the non-Metzler half carries a
        # flipped entry large enough for beta = 0.1 to resolve it
        gen = rng(227)
        cone_cache = {}
        for trial in range(300):
            n = int(gen.integers(2, 13))
            cone = cone_cache.setdefault(n, orthant("s", n))
            mat = 0.3 * random_metzler_generator(gen, n)
            if trial % 2 == 1:
                i, j = gen.choice(n, size=2, replace=False)
                mat[i, j] = mat[j, i] = float(gen.uniform(0.8, 1.5))
            h = op("s", mat)
            criterion = generates_positive_semigroup(h, cone)
            assert criterion == (trial % 2 == 0)
            sampled = all(
                (expm_oracle(-beta * h.mat).real
                 >= -1e-9 * np.abs(expm_oracle(-beta * h.mat)).max()).all()
                for beta in (0.1, 1.0, 10.0)
            )
            assert criterion == sampled, f"trial {trial}"
            assert semigroup_positive_all_beta(h, cone) == criterion

    def test_unresolvable_negative_verdict_uses_refined_beta(self):
        # a tiny positive coupling is masked on the default grid; the adaptive
        # small beta still confirms the negative verdict instead of erroring
        mat = np.array([
            [0.0, -1.0, 0.02],
            [-1.0, 0.5, -1.2],
            [0.02, -1.2, -0.3],
        ])
        h = op("s", mat)
        cone = orthant("s", 3)
        for beta in (0.1, 1.0, 10.0):
            e = expm_oracle(-beta * mat).real
            assert e.min() >= 0.0  # the default grid genuinely cannot see it
        assert not semigroup_positive_all_beta(h, cone)


class TestTrotter:
    def test_commuting_pair_has_zero_error(self):
        h = op("s", np.diag([0.0, 1.0, 2.0]))
        hp = op("s", np.diag([1.0, 0.5, 0.25]))
        rep = trotter_verify(h, hp, 1.0, 1.0, 1.0, (1, 2, 4), orthant("s", 3))
        assert max(rep.errors) <= 1e-13
        assert all(rep.positivity_ok)

    def test_error_halves_per_doubling(self):
        gen = rng(229)
        p = orthant("s", 4)
        h = op("s", random_metzler_generator(gen, 4))
        hp = op("s", random_metzler_generator(gen, 4))
        ns = tuple(2 ** k for k in range(9))  # 1 .. 256
        rep = trotter_verify(h, hp, 0.7, 1.1, 1.0, ns, p)
        for ratio in rep.ratios():
            assert 4.0 / 3.0 <= ratio <= 3.0  # halving within +-50%
        assert all(rep.positivity_ok)

    def test_direct_exponential_oracle(self):
        # the n-step product must approach scipy's exponential of the sum
        gen = rng(233)
        h = op("s", random_metzler_generator(gen, 3))
        hp = op("s", random_metzler_generator(gen, 3))
        s, t, beta, n = 0.5, 0.9, 1.3, 512
        step = expm_oracle(-beta * s * h.mat / n) @ expm_oracle(-beta * t * hp.mat / n)
        product = np.linalg.matrix_power(step, n)
        target = expm_oracle(-beta * (s * h.mat + t * hp.mat))
        norm = np.linalg.norm(target, 2)
        assert np.linalg.norm(product - target, 2) <= 5e-3 * norm

    def test_one_decomposition_per_generator(self, decompositions):
        gen = rng(231)
        h = op("s", random_metzler_generator(gen, 4))
        hp = op("s", random_metzler_generator(gen, 4))
        trotter_verify(h, hp, 0.7, 1.1, 1.0, tuple(2 ** k for k in range(9)), orthant("s", 4))
        assert decompositions["eigh"] == 3

    def test_rejects_inputs_outside_class(self):
        with pytest.raises(InputNotInClass):
            trotter_verify(op("s", SIGMA_X), op("s", -SIGMA_X),
                           1.0, 1.0, 1.0, (1, 2), orthant("s", 2))


class TestPerturbedImprovement:
    def test_two_by_two_instance(self):
        # A = diag(0,1), B = sigma_x: exp(-(A-B)) is entrywise positive
        a = op("s", np.diag([0.0, 1.0]))
        b = op("s", SIGMA_X)
        assert perturbed_semigroup_improving(a, b, orthant("s", 2))
        assert (expm_oracle(-(a.mat - b.mat)).real > 0).all()

    def test_identity_perturbation_is_rejected_as_not_ergodic(self):
        # orthogonal generator pairs never connect under the identity, so it
        # fails ergodicity for dim >= 2 and the hypothesis check rejects it;
        # structurally A - 1 would indeed stay diagonal (no improvement)
        a = op("s", np.diag([0.0, 1.0]))
        b = identity("s", 2)
        with pytest.raises(PreconditionFailed, match="ergodic"):
            perturbed_semigroup_improving(a, b, orthant("s", 2))
        assert np.abs(expm_oracle(-(a.mat - b.mat))[0, 1]) < 1e-15

    def test_rank_one_flood(self):
        # A = 0, B = all-ones: exp(beta*B) = I + (e^{3 beta}-1)/3 * B  (B^2 = 3B)
        ones = np.ones((3, 3))
        beta = 1.0
        want = np.eye(3) + (np.exp(3 * beta) - 1.0) / 3.0 * ones
        assert np.allclose(expm_oracle(beta * ones), want, atol=1e-10)
        assert perturbed_semigroup_improving(op("s", np.zeros((3, 3))), op("s", ones),
                                             orthant("s", 3))

    def test_weak_coupling_under_a_wide_gap(self):
        # A = diag(0, 40), B = 1e-6 sigma_x: -(A-B) is Metzler and irreducible,
        # so every exp(-beta(A-B)) is strictly positive, yet at beta = 1 its
        # smallest entry sits far below tol * max; a sampled check refuses it
        a = op("s", np.diag([0.0, 40.0]))
        b = op("s", 1e-6 * SIGMA_X)
        assert perturbed_semigroup_improving(a, b, orthant("s", 2))
        e = expm_oracle(-(a.mat - b.mat)).real
        assert 0.0 < e.min() < 1e-9 * e.max()

    def test_precondition_errors_name_the_hypothesis(self):
        p = orthant("s", 2)
        with pytest.raises(PreconditionFailed, match="first"):
            perturbed_semigroup_improving(op("s", SIGMA_X), op("s", SIGMA_X), p)
        with pytest.raises(PreconditionFailed, match="ergodic"):
            perturbed_semigroup_improving(op("s", np.diag([0.0, 1.0])),
                                          op("s", np.diag([1.0, 0.0])), p)


class TestImprovingExponentialsImplyImprovingResolvents:
    def test_sampled_betas_and_resolvents(self):
        gen = rng(239)
        p = orthant("s", 4)
        for _ in range(10):
            h = op("s", random_metzler_generator(gen, 4))
            improving_exp = all(
                classify(op_exp(h, -beta), p).improving for beta in (0.1, 0.5, 1.0, 2.0)
            )
            if not improving_exp:
                continue
            bound = -np.linalg.eigvalsh(h.mat).min()
            for k in range(1, 6):
                s = bound + 0.3 * k
                assert classify(resolvent(h, s), p).improving

    def test_duhamel_expansion_lower_bounds_hold_orderwise(self):
        # exp(-beta(A-B)) dominates each simplex term; cross-check order 2
        gen = rng(241)
        n, beta = 3, 0.6
        a = np.diag(gen.uniform(0.0, 0.8, size=n))
        b = random_nonneg_irreducible(gen, n)
        full = expm_oracle(-beta * (a - b)).real
        term2 = duhamel_term_oracle(a, b, beta, order=2, num_points=41).real
        assert (full - term2 >= -1e-6).all()
