import numpy as np
import pytest

from conftest import (
    duhamel_term_oracle,
    expm_oracle,
    op,
    power_connectivity_oracle,
    random_metzler_generator,
    random_nonneg_irreducible,
    rng,
)
from test_cones import haar_cone

from conecalc import positivity
from conecalc.cones import SelfDualCone, orthant, tensor_cone
from conecalc.errors import InputNotInClass, NotPreserving, NotRealForm
from conecalc.numerics import DEFAULT_TOL, LinearOperator, identity, kron
from conecalc.positivity import (
    NodeAnalysis,
    _reach_table,
    classify,
    dominates,
    generates_improving_semigroup,
    generates_positive_semigroup,
    ground_state,
    is_ergodic,
    positive_combination,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestClassify:
    def test_identity_preserves_but_does_not_improve(self):
        rep = classify(identity("s", 3), orthant("s", 3))
        assert rep.preserving and rep.real_form
        assert not rep.improving
        assert rep.witness is not None  # the blocking zero entry

    def test_sigma_x_zero_diagonal(self):
        rep = classify(op("s", SIGMA_X), orthant("s", 2))
        assert rep.preserving and not rep.improving

    def test_all_ones_improves(self):
        rep = classify(op("s", np.ones((3, 3))), orthant("s", 3))
        assert rep.improving and rep.preserving

    def test_negative_entry_breaks_preservation_with_witness(self):
        m = np.eye(3)
        m[2, 0] = -0.5
        rep = classify(op("s", m), orthant("s", 3))
        assert not rep.preserving
        assert rep.witness == (2, 0, -0.5 + 0j)

    def test_generator_criterion_matches_direct_definition(self):
        # classify must agree with "A maps cone samples into the cone", where
        # the samples include the extreme rays and random nonneg combinations
        gen = rng(101)
        for trial in range(25):
            n = int(gen.integers(2, 6))
            cone = haar_cone(trial + 500, n)
            m = gen.normal(size=(n, n))
            if trial % 2 == 0:
                m = np.abs(m)  # preserving branch
            a = op("s", cone.generators @ m @ cone.generators.conj().T)
            rep = classify(a, cone, 1e-9)
            samples = [cone.generator(i) for i in range(n)]
            samples += [cone.from_coords(gen.uniform(0, 1, size=n)) for _ in range(500 // 25)]
            direct = all(cone.contains(a.mat @ x, 1e-8) for x in samples)
            assert rep.preserving == direct


class TestDominates:
    def test_reflexive(self):
        a = op("s", np.diag([1.0, 2.0]))
        assert dominates(a, a, orthant("s", 2))

    def test_diagonal_gap(self):
        p = orthant("s", 2)
        assert dominates(op("s", 2 * np.eye(2)), op("s", np.eye(2)), p)
        assert not dominates(op("s", np.eye(2)), op("s", 2 * np.eye(2)), p)

    def test_exponential_dominates_first_order_term(self):
        # exp(-beta(A-B)) >= the order-1 simplex integral of the expansion,
        # computed here by independent Simpson quadrature
        gen = rng(107)
        n, beta = 3, 0.8
        a = np.diag(gen.uniform(0.0, 1.0, size=n))
        b = random_nonneg_irreducible(gen, n)
        lhs = op("s", expm_oracle(-beta * (a - b)))
        term = duhamel_term_oracle(a, b, beta, order=1, num_points=161)
        assert dominates(lhs, op("s", term), orthant("s", n), tol=1e-6)

    def test_names_offender(self):
        p = orthant("s", 2)
        bad = op("s", 1j * SIGMA_X)  # Hermitian but not real-form on the orthant
        with pytest.raises(NotRealForm, match="second"):
            dominates(op("s", np.eye(2)), bad, p)


class TestIsErgodic:
    def test_sigma_x_table_matches_power_oracle(self):
        rep = is_ergodic(op("s", SIGMA_X), orthant("s", 2))
        assert rep.ergodic
        oracle = power_connectivity_oracle(SIGMA_X, 1)
        assert np.array_equal(rep.k_table, oracle)
        assert rep.k_table[0, 0] == 0 and rep.k_table[0, 1] == 1

    def test_identity_is_ergodic_by_k0_only_on_dim1(self):
        rep = is_ergodic(identity("s", 3), orthant("s", 3))
        assert not rep.ergodic  # off-diagonal pairs never connect
        assert rep.failing_pair is not None
        assert is_ergodic(identity("s", 1), orthant("s", 1)).ergodic

    def test_cyclic_permutation(self):
        perm = np.roll(np.eye(3), 1, axis=0)
        rep = is_ergodic(op("s", perm), orthant("s", 3))
        assert rep.ergodic
        assert rep.max_k == 2
        assert np.array_equal(rep.k_table, power_connectivity_oracle(perm, 2))

    def test_requires_preserving(self):
        with pytest.raises(NotPreserving):
            is_ergodic(op("s", -np.eye(2)), orthant("s", 2))

    def test_borderline_entries_are_reported_not_classified(self):
        m = np.array([[1.0, 1e-15], [1.0, 1.0]])
        rep = is_ergodic(op("s", m), orthant("s", 2))
        assert not rep.ergodic
        assert rep.failing_pair == (0, 1)
        assert any(i == 0 and j == 1 for i, j, _ in rep.borderline)


class TestSemigroupClasses:
    def test_flip_generator_is_in_class(self):
        assert generates_positive_semigroup(op("s", -SIGMA_X), orthant("s", 2))

    def test_diagonal_is_in_class(self):
        assert generates_positive_semigroup(op("s", np.diag([1.0, 2.0])), orthant("s", 2))

    def test_positive_offdiagonal_is_not(self):
        # oracle: exp(-beta*sigma_x) = cosh(beta) I - sinh(beta) sigma_x has a
        # negative off-diagonal entry for beta > 0
        beta = 1.0
        e = expm_oracle(-beta * SIGMA_X)
        assert e[0, 1].real == pytest.approx(-np.sinh(beta))
        assert not generates_positive_semigroup(op("s", SIGMA_X), orthant("s", 2))

    def test_flip_generator_improves(self):
        # oracle: (2 - sigma_x)^{-1} = (1/3)[[2,1],[1,2]] is entrywise positive
        inv = np.linalg.inv(2 * np.eye(2) - SIGMA_X)
        assert np.allclose(inv, np.array([[2, 1], [1, 2]]) / 3)
        assert generates_improving_semigroup(op("s", -SIGMA_X), orthant("s", 2))

    def test_reducible_diagonal_does_not_improve(self):
        assert not generates_improving_semigroup(op("s", np.diag([1.0, 2.0])), orthant("s", 2))

    def test_coupled_tensor_instance_improves(self):
        # H = H0(x)1 - X(x)Y with X cone-preserving and Y ergodic: sampled
        # exponentials of -H must be entrywise positive
        gen = rng(113)
        h0 = op("a", random_metzler_generator(gen, 2))
        x = op("a", np.abs(random_nonneg_irreducible(gen, 2)))
        y = op("b", random_nonneg_irreducible(gen, 3))
        h = kron(h0, identity("b", 3)) - kron(x, y)
        cone = tensor_cone(orthant("a", 2), orthant("b", 3))
        assert generates_improving_semigroup(h, cone)
        for beta in (0.5, 1.0):
            assert (expm_oracle(-beta * h.mat).real > 0).all()

    def test_ground_state_orientation_respects_cone(self):
        # a cone whose generators are negated unit vectors must still yield a
        # strictly positive ground-state representative
        from conecalc.cones import SelfDualCone

        flipped = SelfDualCone("s", -np.eye(2))
        g = ground_state(op("s", -SIGMA_X), flipped)
        assert g.simple and g.strictly_positive


class TestPositiveCombination:
    def test_half_half_is_identity_on_inputs(self):
        h = op("s", -SIGMA_X)
        combo = positive_combination(h, h, 0.5, 0.5, orthant("s", 2))
        assert np.allclose(combo.mat, h.mat)

    def test_random_metzler_pair(self):
        gen = rng(127)
        p = orthant("s", 5)
        for _ in range(20):
            a = op("s", random_metzler_generator(gen, 5))
            b = op("s", random_metzler_generator(gen, 5))
            s, t = gen.uniform(0.1, 3.0, size=2)
            combo = positive_combination(a, b, s, t, p)
            off = combo.mat.real.copy()
            np.fill_diagonal(off, 0.0)
            assert (off <= 1e-12).all()  # off-diagonal sign oracle

    def test_named_instance(self):
        p = orthant("s", 2)
        combo = positive_combination(op("s", -SIGMA_X), op("s", np.diag([0.0, 1.0])),
                                     1.0, 1.0, p)
        assert generates_positive_semigroup(combo, p)

    def test_rejects_bad_input(self):
        with pytest.raises(InputNotInClass):
            positive_combination(op("s", SIGMA_X), op("s", -SIGMA_X),
                                 1.0, 1.0, orthant("s", 2))


class TestNonvanishingImage:
    def test_preserving_operator_never_kills_strict_vectors(self):
        # A >= 0, A != 0, u strictly positive  =>  Au != 0
        gen = rng(131)
        for trial in range(200):
            n = int(gen.integers(2, 7))
            cone = haar_cone(trial + 2000, n)
            m = np.abs(gen.normal(size=(n, n)))
            mask = gen.uniform(size=(n, n)) < 0.7
            m = m * mask  # sparse but nonzero
            if np.abs(m).max() < 1e-12:
                m[0, 0] = 1.0
            a = op("s", cone.generators @ m @ cone.generators.conj().T)
            assert classify(a, cone).preserving
            u = cone.from_coords(gen.uniform(0.5, 2.0, size=n))
            assert cone.strictly_positive(u)
            assert np.linalg.norm(a.mat @ u) > 1e-12


class TestErgodicComposition:
    def test_tensor_sum_of_ergodic_factors_is_ergodic(self):
        # A(x)1 + 1(x)B ergodic, with the least connecting power bounded by
        # the sum of the factors' powers (binomial lower bound)
        gen = rng(137)
        for trial in range(100):
            na = int(gen.integers(2, 5))
            nb = int(gen.integers(2, 5))
            cone_a = haar_cone(trial + 3000, na, "a")
            ma = random_nonneg_irreducible(gen, na)
            a = op("a", cone_a.generators @ ma @ cone_a.generators.conj().T)
            b = op("b", random_nonneg_irreducible(gen, nb))
            cone_b = orthant("b", nb)
            rep_a = is_ergodic(a, cone_a)
            rep_b = is_ergodic(b, cone_b)
            assert rep_a.ergodic and rep_b.ergodic

            c = kron(a, identity("b", nb)) + kron(identity("a", na), b)
            rep_c = is_ergodic(c, tensor_cone(cone_a, cone_b))
            assert rep_c.ergodic
            for i in range(na):
                for j in range(na):
                    for p in range(nb):
                        for q in range(nb):
                            bound = rep_a.k_table[i, j] + rep_b.k_table[p, q]
                            assert rep_c.k_table[i * nb + p, j * nb + q] <= bound


class TestPerronFrobeniusEquivalence:
    def test_improving_class_iff_simple_strictly_positive_ground(self):
        # both directions, mixing irreducible and block-reducible instances
        gen = rng(139)
        for trial in range(300):
            n = int(gen.integers(2, 13))
            split = int(gen.integers(1, n)) if trial % 3 == 0 else None
            h = op("s", random_metzler_generator(gen, n, block_split=split))
            cone = orthant("s", n)
            lhs = generates_improving_semigroup(h, cone)
            g = ground_state(h, cone)
            rhs = g.simple and g.strictly_positive
            assert lhs == rhs, f"trial {trial}: {lhs} vs {rhs}"

    def test_positive_class_admits_cone_ground_vector(self):
        # some lowest eigenvector, after the coordinate sign repair, lies in
        # the cone and is still a ground vector
        gen = rng(149)
        for trial in range(100):
            n = int(gen.integers(2, 9))
            split = int(gen.integers(1, n)) if trial % 2 == 0 else None
            h = op("s", random_metzler_generator(gen, n, block_split=split))
            cone = orthant("s", n)
            assert generates_positive_semigroup(h, cone)
            g = ground_state(h, cone)
            parts = cone.jordan_decompose(g.vector)
            repaired = parts.absolute()
            assert cone.contains(repaired, 1e-9)
            energy = g.energy
            residual = np.linalg.norm(h.mat @ repaired - energy * repaired)
            assert residual <= 1e-8 * max(np.linalg.norm(h.mat, 2), 1e-300)


# Irreducibility: the one-generator sweeps against the all-pairs reach table.
# An edge j -> i is a coupling entry -H[i, j] above tol*scale.  H must stay
# Hermitian, so an edge is one-way only when its own entry sits just above the
# threshold and the reverse entry exactly on it (in a rotated basis, just under).

TOL = DEFAULT_TOL


def one_way_values(exact: bool) -> tuple[float, float]:
    """(above, at) coupling magnitudes for scale 1: an edge and a non-edge."""
    if exact:
        return float(np.nextafter(TOL, 1.0)), TOL
    return TOL * (1 + 1e-4), TOL * (1 - 1e-4)  # clears basis-change rounding


def metzler_from_pattern(gen, edges: np.ndarray, exact: bool) -> np.ndarray:
    """Real H with max |H| = 1 whose coupling digraph is exactly `edges`."""
    n = edges.shape[0]
    above, at = one_way_values(exact)
    strong = np.triu(gen.uniform(0.1, 1.0, size=(n, n)), 1)
    quiet = np.triu(gen.choice([0.0, at, -0.5 * TOL], size=(n, n)), 1)  # non-edges
    coupling = np.where(edges & edges.T, strong + strong.T,
                        np.where(edges, above, np.where(edges.T, at, quiet + quiet.T)))
    h = -coupling
    np.fill_diagonal(h, gen.uniform(-1.0, 1.0, size=n))
    h[0, 0] = 1.0
    return h


def random_pattern(gen, n: int, family: str) -> np.ndarray:
    """edges[i, j] = edge j -> i, for a digraph of the named family."""
    edges = np.zeros((n, n), dtype=bool)
    order = gen.permutation(n)
    if family == "random":
        edges = gen.random((n, n)) < gen.uniform(0.1, 0.6)
    elif family in ("path", "cycle", "two-way path"):
        for a, b in zip(order[:-1], order[1:]):
            edges[b, a] = True
            edges[a, b] |= family == "two-way path"
        if family == "cycle":
            edges[order[0], order[-1]] = True
    elif family == "bridged blocks":
        k = int(gen.integers(1, n))
        for block in (order[:k], order[k:]):
            for a, b in zip(block, np.roll(block, 1)):
                edges[a, b] = edges[b, a] = a != b
            extra = gen.random((len(block), len(block))) < 0.3
            edges[np.ix_(block, block)] |= extra & extra.T
        edges[gen.choice(order[k:]), gen.choice(order[:k])] = True
    np.fill_diagonal(edges, False)
    return edges


def reach_table_oracle(edges: np.ndarray) -> bool:
    n = edges.shape[0]
    out_edges = [list(np.nonzero(edges[:, j])[0]) for j in range(n)]
    return bool((_reach_table(out_edges, n) >= 0).all())


FAMILIES = ("random", "path", "cycle", "two-way path", "bridged blocks")


def test_irreducibility_agrees_with_the_reach_table_oracle():
    gen = rng(163)
    verdicts = []
    for case in range(2000):
        n = 1 + case % 2 if case < 200 else int(gen.integers(3, 13))
        family = FAMILIES[case % len(FAMILIES)]
        if n == 1 and family == "bridged blocks":
            family = "random"
        edges = random_pattern(gen, n, family)
        rotated = case % 4 == 3
        h = metzler_from_pattern(gen, edges, exact=not rotated)
        cone = haar_cone(case, n) if rotated else orthant("s", n)
        g = cone.generators
        expected = reach_table_oracle(edges)
        assert generates_improving_semigroup(op("s", g @ h @ g.conj().T), cone) == expected, \
            f"case {case}: {family}, n={n}, rotated={rotated}"
        verdicts.append(expected)
    share = sum(verdicts) / len(verdicts)
    assert 0.3 <= share <= 0.7, share


class SentinelError(Exception):
    pass


def three_vertex(gen, family: str) -> LinearOperator:
    return op("s", metzler_from_pattern(gen, random_pattern(gen, 3, family), exact=True))


def test_irreducibility_needs_no_reach_table(monkeypatch):
    def refuse(out_edges, n):
        raise SentinelError

    monkeypatch.setattr(positivity, "_reach_table", refuse)
    gen = rng(167)
    cone = orthant("s", 3)
    assert generates_improving_semigroup(three_vertex(gen, "cycle"), cone)
    assert not generates_improving_semigroup(three_vertex(gen, "path"), cone)
    with pytest.raises(SentinelError):  # the reported k_table still comes from it
        is_ergodic(op("s", np.roll(np.eye(3), 1, axis=0)), cone)


@pytest.mark.parametrize("mat, improving", [
    pytest.param(-SIGMA_X, True, id="improving"),
    pytest.param(np.diag([1.0, 2.0]), False, id="reducible"),
    pytest.param(SIGMA_X, False, id="not-metzler"),
])
def test_improving_check_reads_the_generator_basis_once(monkeypatch, mat, improving):
    calls = []
    original = SelfDualCone.operator_coords

    def counting(self, operator):
        calls.append(operator)
        return original(self, operator)

    monkeypatch.setattr(SelfDualCone, "operator_coords", counting)
    assert generates_improving_semigroup(op("s", mat), orthant("s", 2)) == improving
    assert len(calls) == 1


class TestNodeAnalysis:
    def test_one_decomposition_serves_every_reading(self, monkeypatch):
        h = op("s", random_metzler_generator(rng(4), 6))
        cone = orthant("s", 6)
        want = ground_state(h, cone)
        calls = []
        original = positivity.hermitian_eig
        monkeypatch.setattr(positivity, "hermitian_eig",
                            lambda op: calls.append(op) or original(op))
        record = NodeAnalysis(h, cone)
        assert record.improving and calls == []
        assert record.norm == pytest.approx(np.linalg.norm(h.mat, 2), rel=1e-12)
        got = record.ground
        assert record.spectrum is record.spectrum and record.ground is got
        assert len(calls) == 1
        assert (got.energy, got.gap01, got.simple, got.strictly_positive) == \
            (want.energy, want.gap01, want.simple, want.strictly_positive)
        assert np.array_equal(got.vector, want.vector)

    def test_release_forgets_the_decomposition_only(self, monkeypatch):
        h = op("s", random_metzler_generator(rng(5), 4))
        record = NodeAnalysis(h, orthant("s", 4))
        first = record.ground.vector.copy()
        assert record.improving
        calls = []
        original = positivity.hermitian_eig
        monkeypatch.setattr(positivity, "hermitian_eig",
                            lambda op: calls.append(op) or original(op))
        monkeypatch.setattr(positivity, "generates_improving_semigroup",
                            lambda *args: calls.append(args))
        record.release()
        assert record.improving
        assert np.array_equal(record.ground.vector, first)
        assert calls == [h]
