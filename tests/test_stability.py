import math
import weakref

import numpy as np
import pytest

from conftest import (
    all_sector_dims,
    dense_mlm_hamiltonian,
    dense_total_spin,
    op,
    random_hermitian,
    random_metzler_generator,
    random_real_symmetric,
    random_spin_system,
    rng,
    two_pass_links,
    two_pass_quantum_numbers,
)

from conecalc.cones import SelfDualCone, orthant, tensor_cone
from conecalc.errors import (
    ArrowFailed,
    ChainFailed,
    MuMismatch,
    NonHermitian,
    NotCommuting,
    NotDensityMatrix,
    NotInAPlus,
    NotSimple,
    PreconditionFailed,
)
from conecalc.inheritance import (
    ArrowChain,
    ChainNode,
    ChainReport,
    Embedding,
    append_factor_embedding,
    check_arrow,
    concatenate,
    ground_overlap,
    identity_embedding,
    verify_chain,
)
from conecalc.numerics import (
    DEFAULT_TOL,
    LinearOperator,
    hermitian_eig,
    identity,
    kron,
    op_exp_unitary,
)
from conecalc.spin import m_sector
from conecalc.stability import (
    COMMUTATOR_TOL,
    PAULI_X,
    ChainMuReport,
    StabilityClassRecord,
    _chain_pass,
    commutes_with_observable,
    extension_tower,
    good_quantum_number,
    ground_state_factorizes,
    is_decoupled_extension,
    quantum_number_along_chain,
    relative_entropy,
)

UNIFORM2 = np.array([1.0, 1.0]) / np.sqrt(2.0)


def seed_hamiltonian(space="base"):
    """diag(0, 1) with a small coupling to make it irreducible."""
    return op(space, np.diag([0.0, 1.0]) - 0.1 * PAULI_X)


def negated(cone: SelfDualCone) -> SelfDualCone:
    return SelfDualCone(cone.space, -cone.generators)


UNITARY_SAMPLES = ((1.0, 1.0), (0.3, 2.0))
EDGE_FACTORS = (0.25, 0.9, 0.99, 1.01, 1.1, 4.0)


def unitary_drift(h: LinearOperator, o: LinearOperator, s: float, t: float) -> float:
    """||[e^{isO}, e^{itH}]||, from the two unitary groups themselves."""
    u = op_exp_unitary(o, s).mat
    v = op_exp_unitary(h, t).mat
    return float(np.linalg.norm(u @ v - v @ u, 2))


def svd_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def random_unitary(gen: np.random.Generator, n: int, real: bool = False) -> np.ndarray:
    a = gen.normal(size=(n, n))
    q, r = np.linalg.qr(a if real else a + 1j * gen.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def shared_eigenbasis_pair(gen: np.random.Generator, n: int, real: bool = False):
    u = random_unitary(gen, n, real)
    h, o = ((u * vals) @ u.conj().T for vals in (gen.normal(size=n), gen.normal(size=n)))
    return 0.5 * (h + h.conj().T), 0.5 * (o + o.conj().T)


def edge_pair(gen: np.random.Generator, factor: float, n: int, real: bool = False):
    """(H, O) with ||[H, O]|| about factor * COMMUTATOR_TOL * ||H|| * ||O||:
    a commuting pair with O tilted along a random Hermitian direction, real
    symmetric when ``real``."""
    h, o = shared_eigenbasis_pair(gen, n, real)
    k = random_real_symmetric(gen, n) if real else random_hermitian(gen, n)
    tilt = factor * COMMUTATOR_TOL * svd_norm(h) * svd_norm(o) / svd_norm(h @ k - k @ h)
    return op("s", h), op("s", o + tilt * k)


def oracle_pairs() -> list[tuple[LinearOperator, LinearOperator]]:
    """Seeded (H, O) pairs: tower nodes with their pushed-forward
    observable, every magnetization sector of seeded spin systems up to 8
    sites, pairs sharing an eigenbasis, and pairs at the tolerance edge."""
    gen = rng(61)
    pairs = []
    for n in (2, 3):
        h = op("base", random_metzler_generator(gen, n))
        for o in (h, op("base", h.mat @ h.mat)):
            chain = extension_tower(h, orthant("base", n), o, 4)
            extended = o
            for j, node in enumerate(chain.nodes):
                pairs.append((node.hamiltonian, extended))
                if j < len(chain.embeddings):
                    extended = chain.embeddings[j].extend(extended)
    for sites in range(2, 9):
        system = random_spin_system(gen, sites)
        h, s_sq = dense_mlm_hamiltonian(system), dense_total_spin(sites)[0]
        for m in all_sector_dims(sites):
            emb = m_sector(sites, m).embedding
            pairs.append((emb.compress(h), emb.compress(s_sq)))
    for _ in range(40):
        h, o = shared_eigenbasis_pair(gen, int(gen.integers(1, 13)))
        pairs.append((op("s", h), op("s", o)))
    for factor in EDGE_FACTORS * 4:
        pairs.append(edge_pair(gen, factor, int(gen.integers(2, 9))))
    return pairs


class TestCommutesWithObservable:
    def test_unitary_groups_never_drift_past_duhamel(self):
        # Duhamel: ||[e^{isO}, e^{itH}]|| <= |st| ||[H, O]||, so a positive
        # verdict bounds the drift of both sampled unitary pairs
        verdicts = []
        for h, o in oracle_pairs():
            verdicts.append(commutes_with_observable(h, o))
            if not verdicts[-1]:
                continue
            scale = svd_norm(h.mat) * svd_norm(o.mat)
            for s, t in UNITARY_SAMPLES:
                assert unitary_drift(h, o, s, t) <= 2.0 * s * t * COMMUTATOR_TOL * scale + 1e-12
        assert 0 < sum(verdicts) < len(verdicts)

    def test_verdict_agrees_with_the_svd_at_the_tolerance_edge(self):
        # sizes past one block of rows of the Frobenius sum included
        gen = rng(62)
        for factor, n in zip(EDGE_FACTORS * 20, [2, 3, 5, 8, 64, 65, 100, 129] * 15):
            h, o = edge_pair(gen, factor, n)
            ratio = svd_norm(h.mat @ o.mat - o.mat @ h.mat) / (
                COMMUTATOR_TOL * svd_norm(h.mat) * svd_norm(o.mat))
            assert abs(ratio - factor) <= 1e-3 * factor
            assert commutes_with_observable(h, o) == (ratio <= 1.0)

    def test_a_real_pair_at_the_tolerance_edge(self):
        # the real commutator is antisymmetric; its norm past the Frobenius
        # bound is read from the complex Hermitian i(HO - OH)
        gen = rng(64)
        for factor, n in zip(EDGE_FACTORS * 4, [3, 8, 64, 65, 100, 129] * 4):
            h, o = edge_pair(gen, factor, n, real=True)
            assert h.mat.dtype == o.mat.dtype == np.float64
            ratio = svd_norm(h.mat @ o.mat - o.mat @ h.mat) / (
                COMMUTATOR_TOL * svd_norm(h.mat) * svd_norm(o.mat))
            assert abs(ratio - factor) <= 1e-3 * factor
            assert commutes_with_observable(h, o) == (ratio <= 1.0)

    def test_a_commutator_in_the_last_rows_is_seen(self):
        # two diagonal matrices commute; a block coupling only the last rows
        # of H leaves the first rows of HO - OH exactly zero
        gen = rng(63)
        h, o = (np.diag(gen.normal(size=100)).astype(complex) for _ in range(2))
        h[90:, 90:] += random_hermitian(gen, 10)
        assert not commutes_with_observable(op("s", h), op("s", o))

    def test_identity_always_commutes(self):
        h = op("s", random_metzler_generator(rng(3), 4))
        assert commutes_with_observable(h, identity("s", 4))

    def test_disjoint_factors_commute(self):
        h = kron(op("a", PAULI_X), identity("b", 2))
        o = kron(identity("a", 2), op("b", PAULI_X))
        assert commutes_with_observable(h, LinearOperator(h.space, o.mat))

    def test_anticommuting_pair_fails(self):
        # [sigma_x, sigma_z] = -2i sigma_y has norm 2
        sz = np.diag([1.0, -1.0])
        comm = PAULI_X @ sz - sz @ PAULI_X
        assert np.linalg.norm(comm, 2) == pytest.approx(2.0)
        assert not commutes_with_observable(op("s", PAULI_X), op("s", sz))


class TestGoodQuantumNumber:
    def test_identity_observable(self):
        h = op("s", -PAULI_X)
        gqn = good_quantum_number(h, identity("s", 2), orthant("s", 2))
        assert gqn.value == pytest.approx(1.0, abs=1e-12)
        assert gqn.snapped == 1.0

    def test_swap_symmetric_ground_state(self):
        # H = -sx(x)1 - 1(x)sx has ground state uniform(x)uniform; the swap
        # observable fixes it, so mu = 1 (checked against a direct 4x4 eig)
        h = -1.0 * kron(op("a", PAULI_X), identity("b", 2)) \
            - 1.0 * kron(identity("a", 2), op("b", PAULI_X))
        swap = np.array([
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ], dtype=float)
        cone = tensor_cone(orthant("a", 2), orthant("b", 2))
        gqn = good_quantum_number(h, LinearOperator(h.space, swap), cone)
        spec = hermitian_eig(h)
        psi = spec.ground_vector
        assert np.allclose(swap @ psi, psi, atol=1e-12)
        assert gqn.snapped == 1.0

    def test_degenerate_ground_state_is_refused(self):
        h = op("s", np.zeros((2, 2)))
        with pytest.raises((NotSimple, NotInAPlus)):
            good_quantum_number(h, identity("s", 2), orthant("s", 2))

    def test_noncommuting_observable_is_refused(self):
        h = op("s", -PAULI_X)
        with pytest.raises(NotCommuting):
            good_quantum_number(h, op("s", np.diag([1.0, -1.0])), orthant("s", 2))

    def test_reducible_hamiltonian_is_refused(self):
        h = op("s", np.diag([0.0, 1.0]))
        with pytest.raises(NotInAPlus):
            good_quantum_number(h, identity("s", 2), orthant("s", 2))


def phase_rotated(u: np.ndarray, h: LinearOperator) -> LinearOperator:
    """U H U^* for the diagonal unitary U = diag(u)."""
    return LinearOperator(h.space, u[:, None] * h.mat * u.conj())


def link_answers(h1, p1, h2, p2, emb, o):
    """(verdicts, readings) of one link: the arrow's reasons, node 1's
    quantum number and the link's ground overlap, or the exception each
    raised."""
    verdicts, readings = [check_arrow(h1, p1, h2, p2, emb).reasons], []
    try:
        gqn = good_quantum_number(h1, o, p1)
        verdicts.append(gqn.ground.strictly_positive)
        readings += [gqn.ground.energy, gqn.value, gqn.snapped]
    except (NotCommuting, NotInAPlus, NotSimple) as exc:
        verdicts.append(type(exc))
    try:
        rep = ground_overlap(h1, p1, h2, p2, emb)
        verdicts.append(rep.improving_ok)
        readings.append(rep.overlap)
    except ArrowFailed as exc:
        verdicts.append(type(exc))
    return verdicts, np.array(readings)


@pytest.mark.parametrize("seed", range(30))
def test_a_phase_rotated_link_gives_the_same_answers_in_complex_arithmetic(seed):
    # every shipped config is real; a diagonal phase unitary turns a real
    # problem into a genuinely complex Hermitian one on the rotated explicit
    # cones, whose verdicts and readings must not move
    gen = rng(9000 + seed)
    n = int(gen.integers(2, 6))
    split = int(gen.integers(1, n)) if seed % 4 == 3 else None  # not improving
    h1 = LinearOperator("a", random_metzler_generator(gen, n, split))
    h2 = LinearOperator("a*b", random_metzler_generator(gen, 2 * n))
    o = LinearOperator("a", h1.mat @ h1.mat / h1.norm())
    p1 = orthant("a", n)
    p2 = tensor_cone(p1, orthant("b", 2))
    v = gen.uniform(0.2, 1.0, 2)
    emb = append_factor_embedding("a", "a*b", n, v / np.linalg.norm(v))
    u1, u2 = (np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, k)) for k in (n, 2 * n))
    h1_u, h2_u, o_u = phase_rotated(u1, h1), phase_rotated(u2, h2), phase_rotated(u1, o)
    for real, rotated in ((h1, h1_u), (h2, h2_u), (o, o_u)):
        assert real.mat.dtype == np.float64 and rotated.mat.dtype == np.complex128
    emb_u = Embedding("a", "a*b", u2[:, None] * emb.isometry * u1.conj())
    verdicts, readings = link_answers(h1, p1, h2, p2, emb, o)
    turned_verdicts, turned_readings = link_answers(
        h1_u, SelfDualCone("a", np.diag(u1)), h2_u, SelfDualCone("a*b", np.diag(u2)), emb_u, o_u)
    assert turned_verdicts == verdicts
    scale = max(h1.norm(), h2.norm())
    assert np.abs(turned_readings - readings).max(initial=0.0) <= 1e-12 * scale


class TestExtensionTower:
    def test_depth_zero_is_singleton(self):
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 0)
        assert len(chain.nodes) == 1 and chain.embeddings == ()

    def test_depth_one_ground_state_factorizes(self):
        # 4x4 oracle: the extension's ground state is psi_H (x) uniform
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 1)
        h1 = chain.nodes[1].hamiltonian
        psi = hermitian_eig(h1).ground_vector
        base = hermitian_eig(h)
        want = np.kron(base.ground_vector, UNIFORM2)
        overlap = abs(np.vdot(psi, want))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_depth_five_dims_and_verification(self):
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 5)
        assert [n.hamiltonian.dim for n in chain.nodes] == [2, 4, 8, 16, 32, 64]
        report = verify_chain(chain)
        assert all(o == pytest.approx(1.0, abs=1e-10) for o in report.overlaps)

    def test_rejects_reducible_seed(self):
        with pytest.raises(PreconditionFailed):
            extension_tower(op("s", np.diag([0.0, 1.0])), orthant("s", 2),
                            identity("s", 2), 1)


class TestChainInvariance:
    def test_tower_keeps_quantum_number(self):
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 3)
        report = quantum_number_along_chain(chain, h)
        assert len(set(report.snapped)) == 1
        assert report.mu_star == pytest.approx(hermitian_eig(h).ground_energy, abs=1e-10)
        assert all(r <= 1e-8 for r in report.telescope_residuals)

    def test_singleton_chain(self):
        h = op("s", -PAULI_X)
        chain = ArrowChain((ChainNode(h, orthant("s", 2)),), ())
        report = quantum_number_along_chain(chain, h)
        assert report.snapped == (-1.0,)

    def test_noncommuting_node_is_localized(self):
        # a perturbation whose factor coupling does not fix the uniform vector
        # breaks commutation with the pushed-forward observable at node 2
        h0 = op("base", -PAULI_X)
        o = op("base", PAULI_X)
        p0 = orthant("base", 2)
        chain01 = extension_tower(h0, p0, o, 1)
        h1 = chain01.nodes[1].hamiltonian
        p1 = chain01.nodes[1].cone
        y = op("f", np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]]))
        h2 = kron(h1, identity("f", 3)) - kron(identity(h1.space, 4), y)
        p2 = tensor_cone(p1, orthant("f", 3))
        emb = append_factor_embedding(h1.space, h2.space, 4, np.full(3, 1 / math.sqrt(3)))
        chain = ArrowChain(chain01.nodes + (ChainNode(h2, p2),),
                           chain01.embeddings + (emb,))
        verify_chain(chain)  # the arrows themselves are fine
        with pytest.raises(NotCommuting) as err:
            quantum_number_along_chain(chain, o)
        assert err.value.index == 2

    def test_interior_node_with_its_own_incoming_cone(self, decompositions):
        # node 1 is entered on the orthant but left on the negated orthant, so
        # the ground state its quantum number is read from has the opposite
        # sign to the one its incoming overlap uses; both records of node 1
        # read one eigendecomposition
        h0 = op("base", -PAULI_X)
        o = op("base", PAULI_X)
        tower = extension_tower(h0, orthant("base", 2), o, 2)
        n1, n2 = tower.nodes[1], tower.nodes[2]
        chain = ArrowChain(
            (tower.nodes[0], ChainNode(n1.hamiltonian, negated(n1.cone), n1.cone),
             ChainNode(n2.hamiltonian, negated(n2.cone))),
            tower.embeddings)
        report = quantum_number_along_chain(chain, o)
        assert decompositions["eigh"] == len(chain.nodes) + 1
        assert report.snapped == (1.0, 1.0, 1.0)
        assert report.overlaps == pytest.approx((1.0, 1.0), abs=1e-10)
        assert report.telescope_residuals == pytest.approx((2.0, 0.0), abs=1e-10)
        assert report == two_pass_quantum_numbers(chain, o)

    def test_broken_link_raises_chain_failed(self):
        h = op("s", -PAULI_X)
        good = ChainNode(h, orthant("s", 2))
        bad = ChainNode(op("s2", np.diag([0.0, 1.0])), orthant("s2", 2))
        emb = identity_embedding("s", 2)
        chain = ArrowChain((good, bad), (emb,))
        with pytest.raises(ChainFailed) as err:
            quantum_number_along_chain(chain, h)
        assert err.value.index == 0


class TestOneSpectrumPerNode:
    def test_depth_six_tower_budget(self, decompositions):
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 6)
        quantum_number_along_chain(chain, h)
        assert decompositions["eigh"] <= len(chain.nodes) + 1
        assert decompositions["svd"] == 0

    def test_depth_six_tower_checks_each_operator_hermitian_once(self, monkeypatch):
        h = seed_hamiltonian()
        tower = extension_tower(h, orthant("base", 2), h, 6)
        # operators the tower's own checks have not seen
        chain = ArrowChain(tuple(ChainNode(LinearOperator(n.hamiltonian.space, n.hamiltonian.mat),
                                           n.cone) for n in tower.nodes), tower.embeddings)
        observable = LinearOperator(h.space, h.mat)
        checks = []
        original = LinearOperator.is_hermitian

        def counting(self, *args, **kwargs):
            checks.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LinearOperator, "is_hermitian", counting)
        quantum_number_along_chain(chain, observable)
        assert len(checks) == len(chain.nodes) + 1  # every node and the observable
        assert len({id(op) for op in checks}) == len(checks)

    def test_a_failed_hermitian_check_is_raised_again(self):
        skew = LinearOperator("s", np.array([[0.0, 1.0], [0.0, 0.0]]))
        for _ in range(2):
            with pytest.raises(NonHermitian, match="operator on 's' is not Hermitian"):
                skew.require_hermitian()

    def test_a_kept_failure_keeps_no_node_alive(self):
        h = seed_hamiltonian()
        tower = extension_tower(h, orthant("base", 2), h, 3)
        emb = tower.embeddings[1]
        flipped = append_factor_embedding(emb.from_space, emb.to_space, emb.dim_from,
                                          np.array([1.0, -1.0]) / np.sqrt(2.0))
        chain = ArrowChain(tower.nodes,
                           (tower.embeddings[0], flipped, tower.embeddings[2]))
        node = weakref.ref(chain.nodes[-1].hamiltonian)
        del tower, emb, flipped
        with pytest.raises(ChainFailed) as err:
            quantum_number_along_chain(chain, h)
        del chain
        assert err.value.index == 1
        assert node() is None


SKEW = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
WEAK = 3e-9  # flip coupling, relative to the node below: a ground gap under the simplicity threshold


def level_chain(h: LinearOperator, levels, signs=(), broken=None) -> ArrowChain:
    """A chain from h that appends one factor per level: node j+1 is
    H_j (x) 1 - 1 (x) Y on the product cone, reached by appending Y's uniform
    vector.  Y is sigma_x for "flip", whose Perron vector is uniform, so the
    pushed-forward observable keeps commuting; SKEW for "skew", whose Perron
    vector is not, so it stops; and a sigma_x coupling of WEAK times the
    node below for "weak", which leaves the ground state not simple.

    Link j runs between cones of sign signs[j] (default +1), so a node
    whose two links differ in sign has its own incoming cone.  Link
    ``broken`` appends a sign-alternating vector, which no orthant inherits.
    """
    hams, cones, embeddings = [h], [orthant(h.space, h.dim)], []
    for level, kind in enumerate(levels, start=1):
        prev = hams[-1]
        y = {"flip": PAULI_X, "skew": SKEW,
             "weak": WEAK * float(np.abs(prev.mat).max()) * PAULI_X}[kind]
        aux, d = f"q{level}", y.shape[0]
        hams.append(kron(prev, identity(aux, d)) - kron(identity(prev.space, prev.dim),
                                                        op(aux, y)))
        cones.append(tensor_cone(cones[-1], orthant(aux, d)))
        vec = np.ones(d) if level - 1 != broken else (-1.0) ** np.arange(d)
        embeddings.append(append_factor_embedding(prev.space, hams[-1].space, prev.dim,
                                                  vec / np.sqrt(d)))
    signs = tuple(signs) or (1,) * len(levels)
    out_signs = signs + signs[-1:] if signs else (1,)
    nodes = []
    for j, (ham, cone) in enumerate(zip(hams, cones)):
        cone_out = cone if out_signs[j] > 0 else negated(cone)
        cone_in = cone_out if j == 0 or signs[j - 1] == out_signs[j] else negated(cone_out)
        nodes.append(ChainNode(ham, cone_out, cone_in))
    return ArrowChain(tuple(nodes), tuple(embeddings))


def outcome(fn, *args):
    """What a call returned, or the type, message and index of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc), getattr(exc, "index", None)


TOWERS = [({"levels": ("flip",) * depth, "broken": broken},
           None if broken is None else (ChainFailed, broken))
          for depth in range(6) for broken in (None, *range(depth))]
QUANTUM_NUMBER_FAILURES = [
    *[({"levels": ("flip",) * (k - 1) + ("skew",) + ("flip",) * (3 - k)}, (NotCommuting, k))
      for k in (1, 2, 3)],
    *[({"levels": ("flip",) * (k - 1) + ("weak",) + ("flip",) * (3 - k)}, (NotSimple, k))
      for k in (1, 2, 3)],
    ({"levels": ("flip", "flip"), "observable": "nonhermitian"}, (NonHermitian, None)),
]
LINK_AFTER_READING_FAILURE = [  # node k is read once link k has passed
    ({"levels": ("skew", "flip", "flip"), "broken": 2}, (ChainFailed, 2)),
    ({"levels": ("flip", "skew", "flip", "flip"), "broken": 3}, (ChainFailed, 3)),
    ({"levels": ("weak", "flip", "flip"), "broken": 2}, (ChainFailed, 2)),
    ({"levels": ("flip", "flip"), "broken": 1, "observable": "nonhermitian"}, (ChainFailed, 1)),
    ({"levels": ("skew", "flip"), "broken": 1}, (ChainFailed, 1)),
]
SINGLE_NODES = [
    ({}, None),
    ({"observable": "square"}, None),
    ({"reducible": True}, (NotInAPlus, 0)),
    ({"observable": "random"}, (NotCommuting, 0)),
    ({"observable": "wide"}, (NotCommuting, 0)),
    ({"observable": "nonhermitian"}, (NonHermitian, None)),
]
INCOMING_CONES = [({"levels": ("flip",) * 3, "signs": signs}, None)
                  for signs in ((1, -1, 1), (-1, -1, 1), (1, 1, -1), (-1, 1, -1))]
ORACLE_CASES = TOWERS + QUANTUM_NUMBER_FAILURES + LINK_AFTER_READING_FAILURE \
    + SINGLE_NODES + INCOMING_CONES


def case_id(case: dict) -> str:
    parts = ["-".join(case.get("levels", ())) or "single"]
    parts += [f"{key}={case[key]}" for key in ("broken", "signs", "observable", "reducible")
              if case.get(key) is not None]
    return ",".join(parts).replace(" ", "")


class TestOnePassMatchesTwoPasses:
    @pytest.mark.parametrize("seed, case, expected", [
        pytest.param(seed, case, expected, id=f"{seed}:{case_id(case)}")
        for seed, (case, expected) in enumerate(ORACLE_CASES)])
    def test_same_report_or_same_failure(self, seed, case, expected):
        gen = rng(seed)
        n = 2 + seed % 2
        h = op("base", random_metzler_generator(
            gen, n, block_split=1 if case.get("reducible") else None))
        o = {"h": lambda: h, "square": lambda: h @ h,
             "random": lambda: op("base", random_hermitian(gen, n)),
             "nonhermitian": lambda: op("base", gen.normal(size=(n, n))),
             "wide": lambda: identity("wide", n + 1)}[case.get("observable", "h")]()
        chain = level_chain(h, case.get("levels", ()), case.get("signs", ()),
                            case.get("broken"))

        want = outcome(two_pass_quantum_numbers, chain, o)
        assert outcome(quantum_number_along_chain, chain, o) == want
        if expected is None:
            assert isinstance(want, ChainMuReport)
        else:
            assert want[0] is expected[0] and want[2] == expected[1]

        links = outcome(two_pass_links, chain)
        assert outcome(verify_chain, chain) == links
        if not isinstance(links, ChainReport):
            assert outcome(_chain_pass, chain, o, DEFAULT_TOL) == links
        elif isinstance(want, ChainMuReport):
            assert _chain_pass(chain, o, DEFAULT_TOL) == (links, want)
        else:
            assert outcome(_chain_pass, chain, o, DEFAULT_TOL) == want


class TestHeldFailures:
    def test_a_held_failure_keeps_no_node_alive(self):
        h = seed_hamiltonian()
        chain = level_chain(h, ("flip", "skew", "flip"))
        node = weakref.ref(chain.nodes[-1].hamiltonian)
        with pytest.raises(NotCommuting) as err:
            quantum_number_along_chain(chain, h)
        del chain
        assert err.value.index == 2
        assert node() is None


class TestDecoupledExtension:
    def base(self):
        return op("base", -PAULI_X)

    def test_pure_transverse_extension(self):
        h_star = self.base()
        h2 = kron(h_star, identity("env", 2)) - kron(identity("base", 2), op("env", PAULI_X))
        emb = append_factor_embedding("base", h2.space, 2, UNIFORM2)
        rep = is_decoupled_extension(h2, h_star, emb, orthant("env", 2))
        assert rep.decoupled
        assert np.allclose(rep.env_operator.mat, -PAULI_X, atol=1e-12)

    def test_coupled_perturbation_is_not(self):
        # best one-factor fit leaves residual ||(X - mean)(x)sx|| = 0.4
        h_star = self.base()
        x = op("base", np.diag([1.0, 0.2]))
        h2 = kron(h_star, identity("env", 2)) - kron(x, op("env", PAULI_X))
        emb = append_factor_embedding("base", h2.space, 2, UNIFORM2)
        rep = is_decoupled_extension(h2, h_star, emb, orthant("env", 2))
        assert not rep.decoupled
        assert rep.residual == pytest.approx(0.4, abs=1e-10)

    def test_bare_tensor_identity_is_not(self):
        # the zero environment term is reducible for dim >= 2
        h_star = self.base()
        h2 = kron(h_star, identity("env", 2))
        emb = append_factor_embedding("base", h2.space, 2, UNIFORM2)
        rep = is_decoupled_extension(h2, h_star, emb, orthant("env", 2))
        assert not rep.decoupled
        assert rep.residual <= 1e-12

    def test_tower_members_are_decoupled_extensions_of_predecessors(self):
        h = seed_hamiltonian()
        chain = extension_tower(h, orthant("base", 2), h, 3)
        for j in range(len(chain.nodes) - 1):
            prev = chain.nodes[j].hamiltonian
            nxt = chain.nodes[j + 1].hamiltonian
            rep = is_decoupled_extension(nxt, prev, chain.embeddings[j],
                                         orthant(f"q{j + 1}", 2))
            assert rep.decoupled


class TestRelativeEntropy:
    def test_zero_on_equal_states(self):
        rho = op("s", np.diag([0.3, 0.7]))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states_are_infinitely_far(self):
        rho = op("s", np.diag([1.0, 0.0]))
        sigma = op("s", np.diag([0.0, 1.0]))
        assert relative_entropy(rho, sigma) == math.inf

    def test_scalar_formula(self):
        rho = op("s", np.diag([0.5, 0.5]))
        sigma = op("s", np.diag([0.25, 0.75]))
        want = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert want == pytest.approx(0.14384103622589042, abs=1e-15)
        assert relative_entropy(rho, sigma) == pytest.approx(want, abs=1e-12)

    def test_rejects_non_density(self):
        with pytest.raises(NotDensityMatrix):
            relative_entropy(op("s", np.eye(2)), op("s", np.eye(2) / 2))


class TestGroundStateFactorizes:
    def test_decoupled_extension_is_weak(self):
        h_star = op("base", -PAULI_X)
        h2 = kron(h_star, identity("env", 2)) - kron(identity("base", 2), op("env", PAULI_X))
        rep = ground_state_factorizes(h2, h_star, orthant("env", 2))
        assert rep.weak
        assert rep.entropy <= 1e-9
        assert np.allclose(rep.omega, UNIFORM2, atol=1e-10)

    def test_phase_rotated_environment_is_weak(self):
        # a complex environment cone: omega is turned into it by the phase of
        # its coordinates, not only by a sign
        h_star = op("base", -PAULI_X)
        h2 = kron(h_star, identity("env", 2)) - kron(identity("base", 2), op("env", PAULI_X))
        w = np.exp(1j * np.array([0.9, 2.3]))
        u = np.kron(np.ones(2), w)
        h2 = LinearOperator(h2.space, u[:, None] * h2.mat * u.conj())
        rep = ground_state_factorizes(h2, h_star, SelfDualCone("env", np.diag(w)))
        assert rep.weak
        assert np.allclose(rep.omega, w * UNIFORM2, atol=1e-10)

    def test_coupled_extension_is_not_weak(self):
        h_star = op("base", -PAULI_X)
        x = op("base", np.diag([1.0, 0.2]))
        h2 = kron(h_star, identity("env", 2)) - kron(x, op("env", PAULI_X))
        rep = ground_state_factorizes(h2, h_star, orthant("env", 2))
        assert not rep.weak
        assert rep.entropy > 1e-6

    def test_trivial_environment(self):
        h_star = op("base", -PAULI_X)
        h2 = LinearOperator("base*e", h_star.mat.copy())
        rep = ground_state_factorizes(h2, h_star, orthant("e", 1))
        assert rep.weak
        assert np.allclose(rep.omega, [1.0], atol=1e-12)


class TestStabilityClassStructure:
    def test_record_collects_verified_members(self):
        h = seed_hamiltonian()
        cone = orthant("base", 2)
        record = StabilityClassRecord.for_base("H*", h, cone, h)
        tower = extension_tower(h, cone, h, 2)
        record.add_member("tower2", tower)
        assert len(record.members) == 1
        assert record.members[0][1].mu_star == record.mu_star

    def test_mismatched_member_is_rejected(self):
        # base -sx on the orthant has mu = +1 for O = sx; +sx on the cone
        # with a flipped second generator is improving-class with ground
        # state (1,-1)/sqrt(2), carrying mu = -1
        from conecalc.cones import SelfDualCone

        h = op("base", -PAULI_X)
        o = op("base", PAULI_X)
        record = StabilityClassRecord.for_base("H*", h, orthant("base", 2), o)
        assert record.mu_star == 1.0
        flipped = SelfDualCone("base", np.diag([1.0, -1.0]).astype(complex))
        foreign = ArrowChain((ChainNode(op("base", PAULI_X), flipped),), ())
        with pytest.raises(MuMismatch):
            record.add_member("foreign", foreign)

    def test_reachability_is_monotone(self):
        # members reachable from a later Hamiltonian are reachable from an
        # earlier one by chain concatenation
        h = seed_hamiltonian()
        cone = orthant("base", 2)
        c12 = extension_tower(h, cone, h, 1)
        h2 = c12.nodes[1].hamiltonian
        p2 = c12.nodes[1].cone
        c23 = extension_tower(h2, p2, kron(h, identity("q1", 2)), 1)
        joined = concatenate(c12, c23)
        verify_chain(joined)
        report = quantum_number_along_chain(joined, h)
        assert len(set(report.snapped)) == 1

    def test_relation_is_reflexive_and_transitive(self):
        h = op("s", -PAULI_X)
        p = orthant("s", 2)
        refl = ArrowChain((ChainNode(h, p), ChainNode(h, p)),
                          (identity_embedding("s", 2),))
        verify_chain(refl)  # H -> H
        both_ways = concatenate(refl, refl)  # symmetric closure on this pair
        verify_chain(both_ways)
