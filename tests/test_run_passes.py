"""The run passes of a Kronecker family against the per-node pipeline they
replaced, bit for bit.

A lattice reads its nodes in runs: every spectrum of a run from one batched
`eigh`, every improving verdict in one pass, every quantum number through
the nodes' frames in one pass.  `conftest.lattice_oracle` reads each node on
its own, as the library did before the runs: its spectrum, its improving
verdict and its quantum number through its own frame.  On seeded specs the
two give the same payload bytes (so every mu, snapped mu and ground energy,
and every edge overlap, has the same bits) and the same `hasse.dot`; on
broken specs they raise the same first failure, the same type with the same
words, at the same node.  A tower level is read alone, a run of one, and
its quantum number along the chain has the bits of the per-node reading.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import conftest
from conftest import (
    block_spectrum_oracle,
    improving_oracle,
    lattice_oracle,
    link_oracle,
    op,
    quantum_number_oracle,
    random_lattice_spec,
    random_metzler_generator,
    rng,
)

from conecalc import lattice, numerics, positivity, stability
from conecalc.errors import (
    ChainFailed,
    LinkFailed,
    MuMismatch,
    NotCommuting,
    NotInAPlus,
    NotSimple,
)
from conecalc.lattice import LatticeSpec, SpecReport, build_lattice, hasse_export, verify_spec
from conecalc.inheritance import ArrowChain, append_factor_embedding
from conecalc.numerics import DEFAULT_TOL, hermitian_eig
from conecalc.positivity import NodeAnalysis
from conecalc.stability import PAULI_X, extension_tower, quantum_number_along_chain
from test_lattice import RING3, demo_spec, explicit_spec


def outcome(build) -> tuple:
    """The payload bytes and DOT text of a built diagram, or the type and
    words of what the build raised."""
    try:
        diagram = build()
    except Exception as exc:  # the outcome is the exception itself
        return type(exc).__name__, str(exc)
    return json.dumps(diagram.to_payload()), hasse_export(diagram)


def with_slots(spec: LatticeSpec, factors) -> LatticeSpec:
    return LatticeSpec(spec.h0, spec.cone, spec.observable, spec.x, tuple(factors))


def seeded_spec(seed: int) -> LatticeSpec:
    """A seeded lattice: sign cones with real operators, or a random
    unitary base cone with complex H0, X and O (the dense improving route);
    every third seed with 1 x 1 slots inserted among its slots, and every
    fifth with sigma_x and RING3 slots, which share their shifts."""
    gen = rng(31000 + seed)
    spec = random_lattice_spec(gen, structured=seed % 2 == 0)
    factors = list(spec.factors)
    if seed % 5 == 4:
        factors = [(2, op("f1", PAULI_X)), (3, op("f2", RING3)), (2, op("f3", PAULI_X))]
    if seed % 3 == 2:
        for _ in range(int(gen.integers(1, 3))):
            unit = op("unit", np.array([[gen.uniform(0.1, 2.0)]]))
            factors.insert(int(gen.integers(len(factors) + 1)), (1, unit))
    return with_slots(spec, factors)


@pytest.mark.parametrize("cap", [numerics.DIM_CAP, 24])
@pytest.mark.parametrize("seed", range(30))
def test_a_lattice_has_the_bits_of_the_per_node_pipeline(seed, cap, monkeypatch):
    # in one run, or, under a cap of 24 rows, in many
    spec = seeded_spec(seed)
    top = spec.h0.dim * math.prod(n for n, _ in spec.factors)
    monkeypatch.setattr(numerics, "DIM_CAP", max(cap, top))
    got = outcome(lambda: build_lattice(spec))
    assert got == outcome(lambda: lattice_oracle(spec))
    assert got[0].startswith("{")  # every seeded spec builds


@pytest.mark.parametrize("spec", [
    pytest.param(with_slots(demo_spec(), ()), id="no-slots"),
    pytest.param(with_slots(demo_spec(), [(1, op("e", [[0.0]]))] * 3), id="one-dimensional"),
    pytest.param(demo_spec(), id="demo"),
    pytest.param(explicit_spec(), id="explicit-base-cone"),
])
def test_the_named_lattices_have_the_bits_of_the_per_node_pipeline(spec):
    got = outcome(lambda: build_lattice(spec))
    assert got[0].startswith("{") and got == outcome(lambda: lattice_oracle(spec))


def passing_report(spec, tol=DEFAULT_TOL) -> SpecReport:
    """`verify_spec`'s own report with every verdict set to pass, so that a
    broken spec reaches its nodes with the readings the check made."""
    report = verify_spec(spec, tol)
    return dataclasses.replace(report, x_preserving=True, x_commutes=True,
                               y_ergodic=(True,) * spec.ell, h0_improving=True,
                               h0_commutes=True, y_uniform_eigen=(True,) * spec.ell)


def broken_spec(seed: int) -> tuple[LatticeSpec, set]:
    """A seeded lattice with one to three slots broken, and the kinds of
    break: a multiple of the identity, whose nodes are not improving-class
    (`ClassificationFailed`, named by its subset), a slot of which the
    uniform vector is no eigenvector, whose nodes do not commute with the
    pushed observable (`NotCommuting`), and an observable that does not
    commute with X, which fails the base node already."""
    gen = rng(32000 + seed)
    spec = random_lattice_spec(gen, structured=True)
    factors = list(spec.factors) + [(2, op("fx", PAULI_X))] * int(gen.integers(0, 2))
    kinds = set()
    for mu in gen.choice(len(factors), size=int(gen.integers(1, len(factors) + 1)),
                         replace=False).tolist():
        n, y = factors[mu]
        if gen.random() < 0.5:
            factors[mu] = (n, op(y.space, gen.uniform(0.5, 1.5) * np.eye(n)))
            kinds.add("identity")
        else:
            bump = np.zeros((n, n))
            bump[0, 0] = gen.uniform(0.5, 2.0)
            factors[mu] = (n, op(y.space, y.mat + bump))
            kinds.add("not uniform")
    o = spec.observable
    if seed % 7 == 6:
        o = op("base", np.diag(np.arange(spec.h0.dim, dtype=float)))
        kinds.add("observable")
    return LatticeSpec(spec.h0, spec.cone, o, spec.x, tuple(factors)), kinds


@pytest.mark.parametrize("seed", range(40))
def test_a_broken_lattice_fails_first_where_the_per_node_pipeline_does(seed, monkeypatch):
    # the spec check is passed by hand, so that broken slots reach the
    # nodes; whichever pass of a run finds a node's failure, the first
    # node in order that fails raises it, with the words of the per-node
    # pipeline
    spec, kinds = broken_spec(seed)
    monkeypatch.setattr(lattice, "verify_spec", passing_report)
    got = outcome(lambda: build_lattice(spec))
    assert got == outcome(lambda: lattice_oracle(spec))
    assert got[0] in ("ClassificationFailed", "NotCommuting", "Inconsistent", "NotSimple")


def test_the_broken_lattices_fail_in_every_way():
    seen = {}
    for seed in range(40):
        spec, kinds = broken_spec(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "verify_spec", passing_report)
            name, words = outcome(lambda: build_lattice(spec))
        seen[name] = seen.get(name, 0) + 1
        seen[words] = seen.get(words, 0) + 1
    assert seen["ClassificationFailed"] >= 5 and seen["NotCommuting"] >= 5, seen
    # failures at nodes past the first run's first node, named by their subsets
    assert sum(count for words, count in seen.items() if words.startswith("H_{")
               and words != "H_{} is not improving-class") >= 5, seen


def test_a_spectrum_failure_of_a_later_node_waits_for_the_nodes_before_it(monkeypatch):
    # slot 2's eigenvectors disagree with it, so every node holding it
    # fails its spectrum; slot 1 is a multiple of the identity, so node
    # (1,) fails its improving verdict first, as the per-node pipeline finds
    base = demo_spec(2)
    spec = with_slots(base, [(2, op("f1", 0.7 * np.eye(2))), base.factors[1]])
    original = numerics._kronecker_slot

    def scrambled(y, facts=None):
        slot = original(y, facts)
        if y.shape[0] == 3:
            return slot._replace(vectors=slot.vectors[:, ::-1].copy())
        return slot

    for module in (stability, conftest):
        monkeypatch.setattr(module, "_kronecker_slot", scrambled)
    monkeypatch.setattr(lattice, "verify_spec", passing_report)
    got = outcome(lambda: build_lattice(spec))
    assert got == outcome(lambda: lattice_oracle(spec))
    assert got == ("ClassificationFailed", "H_{1} is not improving-class")
    # with slot 1 improving, the spectrum of node (2,) fails first
    spec = with_slots(base, [(2, op("f1", PAULI_X)), base.factors[1]])
    got = outcome(lambda: build_lattice(spec))
    assert got == outcome(lambda: lattice_oracle(spec))
    assert got[0] == "Inconsistent" and "'base*f2'" in got[1]


def chain_oracle(chain, o, tol: float = DEFAULT_TOL):
    """`quantum_number_along_chain` node by node: every Kronecker level read
    on its own by the oracles, the links as chain links, then each node's
    quantum number through its frame pushed along the embeddings."""
    records = []
    for node in chain.nodes:
        record = NodeAnalysis(node.hamiltonian, node.cone, tol)
        if node.hamiltonian._factors is not None:
            record.__dict__["spectrum"] = block_spectrum_oracle(node.hamiltonian)
            record.__dict__["improving"] = improving_oracle(node.hamiltonian, node.cone, tol)
        records.append(record)
    try:
        overlaps = [link_oracle(j, records[j], records[j + 1], emb).overlap
                    for j, emb in enumerate(chain.embeddings)]
    except LinkFailed as exc:
        raise ChainFailed(str(exc)) from exc
    o_spectrum = hermitian_eig(o)
    extended = np.concatenate([o_spectrum.eigenvalues, [0.0]])
    values, snapped, telescopes, frame = [], [], [], None
    for j, record in enumerate(records):
        try:
            mu, mu_snapped, _, o_psi = quantum_number_oracle(
                record, o, o_spectrum.norm, extended if j else o_spectrum.eigenvalues, frame)
        except (NotCommuting, NotSimple, NotInAPlus) as exc:
            raise type(exc)(f"node {j}: {exc}") from exc
        values.append(mu)
        snapped.append(mu_snapped)
        if mu_snapped != snapped[0]:
            raise MuMismatch(j, snapped[0], mu_snapped)
        if j:
            lhs = complex(np.vdot(last, chain.embeddings[j - 1].pull(record.ground.vector)))
            telescopes.append(abs(lhs - snapped[j - 1] * overlaps[j - 1]))
        last = o_psi
        if j < len(chain.embeddings):
            frame = chain.embeddings[j].push(np.eye(o.dim) if frame is None else frame)
    return {"mu_star": snapped[0], "mu_values": values, "mu_snapped": snapped,
            "overlaps": overlaps, "telescope_residuals": telescopes}


def chain_outcome(read) -> tuple:
    try:
        payload = read()
    except Exception as exc:  # the outcome is the exception itself
        return type(exc).__name__, str(exc)
    return (json.dumps(payload if isinstance(payload, dict) else payload.to_payload()),)


@pytest.mark.parametrize("seed", range(24))
def test_tower_levels_read_alone_have_the_bits_of_the_per_node_reading(seed):
    # each level of a tower is a run of one through the library's passes;
    # its quantum number along the chain, its overlaps and its telescope
    # residuals keep their bits, and so does a tower broken at a link
    gen = rng(33000 + seed)
    n, depth = int(gen.integers(2, 4)), int(gen.integers(1, 7))
    h = op("base", random_metzler_generator(gen, n))
    o = h if seed % 3 else op("base", np.diag(gen.normal(size=n)))
    chain = extension_tower(h, conftest.orthant("base", n), h, depth)
    if seed % 4 == 3:  # the level after link k decoupled: its arrow fails
        k = int(gen.integers(0, depth))
        nodes = list(chain.nodes)
        level = nodes[k + 1]
        nodes[k + 1] = type(level)(op(level.hamiltonian.space,
                                      np.kron(h.mat, np.eye(2 ** (k + 1)))), level.cone)
        chain = type(chain)(tuple(nodes), chain.embeddings)
    got = chain_outcome(lambda: quantum_number_along_chain(chain, o))
    assert got == chain_outcome(lambda: chain_oracle(chain, o))


def test_a_complex_node_whose_ground_vector_is_real_reads_it_as_float():
    # H0 is complex, but its ground block H0 - k X is the real 1 x 1 corner,
    # so every node's ground vector has a zero imaginary part: read alone
    # or in a run, it comes out float64, as `Spectrum` makes it
    h0 = op("base", np.array([[-3.0, 0.0, 0.0], [0.0, 0.0, 1j], [0.0, -1j, 0.0]]))
    family = stability._KroneckerFamily(h0, conftest.orthant("base", 3),
                                        numerics.identity("base", 3), (PAULI_X, RING3),
                                        ("f1", "f2"))
    subsets = [(), (1,), (2,), (1, 2)]
    alone = [NodeAnalysis(node.hamiltonian, node.cone) for node in map(family.node, subsets)]
    together = [record for run in family.records(subsets) for _, record in run]
    for subset, record, read in zip(subsets, alone, together):
        if not subset:
            continue
        want = block_spectrum_oracle(record.hamiltonian)
        for got in (record.spectrum, read.spectrum):
            assert got.ground_vector.dtype == want.ground_vector.dtype == np.float64
            assert conftest.same_bits(got.ground_vector, want.ground_vector)
            assert conftest.same_bits(got.eigenvalues, want.eigenvalues)
            assert not got.ground_vector.flags.writeable


def run_passes(monkeypatch) -> dict:
    """The dimensions of the nodes each improving-verdict pass
    (`positivity._improving`) and each spectra pass
    (`positivity._block_spectra`) reads, call by call: a record's own
    reads among them, as a run of one."""
    calls = {"_improving": [], "_block_spectra": []}
    for name, seen in calls.items():
        def recorded(hs, *args, _seen=seen, _original=getattr(positivity, name)):
            _seen.append([h.dim for h in hs])
            return _original(hs, *args)
        monkeypatch.setattr(positivity, name, recorded)
    return calls


def test_a_tower_s_levels_are_read_in_one_pass_each(monkeypatch):
    # the dense seed's verdict was read by the tower, and its spectrum is
    # read alone; its six levels share one run, read by one verdict pass
    # and one spectra pass
    h = op("base", np.diag([0.0, 1.0]) - 0.1 * PAULI_X)
    chain = extension_tower(h, conftest.orthant("base", 2), h, 6)
    calls = run_passes(monkeypatch)
    quantum_number_along_chain(chain, h)
    levels = [2 * 2 ** k for k in range(1, 7)]
    assert calls["_improving"] == [levels]
    assert calls["_block_spectra"] == [levels]


@pytest.mark.parametrize("j", range(6))
def test_a_tower_broken_at_a_link_reads_no_spectrum_past_it(j, monkeypatch):
    # link j appends a sign-alternating vector, which no orthant inherits:
    # the verdicts of the levels up to node j + 1 are read, in one pass,
    # for the arrows, the seed's having been read by the tower, but no
    # spectrum past node j
    h = op("base", np.diag([0.0, 1.0]) - 0.1 * PAULI_X)
    tower = extension_tower(h, conftest.orthant("base", 2), h, 6)
    emb = tower.embeddings[j]
    flipped = append_factor_embedding(emb.from_space, emb.to_space, emb.dim_from,
                                      np.array([1.0, -1.0]) / np.sqrt(2.0))
    chain = ArrowChain(tower.nodes, tower.embeddings[:j] + (flipped,)
                       + tower.embeddings[j + 1:])
    calls = run_passes(monkeypatch)
    with pytest.raises(ChainFailed, match=f"^link {j}: cone inheritance failed$"):
        quantum_number_along_chain(chain, h)
    assert calls["_improving"] == [[2 * 2 ** k for k in range(1, j + 2)]]
    assert calls["_block_spectra"] == ([[2 * 2 ** k for k in range(1, j + 1)]] if j else [])
