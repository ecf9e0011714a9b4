"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import expm_oracle, op, random_metzler_generator, random_nonneg_irreducible, rng

from conecalc.cli import emit, run_config
from conecalc.cones import orthant, tensor_cone
from conecalc.errors import ChainFailed
from conecalc.inheritance import (
    ArrowChain,
    append_factor_embedding,
    identity_embedding,
    verify_chain,
)
from conecalc.lattice import build_lattice
from conecalc.numerics import LinearOperator, identity, kron
from conecalc.positivity import (
    NodeAnalysis,
    generates_improving_semigroup,
    generates_positive_semigroup,
    ground_state,
    is_ergodic,
)
from conecalc.semigroup import trotter_verify
from conecalc.spin import SpinSystem, verify_mlm
from conecalc.stability import (
    PAULI_X,
    extension_tower,
    ground_state_factorizes,
    is_decoupled_extension,
    quantum_number_along_chain,
    relative_entropy,
)
from test_lattice import demo_spec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
UNIFORM2 = np.array([1.0, 1.0]) / math.sqrt(2.0)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:02d}] FAIL  {label}")
        raise
    print(f"[acceptance {number:02d}] PASS  {label}")


def test_criterion_01_perron_frobenius_equivalence():
    with criterion(1, "improving-class iff simple + strictly positive ground (300 instances)"):
        start = time.monotonic()
        gen = rng(139)
        disagreements = 0
        for trial in range(300):
            n = int(gen.integers(2, 13))
            split = int(gen.integers(1, n)) if trial % 3 == 0 else None
            h = op("s", random_metzler_generator(gen, n, block_split=split))
            cone = orthant("s", n)
            lhs = generates_improving_semigroup(h, cone)
            g = ground_state(h, cone)
            rhs = g.simple and cone.strictly_positive(g.vector)
            if lhs != rhs:
                disagreements += 1
        elapsed = time.monotonic() - start
        assert disagreements == 0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_metzler_criterion_vs_sampled_exponentials():
    with criterion(2, "Metzler criterion == beta-sampled exponential positivity (300 instances)"):
        gen = rng(227)
        disagreements = 0
        for trial in range(300):
            n = int(gen.integers(2, 13))
            mat = 0.3 * random_metzler_generator(gen, n)
            if trial % 2 == 1:
                i, j = gen.choice(n, size=2, replace=False)
                mat[i, j] = mat[j, i] = float(gen.uniform(0.8, 1.5))
            h = op("s", mat)
            criterion_says = generates_positive_semigroup(h, orthant("s", n))
            sampled = True
            for beta in (0.1, 1.0, 10.0):
                e = expm_oracle(-beta * mat).real
                if e.min() < -1e-9 * np.abs(e).max():
                    sampled = False
                    break
            if criterion_says != sampled:
                disagreements += 1
        assert disagreements == 0


def test_criterion_03_trotter_error_halves_with_positivity():
    with criterion(3, "Trotter error halves (+-50%) per doubling up to n=256, all steps positive"):
        gen = rng(2024)
        for _ in range(20):
            n = int(gen.integers(2, 5))
            h = op("s", random_metzler_generator(gen, n))
            hp = op("s", random_metzler_generator(gen, n))
            s, t = gen.uniform(0.3, 1.5, size=2)
            rep = trotter_verify(h, hp, float(s), float(t), 1.0,
                                 tuple(2 ** k for k in range(9)), orthant("s", n))
            assert all(rep.positivity_ok)
            for ratio in rep.ratios():  # halving within +-50%: 2x in [4/3, 3]
                assert 4.0 / 3.0 <= ratio <= 3.0


def test_criterion_04_perturbed_exponentials_strictly_positive():
    with criterion(4, "exp(-beta(A-B)) entrywise > 1e-12 for ergodic B (50 pairs)"):
        gen = rng(4096)
        for _ in range(50):
            n = int(gen.integers(2, 9))
            a_mat = random_metzler_generator(gen, n)
            np.fill_diagonal(a_mat, gen.uniform(0.0, 1.0, size=n))
            a = op("s", a_mat)
            b = op("s", random_nonneg_irreducible(gen, n))
            cone = orthant("s", n)
            assert generates_positive_semigroup(a, cone)
            assert is_ergodic(b, cone).ergodic
            for beta in (0.5, 1.0, 2.0):
                e = expm_oracle(-beta * (a.mat - b.mat)).real
                assert e.min() > 1e-12


def test_criterion_05_extension_tower_depth_five():
    with criterion(5, "depth-5 tower: links verify, ground states factor, quantum number fixed"):
        h = op("base", np.diag([0.0, 1.0]) - 0.1 * PAULI_X)
        cone = orthant("base", 2)
        chain = extension_tower(h, cone, h, 5)
        report = verify_chain(chain)
        assert len(report.overlaps) == 5

        psi_base = ground_state(h, cone).vector
        for level, node in enumerate(chain.nodes):
            want = psi_base
            for _ in range(level):
                want = np.kron(want, UNIFORM2)
            got = ground_state(node.hamiltonian, node.cone).vector
            assert np.linalg.norm(got - want) <= 1e-10

        mu_report = quantum_number_along_chain(chain, h)
        assert len(set(mu_report.snapped)) == 1


def test_criterion_06_lattice_demo_ell3(tmp_path):
    with criterion(6, "3-slot lattice: 8 nodes, 12 verified edges, constant mu, stable DOT"):
        start = time.monotonic()
        spec = demo_spec()
        assert spec.h0.dim * math.prod(n for n, _ in spec.factors) <= 512
        diagram = build_lattice(spec)
        assert len(diagram.nodes) == 8
        assert len(diagram.covering_edges) == 12
        base_mu = next(n for n in diagram.nodes if n.subset == ()).mu_snapped
        for node in diagram.nodes:
            assert generates_improving_semigroup(node.hamiltonian, node.cone)
            assert node.mu_snapped == base_mu  # exact equality after snapping
        assert all(o > 0 for o in diagram.edge_overlaps)

        config = json.loads((CONFIGS / "lattice_ell3.json").read_text())
        for run in ("one", "two"):
            report, extra = run_config(config, "f" * 64)
            assert report["status"] == "pass"
            emit(report, tmp_path / run, extra)
        assert (tmp_path / "one" / "hasse.dot").read_bytes() == \
            (tmp_path / "two" / "hasse.dot").read_bytes()
        assert (tmp_path / "one" / "report.json").read_bytes() == \
            (tmp_path / "two" / "report.json").read_bytes()
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_07_inequivalence_fixtures():
    with criterion(7, "coupled 4x4 fixture inequivalent + entangled; decoupled variant weak"):
        coupled = json.loads((CONFIGS / "weak_equiv_4x4.json").read_text())
        report, _ = run_config(coupled, "0" * 64)
        assert report["payload"]["equivalence"]["equivalent"] is False

        h_star = op("base", -PAULI_X)
        x = op("base", np.diag([1.0, 0.2]))
        h2 = kron(h_star, identity("env", 2)) - kron(x, op("env", PAULI_X))
        env_cone = orthant("env", 2)
        weak = ground_state_factorizes(h2, h_star, env_cone)
        assert not weak.weak
        assert weak.entropy > 1e-6

        h2_dec = kron(h_star, identity("env", 2)) - kron(identity("base", 2),
                                                         op("env", PAULI_X))
        equiv = is_decoupled_extension(h2_dec, h_star, env_cone)
        assert equiv.decoupled
        weak_dec = ground_state_factorizes(h2_dec, h_star, env_cone)
        assert weak_dec.weak
        assert np.linalg.norm(weak_dec.omega - UNIFORM2) <= 1e-10


def test_criterion_08_mlm_ground_spin():
    with criterion(8, "MLM sector quantum numbers: balanced -> 0, star -> 2, "
                      "M=1 above S*=0 -> 2"):
        for system, m, expected in (
            (SpinSystem(4, (1, 2), (3, 4)), 0.0, 0.0),
            (SpinSystem(4, (1, 2, 3), (4,)), 0.0, 2.0),
            # |M| > S*: the sector's lowest state has S = |M|, not S*
            (SpinSystem(6, (1, 2, 3), (4, 5, 6)), 1.0, 2.0),
        ):
            start = time.monotonic()
            report = verify_mlm(system, m)
            elapsed = time.monotonic() - start
            assert report.ok
            assert abs(report.mu_snapped - expected) <= 1e-8
            assert report.expected == expected
            assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_09_relative_entropy_unit():
    with criterion(9, "relative entropy: scalar formula, zero on equals, inf off support"):
        rho = op("s", np.diag([0.5, 0.5]))
        sigma = op("s", np.diag([0.25, 0.75]))
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(relative_entropy(rho, sigma) - want) <= 1e-12
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-14)
        pure = op("s", np.diag([1.0, 0.0]))
        orth = op("s", np.diag([0.0, 1.0]))
        assert relative_entropy(pure, orth) == math.inf


def _composite_chain(break_link: bool = False) -> tuple[ArrowChain, LinearOperator]:
    """Four links: tower, identity, lattice-style coupling, tower."""
    ring3 = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    h_a = op("base", -PAULI_X)
    o = op("base", PAULI_X)
    p_a = orthant("base", 2)

    tower1 = extension_tower(h_a, p_a, o, 1)
    h_b, p_b = tower1.nodes[1].hamiltonian, tower1.nodes[1].cone

    h_c = kron(h_b, identity("f", 3)) - kron(identity(h_b.space, 4), op("f", ring3))
    p_c = tensor_cone(p_b, orthant("f", 3))
    if break_link:
        coupling_vec = np.array([1.0, -1.0, 1.0]) / math.sqrt(3.0)
    else:
        coupling_vec = np.full(3, 1.0 / math.sqrt(3.0))
    emb_bc = append_factor_embedding(h_b.space, h_c.space, 4, coupling_vec)

    h_d = kron(h_c, identity("q", 2)) - kron(identity(h_c.space, 12), op("q", PAULI_X))
    p_d = tensor_cone(p_c, orthant("q", 2))
    emb_cd = append_factor_embedding(h_c.space, h_d.space, 12, UNIFORM2)

    nodes = (
        NodeAnalysis(h_a, p_a),
        NodeAnalysis(h_b, p_b),
        NodeAnalysis(h_b, p_b),  # identity link in the middle
        NodeAnalysis(h_c, p_c),
        NodeAnalysis(h_d, p_d),
    )
    embeddings = (
        tower1.embeddings[0],
        identity_embedding(h_b.space, 4),
        emb_bc,
        emb_cd,
    )
    return ArrowChain(nodes, embeddings), o


def test_criterion_10_composite_chain_invariance():
    with criterion(10, "4-link mixed chain keeps mu; broken link localized by index"):
        chain, o = _composite_chain()
        report = quantum_number_along_chain(chain, o)
        assert len(report.snapped) == 5
        assert len(set(report.snapped)) == 1
        assert report.mu_star == 1.0

        broken, o = _composite_chain(break_link=True)
        with pytest.raises(ChainFailed) as err:
            quantum_number_along_chain(broken, o)
        assert err.value.index == 2
