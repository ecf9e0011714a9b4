"""Seeded operations of the four benchmark workloads, each with the verdict
it must produce.

An op is one verification: one CLI invocation, or one library call to
`quantum_number_along_chain`, `build_lattice` or `verify_mlm`.  The op mix of
a workload (sizes, kinds and counts) is fixed here; the seed only draws the
matrix entries, partitions, signs, slot orders and broken-link positions.
Expected answers are derived with plain numpy or from the mathematics (the
tower keeps the base ground energy, a lattice keeps the base quantum number,
Lieb-Mattis fixes the sector's total spin), never by asking conecalc.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import conecalc as cc
from conecalc.errors import ChainFailed, PreconditionFailed, SpecFailed

WORKLOADS = ("cli-cold", "chain-tower", "lattice", "spin-mlm")
CLI_TIMEOUT_S = 60.0
MU_TOL = 1e-8
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass
class Outcome:
    """What one op produced: a return value or an exception (library ops),
    or an exit code, stderr and parsed report (CLI ops)."""

    value: object = None
    exc: BaseException | None = None
    exit_code: int | None = None
    stderr: str = ""
    report: dict | None = None
    rss_kb: int = 0


@dataclass
class Op:
    """One verification plus the answer it must give.

    ``kind`` names the op's class in the mix and does not depend on the
    seed; ``fingerprint`` digests the generated inputs and does.
    """

    id: str
    kind: str
    positive: bool
    expected: dict
    fingerprint: str
    nodes: int = 0
    links: int = 0
    known_defect: str | None = None
    call: object = None          # library ops: zero-argument callable
    argv: list = field(default_factory=list)   # CLI ops: arguments after `-m conecalc`
    env: dict = field(default_factory=dict)    # CLI ops: extra environment
    out_dir: str = ""

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)

    @property
    def group(self) -> str:
        """What the pass order spreads evenly: the kind, or for CLI ops,
        where the config came from (shipped, variant, reject)."""
        return self.kind.split("-")[0] if self.is_cli else self.kind

    def predicted_exceptions(self) -> tuple[str, ...]:
        """Exception type names that the expected verdict predicts."""
        return tuple(self.expected.get("raises", ())) if not self.positive else ()


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.asarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()[:16]


def _close(got, want) -> bool:
    return isinstance(got, (int, float)) and abs(float(got) - want) <= MU_TOL * max(1.0, abs(want))


def _describe(outcome: Outcome) -> str:
    if outcome.exc is not None:
        return f"{type(outcome.exc).__name__}: {outcome.exc}"
    return f"returned {type(outcome.value).__name__}"


# --------------------------------------------------------------- matrices

def metzler_base(rng: np.random.Generator, n: int) -> np.ndarray:
    """Real symmetric n x n with every off-diagonal entry <= -0.6 and a
    diagonal in [0, 0.4]: improving-class on the orthant, ground energy
    <= -0.2, and a ground gap well above every tolerance."""
    off = rng.uniform(0.6, 1.0, (n, n))
    off = np.triu(off, 1)
    return np.diag(rng.uniform(0.0, 0.4, n)) - off - off.T


def flip_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """(h0, observable, mu): h0 = c - d*sigma_x with d > 0 has the uniform
    ground state, on which the observable p + q*sigma_x (q > 0) takes p + q."""
    c, d = rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5)
    p, q = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
    return c * np.eye(2) - d * PAULI_X, p * np.eye(2) + q * PAULI_X, p + q


def ergodic_factor(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric, all off-diagonal entries positive, constant row sums, so
    the uniform vector is an eigenvector and the support digraph is complete."""
    off = np.triu(rng.uniform(0.2, 1.0, (n, n)), 1)
    y = off + off.T
    sums = y.sum(axis=1)
    return y + np.diag(sums.max() - sums + rng.uniform(0.0, 0.5))


def ground_expectation(h: np.ndarray, o: np.ndarray) -> float:
    _, vecs = np.linalg.eigh(h)
    psi = vecs[:, 0]
    return float(psi @ o @ psi)


# --------------------------------------------------------------- chain-tower

TOWER_MIX = {  # (base dim, depth) -> positive ops per pass
    "full": {(2, 5): 6, (3, 5): 2, (2, 6): 8, (3, 6): 1, (2, 7): 2, (2, 8): 1},
    "toy": {(2, 2): 1},
}
TOWER_REJECTS = {  # depth, broken links (one op each; which tower gets which is seeded)
    "full": (7, (0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2)),
    "toy": (2, (0,)),
}


def _broken_tower(h, depth: int, link: int):
    chain = cc.extension_tower(h, cc.orthant(h.space, h.dim), h, depth)
    emb = chain.embeddings[link]
    flipped = cc.append_factor_embedding(emb.from_space, emb.to_space, emb.dim_from,
                                         np.array([1.0, -1.0]) / math.sqrt(2.0))
    embeddings = chain.embeddings[:link] + (flipped,) + chain.embeddings[link + 1:]
    return cc.ArrowChain(chain.nodes, embeddings)


def _tower_op(h, depth: int):
    chain = cc.extension_tower(h, cc.orthant(h.space, h.dim), h, depth)
    return cc.quantum_number_along_chain(chain, h)


def _broken_tower_op(h, depth: int, link: int):
    return cc.quantum_number_along_chain(_broken_tower(h, depth, link), h)


def check_tower(expected: dict, outcome: Outcome) -> str | None:
    if "fail_at" in expected:
        exc = outcome.exc
        if not isinstance(exc, ChainFailed):
            return f"expected ChainFailed at link {expected['fail_at']}, got {_describe(outcome)}"
        if getattr(exc, "index", None) != expected["fail_at"]:
            return f"ChainFailed at index {getattr(exc, 'index', None)}, expected {expected['fail_at']}"
        return None
    if outcome.exc is not None:
        return _describe(outcome)
    snapped = outcome.value.snapped
    if len(snapped) != expected["nodes"]:
        return f"{len(snapped)} snapped values for {expected['nodes']} nodes"
    if len(set(snapped)) != 1:
        return f"snapped quantum number moved: {snapped}"
    if not _close(outcome.value.mu_star, expected["mu"]):
        return f"mu_star {outcome.value.mu_star!r} != base ground energy {expected['mu']!r}"
    return None


def tower_ops(rng: np.random.Generator, size: str) -> list[Op]:
    ops = []
    for (n, depth), count in TOWER_MIX[size].items():
        for _ in range(count):
            mat = metzler_base(rng, n)
            h = cc.LinearOperator("base", mat)
            ops.append(Op(
                id="", kind=f"tower-d{depth}-{n}x{n}", positive=True,
                expected={"nodes": depth + 1, "mu": float(np.linalg.eigvalsh(mat)[0])},
                fingerprint=_digest(mat, depth), nodes=depth + 1, links=depth,
                call=lambda h=h, depth=depth: _tower_op(h, depth)))
    depth, links = TOWER_REJECTS[size]
    for link in rng.permutation(np.array(links)):
        mat = metzler_base(rng, 2)
        h = cc.LinearOperator("base", mat)
        ops.append(Op(
            id="", kind=f"tower-d{depth}-broken", positive=False,
            expected={"fail_at": int(link), "raises": ("ChainFailed",)},
            fingerprint=_digest(mat, depth, int(link)),
            call=lambda h=h, depth=depth, link=int(link): _broken_tower_op(h, depth, link)))
    return ops


# --------------------------------------------------------------- lattice

LATTICE_MIX = {  # factor dimensions (order seeded) -> positive ops per pass
    "full": {(2, 2, 3, 3): 18, (2, 2, 2, 3, 3): 2},
    "toy": {(2, 2): 1},
}
LATTICE_REJECTS = {"full": ((2, 2, 3, 3), 12), "toy": ((2, 2), 1)}


def lattice_spec(rng: np.random.Generator, dims, broken_slot: int | None = None):
    """Spec with h0 = c - d*sigma_x, observable p + q*sigma_x,
    X = a*1 + b*observable (a > b|p| keeps X cone preserving) and one
    ergodic Y_mu per slot.  ``broken_slot`` replaces that slot's Y by a
    multiple of the identity, which is not ergodic."""
    h0, obs, mu = flip_pair(rng)
    a, b = rng.uniform(1.0, 2.0), rng.uniform(0.2, 0.5)
    factors = []
    for slot, n in enumerate(rng.permutation(np.array(dims)), start=1):
        n = int(n)
        y = ergodic_factor(rng, n)
        if slot == broken_slot:
            y = rng.uniform(0.5, 1.5) * np.eye(n)
        factors.append((n, cc.LinearOperator(f"f{slot}", y)))
    spec = cc.LatticeSpec(
        h0=cc.LinearOperator("base", h0), cone=cc.orthant("base", 2),
        observable=cc.LinearOperator("base", obs),
        x=cc.LinearOperator("base", a * np.eye(2) + b * obs),
        factors=tuple(factors))
    fingerprint = _digest(h0, obs, a, b, *[f[1].mat for f in factors])
    return spec, mu, fingerprint


def check_lattice(expected: dict, outcome: Outcome) -> str | None:
    if "raises" in expected:
        if isinstance(outcome.exc, SpecFailed):
            return None
        return f"expected SpecFailed, got {_describe(outcome)}"
    if outcome.exc is not None:
        return _describe(outcome)
    diagram = outcome.value
    if len(diagram.nodes) != expected["nodes"] or len(diagram.covering_edges) != expected["edges"]:
        return (f"{len(diagram.nodes)} nodes / {len(diagram.covering_edges)} edges, expected "
                f"{expected['nodes']} / {expected['edges']}")
    bad = [n.subset for n in diagram.nodes if not _close(n.mu_snapped, expected["mu"])]
    if bad:
        return f"mu_snapped differs from {expected['mu']!r} at {bad[:3]}"
    return None


def lattice_ops(rng: np.random.Generator, size: str) -> list[Op]:
    ops = []
    for dims, count in LATTICE_MIX[size].items():
        ell = len(dims)
        for _ in range(count):
            spec, mu, fp = lattice_spec(rng, dims)
            ops.append(Op(
                id="", kind=f"lattice-{ell}slot", positive=True,
                expected={"nodes": 2 ** ell, "edges": ell * 2 ** (ell - 1), "mu": mu},
                fingerprint=fp, nodes=2 ** ell, links=ell * 2 ** (ell - 1),
                call=lambda spec=spec: cc.build_lattice(spec)))
    dims, count = LATTICE_REJECTS[size]
    for _ in range(count):
        slot = int(rng.integers(1, len(dims) + 1))
        spec, _, fp = lattice_spec(rng, dims, broken_slot=slot)
        ops.append(Op(
            id="", kind=f"lattice-{len(dims)}slot-nonergodic", positive=False,
            expected={"raises": ("SpecFailed",)}, fingerprint=fp,
            call=lambda spec=spec: cc.build_lattice(spec)))
    return ops


# --------------------------------------------------------------- spin-mlm

SPIN_MIX = {  # (sites, |A|, |M|) -> ops per pass; |M| > S* are the known defect
    "full": {
        (8, 4, 0.0): 3, (8, 3, 0.0): 1, (8, 3, 1.0): 1, (8, 2, 0.0): 1, (8, 2, 2.0): 1,
        (8, 4, 1.0): 1,
        (9, 4, 0.5): 6, (9, 3, 0.5): 3, (9, 3, 1.5): 1, (9, 2, 0.5): 2, (9, 4, 1.5): 2,
        (10, 5, 0.0): 2, (10, 3, 1.0): 1, (10, 5, 1.0): 1,
    },
    "toy": {(4, 2, 0.0): 1},
}
SPIN_REJECTS = {  # (sites, |M|) of empty sectors -> ops per pass
    "full": {(8, 0.5): 4, (8, 5.0): 4, (9, 0.0): 4, (9, 5.5): 4, (10, 1.5): 4, (10, 6.0): 4},
    "toy": {(4, 0.5): 1},
}


def _spin_system(rng: np.random.Generator, sites: int, a_size: int):
    a = tuple(sorted(int(s) for s in rng.choice(np.arange(1, sites + 1), a_size, replace=False)))
    b = tuple(s for s in range(1, sites + 1) if s not in a)
    return cc.SpinSystem(sites, a, b)


def check_spin(expected: dict, outcome: Outcome) -> str | None:
    if "raises" in expected:
        if isinstance(outcome.exc, PreconditionFailed):
            return None
        return f"expected PreconditionFailed, got {_describe(outcome)}"
    if outcome.exc is not None:
        return _describe(outcome)
    report = outcome.value
    if not report.ok or not _close(report.mu_snapped, expected["mu"]):
        return f"ok={report.ok} mu_snapped={report.mu_snapped!r}, expected ok with {expected['mu']!r}"
    return None


def spin_ops(rng: np.random.Generator, size: str) -> list[Op]:
    ops = []
    for (sites, a_size, m_abs), count in SPIN_MIX[size].items():
        s_star = abs(sites - 2 * a_size) / 2.0
        s = max(s_star, m_abs)   # Lieb-Mattis: lowest S in the sector
        for _ in range(count):
            system = _spin_system(rng, sites, a_size)
            m = m_abs * (1.0 if m_abs == 0.0 or rng.random() < 0.5 else -1.0)
            ops.append(Op(
                id="", kind=f"mlm-n{sites}-a{a_size}-m{m_abs:g}", positive=True,
                expected={"mu": s * (s + 1.0)},
                fingerprint=_digest(system.sublattice_a, m), nodes=1,
                known_defect="spin: sector |M| > S*" if m_abs > s_star else None,
                call=lambda system=system, m=m: cc.verify_mlm(system, m)))
    for (sites, m_abs), count in SPIN_REJECTS[size].items():
        for _ in range(count):
            system = _spin_system(rng, sites, sites // 2)
            m = m_abs * (1.0 if rng.random() < 0.5 else -1.0)
            ops.append(Op(
                id="", kind=f"mlm-n{sites}-empty-m{m_abs:g}", positive=False,
                expected={"raises": ("PreconditionFailed",)},
                fingerprint=_digest(system.sublattice_a, m),
                call=lambda system=system, m=m: cc.verify_mlm(system, m)))
    return ops


# --------------------------------------------------------------- cli-cold

SHIPPED_CONFIGS = {
    "full": ("chain_two_level", "classify_flip", "lattice_ell3", "mu_flip", "richness_depth5",
             "spin_demo_n4", "stability_demo", "trotter_pair", "weak_equiv_4x4",
             "weak_equiv_decoupled"),
    "toy": ("mu_flip",),
}
CLI_VARIANTS = {
    "full": ("classify", "mu", "chain", "lattice", "trotter", "spin-demo", "richness",
             "weak-equiv-decoupled", "weak-equiv-coupled", "stability"),
    "toy": (),
}
CLI_REJECTS = {
    "full": ("unknown-operator", "unknown-cone", "bad-version", "negative-depth",
             "nan-entry", "tolerance-abc", "tolerance-negative", "threads-abc"),
    "toy": ("unknown-operator",),
}
# The ROADMAP's Baseline defects: each of these configs must exit 2, and the
# seed code does not.  They stay in the mix and count as failed until fixed.
CLI_KNOWN_DEFECTS = {
    "nan-entry": "cli: NaN matrix entry",
    "tolerance-abc": "cli: non-numeric tolerance",
    "tolerance-negative": "cli: negative tolerance",
    "threads-abc": "cli: non-integer CONECALC_THREADS",
}


def _operator(name, space, mat):
    return {"name": name, "space": space, "entries": np.asarray(mat, dtype=float).tolist()}


def _orthant(name, space):
    return {"name": name, "kind": "orthant", "space": space}


def _config(task, spaces, operators, cones, params, **extra):
    return {"version": 1, "task": task, "spaces": spaces, "operators": operators,
            "cones": cones, "params": params, **extra}


def _classify_config(rng):
    off = np.triu(rng.uniform(0.1, 1.0, (3, 3)), 1)
    a = off + off.T + np.diag(rng.uniform(0.1, 1.0, 3))
    return _config("classify", {"base": 3}, [_operator("a", "base", a)], [_orthant("P", "base")],
                   {"operator": "a", "cone": "P"})


def _mu_config(rng):
    h, obs, _ = flip_pair(rng)
    return _config("mu", {"base": 2}, [_operator("h", "base", h), _operator("obs", "base", obs)],
                   [_orthant("P", "base")], {"hamiltonian": "h", "observable": "obs", "cone": "P"})


def _chain_config(rng):
    h0, obs, _ = flip_pair(rng)
    h1 = np.kron(h0, np.eye(2)) - rng.uniform(0.5, 1.5) * np.kron(np.eye(2), PAULI_X)
    return _config(
        "chain", {"base": 2, "lvl1": 4},
        [_operator("h0", "base", h0), _operator("obs", "base", obs), _operator("h1", "lvl1", h1)],
        [_orthant("P0", "base"), _orthant("P1", "lvl1")],
        {"nodes": [{"hamiltonian": "h0", "cone": "P0"}, {"hamiltonian": "h1", "cone": "P1"}],
         "embeddings": ["up"], "observable": "obs"},
        embeddings=[{"name": "up", "kind": "append_vector", "from_space": "base",
                     "to_space": "lvl1", "vector": [1.0 / math.sqrt(2.0)] * 2}])


def _lattice_config(rng):
    spec, _, _ = lattice_spec(rng, (2, 3, 2))
    spaces = {"base": 2, **{f"f{i}": n for i, (n, _) in enumerate(spec.factors, start=1)}}
    operators = [_operator("h0", "base", spec.h0.mat.real),
                 _operator("obs", "base", spec.observable.mat.real),
                 _operator("x", "base", spec.x.mat.real)]
    operators += [_operator(f"y{i}", f"f{i}", y.mat.real)
                  for i, (_, y) in enumerate(spec.factors, start=1)]
    return _config("lattice", spaces, operators, [_orthant("P", "base")],
                   {"h0": "h0", "cone": "P", "observable": "obs", "x": "x",
                    "factors": [{"operator": f"y{i}"} for i in range(1, len(spec.factors) + 1)]})


def _trotter_config(rng):
    mats = [metzler_base(rng, 4) * rng.uniform(0.3, 0.6) + np.eye(4) for _ in range(2)]
    return _config("trotter", {"base": 4},
                   [_operator("h", "base", mats[0]), _operator("hp", "base", mats[1])],
                   [_orthant("P", "base")],
                   {"h": "h", "h_prime": "hp", "cone": "P", "s": round(rng.uniform(0.5, 1.5), 3),
                    "t": round(rng.uniform(0.5, 1.5), 3), "beta": 1.0})


def _spin_demo_config(rng):
    system = _spin_system(rng, 6, 2)
    return {"version": 1, "task": "spin-demo",
            "params": {"sites": 6, "sublattice_a": list(system.sublattice_a),
                       "sector_m": float(rng.choice([-1.0, 0.0, 1.0]))}}


def _richness_config(rng):
    h = metzler_base(rng, 2)
    return _config("richness", {"base": 2}, [_operator("h", "base", h), _operator("obs", "base", h)],
                   [_orthant("P", "base")],
                   {"hamiltonian": "h", "cone": "P", "observable": "obs", "depth": 5})


def _weak_equiv_config(rng, coupled: bool):
    h_star, _, _ = flip_pair(rng)
    h2 = np.kron(h_star, np.eye(2)) - rng.uniform(0.5, 1.5) * np.kron(np.eye(2), PAULI_X)
    if coupled:
        h2 = h2 - rng.uniform(0.3, 0.8) * np.kron(np.diag([0.0, 1.0]), PAULI_X)
    return _config("weak-equiv", {"base": 2, "env": 2, "joint": 4},
                   [_operator("h_star", "base", h_star), _operator("h2", "joint", h2)],
                   [_orthant("Penv", "env")], {"h2": "h2", "h_star": "h_star", "env_cone": "Penv"})


def _stability_config(rng):
    h = metzler_base(rng, 2)
    flip_env = rng.uniform(0.5, 1.5) * PAULI_X
    return _config(
        "stability", {"base": 2, "f1": 2},
        [_operator("h_star", "base", h), _operator("obs", "base", h),
         {"name": "one", "space": "base", "kind": "identity"}, _operator("flip_env", "f1", flip_env)],
        [_orthant("P", "base")],
        {"h_star": "h_star", "cone": "P", "observable": "obs",
         "members": [{"id": "tower-depth-2", "recipe": {"type": "tower", "depth": 2}},
                     {"id": "flip-coupled", "recipe": {"type": "coupling", "x": "one", "y": "flip_env"}}]})


_VARIANT_BUILDERS = {
    "classify": _classify_config,
    "mu": _mu_config,
    "chain": _chain_config,
    "lattice": _lattice_config,
    "trotter": _trotter_config,
    "spin-demo": _spin_demo_config,
    "richness": _richness_config,
    "weak-equiv-decoupled": lambda rng: _weak_equiv_config(rng, coupled=False),
    "weak-equiv-coupled": lambda rng: _weak_equiv_config(rng, coupled=True),
    "stability": _stability_config,
}


def _reject_config(rng, name: str) -> tuple[dict, dict]:
    """A config that must exit 2, and any extra environment it runs with."""
    if name == "unknown-operator":
        config = _mu_config(rng)
        config["params"]["observable"] = "no_such_operator"
        return config, {}
    if name == "unknown-cone":
        config = _classify_config(rng)
        config["params"]["cone"] = "no_such_cone"
        return config, {}
    if name == "bad-version":
        config = _chain_config(rng)
        config["version"] = 2
        return config, {}
    if name == "negative-depth":
        config = _richness_config(rng)
        config["params"]["depth"] = -1
        return config, {}
    if name == "nan-entry":
        config = _classify_config(rng)
        i, j = (int(k) for k in rng.integers(0, 3, 2))
        config["operators"][0]["entries"][i][j] = float("nan")
        return config, {}
    if name == "tolerance-abc":
        config = _mu_config(rng)
        config["tolerances"] = {"default": "abc"}
        return config, {}
    if name == "tolerance-negative":
        config = _classify_config(rng)
        config["tolerances"] = {"default": -1}
        return config, {}
    if name == "threads-abc":
        return _lattice_config(rng), {"CONECALC_THREADS": "abc"}
    raise ValueError(name)


# expectations of a CLI report, computed from the config with numpy

def _matrices(config: dict) -> dict[str, np.ndarray]:
    out = {}
    for spec in config.get("operators", []):
        if spec.get("kind") == "identity":
            out[spec["name"]] = np.eye(config["spaces"][spec["space"]])
        else:
            out[spec["name"]] = np.array(spec["entries"], dtype=float)
    return out


def _strongly_connected(adj: np.ndarray) -> bool:
    reach = (adj | np.eye(len(adj), dtype=bool)).astype(np.int64)
    for _ in range(len(adj)):
        reach = np.minimum(reach @ reach, 1)
    return bool(reach.all())


def _decoupled(h2: np.ndarray, h_star: np.ndarray) -> bool:
    d1 = len(h_star)
    d2 = len(h2) // d1
    diff = h2 - np.kron(h_star, np.eye(d2))
    env = np.einsum("ijik->jk", diff.reshape(d1, d2, d1, d2)) / d1
    if np.linalg.norm(diff - np.kron(np.eye(d1), env), 2) > 1e-8 * np.linalg.norm(h2, 2):
        return False
    off = env - np.diag(np.diag(env))
    return bool((off <= 0).all() and _strongly_connected(off < 0))


def _factorizes(h2: np.ndarray, h_star: np.ndarray) -> bool:
    psi = np.linalg.eigh(h2)[1][:, 0]
    psi_star = np.linalg.eigh(h_star)[1][:, 0]
    u, s, _ = np.linalg.svd(psi.reshape(len(h_star), -1))
    return bool(s[1:].max(initial=0.0) < 1e-6 and abs(u[:, 0] @ psi_star) > 1 - 1e-9)


def cli_expectation(config: dict) -> list[tuple[tuple, object]]:
    """(path into report.json, expected value) pairs for a passing run.

    A ``"*"`` in a path applies the rest of the path to every list element;
    floats compare within MU_TOL, everything else exactly.
    """
    task, params, mats = config["task"], config["params"], _matrices(config)
    fields: list[tuple[tuple, object]] = [(("status",), "pass")]
    if task == "classify":
        m = mats[params["operator"]]
        thresh = 1e-9 * np.abs(m).max()
        preserving = bool(m.min() >= -thresh)
        fields += [(("payload", "preserving"), preserving),
                   (("payload", "improving"), bool(m.min() >= thresh))]
        if preserving:
            fields.append((("payload", "ergodicity", "ergodic"), _strongly_connected(m > thresh)))
    elif task == "mu":
        mu = ground_expectation(mats[params["hamiltonian"]], mats[params["observable"]])
        fields.append((("payload", "mu_snapped"), mu))
    elif task == "chain":
        first = mats[params["nodes"][0]["hamiltonian"]]
        fields += [(("payload", "links"), len(params["nodes"]) - 1),
                   (("payload", "quantum_numbers", "mu_snapped", "*"),
                    ground_expectation(first, mats[params["observable"]]))]
    elif task == "lattice":
        ell = len(params["factors"])
        fields += [(("payload", "diagram", "node_count"), 2 ** ell),
                   (("payload", "diagram", "edge_count"), ell * 2 ** (ell - 1)),
                   (("payload", "diagram", "nodes", "*", "mu_snapped"),
                    ground_expectation(mats[params["h0"]], mats[params["observable"]]))]
    elif task == "trotter":
        fields += [(("payload", "converges"), True),
                   (("payload", "positivity_ok", "*"), True)]
    elif task == "spin-demo":
        a = len(params["sublattice_a"])
        s = max(abs(params["sites"] - 2 * a) / 2.0, abs(params.get("sector_m", 0.0)))
        fields += [(("payload", "ok"), True), (("payload", "mu_snapped"), s * (s + 1.0))]
    elif task == "richness":
        mu = ground_expectation(mats[params["hamiltonian"]], mats[params["observable"]])
        fields += [(("payload", "quantum_numbers", "mu_snapped", "*"), mu),
                   (("payload", "dims"), [2 * 2 ** k for k in range(params["depth"] + 1)])]
    elif task == "weak-equiv":
        h2, h_star = mats[params["h2"]], mats[params["h_star"]]
        fields += [(("payload", "equivalence", "equivalent"), _decoupled(h2, h_star)),
                   (("payload", "weak", "weak"), _factorizes(h2, h_star))]
    elif task == "stability":
        mu = ground_expectation(mats[params["h_star"]], mats[params["observable"]])
        fields += [(("payload", "mu_star"), mu),
                   (("payload", "members", "*", "mu_star"), mu)]
    else:
        raise ValueError(f"no expectation for task {task!r}")
    return fields


def _field_errors(report, path: tuple, want) -> list[str]:
    node = report
    for k, key in enumerate(path):
        if key == "*":
            if not isinstance(node, list) or not node:
                return [f"{'.'.join(map(str, path[:k]))} is not a nonempty list"]
            return [e for item in node for e in _field_errors(item, path[k + 1:], want)]
        if not isinstance(node, dict) or key not in node:
            return [f"missing {key}"]
        node = node[key]
    if isinstance(want, float):
        ok = _close(node, want)
    else:
        ok = type(node) is type(want) and node == want
    return [] if ok else [f"{'.'.join(map(str, path))}={node!r}, expected {want!r}"]


def check_cli(expected: dict, outcome: Outcome) -> str | None:
    if outcome.exit_code != expected["exit"]:
        tail = outcome.stderr.strip().splitlines()[-1:] if outcome.stderr.strip() else []
        return f"exit {outcome.exit_code}, expected {expected['exit']}" + (f" ({tail[0]})" if tail else "")
    if expected["exit"] != 0:
        return "traceback on stderr" if "Traceback" in outcome.stderr else None
    if outcome.report is None:
        return "no report.json"
    errors = [e for path, want in expected["fields"] for e in _field_errors(outcome.report, path, want)]
    return "; ".join(errors[:3]) or None


def cli_ops(rng: np.random.Generator, size: str, root: Path, workdir: Path) -> list[Op]:
    ops = []
    config_dir = workdir / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)

    def add(kind, config, path, positive, env=None, known=None):
        if positive:
            expected = {"exit": 0, "fields": cli_expectation(config)}
        else:
            expected = {"exit": 2, "raises": ("SchemaError",)}
        ops.append(Op(
            id="", kind=kind, positive=positive, expected=expected,
            fingerprint=_digest(path.read_bytes(), sorted((env or {}).items())),
            argv=[config["task"], "--config", str(path)], env=env or {},
            known_defect=known))

    for name in SHIPPED_CONFIGS[size]:
        path = root / "configs" / f"{name}.json"
        add(f"shipped-{name}", json.loads(path.read_bytes()), path, True)
    for name in CLI_VARIANTS[size]:
        config = _VARIANT_BUILDERS[name](rng)
        path = config_dir / f"variant-{name}.json"
        path.write_text(json.dumps(config))
        add(f"variant-{name}", config, path, True)
    for name in CLI_REJECTS[size]:
        config, env = _reject_config(rng, name)
        path = config_dir / f"reject-{name}.json"
        path.write_text(json.dumps(config))
        add(f"reject-{name}", config, path, False, env, CLI_KNOWN_DEFECTS.get(name))
    return ops


# --------------------------------------------------------------- entry points

def _spread(ops: list[Op]) -> list[Op]:
    """Interleave the groups evenly over the pass.

    The machine's speed drifts within a pass; spreading every group over the
    whole pass keeps its median from depending on one short window.  The
    order depends only on the mix, not on the seed.
    """
    total = Counter(op.group for op in ops)
    seen: Counter = Counter()
    keyed = []
    for index, op in enumerate(ops):
        keyed.append(((seen[op.group] + 0.5) / total[op.group], index, op))
        seen[op.group] += 1
    return [op for _, _, op in sorted(keyed, key=lambda k: k[:2])]


def make_ops(workload: str, seed: int, size: str, root: Path, workdir: Path) -> list[Op]:
    """The ops of one pass, in a fixed order, with ids unique in the pass."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    if workload == "cli-cold":
        ops = cli_ops(rng, size, root, workdir)
    elif workload == "chain-tower":
        ops = tower_ops(rng, size)
    elif workload == "lattice":
        ops = lattice_ops(rng, size)
    elif workload == "spin-mlm":
        ops = spin_ops(rng, size)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = _spread(ops)
    for k, op in enumerate(ops):
        op.id = f"{k:02d}-{op.kind}"
        if op.is_cli:
            op.out_dir = str(workdir / "out" / op.id)
    return ops


CHECKS = {"cli-cold": check_cli, "chain-tower": check_tower, "lattice": check_lattice,
          "spin-mlm": check_spin}


def child_env(root: Path, extra: dict | None = None) -> dict:
    """Environment for a child interpreter: the checkout's sources first,
    BLAS pinned as in this process, and no CONECALC_THREADS unless asked."""
    env = dict(os.environ)
    env.pop("CONECALC_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def wait_child(proc: subprocess.Popen, timeout: float) -> tuple[int, int]:
    """Reap a child, returning (exit code, peak RSS in KiB); kill it after
    ``timeout`` seconds.  Polls so no helper thread is needed."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss
        time.sleep(0.001)


def run_cli(op: Op, root: Path, command: list[str]) -> tuple[Outcome, float]:
    """Run one CLI op as ``command + op.argv + --out`` and time it from spawn
    to exit.  stderr goes to a file, so a full pipe can never stall the child."""
    out = Path(op.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.unlink(missing_ok=True)
    err_path = out.parent / f"{op.id}.stderr"
    env = child_env(root, op.env)
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command + op.argv + ["--out", str(out)], cwd=root, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        code, rss = wait_child(proc, CLI_TIMEOUT_S)
        seconds = time.perf_counter() - start
    report = None
    if report_path.is_file():
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except ValueError:
            report = None
    return Outcome(exit_code=code, stderr=err_path.read_text(errors="replace"),
                   report=report, rss_kb=rss), seconds


def cli_command(traced_spans: Path | None = None, op_id: str = "") -> list[str]:
    if traced_spans is None:
        return [sys.executable, "-m", "conecalc"]
    return [sys.executable, str(Path(__file__).with_name("tracecli.py")),
            str(traced_spans), op_id]
