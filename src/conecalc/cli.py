"""Batch front-end: JSON config in, canonical JSON report (and DOT diagram)
out, with a strict exit-code contract.

Exit codes: 0 = task ran and every asserted invariant held; 1 = task failed
or errored; 2 = the configuration did not validate.  Reports are byte-stable
functions of the config bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .cones import SelfDualCone, orthant, tensor_cone
from .errors import ConecalcError, DimMismatch, IoError, SchemaError
from .jsonio import _is_number, canonical_dumps, matrix_from_json, vector_from_json
from .numerics import (
    DEFAULT_TOL,
    DIM_CAP,
    TOL_LIMIT,
    LinearOperator,
    _kronecker_slot,
)

if TYPE_CHECKING:
    from .inheritance import ArrowChain, Embedding

# Only what validation needs is imported above.  Each task imports the
# modules it calls once its params have been looked up and checked, so a
# config refused with exit 2 loads no verifier module.

TROTTER_ERROR_FLOOR = 1e-12  # the trotter task converges outright when no error exceeds this
TROTTER_RATIO_BAND = (2.0 / 3.0, 6.0)  # ... and otherwise when every error ratio lies in this band

TASKS = ("classify", "mu", "chain", "lattice", "trotter", "spin-demo",
         "richness", "weak-equiv", "stability")

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


@contextmanager
def _constructing(what: str):
    """Report a cone or embedding constructor's refusal of its numbers
    (not orthonormal, not normalized, wrong shape) as a schema error."""
    try:
        yield
    except (ValueError, DimMismatch) as exc:
        raise SchemaError(f"{what}: {exc}") from exc


@dataclass
class RunContext:
    """Resolved registries of one run configuration."""

    spaces: dict[str, int] = field(default_factory=dict)
    operators: dict[str, LinearOperator] = field(default_factory=dict)
    cones: dict[str, SelfDualCone] = field(default_factory=dict)
    embeddings: dict[str, Embedding] = field(default_factory=dict)
    tol: float = DEFAULT_TOL

    def space_dim(self, name) -> int:
        _require(isinstance(name, str) and name in self.spaces,
                 f"unknown space id {name!r}")
        return self.spaces[name]

    def operator(self, name) -> LinearOperator:
        _require(isinstance(name, str) and name in self.operators,
                 f"unknown operator id {name!r}")
        return self.operators[name]

    def cone(self, name) -> SelfDualCone:
        _require(isinstance(name, str) and name in self.cones,
                 f"unknown cone id {name!r}")
        return self.cones[name]

    def embedding(self, name) -> Embedding:
        _require(isinstance(name, str) and name in self.embeddings,
                 f"unknown embedding id {name!r}")
        return self.embeddings[name]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(params: dict, key: str, default: float, task: str) -> float:
    value = params.get(key, default)
    _require(_is_number(value) and math.isfinite(value),
             f"{task} {key} must be a finite number, got {value!r}")
    return float(value)


def _registry(config: dict, key: str, entry: str):
    """The entries of the `key` registry, each checked as it is reached: the
    registry is a list, and each entry an object with a string name that no
    earlier entry has."""
    specs = config.get(key, [])
    _require(isinstance(specs, list), f"{key} must be a list of {entry} entries")
    names = set()
    for spec in specs:
        _require(isinstance(spec, dict) and "name" in spec, f"{entry} entries need 'name'")
        _require(isinstance(spec["name"], str),
                 f"{entry} names must be strings, got {spec['name']!r}")
        _require(spec["name"] not in names, f"duplicate {entry} name {spec['name']!r}")
        names.add(spec["name"])
        yield spec


def _tolerance(value) -> float:
    _require(_is_number(value) and math.isfinite(value) and value > 0,
             f"tolerances.default must be a finite positive number, got {value!r}")
    _require(value < TOL_LIMIT, f"tolerances.default must be below 1/sqrt(2), got {value!r}")
    return float(value)


def _build_context(config: dict) -> RunContext:
    ctx = RunContext()
    spaces = config.get("spaces", {})
    _require(isinstance(spaces, dict), "spaces must map names to dimensions")
    for name, dim in spaces.items():
        _require(_is_int(dim) and dim >= 1, f"space {name!r} has bad dimension")
        _require(dim <= DIM_CAP, f"space {name!r} dimension {dim} exceeds cap {DIM_CAP}")
        ctx.spaces[name] = dim

    for spec in _registry(config, "operators", "operator"):
        _require("space" in spec, "operator entries need 'name' and 'space'")
        dim = ctx.space_dim(spec["space"])
        if spec.get("kind") == "identity":
            mat = np.eye(dim)
        else:
            _require("entries" in spec, f"operator {spec['name']!r} has no entries")
            mat = matrix_from_json(spec["entries"], f"operator {spec['name']!r}")
        _require(mat.shape == (dim, dim),
                 f"operator {spec['name']!r} does not match space dim {dim}")
        ctx.operators[spec["name"]] = LinearOperator(spec["space"], mat)

    for spec in _registry(config, "cones", "cone"):
        kind = spec.get("kind", "orthant")
        if kind == "orthant":
            dim = ctx.space_dim(spec.get("space"))
            cone = orthant(spec["space"], dim)
        elif kind == "tensor":
            parts = spec.get("parts", [])
            _require(isinstance(parts, list) and len(parts) >= 2,
                     f"tensor cone {spec['name']!r} needs >= 2 parts")
            cone = ctx.cone(parts[0])
            for part in parts[1:]:
                cone = tensor_cone(cone, ctx.cone(part))
        elif kind == "explicit":
            _require("space" in spec and "generators" in spec,
                     f"explicit cone {spec['name']!r} needs space and generators")
            dim = ctx.space_dim(spec["space"])
            _require(isinstance(spec["generators"], list) and len(spec["generators"]) == dim,
                     f"cone {spec['name']!r}: needs {dim} generators, one per dimension")
            vectors = [vector_from_json(g, f"cone {spec['name']!r}") for g in spec["generators"]]
            with _constructing(f"cone {spec['name']!r}"):
                cone = SelfDualCone(spec["space"], np.column_stack(vectors))
        else:
            raise SchemaError(f"unknown cone kind {kind!r}")
        ctx.cones[spec["name"]] = cone

    for spec in _registry(config, "embeddings", "embedding"):
        # only a config that declares an embedding loads inheritance
        from .inheritance import Embedding, append_factor_embedding, identity_embedding
        kind = spec.get("kind", "isometry")
        if kind == "identity":
            dim = ctx.space_dim(spec.get("space"))
            emb = identity_embedding(spec["space"], dim)
        elif kind == "append_vector":
            _require(all(k in spec for k in ("from_space", "to_space", "vector")),
                     f"embedding {spec['name']!r} needs from_space, to_space, vector")
            vec = vector_from_json(spec["vector"], f"embedding {spec['name']!r}")
            dim = ctx.space_dim(spec["from_space"])
            _require(ctx.space_dim(spec["to_space"]) == dim * vec.size,
                     f"embedding {spec['name']!r}: to_space dim must be {dim * vec.size}")
            with _constructing(f"embedding {spec['name']!r}"):
                emb = append_factor_embedding(spec["from_space"], spec["to_space"], dim, vec)
        elif kind == "isometry":
            _require(all(k in spec for k in ("from_space", "to_space", "matrix")),
                     f"embedding {spec['name']!r} needs from_space, to_space, matrix")
            mat = matrix_from_json(spec["matrix"], f"embedding {spec['name']!r}")
            _require(mat.shape == (ctx.space_dim(spec["to_space"]),
                                   ctx.space_dim(spec["from_space"])),
                     f"embedding {spec['name']!r} has mismatched shape")
            with _constructing(f"embedding {spec['name']!r}"):
                emb = Embedding(spec["from_space"], spec["to_space"], mat)
        else:
            raise SchemaError(f"unknown embedding kind {kind!r}")
        ctx.embeddings[spec["name"]] = emb

    tolerances = config.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances must be a mapping")
    ctx.tol = _tolerance(tolerances.get("default", DEFAULT_TOL))
    return ctx


def _task_classify(ctx: RunContext, params: dict):
    op = ctx.operator(params.get("operator"))
    cone = ctx.cone(params.get("cone"))
    from .positivity import classify, is_ergodic
    report = classify(op, cone, ctx.tol)
    payload = report.to_payload()
    if report.preserving:
        payload["ergodicity"] = is_ergodic(op, cone, ctx.tol).to_payload()
    return True, payload


def _task_mu(ctx: RunContext, params: dict):
    h = ctx.operator(params.get("hamiltonian"))
    o = ctx.operator(params.get("observable"))
    cone = ctx.cone(params.get("cone"))
    from .stability import good_quantum_number
    gqn = good_quantum_number(h, o, cone, ctx.tol)
    return True, gqn.to_payload()


def _build_chain(ctx: RunContext, params: dict) -> ArrowChain:
    raw_nodes = params.get("nodes")
    _require(isinstance(raw_nodes, list) and raw_nodes, "chain needs a list of nodes")
    nodes = []  # (hamiltonian, cone, cone_in) of each node
    for spec in raw_nodes:
        _require(isinstance(spec, dict) and "hamiltonian" in spec and "cone" in spec,
                 "chain nodes need 'hamiltonian' and 'cone'")
        cone = ctx.cone(spec["cone"])
        cone_in = ctx.cone(spec["cone_in"]) if "cone_in" in spec else cone
        nodes.append((ctx.operator(spec["hamiltonian"]), cone, cone_in))
    raw_embs = params.get("embeddings", [])
    _require(isinstance(raw_embs, list),
             f"chain embeddings must be a list of embedding ids, got {raw_embs!r}")
    _require(len(raw_embs) == len(nodes) - 1,
             "need exactly one embedding per consecutive node pair")
    embeddings = tuple(ctx.embedding(name) for name in raw_embs)
    from .inheritance import ArrowChain, ChainNode
    return ArrowChain(tuple(ChainNode(*node) for node in nodes), embeddings)


def _task_chain(ctx: RunContext, params: dict):
    chain = _build_chain(ctx, params)
    payload: dict = {"nodes": len(chain.nodes)}
    if "observable" in params:
        o = ctx.operator(params["observable"])
        from .stability import _chain_pass
        # the links, then the quantum numbers; a failed link stays a LinkFailed, as
        # verify_chain raises it
        report, mu_report = _chain_pass(chain, o, ctx.tol)
        payload["quantum_numbers"] = mu_report.to_payload()
    else:
        from .inheritance import verify_chain
        report = verify_chain(chain, ctx.tol)
    payload.update(report.to_payload())
    return True, payload


def _task_trotter(ctx: RunContext, params: dict):
    h = ctx.operator(params.get("h"))
    h_prime = ctx.operator(params.get("h_prime"))
    cone = ctx.cone(params.get("cone"))
    n_values = params.get("n_values", [1, 2, 4, 8, 16, 32, 64, 128, 256])
    _require(isinstance(n_values, list) and all(_is_int(n) and n >= 1 for n in n_values),
             "n_values must be positive integers")
    _require(all(n <= sys.float_info.max for n in n_values),
             "n_values must not exceed the largest float")
    s, t, beta = (_finite(params, key, 1.0, "trotter") for key in ("s", "t", "beta"))
    from .semigroup import trotter_verify
    report = trotter_verify(h, h_prime, s, t, beta, tuple(n_values), cone, ctx.tol)
    scale = max(report.errors) if report.errors else 0.0
    low, high = TROTTER_RATIO_BAND
    converged = scale <= TROTTER_ERROR_FLOOR or all(low <= r <= high for r in report.ratios())
    ok = converged and all(report.positivity_ok)
    payload = report.to_payload()
    payload["error_ratios"] = list(report.ratios())
    payload["converges"] = converged
    return ok, payload


def _task_lattice(ctx: RunContext, params: dict):
    factors = params.get("factors")
    _require(isinstance(factors, list) and factors, "lattice needs a factors list")
    pairs = []
    for f in factors:
        _require(isinstance(f, dict) and "operator" in f, "factors need 'operator'")
        y = ctx.operator(f["operator"])
        pairs.append((y.dim, y))
    h0 = ctx.operator(params.get("h0"))
    cone = ctx.cone(params.get("cone"))
    observable = ctx.operator(params.get("observable"))
    x = ctx.operator(params.get("x"))
    from .lattice import LatticeSpec, build_lattice, hasse_export
    spec = LatticeSpec(h0=h0, cone=cone, observable=observable, x=x, factors=tuple(pairs))
    diagram = build_lattice(spec, ctx.tol)
    payload = {
        "assumptions": diagram.assumptions.to_payload(),
        "diagram": diagram.to_payload(),
    }
    return True, payload, {"hasse.dot": hasse_export(diagram)}


def _task_richness(ctx: RunContext, params: dict):
    h = ctx.operator(params.get("hamiltonian"))
    cone = ctx.cone(params.get("cone"))
    o = ctx.operator(params.get("observable"))
    depth = params.get("depth", 5)
    _require(_is_int(depth) and depth >= 0, "depth must be a nonnegative integer")
    from .stability import extension_tower, quantum_number_along_chain
    chain = extension_tower(h, cone, o, depth, ctx.tol)
    report = quantum_number_along_chain(chain, o, ctx.tol)
    payload = {
        "depth": depth,
        "dims": [node.hamiltonian.dim for node in chain.nodes],
        "quantum_numbers": report.to_payload(),
    }
    return True, payload


def _task_weak_equiv(ctx: RunContext, params: dict):
    h2 = ctx.operator(params.get("h2"))
    h_star = ctx.operator(params.get("h_star"))
    env_cone = ctx.cone(params.get("env_cone"))
    d1, d2 = h_star.dim, env_cone.dim
    _require(h2.dim == d1 * d2, "h2 dim must equal dim(h_star) * dim(env_cone)")
    from .stability import ground_state_factorizes, is_decoupled_extension
    equiv = is_decoupled_extension(h2, h_star, env_cone, ctx.tol)
    factor = ground_state_factorizes(h2, h_star, env_cone, tol=ctx.tol)
    payload = {"equivalence": equiv.to_payload(), "weak": factor.to_payload()}
    return True, payload


def _site_list(value, sites: int, name: str) -> list[int]:
    _require(isinstance(value, list) and all(
        _is_int(s) and 1 <= s <= sites for s in value),
        f"spin-demo {name} must be a list of sites 1..{sites}, got {value!r}")
    _require(len(set(value)) == len(value), f"spin-demo {name} repeats a site: {value!r}")
    return value


def _task_spin_demo(ctx: RunContext, params: dict):
    sites = params.get("sites")
    _require(_is_int(sites) and sites >= 2,
             "spin-demo needs sites >= 2")
    from .spin import SpinSystem, _check_cap, verify_mlm
    _check_cap(sites)  # before any list over the sites is built
    a = params.get("sublattice_a")
    _require(isinstance(a, list) and a, "spin-demo needs sublattice_a")
    a = _site_list(a, sites, "sublattice_a")
    b = _site_list(params.get("sublattice_b", [s for s in range(1, sites + 1) if s not in a]),
                   sites, "sublattice_b")
    _require(not set(a) & set(b), f"spin-demo sublattices overlap: {sorted(set(a) & set(b))}")
    _require(len(a) + len(b) == sites, f"spin-demo sublattices must cover sites 1..{sites}")
    m = _finite(params, "sector_m", 0.0, "spin-demo")
    system = SpinSystem(sites, tuple(a), tuple(b))
    report = verify_mlm(system, m, ctx.tol)
    return report.ok, report.to_payload()


def _stability_member_chain(ctx: RunContext, h_star: LinearOperator,
                            cone: SelfDualCone, o: LinearOperator, recipe: dict):
    _require(isinstance(recipe, dict), f"stability member recipe must be an object, got {recipe!r}")
    kind = recipe.get("type")
    if kind == "tower":
        depth = recipe.get("depth", 1)
        _require(_is_int(depth) and depth >= 1, "tower depth must be >= 1")
        from .stability import extension_tower
        return extension_tower(h_star, cone, o, depth, ctx.tol)
    if kind == "coupling":
        x = ctx.operator(recipe.get("x"))
        y = ctx.operator(recipe.get("y"))
        from .stability import _appended_chain
        return _appended_chain(h_star, cone, x, (_kronecker_slot(y.mat),), (y.space,))
    raise SchemaError(f"unknown stability recipe type {kind!r}")


def _task_stability(ctx: RunContext, params: dict):
    h_star = ctx.operator(params.get("h_star"))
    cone = ctx.cone(params.get("cone"))
    o = ctx.operator(params.get("observable"))
    members = params.get("members", [])
    _require(isinstance(members, list), "members must be a list")
    ids = set()
    for member in members:
        _require(isinstance(member, dict) and "id" in member and "recipe" in member,
                 "stability members need 'id' and 'recipe'")
        _require(isinstance(member["id"], str),
                 f"stability member ids must be strings, got {member['id']!r}")
        _require(member["id"] not in ids, f"duplicate stability member id {member['id']!r}")
        ids.add(member["id"])
    from .stability import StabilityClassRecord
    record = StabilityClassRecord.for_base(params.get("h_star"), h_star, cone, o, ctx.tol)
    for member in members:
        chain = _stability_member_chain(ctx, h_star, cone, o, member["recipe"])
        record.add_member(member["id"], chain, ctx.tol)
    return True, record.to_payload()


_RUNNERS = {
    "classify": _task_classify,
    "mu": _task_mu,
    "chain": _task_chain,
    "trotter": _task_trotter,
    "lattice": _task_lattice,
    "richness": _task_richness,
    "weak-equiv": _task_weak_equiv,
    "spin-demo": _task_spin_demo,
    "stability": _task_stability,
}


def run_config(config: dict, digest: str) -> tuple[dict, dict]:
    """Validate, dispatch, and wrap the outcome as a report object.

    Returns (report, extra_files).  Schema problems raise SchemaError; every
    other failure is folded into the report's status.
    """
    _require(isinstance(config, dict), "config must be a JSON object")
    _require(_is_number(config.get("version")) and config["version"] == 1,
             "config version must be 1")
    task = config.get("task")
    _require(task in TASKS, f"unknown task {task!r}; expected one of {', '.join(TASKS)}")
    params = config.get("params", {})
    _require(isinstance(params, dict), "params must be a JSON object")
    ctx = _build_context(config)

    extra_files: dict[str, str] = {}
    try:
        result = _RUNNERS[task](ctx, params)
        if len(result) == 3:
            ok, payload, extra_files = result
        else:
            ok, payload = result
        status = "pass" if ok else "fail"
    except SchemaError:
        raise
    except ConecalcError as exc:  # the verification ran and said no, not a crash
        status = "fail"
        payload = {"reason": str(exc), "error_type": type(exc).__name__}
        index = getattr(exc, "index", None)
        if index is not None:
            payload["index"] = index
    except Exception as exc:  # noqa: BLE001 - surfaced in the report
        status = "error"
        payload = {"reason": str(exc), "error_type": type(exc).__name__}

    report = {
        "task": task,
        "status": status,
        "payload": payload,
        "tool_version": __version__,
        "config_digest": digest,
    }
    return report, extra_files


def emit(report: dict, out_dir: str | Path, extra_files: dict[str, str] | None = None) -> list[Path]:
    """Write report.json (and any diagram files) with canonical bytes."""
    out = Path(out_dir)
    # rendered first, so a report that cannot be leaves no directory
    rendered = canonical_dumps(report) + "\n"
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        # a lone surrogate is the one string UTF-8 cannot encode; it is
        # written as its JSON escape \udXXX
        report_path.write_text(rendered, encoding="utf-8", errors="backslashreplace")
        written.append(report_path)
        for name, text in (extra_files or {}).items():
            path = out / name
            path.write_text(text, encoding="utf-8")
            written.append(path)
    except OSError as exc:
        raise IoError(f"cannot write outputs to {out}: {exc}") from exc
    return written


def _reject_constant(token: str):
    raise SchemaError(f"config contains the non-finite number {token}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refusing a repeated key where json would keep the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="conecalc",
        description="Verify positivity, inheritance chains, and quantum-number "
                    "stability from a JSON run configuration.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", help="path to the run configuration JSON")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    args = parser.parse_args(argv)

    try:
        _require(args.config is not None, "--config is required")
        raw = Path(args.config).read_bytes()
        try:
            config = json.loads(raw, parse_constant=_reject_constant,
                                object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
        if isinstance(config, dict) and args.task != config.get("task", args.task):
            raise SchemaError(
                f"config task {config.get('task')!r} does not match CLI task {args.task!r}"
            )
        digest = hashlib.sha256(raw).hexdigest()
        report, extra = run_config(config, digest)
    except SchemaError as exc:
        print(f"conecalc: schema error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"conecalc: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        paths = emit(report, args.out, extra)
    except IoError as exc:
        print(f"conecalc: {exc}", file=sys.stderr)
        return 1
    print(f"{report['status']}: {report['task']} -> {paths[0]}")
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
