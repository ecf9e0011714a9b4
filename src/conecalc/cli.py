"""Batch front-end: JSON config in, canonical JSON report (and DOT diagram)
out, with a strict exit-code contract.

Exit codes: 0 = task ran and every asserted invariant held; 1 = task failed
or errored; 2 = the configuration did not validate.  Reports are byte-stable
functions of the config bytes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
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
from .numerics import DEFAULT_TOL, DIM_CAP, TOL_LIMIT, LinearOperator

if TYPE_CHECKING:
    from .inheritance import Embedding

# Only what validation needs is imported above.  Each task imports the
# modules it calls once its params have been looked up and checked, so a
# config refused with exit 2 loads no verifier module.


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


def _finite(value, what: str) -> float:
    _require(_is_number(value) and math.isfinite(value),
             f"{what} must be a finite number, got {value!r}")
    return float(value)


def _read(what: str, obj, reader, *leading):
    """`reader(*leading, **obj)` for the config object `obj`, whose keys are
    exactly the reader's parameters after `leading`: one with a default is an
    optional key.  A missing or unknown key is refused with a line naming
    `what` and the key, before the reader runs."""
    _require(isinstance(obj, dict), f"{what} must be an object, got {obj!r}")
    signature = inspect.signature(reader)
    try:
        signature.bind(*leading, **obj)
    except TypeError:
        keys = list(signature.parameters.values())[len(leading):]
        names = [p.name for p in keys]
        unknown = [key for key in obj if key not in names]
        if unknown:
            raise SchemaError(f"{what}: unknown key {unknown[0]!r}; "
                              f"it takes {', '.join(map(repr, names))}") from None
        missing = [p.name for p in keys if p.default is p.empty and p.name not in obj]
        raise SchemaError(f"{what}: missing key {missing[0]!r}") from None
    return reader(*leading, **obj)


# The readers of registry entries by kind; the first reads an entry that
# gives no kind.  A reader that a `kind` value chooses takes `kind` as a key.
def _matrix_operator(ctx: RunContext, name, space, entries) -> LinearOperator:
    dim = ctx.space_dim(space)
    mat = matrix_from_json(entries, f"operator {name!r}")
    _require(mat.shape == (dim, dim), f"operator {name!r} does not match space dim {dim}")
    return LinearOperator(space, mat)


def _identity_operator(ctx: RunContext, name, kind, space) -> LinearOperator:
    return LinearOperator(space, np.eye(ctx.space_dim(space)))


def _orthant_cone(ctx: RunContext, name, space, kind="orthant") -> SelfDualCone:
    return orthant(space, ctx.space_dim(space))


def _tensor_cone(ctx: RunContext, name, kind, parts) -> SelfDualCone:
    _require(isinstance(parts, list) and len(parts) >= 2,
             f"tensor cone {name!r} needs >= 2 parts")
    return functools.reduce(tensor_cone, [ctx.cone(part) for part in parts])


def _explicit_cone(ctx: RunContext, name, kind, space, generators) -> SelfDualCone:
    dim = ctx.space_dim(space)
    _require(isinstance(generators, list) and len(generators) == dim,
             f"cone {name!r}: needs {dim} generators, one per dimension")
    vectors = [vector_from_json(g, f"cone {name!r}") for g in generators]
    with _constructing(f"cone {name!r}"):
        return SelfDualCone(space, np.column_stack(vectors))


# only a config that declares an embedding loads inheritance
def _isometry_embedding(ctx: RunContext, name, from_space, to_space, matrix,
                        kind="isometry") -> Embedding:
    mat = matrix_from_json(matrix, f"embedding {name!r}")
    _require(mat.shape == (ctx.space_dim(to_space), ctx.space_dim(from_space)),
             f"embedding {name!r} has mismatched shape")
    from .inheritance import Embedding
    with _constructing(f"embedding {name!r}"):
        return Embedding(from_space, to_space, mat)


def _identity_embedding(ctx: RunContext, name, kind, space) -> Embedding:
    dim = ctx.space_dim(space)
    from .inheritance import identity_embedding
    return identity_embedding(space, dim)


def _append_vector_embedding(ctx: RunContext, name, kind, from_space, to_space,
                             vector) -> Embedding:
    vec = vector_from_json(vector, f"embedding {name!r}")
    dim = ctx.space_dim(from_space)
    _require(ctx.space_dim(to_space) == dim * vec.size,
             f"embedding {name!r}: to_space dim must be {dim * vec.size}")
    from .inheritance import append_factor_embedding
    with _constructing(f"embedding {name!r}"):
        return append_factor_embedding(from_space, to_space, dim, vec)


_OPERATORS = {None: _matrix_operator, "identity": _identity_operator}
_CONES = {"orthant": _orthant_cone, "tensor": _tensor_cone, "explicit": _explicit_cone}
_EMBEDDINGS = {"isometry": _isometry_embedding, "identity": _identity_embedding,
               "append_vector": _append_vector_embedding}


def _tolerances(default=DEFAULT_TOL) -> float:
    tol = _finite(default, "tolerances.default")
    _require(0 < tol < TOL_LIMIT, f"tolerances.default must be above 0 and below 1/sqrt(2), "
                                  f"got {default!r}")
    return tol


def _build_context(version, task, params={}, spaces={}, operators=[], cones=[], embeddings=[],
                   tolerances={}) -> tuple[RunContext, str, dict]:
    """The top level of a config: the run context its registries resolve to,
    its task and the task's params, read next by the task's runner."""
    _require(_is_number(version) and version == 1, "config version must be 1")
    _require(task in TASKS, f"unknown task {task!r}; expected one of {', '.join(TASKS)}")
    ctx = RunContext()
    _require(isinstance(spaces, dict), "spaces must map names to dimensions")
    for name, dim in spaces.items():
        _require(_is_int(dim) and dim >= 1, f"space {name!r} has bad dimension")
        _require(dim <= DIM_CAP, f"space {name!r} dimension {dim} exceeds cap {DIM_CAP}")
        ctx.spaces[name] = dim
    for entry, specs, readers in (("operator", operators, _OPERATORS), ("cone", cones, _CONES),
                                  ("embedding", embeddings, _EMBEDDINGS)):
        _require(isinstance(specs, list), f"{entry}s must be a list of {entry} entries")
        resolved = getattr(ctx, f"{entry}s")
        for spec in specs:
            _require(isinstance(spec, dict) and "name" in spec, f"{entry} entries need 'name'")
            name = spec["name"]
            _require(isinstance(name, str), f"{entry} names must be strings, got {name!r}")
            _require(name not in resolved, f"duplicate {entry} name {name!r}")
            kind = spec.get("kind", next(iter(readers)))
            _require(kind in tuple(readers), f"unknown {entry} kind {kind!r}")  # any JSON value
            resolved[name] = _read(f"{entry} {name!r}", spec, readers[kind], ctx)
    ctx.tol = _read("tolerances", tolerances, _tolerances)
    return ctx, task, params


def _task_classify(ctx: RunContext, operator, cone):
    op = ctx.operator(operator)
    cone = ctx.cone(cone)
    from .positivity import classify, is_ergodic
    report = classify(op, cone, ctx.tol)
    payload = report.to_payload()
    if report.preserving:
        payload["ergodicity"] = is_ergodic(op, cone, ctx.tol).to_payload()
    return True, payload


def _task_mu(ctx: RunContext, hamiltonian, observable, cone):
    h = ctx.operator(hamiltonian)
    o = ctx.operator(observable)
    cone = ctx.cone(cone)
    from .stability import good_quantum_number
    gqn = good_quantum_number(h, o, cone, ctx.tol)
    return True, gqn.to_payload()


def _chain_node(ctx: RunContext, hamiltonian, cone):
    return ctx.operator(hamiltonian), ctx.cone(cone)


def _task_chain(ctx: RunContext, nodes, embeddings=[], observable=None):
    _require(isinstance(nodes, list) and nodes, "chain needs a list of nodes")
    pairs = [_read(f"chain node {j}", node, _chain_node, ctx) for j, node in enumerate(nodes)]
    _require(isinstance(embeddings, list),
             f"chain embeddings must be a list of embedding ids, got {embeddings!r}")
    _require(len(embeddings) == len(pairs) - 1,
             "need exactly one embedding per consecutive node pair")
    links = tuple(ctx.embedding(name) for name in embeddings)
    o = None if observable is None else ctx.operator(observable)
    from .inheritance import ArrowChain, ChainNode
    chain = ArrowChain(tuple(ChainNode(*pair) for pair in pairs), links)
    payload: dict = {"nodes": len(chain.nodes)}
    if o is None:
        from .inheritance import verify_chain
        report = verify_chain(chain, ctx.tol)
    else:
        from .stability import _chain_pass
        # the links, then the quantum numbers; a failed link stays a LinkFailed, as
        # verify_chain raises it
        report, mu_report = _chain_pass(chain, o, ctx.tol)
        payload["quantum_numbers"] = mu_report.to_payload()
    payload.update(report.to_payload())
    return True, payload


def _task_trotter(ctx: RunContext, h, h_prime, cone, s=1.0, t=1.0, beta=1.0,
                  n_values=[1, 2, 4, 8, 16, 32, 64, 128, 256]):
    h = ctx.operator(h)
    h_prime = ctx.operator(h_prime)
    cone = ctx.cone(cone)
    _require(isinstance(n_values, list) and all(_is_int(n) and n >= 1 for n in n_values),
             "n_values must be positive integers")
    _require(all(n <= sys.float_info.max for n in n_values),
             "n_values must not exceed the largest float")
    s, t, beta = _finite(s, "trotter s"), _finite(t, "trotter t"), _finite(beta, "trotter beta")
    from .semigroup import trotter_verify
    report = trotter_verify(h, h_prime, s, t, beta, tuple(n_values), cone, ctx.tol)
    return report.ok, report.to_payload()


def _lattice_factor(ctx: RunContext, operator):
    y = ctx.operator(operator)
    return y.dim, y


def _task_lattice(ctx: RunContext, h0, cone, observable, x, factors):
    _require(isinstance(factors, list) and factors, "lattice needs a factors list")
    pairs = tuple(_read(f"lattice factor {mu}", factor, _lattice_factor, ctx)
                  for mu, factor in enumerate(factors, start=1))
    h0 = ctx.operator(h0)
    cone = ctx.cone(cone)
    observable = ctx.operator(observable)
    x = ctx.operator(x)
    from .lattice import LatticeSpec, build_lattice, hasse_export
    spec = LatticeSpec(h0=h0, cone=cone, observable=observable, x=x, factors=pairs)
    diagram = build_lattice(spec, ctx.tol)
    payload = {
        "assumptions": diagram.assumptions.to_payload(),
        "diagram": diagram.to_payload(),
    }
    return True, payload, {"hasse.dot": hasse_export(diagram)}


def _task_richness(ctx: RunContext, hamiltonian, cone, observable, depth=5):
    h = ctx.operator(hamiltonian)
    cone = ctx.cone(cone)
    o = ctx.operator(observable)
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


def _task_weak_equiv(ctx: RunContext, h2, h_star, env_cone):
    h2 = ctx.operator(h2)
    h_star = ctx.operator(h_star)
    env_cone = ctx.cone(env_cone)
    _require(h2.dim == h_star.dim * env_cone.dim, "h2 dim must equal dim(h_star) * dim(env_cone)")
    from .stability import ground_state_factorizes, is_decoupled_extension
    equiv = is_decoupled_extension(h2, h_star, env_cone, ctx.tol)
    factor = ground_state_factorizes(h2, h_star, env_cone, tol=ctx.tol)
    payload = {"equivalence": equiv.to_payload(), "weak": factor.to_payload()}
    return True, payload


def _task_spin_demo(ctx: RunContext, sites, sublattice_a, sector_m=0.0):
    _require(_is_int(sites) and sites >= 2, "spin-demo needs sites >= 2")
    a = sublattice_a
    _require(isinstance(a, list) and a and all(_is_int(s) and 1 <= s <= sites for s in a),
             f"spin-demo sublattice_a must be a non-empty list of sites 1..{sites}, got {a!r}")
    _require(len(set(a)) == len(a), f"spin-demo sublattice_a repeats a site: {a!r}")
    m = _finite(sector_m, "spin-demo sector_m")
    from .spin import SpinSystem, _check_cap, verify_mlm
    _check_cap(sites)  # before sublattice b, a list over the sites, is built
    b = tuple(s for s in range(1, sites + 1) if s not in a)
    report = verify_mlm(SpinSystem(sites, tuple(a), b), m, ctx.tol)
    return report.ok, report.to_payload()


# A stability member's recipe reads to the build of its chain, which
# `_task_stability` runs once every member is read.
def _tower_recipe(ctx: RunContext, type, depth=1):
    _require(_is_int(depth) and depth >= 1, "tower depth must be >= 1")

    def build(h_star, cone, o):
        from .stability import extension_tower
        return extension_tower(h_star, cone, o, depth, ctx.tol)
    return build


def _coupling_recipe(ctx: RunContext, type, x, y):
    x, y = ctx.operator(x), ctx.operator(y)

    def build(h_star, cone, o):
        from .stability import _KroneckerFamily
        return _KroneckerFamily(h_star, cone, x, (y.mat,), (y.space,)).chain()
    return build


_RECIPES = {"tower": _tower_recipe, "coupling": _coupling_recipe}


def _stability_member(ctx: RunContext, id, recipe):
    _require(isinstance(id, str), f"stability member ids must be strings, got {id!r}")
    _require(isinstance(recipe, dict),
             f"stability member recipe must be an object, got {recipe!r}")
    kind = recipe.get("type")
    _require(kind in tuple(_RECIPES), f"unknown stability recipe type {kind!r}")
    return id, _read(f"stability member {id!r} recipe", recipe, _RECIPES[kind], ctx)


def _task_stability(ctx: RunContext, h_star, cone, observable, members=[]):
    h = ctx.operator(h_star)
    cone = ctx.cone(cone)
    o = ctx.operator(observable)
    _require(isinstance(members, list), "members must be a list")
    builds = {}
    for j, member in enumerate(members):
        member_id, build = _read(f"stability member {j}", member, _stability_member, ctx)
        _require(member_id not in builds, f"duplicate stability member id {member_id!r}")
        builds[member_id] = build
    from .stability import StabilityClassRecord
    record = StabilityClassRecord.for_base(h_star, h, cone, o, ctx.tol)
    for member_id, build in builds.items():
        record.add_member(member_id, build(h, cone, o), ctx.tol)
    return True, record.to_payload()


_RUNNERS = {
    "classify": _task_classify,
    "mu": _task_mu,
    "chain": _task_chain,
    "lattice": _task_lattice,
    "trotter": _task_trotter,
    "spin-demo": _task_spin_demo,
    "richness": _task_richness,
    "weak-equiv": _task_weak_equiv,
    "stability": _task_stability,
}
TASKS = tuple(_RUNNERS)


def run_config(config: dict, digest: str) -> tuple[dict, dict]:
    """Validate, dispatch, and wrap the outcome as a report object.

    Returns (report, extra_files).  Schema problems raise SchemaError; every
    other failure is folded into the report's status.
    """
    _require(isinstance(config, dict), "config must be a JSON object")
    ctx, task, params = _read("config", config, _build_context)

    extra_files: dict[str, str] = {}
    try:
        result = _read(f"{task} params", params, _RUNNERS[task], ctx)
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
