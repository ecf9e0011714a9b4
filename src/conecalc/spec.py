"""Reading a run configuration, with the standard library alone.

Every key, JSON type, name, dimension and matrix entry of a config is checked
here, before any numeric object exists, so a config refused here has loaded
neither numpy nor a verifier module.  The caps are read here too: a declared
space or tensor cone past `DIM_CAP`, a lattice of more slots than `DIM_CAP`
has room for nodes, and a spin system past `SITE_CAP` sites.  Matrix
entries, plain real numbers or [re, im] pairs, are read to nested tuples of
`complex`.  Each reader returns the build of what it read: a closure that
calls the package's exports, which import their modules as they are first
used (see `conecalc.__init__`).

Reading imports only what it uses: the registries are plain classes, not
dataclasses, and a config object's keys are read from its reader's code
object (`_read`), not from an `inspect` signature, so a refused config
loads neither `dataclasses` nor `inspect`.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys

import conecalc

from . import DEFAULT_TOL, DIM_CAP, SITE_CAP, TOL_LIMIT
from .errors import DimMismatch, SchemaError


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _is_number(value) -> bool:
    """A JSON number: true and false are no numbers, though bool is an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value, what: str) -> float:
    _require(_is_number(value) and math.isfinite(value),
             f"{what} must be a finite number, got {value!r}")
    return float(value)


def _parse_entry(cell) -> complex:
    if _is_number(cell):
        parts = (cell, 0.0)
    elif isinstance(cell, list) and len(cell) == 2 and all(_is_number(c) for c in cell):
        parts = cell
    else:
        raise SchemaError(f"matrix entry must be a number or [re, im] pair, got {cell!r}")
    try:
        z = complex(parts[0], parts[1])
    except OverflowError:  # an integer literal too large for a float
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise SchemaError(f"matrix entry {cell!r} is not finite")
    return z


def read_vector(cells, context: str = "vector") -> tuple[complex, ...]:
    """The entries of a nonempty JSON list of matrix entries."""
    _require(isinstance(cells, list) and cells, f"{context}: expected a nonempty list")
    try:
        return tuple([_parse_entry(cell) for cell in cells])
    except SchemaError as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def read_rows(rows, context: str = "matrix") -> tuple[tuple[complex, ...], ...]:
    """The entries of a JSON matrix, a nonempty list of rows of equal length."""
    _require(isinstance(rows, list) and rows, f"{context}: expected a nonempty list of rows")
    for i, row in enumerate(rows):
        _require(isinstance(row, list), f"{context}: row {i} must be a list of entries, got {row!r}")
        _require(len(row) == len(rows[0]), f"{context}: ragged rows: row {i} has length "
                                           f"{len(row)}, row 0 has length {len(rows[0])}")
    return tuple(read_vector(row, context) for row in rows)


def _read(what: str, obj, reader, *leading):
    """`reader(*leading, **obj)` for the config object `obj`, whose keys are
    exactly the reader's parameters after `leading`: one with a default is an
    optional key.  A missing or unknown key is refused with a line naming
    `what` and the key, before the reader runs.  The parameters, all
    positional, are read from the reader's code object, and the last
    `len(__defaults__)` of them have defaults."""
    _require(isinstance(obj, dict), f"{what} must be an object, got {obj!r}")
    code = reader.__code__
    names = code.co_varnames[len(leading):code.co_argcount]
    unknown = [key for key in obj if key not in names]
    if unknown:
        raise SchemaError(f"{what}: unknown key {unknown[0]!r}; "
                          f"it takes {', '.join(map(repr, names))}")
    required = names[:len(names) - len(reader.__defaults__ or ())]
    missing = [name for name in required if name not in obj]
    if missing:
        raise SchemaError(f"{what}: missing key {missing[0]!r}")
    return reader(*leading, **obj)


class Entry:
    """A registry entry as read: the dimension and the name of its space
    (an embedding's target) and the build of its object, kept as `value`
    once built."""

    def __init__(self, dim: int, space: str, build, value=None):
        self.dim, self.space, self.build, self.value = dim, space, build, value


class RunContext:
    """The registries of one config, as read, and its tolerance."""

    def __init__(self, spaces: dict[str, int] | None = None,
                 operators: dict[str, Entry] | None = None,
                 cones: dict[str, Entry] | None = None,
                 embeddings: dict[str, Entry] | None = None, tol: float = DEFAULT_TOL):
        self.spaces = {} if spaces is None else spaces
        self.operators = {} if operators is None else operators
        self.cones = {} if cones is None else cones
        self.embeddings = {} if embeddings is None else embeddings
        self.tol = tol

    def _entry(self, kind: str, name):
        registry = getattr(self, f"{kind}s")
        _require(isinstance(name, str) and name in registry, f"unknown {kind} id {name!r}")
        return registry[name]

    space_dim = functools.partialmethod(_entry, "space")
    operator = functools.partialmethod(_entry, "operator")
    cone = functools.partialmethod(_entry, "cone")
    embedding = functools.partialmethod(_entry, "embedding")

    def build(self) -> None:
        """Build every entry's object, in the order the config declares them.
        A constructor's refusal of its numbers (generators or an isometry
        not orthonormal, a vector not normalized) is a schema error."""
        for kind in ("operator", "cone", "embedding"):
            for name, entry in getattr(self, f"{kind}s").items():
                try:
                    entry.value = entry.build()
                except (ValueError, DimMismatch) as exc:
                    raise SchemaError(f"{kind} {name!r}: {exc}") from exc
                entry.build = None  # and with it the entries it was read to


# The readers of registry entries by kind; the first reads an entry that
# gives no kind.  A reader that a `kind` value chooses takes `kind` as a key.
def _matrix_operator(ctx: RunContext, name, space, entries) -> Entry:
    dim = ctx.space_dim(space)
    rows = read_rows(entries, f"operator {name!r}")
    _require(len(rows) == len(rows[0]) == dim, f"operator {name!r} does not match space dim {dim}")
    return Entry(dim, space, lambda: conecalc.LinearOperator(space, rows))


def _identity_operator(ctx: RunContext, name, kind, space) -> Entry:
    dim = ctx.space_dim(space)
    return Entry(dim, space, lambda: conecalc.identity(space, dim))


def _orthant_cone(ctx: RunContext, name, space, kind="orthant") -> Entry:
    dim = ctx.space_dim(space)
    return Entry(dim, space, lambda: conecalc.orthant(space, dim))


def _tensor_cone(ctx: RunContext, name, kind, parts) -> Entry:
    _require(isinstance(parts, list) and len(parts) >= 2,
             f"tensor cone {name!r} needs >= 2 parts")
    cones = [ctx.cone(part) for part in parts]
    dim = math.prod(cone.dim for cone in cones)
    _require(dim <= DIM_CAP, f"cone {name!r}: tensor dimension {dim} exceeds cap {DIM_CAP}")
    return Entry(dim, "*".join(cone.space for cone in cones),  # as `numerics.product_space`
                 lambda: functools.reduce(conecalc.tensor_cone, [cone.value for cone in cones]))


def _explicit_cone(ctx: RunContext, name, kind, space, generators) -> Entry:
    dim = ctx.space_dim(space)
    _require(isinstance(generators, list) and len(generators) == dim,
             f"cone {name!r}: needs {dim} generators, one per dimension")
    rows = read_rows(generators, f"cone {name!r}")
    _require(len(rows[0]) == dim, f"cone {name!r}: each generator needs {dim} entries")
    return Entry(dim, space, lambda: conecalc.SelfDualCone(space, tuple(zip(*rows))))  # columns


def _isometry_embedding(ctx: RunContext, name, from_space, to_space, matrix,
                        kind="isometry") -> Entry:
    rows = read_rows(matrix, f"embedding {name!r}")
    _require((len(rows), len(rows[0])) == (ctx.space_dim(to_space), ctx.space_dim(from_space)),
             f"embedding {name!r} has mismatched shape")
    return Entry(len(rows), to_space, lambda: conecalc.Embedding(from_space, to_space, rows))


def _identity_embedding(ctx: RunContext, name, kind, space) -> Entry:
    dim = ctx.space_dim(space)
    return Entry(dim, space, lambda: conecalc.identity_embedding(space, dim))


def _append_vector_embedding(ctx: RunContext, name, kind, from_space, to_space,
                             vector) -> Entry:
    vec = read_vector(vector, f"embedding {name!r}")
    dim = ctx.space_dim(from_space)
    _require(ctx.space_dim(to_space) == dim * len(vec),
             f"embedding {name!r}: to_space dim must be {dim * len(vec)}")
    return Entry(dim * len(vec), to_space,
                 lambda: conecalc.append_factor_embedding(from_space, to_space, dim, vec))


_OPERATORS = {None: _matrix_operator, "identity": _identity_operator}
_CONES = {"orthant": _orthant_cone, "tensor": _tensor_cone, "explicit": _explicit_cone}
_EMBEDDINGS = {"isometry": _isometry_embedding, "identity": _identity_embedding,
               "append_vector": _append_vector_embedding}


def _tolerances(default=DEFAULT_TOL) -> float:
    tol = _finite(default, "tolerances.default")
    _require(0 < tol < TOL_LIMIT, f"tolerances.default must be above 0 and below 1/sqrt(2), "
                                  f"got {default!r}")
    return tol


def _top_level(version, task, params={}, spaces={}, operators=[], cones=[], embeddings=[],
               tolerances={}) -> tuple[RunContext, str, dict]:
    """The top level of a config: the context its registries read to, its
    task and the task's params, read next by the task's reader."""
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


def _one_dimension(*entries) -> None:
    """Refuse (role, id, Entry) triples, the objects a task pairs, whose
    dimensions differ: the line names the first and the first that differs
    from it."""
    (role, name, first), *rest = entries
    for other, other_name, entry in rest:
        _require(entry.dim == first.dim, f"{role} {name!r} (dim {first.dim}) and {other} "
                                         f"{other_name!r} (dim {entry.dim}) differ in dimension")


def _one_space(*entries) -> None:
    """Refuse (role, id, Entry) triples whose spaces differ in name, where
    the library pairs the objects by that name: an operator and its cone
    (`SelfDualCone._check_operator`), and H0 and X
    (`LinearOperator._check_same_space`).  The line names the first and the
    first on another space."""
    (role, name, first), *rest = entries
    for other, other_name, entry in rest:
        _require(entry.space == first.space, f"{role} {name!r} on {first.space!r} and {other} "
                                             f"{other_name!r} on {entry.space!r} differ in space")


# Each task's reader returns its run, which reads the objects of the entries
# it looked up once `RunContext.build` has made them.
def _task_classify(ctx: RunContext, operator, cone):
    op, p = ctx.operator(operator), ctx.cone(cone)
    _one_dimension(("operator", operator, op), ("cone", cone, p))
    _one_space(("operator", operator, op), ("cone", cone, p))

    def run():
        report = conecalc.classify(op.value, p.value, ctx.tol)
        payload = report.to_payload()
        if report.preserving:
            payload["ergodicity"] = conecalc.is_ergodic(op.value, p.value, ctx.tol).to_payload()
        return True, payload
    return run


def _task_mu(ctx: RunContext, hamiltonian, observable, cone):
    h, o, p = ctx.operator(hamiltonian), ctx.operator(observable), ctx.cone(cone)
    _one_dimension(("hamiltonian", hamiltonian, h), ("observable", observable, o),
                   ("cone", cone, p))
    _one_space(("hamiltonian", hamiltonian, h), ("cone", cone, p))
    return lambda: (True, conecalc.good_quantum_number(h.value, o.value, p.value,
                                                       ctx.tol).to_payload())


def _chain_node(ctx: RunContext, hamiltonian, cone):
    h, p = ctx.operator(hamiltonian), ctx.cone(cone)
    _one_dimension(("hamiltonian", hamiltonian, h), ("cone", cone, p))
    _one_space(("hamiltonian", hamiltonian, h), ("cone", cone, p))
    return h, p


def _task_chain(ctx: RunContext, nodes, embeddings=[], observable=None):
    _require(isinstance(nodes, list) and nodes, "chain needs a list of nodes")
    pairs = [_read(f"chain node {j}", node, _chain_node, ctx) for j, node in enumerate(nodes)]
    _require(isinstance(embeddings, list),
             f"chain embeddings must be a list of embedding ids, got {embeddings!r}")
    _require(len(embeddings) == len(pairs) - 1,
             "need exactly one embedding per consecutive node pair")
    links = [ctx.embedding(name) for name in embeddings]
    o = None if observable is None else ctx.operator(observable)

    def run():
        chain = conecalc.ArrowChain(tuple(conecalc.ChainNode(h.value, p.value) for h, p in pairs),
                                    tuple(link.value for link in links))
        payload: dict = {"nodes": len(chain.nodes)}
        if o is None:
            report = conecalc.verify_chain(chain, ctx.tol)
        else:
            # the links, then the quantum numbers; a failed link stays a LinkFailed, as
            # verify_chain raises it
            report, mu_report = conecalc.stability._chain_pass(chain, o.value, ctx.tol)
            payload["quantum_numbers"] = mu_report.to_payload()
        payload.update(report.to_payload())
        return True, payload
    return run


def _task_trotter(ctx: RunContext, h, h_prime, cone, s=1.0, t=1.0, beta=1.0,
                  n_values=[1, 2, 4, 8, 16, 32, 64, 128, 256]):
    named = [("h", h, ctx.operator(h)), ("h_prime", h_prime, ctx.operator(h_prime)),
             ("cone", cone, ctx.cone(cone))]
    for check in (_one_dimension, _one_space):  # each operator against the cone
        check(named[2], *named[:2])
    h, h_prime, cone = (entry for *_, entry in named)
    _require(isinstance(n_values, list) and all(_is_int(n) and n >= 1 for n in n_values),
             "n_values must be positive integers")
    _require(len(n_values) >= 2 and all(a < b for a, b in zip(n_values, n_values[1:])),
             "n_values must be at least two strictly increasing integers")
    _require(all(n <= sys.float_info.max for n in n_values),
             "n_values must not exceed the largest float")
    s, t, beta = _finite(s, "trotter s"), _finite(t, "trotter t"), _finite(beta, "trotter beta")

    def run():
        report = conecalc.trotter_verify(h.value, h_prime.value, s, t, beta, tuple(n_values),
                                         cone.value, ctx.tol)
        return report.ok, report.to_payload()
    return run


def _lattice_factor(ctx: RunContext, operator):
    return ctx.operator(operator)


def _task_lattice(ctx: RunContext, h0, cone, observable, x, factors):
    _require(isinstance(factors, list) and factors, "lattice needs a factors list")
    # 2^ell > DIM_CAP exactly when ell > DIM_CAP.bit_length() - 1; no power is formed
    _require(len(factors) < DIM_CAP.bit_length(), f"lattice of {len(factors)} slots has "
                                                   f"2^{len(factors)} nodes, over cap {DIM_CAP}")
    ys = [_read(f"lattice factor {mu}", factor, _lattice_factor, ctx)
          for mu, factor in enumerate(factors, start=1)]
    h, p, o, c = ctx.operator(h0), ctx.cone(cone), ctx.operator(observable), ctx.operator(x)
    _one_dimension(("h0", h0, h), ("cone", cone, p), ("observable", observable, o), ("x", x, c))
    _one_space(("h0", h0, h), ("cone", cone, p), ("x", x, c))

    def run():
        spec = conecalc.LatticeSpec(h0=h.value, cone=p.value, observable=o.value, x=c.value,
                                    factors=tuple((y.dim, y.value) for y in ys))
        diagram = conecalc.build_lattice(spec, ctx.tol)
        payload = {"assumptions": diagram.assumptions.to_payload(), "diagram": diagram.to_payload()}
        return True, payload, {"hasse.dot": conecalc.hasse_export(diagram)}
    return run


def _task_richness(ctx: RunContext, hamiltonian, cone, observable, depth=5):
    h, p, o = ctx.operator(hamiltonian), ctx.cone(cone), ctx.operator(observable)
    _one_dimension(("hamiltonian", hamiltonian, h), ("cone", cone, p),
                   ("observable", observable, o))
    _one_space(("hamiltonian", hamiltonian, h), ("cone", cone, p))
    _require(_is_int(depth) and depth >= 0, "depth must be a nonnegative integer")

    def run():
        chain = conecalc.extension_tower(h.value, p.value, o.value, depth, ctx.tol)
        report = conecalc.quantum_number_along_chain(chain, o.value, ctx.tol)
        return True, {"depth": depth, "dims": [node.hamiltonian.dim for node in chain.nodes],
                      "quantum_numbers": report.to_payload()}
    return run


def _task_weak_equiv(ctx: RunContext, h2, h_star, env_cone):
    h2, h_star, env_cone = ctx.operator(h2), ctx.operator(h_star), ctx.cone(env_cone)
    _require(h2.dim == h_star.dim * env_cone.dim, "h2 dim must equal dim(h_star) * dim(env_cone)")

    def run():
        args = h2.value, h_star.value, env_cone.value
        equiv = conecalc.is_decoupled_extension(*args, ctx.tol)
        factor = conecalc.ground_state_factorizes(*args, tol=ctx.tol)
        return True, {"equivalence": equiv.to_payload(), "weak": factor.to_payload()}
    return run


def _task_spin_demo(ctx: RunContext, sites, sublattice_a, sector_m=0.0):
    _require(_is_int(sites) and sites >= 2, "spin-demo needs sites >= 2")
    _require(sites <= SITE_CAP, f"spin-demo: {sites} sites exceed the {SITE_CAP}-site cap")
    a = sublattice_a
    _require(isinstance(a, list) and a and all(_is_int(s) and 1 <= s <= sites for s in a),
             f"spin-demo sublattice_a must be a non-empty list of sites 1..{sites}, got {a!r}")
    _require(len(set(a)) == len(a), f"spin-demo sublattice_a repeats a site: {a!r}")
    m = _finite(sector_m, "spin-demo sector_m")

    def run():
        b = tuple(s for s in range(1, sites + 1) if s not in a)
        report = conecalc.verify_mlm(conecalc.SpinSystem(sites, tuple(a), b), m, ctx.tol)
        return report.ok, report.to_payload()
    return run


# A stability member's recipe reads to the build of its chain, which
# `_task_stability` runs once every member is read; ``star`` is the
# (role, id, Entry) of the class's h_star.
def _tower_recipe(ctx: RunContext, star, type, depth=1):
    _require(_is_int(depth) and depth >= 1, "tower depth must be >= 1")
    return lambda h_star, cone, o: conecalc.extension_tower(h_star, cone, o, depth, ctx.tol)


def _coupling_recipe(ctx: RunContext, star, type, x, y):
    _one_dimension(star, ("x", x, ctx.operator(x)))
    _one_space(star, ("x", x, ctx.operator(x)))
    x, y = ctx.operator(x), ctx.operator(y)
    return lambda h_star, cone, o: conecalc.stability._KroneckerFamily(
        h_star, cone, x.value, (y.value.mat,), (y.value.space,)).chain()


_RECIPES = {"tower": _tower_recipe, "coupling": _coupling_recipe}


def _stability_member(ctx: RunContext, star, id, recipe):
    _require(isinstance(id, str), f"stability member ids must be strings, got {id!r}")
    _require(isinstance(recipe, dict),
             f"stability member recipe must be an object, got {recipe!r}")
    kind = recipe.get("type")
    _require(kind in tuple(_RECIPES), f"unknown stability recipe type {kind!r}")
    return id, _read(f"stability member {id!r} recipe", recipe, _RECIPES[kind], ctx, star)


def _task_stability(ctx: RunContext, h_star, cone, observable, members=[]):
    h, p, o = ctx.operator(h_star), ctx.cone(cone), ctx.operator(observable)
    star = ("h_star", h_star, h)
    _one_dimension(star, ("cone", cone, p), ("observable", observable, o))
    _one_space(star, ("cone", cone, p))
    _require(isinstance(members, list), "members must be a list")
    builds = {}
    for j, member in enumerate(members):
        member_id, build = _read(f"stability member {j}", member, _stability_member, ctx, star)
        _require(member_id not in builds, f"duplicate stability member id {member_id!r}")
        builds[member_id] = build

    def run():
        base = h.value, p.value, o.value
        record = conecalc.StabilityClassRecord.for_base(h_star, *base, ctx.tol)
        for member_id, build in builds.items():
            record.add_member(member_id, build(*base), ctx.tol)
        return True, record.to_payload()
    return run


_RUNNERS = {"classify": _task_classify, "mu": _task_mu, "chain": _task_chain,
            "lattice": _task_lattice, "trotter": _task_trotter, "spin-demo": _task_spin_demo,
            "richness": _task_richness, "weak-equiv": _task_weak_equiv,
            "stability": _task_stability}
TASKS = tuple(_RUNNERS)


def read_config(config) -> tuple[str, RunContext, object]:
    """The task of a parsed config, its context as read and the task's run,
    which reads the context once `ctx.build()` has built it.  A config that
    does not read is refused with a SchemaError."""
    _require(isinstance(config, dict), "config must be a JSON object")
    ctx, task, params = _read("config", config, _top_level)
    return task, ctx, _read(f"{task} params", params, _RUNNERS[task], ctx)
