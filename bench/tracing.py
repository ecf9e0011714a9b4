"""Spans around conecalc's public functions, installed from outside the
package, and the per-layer metrics derived from them.

Each wrapped call records (name, start, end, parent span, op id, exception).
Because ``from .x import f`` copies the binding, a function is replaced in
every loaded conecalc module that holds it, not only where it is defined.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "jsonio", "numerics", "cones", "positivity", "semigroup", "inheritance",
          "stability", "lattice", "spin")

# span name -> the (module, attribute) pairs it covers; "Class.method" for methods
TRACED = {
    "cli.run_config": (("cli", "run_config"),),
    "cli.emit": (("cli", "emit"),),
    "jsonio.canonical_dumps": (("jsonio", "canonical_dumps"),),
    "jsonio.matrix_from_json": (("jsonio", "matrix_from_json"),),
    "semigroup.trotter_verify": (("semigroup", "trotter_verify"),),
    "positivity.generates_improving_semigroup": (("positivity", "generates_improving_semigroup"),),
    "positivity.is_ergodic": (("positivity", "is_ergodic"),),
    "positivity.classify": (("positivity", "classify"),),
    "positivity.ground_state": (("positivity", "ground_state"),),
    "numerics.eig": (("numerics", "hermitian_eig"), ("numerics", "op_exp"),
                     ("numerics", "op_exp_unitary")),
    "numerics.norm": (("numerics", "LinearOperator.norm"),),
    "numerics.kron": (("numerics", "kron"),),
    "cones.operator_coords": (("cones", "SelfDualCone.operator_coords"),),
    "cones.tensor_cone": (("cones", "tensor_cone"),),
    "inheritance.inherits_positivity": (("inheritance", "inherits_positivity"),),
    "inheritance.check_arrow": (("inheritance", "check_arrow"),),
    "inheritance.ground_overlap": (("inheritance", "ground_overlap"),),
    "inheritance.compress": (("inheritance", "Embedding.compress"),),
    "stability.good_quantum_number": (("stability", "good_quantum_number"),),
    "stability.commutes_with_observable": (("stability", "commutes_with_observable"),),
    "stability.quantum_number_along_chain": (("stability", "quantum_number_along_chain"),),
    "stability.extension_tower": (("stability", "extension_tower"),),
    "lattice.verify_spec": (("lattice", "verify_spec"),),
    "lattice.build_node": (("lattice", "build_node"),),
    "lattice.build_lattice": (("lattice", "build_lattice"),),
    "spin.mlm_hamiltonian": (("spin", "mlm_hamiltonian"),),
    "spin.total_spin": (("spin", "total_spin"),),
    "spin.m_sector": (("spin", "m_sector"),),
    "spin.marshall_cone": (("spin", "marshall_cone"),),
    "spin.verify_mlm": (("spin", "verify_mlm"),),
}

CALLS = ("positivity.generates_improving_semigroup", "positivity.is_ergodic",
         "positivity.classify", "positivity.ground_state", "numerics.eig", "numerics.norm",
         "cones.operator_coords", "inheritance.inherits_positivity", "inheritance.check_arrow",
         "stability.good_quantum_number", "stability.commutes_with_observable",
         "lattice.build_node")
SELF_TIMES = ("cli.run_config", "cli.emit", "jsonio.canonical_dumps", "jsonio.matrix_from_json",
              "semigroup.trotter_verify", "positivity.generates_improving_semigroup",
              "positivity.is_ergodic", "positivity.classify", "positivity.ground_state",
              "numerics.eig", "numerics.norm", "numerics.kron", "cones.operator_coords",
              "cones.tensor_cone", "inheritance.inherits_positivity", "inheritance.ground_overlap",
              "inheritance.compress", "stability.good_quantum_number",
              "stability.commutes_with_observable", "stability.quantum_number_along_chain",
              "stability.extension_tower", "lattice.verify_spec", "lattice.build_node",
              "spin.mlm_hamiltonian", "spin.total_spin", "spin.m_sector", "spin.marshall_cone")
DERIVED = {  # name -> unit
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "positivity.reach_per_node": "ratio",
    "numerics.eig_per_node": "ratio",
    "inheritance.check_arrow_per_link": "ratio",
    "lattice.edge_phase_s": "s",
    "lattice.nodes": "count",
    "lattice.edges": "count",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update(DERIVED)
    units.update({f"{layer}.failures": "count" for layer in LAYERS})
    return dict(sorted(units.items()))


class Tracer:
    """Records one span per call of every function in TRACED."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, exc type, exc id]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = ""

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5], span[6] = type(exc).__name__, id(exc)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"conecalc.{layer}") for layer in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "conecalc" or n.startswith("conecalc."))]
        for name, targets in TRACED.items():
            for module_name, attr in targets:
                owner = modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def root(self, op_id: str):
        """Give one op its root span; spans inside it carry the op's id."""
        self.op_id = op_id
        span = ["op", perf_counter(), 0.0, -1, op_id, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()


def dump_spans(spans: list[list], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def merge_spans(chunks: list[list[list]]) -> list[list]:
    """Concatenate span lists recorded separately, re-basing parent indices."""
    merged: list[list] = []
    for chunk in chunks:
        base = len(merged)
        for span in chunk:
            span = list(span)
            if span[3] >= 0:
                span[3] += base
            merged.append(span)
    return merged


def layer_metrics(spans: list[list], ops) -> dict[str, float]:
    """Per-layer counts, self times, ratios and failures of one traced pass.

    ``ops`` are the pass's ops: their expected verdicts decide which
    exceptions count as failures, and the passing ones give the node and
    link counts behind the per-node and per-link ratios.
    """
    by_id = {op.id: op for op in ops}
    durations = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += durations[i]
            children[s[3]].append(i)

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    positive_calls: dict[str, int] = defaultdict(int)
    failures = {layer: 0 for layer in LAYERS}
    edge_phase, edges = 0.0, 0
    for i, (name, _, _, parent, op_id, exc_name, exc_id) in enumerate(spans):
        if name == "op":
            continue
        calls[name] += 1
        self_s[name] += durations[i] - child_time[i]
        op = by_id.get(op_id)
        if op is not None and op.positive:
            positive_calls[name] += 1
        if exc_name is not None and not any(spans[c][6] == exc_id for c in children[i]):
            if op is None or exc_name not in op.predicted_exceptions():
                failures[name.split(".")[0]] += 1
        if name == "lattice.build_lattice":
            edge_phase += durations[i] - sum(
                durations[c] for c in children[i]
                if spans[c][0] in ("lattice.verify_spec", "lattice.build_node"))
        if name == "inheritance.ground_overlap" and parent >= 0 \
                and spans[parent][0] == "lattice.build_lattice":
            edges += 1

    nodes = sum(op.nodes for op in ops if op.positive)
    links = sum(op.links for op in ops if op.positive)

    def per(count, base):
        return count / base if base else 0.0

    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = calls[name]
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = self_s[name]
    out["positivity.reach_per_node"] = per(
        positive_calls["positivity.generates_improving_semigroup"]
        + positive_calls["positivity.is_ergodic"], nodes)
    out["numerics.eig_per_node"] = per(positive_calls["numerics.eig"], nodes)
    out["inheritance.check_arrow_per_link"] = per(positive_calls["inheritance.check_arrow"], links)
    out["lattice.edge_phase_s"] = edge_phase
    out["lattice.nodes"] = calls["lattice.build_node"]
    out["lattice.edges"] = edges
    for layer, count in failures.items():
        out[f"{layer}.failures"] = count
    return out


def per_op_counts(spans: list[list], names=CALLS) -> dict[str, dict[str, int]]:
    """Call counts of every op, keyed by op id, for structural checks."""
    counts: dict[str, dict[str, int]] = defaultdict(lambda: {n: 0 for n in names})
    for span in spans:
        if span[0] in names:
            counts[span[4]][span[0]] += 1
    return dict(counts)


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(conecalc import, scipy share of it) in seconds from ``-X importtime``.

    The tree is printed children first; an entry's depth is its indent.  The
    conecalc time is the cumulative time of the top-level conecalc entries;
    the scipy time sums the scipy entries not nested in another scipy entry.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = sum(us for depth, us, name in rows if depth == 0 and name.split(".")[0] == "conecalc")
    scipy_us, stack = 0, []
    for depth, us, name in reversed(rows):   # parents before their children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(s for _, s in stack):
            scipy_us += us
        stack.append((depth, is_scipy))
    return total / 1e6, scipy_us / 1e6
