"""Every bad config, written once as data, and the one check of how its run ends.

A case is a base config, a shipped one named by its stem or inline JSON text,
with edits that are data: ("set", path, value), ("del", path) and
("append", path, value) change the parsed config at a dotted path such as
"params.members.0.id"; ("replace", old, new) then changes the first `old` in
its JSON text, for what `json` cannot write (NaN, a repeated key, 1e400).
The case names the stage that ends it and how it must end:

- `read`: refused by the standard-library reader, before any build;
- `build`: refused while its registries are built, with numpy;
- `run`: it runs, and writes a report.

A refused case exits 2 with one `conecalc: schema error: ` line, the whole of
`line` or starting with `prefix`, no Traceback and no output directory.  A
`fail` case exits 1 with a fail report whose payload is exactly that
error_type and reason; a `holds` case exits 0 with a report holding that
value at that path.  A case that runs prints nothing on stderr, file
descriptor 2 included, where LAPACK would complain.  Every warning is an
error.

`tests/test_cli.py` runs each case in-process with pytest; running this file,
`python -W error tests/bad_configs.py`, runs every case in one interpreter
against the installed package, importing only the standard library and
`conecalc`, and checks that the `read` cases, run first, loaded neither numpy
nor a verifier module.  To add a case, append one `case(...)` to `CASES`.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import operator
import os
import sys
import tempfile
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PREFIX = "conecalc: schema error: "
READ_MODULES = {"conecalc.cli", "conecalc.errors", "conecalc.spec"}


@dataclass(frozen=True)
class Case:
    id: str
    base: str
    edits: tuple = ()
    stage: str = "read"
    line: str | None = None
    prefix: str | None = None
    fail: tuple[str, str] | None = None
    holds: tuple[str, object] | None = None


def case(id: str, base: str, *edits: tuple, **ending) -> Case:
    return Case(id, base, edits, **ending)


ROOT_HALF = 0.7071067811865476
EXPLICIT_P0 = (("set", "cones.0.kind", "explicit"),)
AS_ISOMETRY = (("set", "embeddings.0.kind", "isometry"), ("del", "embeddings.0.vector"))
NOT_FINITE = "the exponential exp(-beta*(sH + tH')) is not finite"
UNDERFLOWS = "the exponential exp(-beta*(sH + tH')) underflows to zero"
N_VALUES = "n_values must be at least two strictly increasing integers"
ECHOED_IDS = ("a" + "".join(map(chr, range(0x20))) + "b", "a\ud800b", "a\u0001b", "\ud800")
SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}

CASES = [
    # numbers that are not finite, or not numbers, in an entry or the tolerance
    case("nan-token", "classify_flip", ("replace", "[[0, 1]", "[[NaN, 1]"),
         line="config contains the non-finite number NaN"),
    case("infinity-token", "classify_flip", ("replace", "[[0, 1]", "[[Infinity, 1]"),
         line="config contains the non-finite number Infinity"),
    case("minus-infinity-token", "classify_flip", ("replace", "[[0, 1]", "[[-Infinity, 1]"),
         line="config contains the non-finite number -Infinity"),
    case("overflowing-entry", "classify_flip", ("replace", "[[0, 1]", "[[1e400, 1]"),
         line="operator 'flip': matrix entry inf is not finite"),
    case("overflowing-imaginary-part", "classify_flip",
         ("replace", "[[0, 1]", "[[[0, -1e400], 1]"),
         line="operator 'flip': matrix entry [0, -inf] is not finite"),
    case("overflowing-integer", "classify_flip", ("replace", "[[0, 1]", f"[[{'9' * 400}, 1]"),
         prefix="operator 'flip': matrix entry 999"),
    case("tolerance-abc", "classify_flip", ("set", "tolerances", {"default": "abc"}),
         line="tolerances.default must be a finite number, got 'abc'"),
    case("tolerance-abc-mu", "mu_flip", ("set", "tolerances", {"default": "abc"}),
         line="tolerances.default must be a finite number, got 'abc'"),
    case("tolerance-bool", "classify_flip", ("set", "tolerances", {"default": True}),
         line="tolerances.default must be a finite number, got True"),
    case("tolerance-negative", "classify_flip", ("set", "tolerances", {"default": -1}),
         line="tolerances.default must be above 0 and below 1/sqrt(2), got -1"),
    case("tolerance-zero", "classify_flip", ("set", "tolerances", {"default": 0}),
         line="tolerances.default must be above 0 and below 1/sqrt(2), got 0"),
    case("tolerance-overflow", "classify_flip", ("set", "tolerances", {"default": "@"}),
         ("replace", '"@"', "1e400"), line="tolerances.default must be a finite number, got inf"),
    case("tolerance-at-inheritance-limit", "classify_flip",
         ("set", "tolerances", {"default": ROOT_HALF}),
         line=f"tolerances.default must be above 0 and below 1/sqrt(2), got {ROOT_HALF}"),
    case("tolerance-past-inheritance-limit", "classify_flip",
         ("set", "tolerances", {"default": 0.8}),
         line="tolerances.default must be above 0 and below 1/sqrt(2), got 0.8"),
    # spin-demo params
    *(case(f"spin-{id}", "spin_demo_n4", ("set", f"params.{key}", value), prefix="spin-demo ")
      for id, key, value in [
          ("sector-abc", "sector_m", "abc"), ("sector-bool", "sector_m", True),
          ("site-float", "sublattice_a", [1.0, 2]), ("site-string", "sublattice_a", ["1", 2]),
          ("site-list", "sublattice_a", [[1], 2]), ("site-zero", "sublattice_a", [0, 2]),
          ("site-past-last", "sublattice_a", [1, 5]), ("site-bool", "sublattice_a", [True, 2]),
          ("site-repeated", "sublattice_a", [1, 1, 2]),
          ("sublattices-overlap", "sublattice_b", [2, 3, 4]),
          ("sublattice-b-not-list", "sublattice_b", 3),
          ("sublattices-miss-a-site", "sublattice_b", [3]),
          # b is the complement of a: a config that names it says nothing more
          ("sublattice-b-the-complement", "sublattice_b", [3, 4]),
          ("sites-float", "sites", 4.0)]),
    case("spin-sector-overflow", "spin_demo_n4",
         ("replace", '"sector_m": 0', '"sector_m": 1e400'), prefix="spin-demo "),
    # a number of the wrong type is named
    case("trotter-s-string", "trotter_pair", ("set", "params.s", "abc"), prefix="trotter s"),
    case("trotter-s-bool", "trotter_pair", ("set", "params.s", True), prefix="trotter s"),
    case("trotter-t-list", "trotter_pair", ("set", "params.t", [1]), prefix="trotter t"),
    case("trotter-beta-nan-string", "trotter_pair", ("set", "params.beta", "nan"),
         prefix="trotter beta"),
    case("trotter-beta-overflow", "trotter_pair", ("replace", '"beta": 1.0', '"beta": 1e400'),
         prefix="trotter beta"),
    case("trotter-n-values-bool", "trotter_pair", ("set", "params.n_values.0", True),
         prefix="n_values"),
    case("richness-depth-bool", "richness_depth5", ("set", "params.depth", True), prefix="depth"),
    case("richness-depth-negative", "richness_depth5", ("set", "params.depth", -1),
         line="depth must be a nonnegative integer"),
    case("space-dim-bool", "richness_depth5", ("set", "spaces.base", True), prefix="space"),
    case("tower-depth-bool", "stability_demo", ("set", "params.members.0.recipe.depth", True),
         prefix="tower depth"),
    case("tower-depth-0-second-member", "stability_demo",
         ("set", "params.members.1.recipe", {"type": "tower", "depth": 0}),
         line="tower depth must be >= 1"),
    # n_values that compare no two runs; every n past the largest float
    *(case(f"trotter-n-values-{id}", "trotter_pair", ("set", "params.n_values", n_values),
           line=N_VALUES)
      for id, n_values in [("empty", []), ("one", [1]), ("repeated", [2, 2]),
                           ("decreasing", [4, 2])]),
    case("trotter-n-past-the-largest-float", "trotter_pair",
         ("set", "params.n_values", [1, 2 ** 1100]),
         line="n_values must not exceed the largest float"),
    # cones and embeddings; orthonormality and norms need floats, so the build decides them
    case("explicit-not-orthonormal", "chain_two_level", *EXPLICIT_P0,
         ("set", "cones.0.generators", [[1, 0], [1, 1]]), stage="build",
         line="cone 'P0': generators are not orthonormal"),
    case("explicit-too-few-generators", "chain_two_level", *EXPLICIT_P0,
         ("set", "cones.0.generators", [[1, 0]]), prefix="cone 'P0'"),
    case("explicit-generators-too-long", "chain_two_level", *EXPLICIT_P0,
         ("set", "cones.0.generators", [[1, 0, 0], [0, 1, 0]]),
         line="cone 'P0': each generator needs 2 entries"),
    case("explicit-ragged-generators", "chain_two_level", *EXPLICIT_P0,
         ("set", "cones.0.generators", [[1, 0], [0, 1, 0]]),
         line="cone 'P0': ragged rows: row 1 has length 3, row 0 has length 2"),
    case("explicit-generators-not-a-list", "chain_two_level", *EXPLICIT_P0,
         ("set", "cones.0.generators", 5), prefix="cone 'P0'"),
    case("explicit-unknown-space", "chain_two_level", *EXPLICIT_P0,
         ("set", "cones.0.space", "nowhere"), ("set", "cones.0.generators", [[1, 0], [0, 1]]),
         prefix="unknown space id"),
    case("append-vector-not-normalized", "chain_two_level",
         ("set", "embeddings.0.vector", [1, 1]), stage="build", prefix="embedding 'up'"),
    # v^* v - 1 = 1.6e-10 is past ISOMETRY_TOL, though |v| - 1 = 8e-11 is not:
    # the line is about the vector, not about an isometry the config never gave
    case("append-vector-square-norm", "chain_two_level",
         ("set", "embeddings.0.vector", [1.00000000008, 0]), stage="build",
         line="embedding 'up': appended vector must be normalized"),
    case("append-vector-square-norm-imaginary", "chain_two_level",
         ("set", "embeddings.0.vector", [[0, 1.00000000008], 0]), stage="build",
         line="embedding 'up': appended vector must be normalized"),
    case("isometry-not-orthonormal", "chain_two_level", *AS_ISOMETRY,
         ("set", "embeddings.0.matrix", [[1, 0], [1, 0], [0, 1], [0, 0]]), stage="build",
         line="embedding 'up': isometry columns are not orthonormal"),
    # the norm or Gram product overflows; that is read as a refusal, with no warning
    case("append-vector-1e200", "chain_two_level",
         ("set", "embeddings.0.vector", [1e200, ROOT_HALF]), stage="build",
         line="embedding 'up': appended vector must be normalized"),
    case("isometry-1e200", "chain_two_level", *AS_ISOMETRY, ("set", "embeddings.0.matrix",
         [[1e200, 0], [ROOT_HALF, 0], [0, ROOT_HALF], [0, ROOT_HALF]]), stage="build",
         line="embedding 'up': isometry columns are not orthonormal"),
    case("explicit-generators-1e200", "lattice_explicit",
         ("set", "cones.0.generators.0.0", 1e200), stage="build",
         line="cone 'Q': generators are not orthonormal"),
    # a config is read whole before its cones are built: with a non-orthonormal
    # cone, an unknown params key or a bad tolerance is what is reported
    case("read-whole-params-key", "chain_two_level", *EXPLICIT_P0,
         ("set", "cones.0.generators", [[1, 0], [1, 1]]), ("replace", '"nodes"', '"nodez"'),
         line="chain params: unknown key 'nodez'; it takes 'nodes', 'embeddings', 'observable'"),
    case("read-whole-tolerance", "chain_two_level", *EXPLICIT_P0,
         ("set", "cones.0.generators", [[1, 0], [1, 1]]), ("set", "tolerances", {"default": 2}),
         line="tolerances.default must be above 0 and below 1/sqrt(2), got 2"),
    # a tensor cone past DIM_CAP, refused before its signs are formed
    *(case(f"tensor-cone-{len(parts)}x2048", "classify_flip", ("set", "spaces.big", 2048),
           ("append", "cones", {"name": "A", "space": "big"}),
           ("append", "cones", {"name": "T", "kind": "tensor", "parts": parts}),
           ("set", "params.cone", "T"),
           line=f"cone 'T': tensor dimension {2048 ** len(parts)} exceeds cap 4096")
      for parts in (["A", "A"], ["A", "A", "A"])),
    # objects a task pairs, on spaces of different dimensions, refused before numpy loads
    case("classify-cone-of-another-dimension", "classify_flip",
         ("append", "cones", {"name": "T", "kind": "tensor", "parts": ["P", "P"]}),
         ("set", "params.cone", "T"),
         line="operator 'flip' (dim 2) and cone 'T' (dim 4) differ in dimension"),
    case("mu-observable-of-another-dimension", "mu_flip", ("set", "spaces.big", 3),
         ("set", "operators.1", {"name": "obs", "space": "big",
                                 "entries": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}),
         line="hamiltonian 'h' (dim 2) and observable 'obs' (dim 3) differ in dimension"),
    case("lattice-x-of-another-dimension", "lattice_ell3", ("set", "params.x", "y2"),
         line="h0 'h0' (dim 2) and x 'y2' (dim 3) differ in dimension"),
    case("richness-cone-of-another-dimension", "richness_depth5", ("set", "spaces.big", 3),
         ("append", "cones", {"name": "Q", "kind": "orthant", "space": "big"}),
         ("set", "params.cone", "Q"),
         line="hamiltonian 'h' (dim 2) and cone 'Q' (dim 3) differ in dimension"),
    case("stability-coupling-x-of-another-dimension", "stability_demo", ("set", "spaces.big", 3),
         ("append", "operators", {"name": "three", "space": "big", "kind": "identity"}),
         ("set", "params.members.1.recipe.x", "three"),
         line="h_star 'h_star' (dim 2) and x 'three' (dim 3) differ in dimension"),
    # an operator and its cone, or H0 and X, on spaces of one dimension and two names
    case("classify-cone-on-another-space", "classify_flip", ("set", "spaces.other", 2),
         ("append", "cones", {"name": "Q", "kind": "orthant", "space": "other"}),
         ("set", "params.cone", "Q"),
         line="operator 'flip' on 'base' and cone 'Q' on 'other' differ in space"),
    case("lattice-x-on-another-space", "lattice_ell3", ("set", "spaces.other", 2),
         ("append", "operators", {"name": "x2", "space": "other", "kind": "identity"}),
         ("set", "params.x", "x2"),
         line="h0 'h0' on 'base' and x 'x2' on 'other' differ in space"),
    # a chain node reads its Hamiltonian against its own cone, with or without links
    case("chain-node-on-a-cone-of-another-dimension", "chain_two_level",
         ("set", "params", {"nodes": [{"hamiltonian": "h0", "cone": "P1"}]}),
         line="hamiltonian 'h0' (dim 2) and cone 'P1' (dim 4) differ in dimension"),
    case("chain-node-on-a-cone-of-another-space", "chain_two_level", ("set", "spaces.other", 2),
         ("append", "cones", {"name": "Q", "kind": "orthant", "space": "other"}),
         ("set", "params.nodes.0.cone", "Q"),
         line="hamiltonian 'h0' on 'base' and cone 'Q' on 'other' differ in space"),
    case("trotter-cone-on-another-space", "trotter_pair", ("set", "spaces.other", 4),
         ("append", "cones", {"name": "Q", "kind": "orthant", "space": "other"}),
         ("set", "params.cone", "Q"),
         line="cone 'Q' on 'other' and h 'h' on 'base' differ in space"),
    case("space-one-past-the-cap", "classify_flip", ("set", "spaces.base", 4097),
         line="space 'base' dimension 4097 exceeds cap 4096"),
    case("space-identity-of-a-billion", "classify_flip", ("set", "spaces.base", 10 ** 9),
         ("set", "operators.0", {"name": "flip", "space": "base", "kind": "identity"}),
         line="space 'base' dimension 1000000000 exceeds cap 4096"),
    case("space-past-the-cap", '{"version": 1, "task": "classify", "spaces": {"a": 1000000000}, '
         '"operators": [{"name": "one", "space": "a", "kind": "identity"}], "cones": '
         '[{"name": "P", "kind": "orthant", "space": "a"}], "params": {"operator": "one", '
         '"cone": "P"}}', line="space 'a' dimension 1000000000 exceeds cap 4096"),
    # the two count caps: 2^13 lattice nodes, each of dimension 2, and spin sites
    # past the 12 whose 2^12 states fill the dimension cap
    case("lattice-13-one-dimensional-slots", "lattice_ell3", ("set", "spaces.e", 1),
         ("append", "operators", {"name": "zero", "space": "e", "entries": [[0]]}),
         ("set", "params.factors", [{"operator": "zero"}] * 13),
         line="lattice of 13 slots has 2^13 nodes, over cap 4096"),
    case("spin-13-sites", "spin_demo_n4", ("set", "params.sites", 13),
         line="spin-demo: 13 sites exceed the 12-site cap"),
    case("spin-a-million-sites", "spin_demo_n4", ("set", "params.sites", 10 ** 6),
         line="spin-demo: 1000000 sites exceed the 12-site cap"),
    # a bad entry or row names its operator, embedding or cone
    case("append-vector-cell-true", "chain_two_level",
         ("set", "embeddings.0.vector", [True, ROOT_HALF]),
         prefix="embedding 'up': matrix entry must be"),
    case("explicit-generator-cell-true", "lattice_explicit",
         ("set", "cones.0.generators.0.0", True), prefix="cone 'Q': matrix entry must be"),
    case("number-as-row", "classify_flip", ("set", "operators.0.entries", [5, 6]),
         line="operator 'flip': row 0 must be a list of entries, got 5"),
    case("ragged-rows", "classify_flip", ("set", "operators.0.entries", [[1, 2], [3]]),
         line="operator 'flip': ragged rows: row 1 has length 1, row 0 has length 2"),
    case("number-after-a-row", "classify_flip", ("set", "operators.0.entries", [[1, 2], 5]),
         line="operator 'flip': row 1 must be a list of entries, got 5"),
    # registries, names and ids, with no traceback
    case("registry-inline", '{"version": 1, "task": "classify", "operators": 5}',
         line="operators must be a list of operator entries"),
    *(case(f"{key}-not-a-list", "chain_two_level", ("set", key, value),
           prefix=f"{key} must be a list") for key, value in
      [("operators", 5), ("cones", 7), ("embeddings", 5)]),
    *(case(f"{kind}-name-a-list", "chain_two_level", ("set", f"{kind}s.0.name", [name]),
           prefix=f"{kind} names must be strings") for kind, name in
      [("operator", "h0"), ("cone", "P0"), ("embedding", "up")]),
    case("chain-embeddings-an-int", "chain_two_level", ("set", "params.embeddings", 5),
         prefix="chain embeddings must be a list"),
    case("chain-embeddings-null", "chain_two_level", ("set", "params.embeddings", None),
         prefix="chain embeddings must be a list"),
    case("chain-embeddings-a-one-letter-string", "chain_two_level",
         ("set", "embeddings.0.name", "u"), ("set", "params.embeddings", "u"),
         prefix="chain embeddings must be a list"),
    case("recipe-a-string", "stability_demo", ("set", "params.members.0.recipe", "tower"),
         prefix="stability member recipe must be an object"),
    case("member-id-a-list", "stability_demo", ("set", "params.members.0.id", ["x"]),
         prefix="stability member ids must be strings"),
    case("operator-name-repeated", "classify_flip",
         ("append", "operators", {"name": "flip", "space": "base", "kind": "identity"}),
         prefix="duplicate operator name 'flip'"),
    case("cone-name-repeated", "chain_two_level",
         ("append", "cones", SHIPPED["chain_two_level"]["cones"][0]),
         prefix="duplicate cone name 'P0'"),
    case("embedding-name-repeated", "chain_two_level",
         ("append", "embeddings", SHIPPED["chain_two_level"]["embeddings"][0]),
         prefix="duplicate embedding name 'up'"),
    case("member-id-repeated", "stability_demo", ("set", "params.members.1.id", "tower-depth-2"),
         prefix="duplicate stability member id 'tower-depth-2'"),
    case("unknown-operator", "mu_flip", ("set", "params.observable", "nope"),
         line="unknown operator id 'nope'"),
    case("unknown-cone", "classify_flip", ("set", "params.cone", "nope"),
         line="unknown cone id 'nope'"),
    case("lattice-no-factors", "lattice_ell3", ("set", "params.factors", []),
         line="lattice needs a factors list"),
    case("bad-version", "chain_two_level", ("set", "version", 2), line="config version must be 1"),
    # an unknown or missing key names its object; each of the first six once
    # ran as if the key were absent, and passed
    case("cone-generators-without-kind", "classify_flip",
         ("set", "cones", [{"name": "P", "space": "base", "generators": [[-1, 0], [0, -1]]}]),
         line="cone 'P': unknown key 'generators'; it takes 'name', 'space', 'kind'"),
    case("richness-depht", "richness_depth5", ("replace", '"depth": 5', '"depht": 1'),
         prefix="richness params: unknown key 'depht'"),
    case("config-tolerance", "classify_flip", ("set", "tolerance", 1e-6),
         prefix="config: unknown key 'tolerance'"),
    case("trotter-bta", "trotter_pair", ("replace", '"beta": 1.0', '"bta": 2.0'),
         prefix="trotter params: unknown key 'bta'"),
    case("spin-demo-sector", "spin_demo_n4", ("replace", '"sector_m": 0', '"sector": 1'),
         prefix="spin-demo params: unknown key 'sector'"),
    case("identity-operator-with-entries", "stability_demo",
         ("set", "operators.2.entries", [[2, 0], [0, 2]]),
         line="operator 'one': unknown key 'entries'; it takes 'name', 'kind', 'space'"),
    case("richness-depth-renamed", "richness_depth5", ("replace", '"depth"', '"depht"'),
         prefix="richness params: unknown key 'depht'"),
    case("spin-sector-renamed", "spin_demo_n4", ("replace", '"sector_m"', '"sector"'),
         prefix="spin-demo params: unknown key 'sector'"),
    case("chain-params-nodez", "chain_two_level", ("replace", '"nodes"', '"nodez"'),
         prefix="chain params: unknown key 'nodez'; "),
    case("chain-node-cone-in", "chain_two_level", ("set", "params.nodes.1.cone_in", "P1"),
         prefix="chain node 1: unknown key 'cone_in'"),
    # a missing key is named, not looked up as the id None
    case("mu-without-cone", "mu_flip", ("del", "params.cone"),
         line="mu params: missing key 'cone'"),
    case("chain-node-without-cone", "chain_two_level", ("del", "params.nodes.0.cone"),
         line="chain node 0: missing key 'cone'"),
    case("lattice-factor-slot", "lattice_ell3", ("set", "params.factors.1.slot", 2),
         prefix="lattice factor 2: unknown key 'slot'"),
    case("tower-recipe-dpth", "stability_demo", ("set", "params.members.0.recipe.dpth", 3),
         prefix="stability member 'tower-depth-2' recipe: unknown key 'dpth'"),
    case("member-label", "stability_demo", ("set", "params.members.0.label", "x"),
         prefix="stability member 0: unknown key 'label'"),
    # a kind or type that cannot be hashed is still one line
    case("cone-kind-a-list", "classify_flip", ("set", "cones.0.kind", ["orthant"]),
         prefix="unknown cone kind ['orthant']"),
    case("recipe-type-a-list", "stability_demo", ("set", "params.members.0.recipe.type", ["tower"]),
         prefix="unknown stability recipe type ['tower']"),
    case("recipe-type-towr", "stability_demo", ("set", "params.members.0.recipe.type", "towr"),
         line="unknown stability recipe type 'towr'"),
    # json keeps the last of a repeated key: this config would run depth 1
    case("key-repeated", "richness_depth5", ("replace", '"depth": 5', '"depth": 5, "depth": 1'),
         line="config repeats the key 'depth'"),
    # true is no JSON number, though bool is an int in Python
    *(case(f"{name}-version-true", name, ("set", "version", True),
           line="config version must be 1") for name in SHIPPED),
    *(case(f"{name}-entry-true", name, ("set", "operators.0.entries.0.0", True),
           line=f"operator {config['operators'][0]['name']!r}: matrix entry must be a number "
                "or [re, im] pair, got True")
      for name, config in SHIPPED.items() if "operators" in config),
    # runs that fail with a report and no traceback; a huge entry overflows the
    # exponential of sH + tH', or, where the entries cancel there (s = t = 1),
    # one split-product factor; a huge beta or s underflows it and every
    # approximant to zero, so every error would be 0 and compare nothing
    case("trotter-n-2^62", "trotter_pair", ("set", "params.n_values", [1, 2 ** 62]), stage="run",
         fail=("Inconsistent", f"the Trotter approximant at n = {2 ** 62} is not finite")),
    case("trotter-hp-entry-2^63", "trotter_pair", ("set", "operators.1.entries.1.1", 2 ** 63),
         stage="run", fail=("Inconsistent", NOT_FINITE)),
    case("trotter-h-entry-1e200", "trotter_pair", ("set", "operators.0.entries.1.1", 1e200),
         stage="run", fail=("Inconsistent", NOT_FINITE)),
    case("trotter-entries-that-cancel", "trotter_pair", ("set", "operators.0.entries.1.1", 1e200),
         ("set", "operators.1.entries.1.1", -1e200), ("set", "params.s", 1.0),
         ("set", "params.t", 1.0), stage="run",
         fail=("Inconsistent", "the Trotter approximant at n = 1 is not finite")),
    case("trotter-beta-1e300", "trotter_pair", ("set", "params.beta", 1e300), stage="run",
         fail=("Inconsistent", UNDERFLOWS)),
    case("trotter-s-1e300", "trotter_pair", ("set", "params.s", 1e300), stage="run",
         fail=("Inconsistent", UNDERFLOWS)),
    case("mu-observable-not-commuting", "mu_flip",
         ("set", "operators.1.entries", [[1, 0], [0, -1]]), stage="run", fail=("NotCommuting", "Hamiltonian does not commute with the observable")),
    case("spin-empty-sector", "spin_demo_n4", ("set", "params.sector_m", 0.25), stage="run",
         fail=("PreconditionFailed", "sector M=0.25 is empty for 4 sites")),
    case("lattice-y1-negated", "lattice_ell3", ("set", "operators.3.entries", [[0, -1], [-1, 0]]),
         stage="run", fail=("SpecFailed", "Y_1 is not cone-preserving on its orthant")),
    case("lattice-top-dimension-8192", "lattice_ell3", ("set", "spaces.e", 4096),
         ("append", "operators", {"name": "one", "space": "e", "kind": "identity"}),
         ("set", "params.factors", [{"operator": "one"}]), stage="run",
         fail=("DimCap", "Kronecker sum dimension 8192 exceeds cap 4096")),
    # an echoed id with control characters or a lone surrogate reads back from a valid report
    *(case(f"echoed-id-{n}", "stability_demo", ("set", "params.members.0.id", member_id),
           stage="run", holds=("payload.members.0.id", member_id))
      for n, member_id in enumerate(ECHOED_IDS)),
]


def _at(path: str):
    return [int(key) if key.isdigit() else key for key in path.split(".")]


def config_text(case: Case) -> str:
    """The JSON text of the case's config: its base with its edits made."""
    config = json.loads(case.base if case.base.startswith("{") else
                        (CONFIGS / f"{case.base}.json").read_text())
    replaces = []
    for op, path, *value in case.edits:
        if op == "replace":
            replaces.append((path, *value))
            continue
        *parents, last = _at(path)
        target = functools.reduce(operator.getitem, parents, config)
        if op == "set":
            target[last] = value[0]
        elif op == "del":
            del target[last]
        else:
            target[last].append(value[0])
    text = json.dumps(config)
    for old, new in replaces:
        if old not in text:
            raise AssertionError(f"{case.id}: the config has no {old!r} to replace")
        text = text.replace(old, new, 1)
    return text


@contextlib.contextmanager
def _staged(stage: str):
    """A `read` case must not reach the build, and a `build` case must not
    pass it: either is an AssertionError, raised before anything is built or
    run, so no case can make what its refusal was there to stop."""
    from conecalc import spec

    build = spec.RunContext.build

    def staged(ctx):
        if stage == "read":
            raise AssertionError("read without a refusal")
        build(ctx)
        if stage == "build":
            raise AssertionError("built without a refusal")

    spec.RunContext.build = build if stage == "run" else staged
    try:
        yield
    finally:
        spec.RunContext.build = build


@contextlib.contextmanager
def _captured():
    """Python's stdout and stderr, and file descriptor 2 added to stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.dup(2)
    with tempfile.TemporaryFile("w+") as fd2:
        os.dup2(fd2.fileno(), 2)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                yield out, err
        finally:
            os.dup2(saved, 2)
            os.close(saved)
            fd2.seek(0)
            err.write(fd2.read())


def check(case: Case, tmp: Path) -> None:
    """Run the case's config through `conecalc.cli.main` in this interpreter,
    writing under `tmp`; an AssertionError says how its ending differed."""
    from conecalc import cli

    text, config, out = config_text(case), tmp / "config.json", tmp / "out"
    config.write_text(text, encoding="utf-8")
    task = json.loads(text)["task"]
    with warnings.catch_warnings(), _staged(case.stage), _captured() as streams:
        warnings.simplefilter("error")
        code = cli.main([task, "--config", str(config), "--out", str(out)])
    stdout, stderr = (stream.getvalue() for stream in streams)
    got = f"exit {code}, stdout {stdout!r}, stderr {stderr!r}"
    if case.fail is None and case.holds is None:
        line = stderr[len(PREFIX):-1]
        ok = (code == 2 and stdout == "" and not out.exists() and stderr.startswith(PREFIX)
              and stderr.count("\n") == 1 and stderr.endswith("\n") and "Traceback" not in stderr
              and (line == case.line if case.line is not None else line.startswith(case.prefix)))
        want = repr(case.line) if case.line is not None else f"one starting {case.prefix!r}"
        if not ok:
            raise AssertionError(f"{case.id}: want exit 2, schema error line {want} and "
                                 f"nothing written; got {got}")
        return
    status = "pass" if case.fail is None else "fail"
    if (code, stdout, stderr) != (int(status == "fail"),
                                  f"{status}: {task} -> {out / 'report.json'}\n", ""):
        raise AssertionError(f"{case.id}: want a {status} report and an empty stderr; got {got}")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if case.fail is not None:
        want = dict(zip(("error_type", "reason"), case.fail))
        if report["status"] != "fail" or report["payload"] != want:
            raise AssertionError(f"{case.id}: want payload {want}; got {report}")
    else:
        path, value = case.holds
        held = functools.reduce(operator.getitem, _at(path), report)
        if report["status"] != "pass" or held != value:
            raise AssertionError(f"{case.id}: want {value!r} at {path}; got {held!r}")


def _passes(case: Case, tmp: str) -> bool:
    try:
        check(case, Path(tempfile.mkdtemp(dir=tmp)))
    except Exception:  # noqa: BLE001 - printed, and the run goes on
        print(f"FAIL {case.id}:\n{traceback.format_exc()}")
        return False
    return True


def main() -> int:
    """Run every case, the `read` cases first, and check that those loaded no
    numpy and no package module beyond the reader's.  Exit 0 when all hold."""
    read = [case for case in CASES if case.stage == "read"]
    with tempfile.TemporaryDirectory() as tmp:
        failed = sum(not _passes(case, tmp) for case in read)
        loaded = {name for name in sys.modules if name == "numpy" or name.startswith("conecalc.")}
        if loaded != READ_MODULES:
            failed += 1
            print(f"FAIL the read cases loaded {sorted(loaded - READ_MODULES)}")
        failed += sum(not _passes(case, tmp) for case in CASES if case.stage != "read")
    print(f"bad_configs: {len(CASES)} cases, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
