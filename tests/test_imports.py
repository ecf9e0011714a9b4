"""The import graph: `import conecalc` loads none of the package's modules,
the CLI loads only the standard-library reader of a config, with no numpy,
building a config that has been read adds numpy and the numeric core, and
each task adds the modules README "CLI" lists for it.  Each case runs in a
fresh interpreter."""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import conecalc

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
VALIDATION = {"cli", "errors", "spec"}
BUILD = {"cones", "jsonio", "numerics", "numpy"}
TASK_MODULES = {"inheritance", "lattice", "positivity", "semigroup", "spin", "stability"}

ALL = [
    "ArrowChain", "ChainNode", "Embedding", "ErgodicityReport", "GoodQuantumNumber",
    "HasseDiagram", "LatticeNode", "LatticeSpec", "LinearOperator", "MSector",
    "NodeAnalysis", "PositivityReport", "SelfDualCone", "Spectrum", "SpinSystem",
    "StabilityClassRecord", "TrotterReport", "append_factor_embedding", "build_lattice",
    "build_node", "check_arrow", "classify", "commutes_with_observable",
    "conditional_expectation", "cones", "dominates", "errors", "extension_tower",
    "generates_improving_semigroup", "generates_positive_semigroup", "good_quantum_number",
    "ground_overlap", "ground_state", "ground_state_factorizes", "hasse_export",
    "hermitian_eig", "identity", "identity_embedding", "inheritance", "inherits_positivity",
    "is_decoupled_extension", "is_ergodic", "kron", "lattice", "m_sector", "marshall_cone",
    "mlm_hamiltonian", "numerics", "op_exp", "orthant", "partial_trace",
    "perturbed_semigroup_improving", "positivity",
    "quantum_number_along_chain", "relative_entropy", "resolvent", "semigroup", "spin",
    "stability", "tensor_cone", "total_spin", "trotter_verify",
    "verify_chain", "verify_mlm", "verify_spec",
]


def run_probe(code: str, *args: str) -> tuple[list[str], set[str]]:
    """(lines printed, package modules loaded) of `code` in a fresh
    interpreter; `numpy` is among the modules if it was loaded."""
    script = ("import json, sys\n" + code + "\nprint(json.dumps(sorted("
              "m for m in sys.modules if m.startswith('conecalc.') or m == 'numpy')))")
    result = subprocess.run([sys.executable, "-c", script, *args],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    *lines, last = result.stdout.splitlines()
    return lines, {name.split(".", 1)[-1] for name in json.loads(last)}


def cli_run(argvs: list[list[str]]) -> tuple[list[int], set[str]]:
    """(exit codes, package modules loaded) of one interpreter running the CLI
    on each argument list in turn."""
    lines, modules = run_probe("from conecalc.cli import main\n"
                               "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))",
                               json.dumps(argvs))
    return json.loads(lines[-1]), modules


def documented_modules() -> dict[str, set[str]]:
    """Task -> the modules README "CLI" says it adds to the build's."""
    section = (ROOT / "README.md").read_text().split("## CLI")[1].split("\n## ")[0]
    table = {}
    for line in (line for line in section.splitlines() if line.startswith("| `")):
        tasks, modules = (re.findall(r"`([^`]*)`", cell) for cell in line.split("|")[1:3])
        table.update({task: set(modules) for task in tasks})
    return table


def test_importing_the_package_loads_no_module():
    _, modules = run_probe("import conecalc")
    assert modules == set()


def test_importing_the_cli_loads_what_validation_needs():
    _, modules = run_probe("import conecalc.cli")
    assert modules == VALIDATION
    assert "numpy" not in modules


def test_an_export_loads_only_the_modules_it_needs():
    _, modules = run_probe("import conecalc\nconecalc.trotter_verify")
    assert modules == {"cones", "errors", "numerics", "numpy", "positivity", "semigroup"}


def test_every_task_has_a_documented_module_set():
    from conecalc.cli import TASKS
    table = documented_modules()
    assert set(table) == set(TASKS)
    assert all(modules <= TASK_MODULES for modules in table.values())


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_each_shipped_config_loads_its_documented_modules(config, tmp_path):
    task = json.loads(config.read_text())["task"]
    codes, modules = cli_run([[task, "--config", str(config), "--out", str(tmp_path)]])
    assert codes == [0]
    assert modules == VALIDATION | BUILD | documented_modules()[task]


def _rejects(tmp_path: Path) -> list[list[str]]:
    """CLI argument lists of configs refused with exit 2, one per way of
    being malformed that reading a config catches."""
    def config(name: str, edit=None, version=1) -> dict:
        parsed = json.loads((CONFIGS / name).read_text())
        parsed["version"] = version
        if edit is not None:
            edit(parsed)
        return parsed

    def params(**changes):
        return lambda c: c["params"].update(changes)

    cases = {
        "unknown-operator": config("mu_flip.json", params(observable="nope")),
        "unknown-cone": config("classify_flip.json", params(cone="nope")),
        "bad-version": config("chain_two_level.json", version=2),
        "negative-depth": config("richness_depth5.json", params(depth=-1)),
        "tolerance-abc": config("mu_flip.json", lambda c: c.update(tolerances={"default": "abc"})),
        "tolerance-negative": config("classify_flip.json",
                                     lambda c: c.update(tolerances={"default": -1})),
        "tolerance-past-inheritance-limit": config(
            "classify_flip.json", lambda c: c.update(tolerances={"default": 0.8})),
        "operators-not-a-list": config("chain_two_level.json", lambda c: c.update(operators=5)),
        "cones-not-a-list": config("chain_two_level.json", lambda c: c.update(cones=7)),
        "embeddings-not-a-list": config("chain_two_level.json",
                                        lambda c: c.update(embeddings=5)),
        "cone-name-a-list": config("chain_two_level.json",
                                   lambda c: c["cones"][0].update(name=["P0"])),
        "embedding-name-a-list": config("chain_two_level.json",
                                        lambda c: c["embeddings"][0].update(name=["up"])),
        "trotter-s-string": config("trotter_pair.json", params(s="abc")),
        "spin-sites-float": config("spin_demo_n4.json", params(sites=4.0)),
        "lattice-no-factors": config("lattice_ell3.json", params(factors=[])),
        "richness-depht": config("richness_depth5.json",
                                 lambda c: c["params"].update(depht=c["params"].pop("depth"))),
        "config-tolerance": config("classify_flip.json", lambda c: c.update(tolerance=1e-6)),
        "cone-generators-without-kind": config("classify_flip.json", lambda c: c.update(
            cones=[{"name": "P", "space": "base", "generators": [[-1, 0], [0, -1]]}])),
        "spin-sector": config("spin_demo_n4.json",
                              lambda c: c["params"].update(sector=c["params"].pop("sector_m"))),
        # every member is read before the base record is decomposed
        "recipe-type-towr": config("stability_demo.json", lambda c: c["params"]["members"][0][
            "recipe"].update(type="towr")),
        "tower-depth-0-second-member": config("stability_demo.json", lambda c: c["params"][
            "members"][1].update(recipe={"type": "tower", "depth": 0})),
    }
    argvs = []
    for name, parsed in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(parsed))
        argvs.append([parsed["task"], "--config", str(path), "--out", str(tmp_path / name)])
    nan_entry = (CONFIGS / "classify_flip.json").read_text().replace("[[0, 1]", "[[NaN, 1]")
    (tmp_path / "nan-entry.json").write_text(nan_entry)
    argvs.append(["classify", "--config", str(tmp_path / "nan-entry.json"),
                  "--out", str(tmp_path / "nan-entry")])
    return argvs


def test_a_refused_config_loads_no_task_module(tmp_path):
    # one interpreter refuses them all: neither numpy nor a task module is
    # loaded by any
    argvs = _rejects(tmp_path)
    codes, modules = cli_run(argvs)
    assert codes == [2] * len(argvs)
    assert modules == VALIDATION
    assert "numpy" not in modules
    assert not any(path.is_dir() for path in tmp_path.iterdir())


def test_a_config_refused_for_its_params_builds_none_of_its_embeddings(tmp_path):
    # the embedding of chain_two_level is read before its params are, and
    # built only after: the refusal loads neither inheritance nor numpy
    config = json.loads((CONFIGS / "chain_two_level.json").read_text())
    config["params"]["nodez"] = config["params"].pop("nodes")
    path = tmp_path / "nodez.json"
    path.write_text(json.dumps(config))
    lines, modules = run_probe(
        "import contextlib, io\nfrom conecalc.cli import main\nerr = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, err.getvalue()]))",
        "chain", "--config", str(path), "--out", str(tmp_path / "out"))
    code, err = json.loads(lines[-1])
    assert code == 2
    assert err.startswith("conecalc: schema error: chain params: unknown key 'nodez'; ")
    assert not {"numpy", "inheritance", "positivity"} & modules
    assert modules == VALIDATION


def test_the_exports_are_pinned_and_resolve():
    assert conecalc.__all__ == ALL
    for name in ALL:
        value = getattr(conecalc, name)
        if name in conecalc._EXPORTS:
            assert value is importlib.import_module(f"conecalc.{name}")
        else:
            module = importlib.import_module(f"conecalc.{conecalc._MODULE_OF[name]}")
            assert value is getattr(module, name)
    assert set(ALL) <= set(dir(conecalc))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        conecalc.no_such_name
    with pytest.raises(ImportError):
        from conecalc import no_such_name
