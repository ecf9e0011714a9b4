"""The import graph: `import conecalc` loads none of the package's modules,
the CLI loads only the standard-library reader of a config, with no numpy
and none of the standard-library modules that reading never uses, building
a config that has been read adds numpy and the numeric core, and each task
adds the modules README "CLI" lists for it.  Each case runs in a fresh
interpreter; the cases of `bad_configs.py` run in one."""

import functools
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
# standard-library modules that reading a config does not use: a refused
# config loads none of them beyond what the interpreter starts with, and a
# run that passes loads no `traceback`, which only a failure's frames need
UNUSED_BY_READING = {"dataclasses", "hashlib", "inspect", "traceback"}

ALL = [
    "ArrowChain", "Embedding", "ErgodicityReport", "GoodQuantumNumber",
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


def run_probe(code: str, *args: str) -> tuple[list[str], set[str], set[str]]:
    """(lines printed, package modules loaded, modules of UNUSED_BY_READING
    loaded) of `code` in a fresh interpreter; `numpy` is among the package
    modules if it was loaded."""
    script = ("import json, sys\n" + code + "\nprint(json.dumps(sorted("
              f"m for m in sys.modules if m.startswith('conecalc.') or m == 'numpy' "
              f"or m in {sorted(UNUSED_BY_READING)!r})))")
    result = subprocess.run([sys.executable, "-c", script, *args],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    *lines, last = result.stdout.splitlines()
    loaded = set(json.loads(last))
    return (lines, {name.split(".", 1)[-1] for name in loaded - UNUSED_BY_READING},
            loaded & UNUSED_BY_READING)


@functools.cache
def unused_at_start(code: str = "pass") -> frozenset[str]:
    """The modules of UNUSED_BY_READING that a fresh interpreter has loaded
    after `code` alone: those that it starts with, for `pass`."""
    return frozenset(run_probe(code)[2])


def cli_run(argvs: list[list[str]]) -> tuple[list[int], set[str], set[str]]:
    """(exit codes, package modules loaded, modules of UNUSED_BY_READING
    loaded beyond a bare interpreter's) of one interpreter running the CLI on
    each argument list in turn."""
    lines, modules, unused = run_probe("from conecalc.cli import main\n"
                                       "print(json.dumps([main(argv) for argv in "
                                       "json.loads(sys.argv[1])]))", json.dumps(argvs))
    return json.loads(lines[-1]), modules, unused - unused_at_start()


def documented_modules() -> dict[str, set[str]]:
    """Task -> the modules README "CLI" says it adds to the build's."""
    section = (ROOT / "README.md").read_text().split("## CLI")[1].split("\n## ")[0]
    table = {}
    for line in (line for line in section.splitlines() if line.startswith("| `")):
        tasks, modules = (re.findall(r"`([^`]*)`", cell) for cell in line.split("|")[1:3])
        table.update({task: set(modules) for task in tasks})
    return table


def test_importing_the_package_loads_no_module():
    _, modules, _ = run_probe("import conecalc")
    assert modules == set()


def test_importing_the_cli_loads_what_validation_needs():
    _, modules, unused = run_probe("import conecalc.cli")
    assert modules == VALIDATION
    assert "numpy" not in modules
    assert unused <= unused_at_start()


def test_a_refused_config_loads_only_the_reader(tmp_path):
    # a config refused while reading: a tolerance that is no number
    config = json.loads((CONFIGS / "mu_flip.json").read_text())
    config["tolerances"] = {"default": "abc"}
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    codes, modules, unused = cli_run([["mu", "--config", str(path), "--out", str(out)]])
    assert codes == [2]
    assert not out.exists()
    assert modules == VALIDATION
    assert unused == set()


def test_an_export_loads_only_the_modules_it_needs():
    _, modules, _ = run_probe("import conecalc\nconecalc.trotter_verify")
    assert modules == {"cones", "errors", "numerics", "numpy", "positivity", "semigroup"}


def test_every_task_has_a_documented_module_set():
    from conecalc.cli import TASKS
    table = documented_modules()
    assert set(table) == set(TASKS)
    assert all(modules <= TASK_MODULES for modules in table.values())


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_each_shipped_config_loads_its_documented_modules(config, tmp_path):
    task = json.loads(config.read_text())["task"]
    codes, modules, unused = cli_run([[task, "--config", str(config), "--out", str(tmp_path)]])
    assert codes == [0]
    assert modules == VALIDATION | BUILD | documented_modules()[task]
    # a run that passes clears no failure's frames
    assert "traceback" not in unused - unused_at_start("import numpy")


def test_the_bad_config_runner_passes_and_its_read_cases_load_no_numpy():
    # one interpreter runs every case of the corpus; after its read cases it
    # checks that neither numpy nor a verifier module was loaded
    result = subprocess.run([sys.executable, "-W", "error", str(ROOT / "tests" / "bad_configs.py")],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith(" cases, 0 failed\n")


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
