"""Byte-for-byte regression of every shipped config's outputs.

`tests/golden/<config>/` holds the report (and, for the lattice, the DOT
diagram) that each `configs/*.json` produced when the files were captured.
A refactor must reproduce them exactly; a deliberate format change updates
them in the same change and says why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conecalc.cli import main, run_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG_NAMES = sorted(p.stem for p in CONFIGS.glob("*.json"))


def test_every_config_has_a_golden_report():
    assert CONFIG_NAMES == sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_outputs_match_golden_bytes(name, tmp_path, capsys):
    config = CONFIGS / f"{name}.json"
    task = json.loads(config.read_text())["task"]
    main([task, "--config", str(config), "--out", str(tmp_path)])
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for filename in expected:
        assert (tmp_path / filename).read_bytes() == (GOLDEN / name / filename).read_bytes(), \
            f"{name}/{filename} differs from the golden bytes"


WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
import json
from pathlib import Path
from conecalc.cli import main
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
for config in sorted(configs.glob("*.json")):
    main([json.loads(config.read_text())["task"], "--config", str(config),
          "--out", str(out / config.stem)])
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "scipy" and module is not None]
print(json.dumps(loaded))
"""


def test_runtime_needs_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(CONFIGS), str(tmp_path)],
                            capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
    for name in CONFIG_NAMES:
        for golden in (GOLDEN / name).iterdir():
            assert (tmp_path / name / golden.name).read_bytes() == golden.read_bytes(), \
                f"{name}/{golden.name} differs from the golden bytes without scipy"


# (eigh, eigvalsh, svd) that running each shipped config makes, counted as
# the `decompositions` fixture counts them.  A stability class's base and a
# tower's seed are each decided once: `stability_demo` decomposes O once
# per reading, its base once, one slot and one block batch per member, and
# takes no SVD.
DECOMPOSITIONS = {
    "chain_two_level": (3, 0, 0),
    "classify_flip": (0, 0, 0),
    "lattice_ell3": (5, 2, 0),
    "lattice_explicit": (4, 2, 0),
    "mu_flip": (2, 0, 1),
    "richness_depth5": (3, 2, 0),
    "spin_demo_n4": (1, 0, 0),
    "stability_demo": (7, 0, 0),
    "trotter_pair": (3, 0, 9),
    "weak_equiv_4x4": (4, 2, 2),
    "weak_equiv_decoupled": (4, 2, 2),
}


def test_every_config_has_a_decomposition_count():
    assert sorted(DECOMPOSITIONS) == CONFIG_NAMES


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_a_config_makes_its_pinned_decompositions(name, decompositions):
    run_config(json.loads((CONFIGS / f"{name}.json").read_text()), "0" * 64)
    got = tuple(decompositions[kind] for kind in ("eigh", "eigvalsh", "svd"))
    assert got == DECOMPOSITIONS[name]
