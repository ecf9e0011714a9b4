import json
import subprocess
import sys
from pathlib import Path

import golden_delta

SCRIPT = Path(golden_delta.__file__)
REPORT = {"payload": {"overlaps": [1.0, 0.5], "nodes": 3, "status": "pass"}, "task": "chain"}


def write(root: Path, name: str, obj) -> Path:
    path = root / name / "report.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(obj))
    return path


def run(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)


def test_moved_floats_exit_zero(tmp_path):
    moved = json.loads(json.dumps(REPORT))
    moved["payload"]["overlaps"][1] = 0.75
    write(tmp_path / "old", "chain", REPORT)
    write(tmp_path / "new", "chain", moved)
    result = run(tmp_path / "old", tmp_path / "new")
    assert result.returncode == 0
    assert result.stdout == "chain/report.json:payload.overlaps[1]  0.5 -> 0.75  (+5.000e-01)\n"


def test_a_changed_leaf_that_is_not_a_float_exits_one(tmp_path):
    moved = json.loads(json.dumps(REPORT))
    moved["payload"]["nodes"] = 4
    old = write(tmp_path / "old", "chain", REPORT)
    new = write(tmp_path / "new", "chain", moved)
    result = run(old, new)
    assert result.returncode == 1
    assert result.stdout == "report.json:payload.nodes  3 -> 4  (not a float)\n"


def test_identical_trees_print_nothing(tmp_path):
    write(tmp_path / "old", "chain", REPORT)
    write(tmp_path / "new", "chain", REPORT)
    (tmp_path / "old" / "chain" / "hasse.dot").write_text("digraph {}\n")
    (tmp_path / "new" / "chain" / "hasse.dot").write_text("digraph {}\n")
    result = run(tmp_path / "old", tmp_path / "new")
    assert (result.returncode, result.stdout) == (0, "")
