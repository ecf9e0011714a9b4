"""The CLI at its caps: each run is one `python -W error -m conecalc`
process on a shipped config grown to its cap, timed whole, with its peak
resident memory.

- `richness` at depth 11 over the 2-dimensional base of
  `richness_depth5` (top dimension 4096) passes below 80 MB, where one
  4096 x 4096 float matrix is 134 MB;
- `lattice` with eleven `y1` slots over the 2-dimensional base of
  `lattice_ell3` (top dimension 4096, 2048 nodes) passes below 100 MB;
- `lattice` with twelve one-dimensional slots over that base (4096 nodes,
  the node cap, and 24576 edges) passes below 100 MB;
- `spin-demo` of `spin_demo_n4` grown to 12 sites, the site cap, with the
  odd sites as sublattice A and M = 0 (a 924-dimensional sector) passes
  below 100 MB.

Run it against the installed package, or a source checkout with
`PYTHONPATH=src`:

    python -W error tests/caps.py

It makes every run in a temporary directory, prints one line per run, its
status, wall seconds and peak MB, and exits 1 when a run fails its bound.
A lattice run of l slots must also have written what its size says
(`lattice_outputs`): standing assumptions that hold, with l passed slots
in `y_ergodic` and in `y_uniform_eigenvector`, 2^l nodes and l 2^(l-1)
edges in its report, one strictly positive overlap per edge, and a
`hasse.dot` that declares 2^l distinct ids and draws its edges between
declared ids alone; what does not hold is printed on stderr and fails the
run.  It uses the standard library alone.  Run it as its own process: a
child's `ru_maxrss` is at least what its parent held when it was spawned,
so the script's own footprint must stay small.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _richness(config: dict) -> dict:
    config["params"]["depth"] = 11
    return config


def _lattice(config: dict) -> dict:
    config["params"]["factors"] = [{"operator": "y1"}] * 11
    return config


def _lattice_one_dimensional(config: dict) -> dict:
    config["spaces"]["e"] = 1
    config["operators"].append({"name": "zero", "space": "e", "entries": [[0]]})
    config["params"]["factors"] = [{"operator": "zero"}] * 12
    return config


def _spin_twelve_sites(config: dict) -> dict:
    config["params"].update(sites=12, sublattice_a=list(range(1, 13, 2)), sector_m=0)
    return config


# name -> (shipped config, its edit, the peak bound in MB)
RUNS = {
    "richness-depth-11": ("richness_depth5", _richness, 80.0),
    "lattice-11-slots": ("lattice_ell3", _lattice, 100.0),
    "lattice-12-one-dimensional-slots": ("lattice_ell3", _lattice_one_dimensional, 100.0),
    "mlm-12-sites": ("spin_demo_n4", _spin_twelve_sites, 100.0),
}


def lattice_outputs(out: Path, ell: int) -> list[str]:
    """What a lattice run of ``ell`` slots wrote under ``out`` and its size
    does not allow, one line each; none when both outputs hold."""
    payload = json.loads((out / "report.json").read_text())["payload"]
    assumptions, diagram = payload["assumptions"], payload["diagram"]
    wrong = [f"assumptions {key} {assumptions[key]}, not {want}"
             for key, want in (("ok", True), ("y_ergodic", [True] * ell),
                               ("y_uniform_eigenvector", [True] * ell))
             if assumptions[key] != want]
    nodes, edges = 2 ** ell, ell * 2 ** (ell - 1)
    wrong += [f"{key} {diagram[key]}, not {want}"
              for key, want in (("node_count", nodes), ("edge_count", edges))
              if diagram[key] != want]
    overlaps = diagram["edge_overlaps"]
    if len(overlaps) != edges or not all(overlap > 0 for overlap in overlaps):
        wrong.append(f"{len(overlaps)} edge overlaps, not {edges} strictly positive ones")
    lines = (out / "hasse.dot").read_text().splitlines()
    ids = [line.split()[0] for line in lines if "[label=" in line]
    if len(set(ids)) != nodes or len(ids) != nodes:
        wrong.append(f"hasse.dot declares {len(set(ids))} distinct ids in {len(ids)} lines, "
                     f"not {nodes}")
    arrows = [line.strip().rstrip(";").split(" -> ") for line in lines if " -> " in line]
    declared = set(ids)
    if len(arrows) != edges or not all(len(ends) == 2 and declared.issuperset(ends)
                                       for ends in arrows):
        wrong.append(f"hasse.dot draws {len(arrows)} edges, not {edges} between declared ids")
    return wrong


def measure(name: str, work: Path) -> tuple[str, float, float, list[str]]:
    """(report status, wall seconds, peak MB, what its outputs do not hold)
    of one run, its config and output under ``work``.  The peak is the
    child's own `ru_maxrss`, read when it is reaped."""
    stem, edit, _ = RUNS[name]
    config = edit(json.loads((CONFIGS / f"{stem}.json").read_text()))
    path, out = work / f"{name}.json", work / name
    path.write_text(json.dumps(config))
    cmd = [sys.executable, "-W", "error", "-m", "conecalc", config["task"],
           "--config", str(path), "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)  # the report is read below
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: exit {proc.returncode}")
    report = json.loads((out / "report.json").read_text())
    wrong = (lattice_outputs(out, len(config["params"]["factors"]))
             if config["task"] == "lattice" and report["status"] == "pass" else [])
    return report["status"], wall, usage.ru_maxrss / 1024, wrong  # kB on Linux


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as work:
        for name, (_, _, bound) in RUNS.items():
            status, wall, peak, wrong = measure(name, Path(work))
            print(f"{name}: {status}, {wall:.2f} s, peak {peak:.1f} MB (bound {bound:g} MB)")
            for line in wrong:
                print(f"{name}: {line}", file=sys.stderr)
            if not (status == "pass" and peak < bound and not wrong):
                failed.append(name)
    if failed:
        print(f"over a bound, not passing or with wrong outputs: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
