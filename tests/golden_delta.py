"""Print every report leaf that differs between two golden outputs.

    python tests/golden_delta.py OLD NEW

OLD and NEW are two report.json files, or two directories such as
tests/golden and a fresh run's output tree, compared file by file.  Each
changed leaf is printed as its path, old value, new value and relative
change.  The exit code is 0 when nothing but floats moved, and 1 when any
other leaf changed, appeared or vanished, or when a file that is not JSON
(a DOT diagram) differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _leaves(obj, path: str = ""):
    """(path, value) for every leaf of a parsed JSON document."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _relative(old: float, new: float) -> str:
    if old == new:
        return "0"
    return "inf" if old == 0.0 else f"{(new - old) / abs(old):+.3e}"


def compare_reports(old, new, label: str, out) -> bool:
    """Print the changed leaves of two parsed reports; True when only
    floats moved."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    floats_only = True
    for path in sorted(before.keys() | after.keys()):
        a, b = before.get(path, "<absent>"), after.get(path, "<absent>")
        if type(a) is type(b) and a == b:
            continue
        if type(a) is float and type(b) is float:
            print(f"{label}:{path}  {a!r} -> {b!r}  ({_relative(a, b)})", file=out)
        else:
            floats_only = False
            print(f"{label}:{path}  {a!r} -> {b!r}  (not a float)", file=out)
    return floats_only


def compare_paths(old: Path, new: Path, out=sys.stdout) -> bool:
    """Compare two files, or every file under two directories; True when
    only float leaves of JSON files differ."""
    if old.is_dir() and new.is_dir():
        names = sorted({p.relative_to(old) for p in old.rglob("*") if p.is_file()}
                       | {p.relative_to(new) for p in new.rglob("*") if p.is_file()})
        pairs = [(old / name, new / name, str(name)) for name in names]
    else:
        pairs = [(old, new, new.name)]
    floats_only = True
    for a, b, label in pairs:
        if not (a.is_file() and b.is_file()):
            print(f"{label}: present on one side only", file=out)
            floats_only = False
        elif a.suffix == ".json":
            ok = compare_reports(json.loads(a.read_text()), json.loads(b.read_text()), label, out)
            floats_only = floats_only and ok
        elif a.read_bytes() != b.read_bytes():
            print(f"{label}: bytes differ (not JSON)", file=out)
            floats_only = False
    return floats_only


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tests/golden_delta.py OLD NEW", file=sys.stderr)
        return 2
    return 0 if compare_paths(Path(args[0]), Path(args[1])) else 1


if __name__ == "__main__":
    sys.exit(main())
