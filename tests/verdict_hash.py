"""Print one SHA-256 over the verdicts of the seeded library benchmark ops.

    python tests/verdict_hash.py [--seeds 1 2] [--size full]

Builds the `chain-tower`, `lattice` and `spin-mlm` ops of `bench/workloads.py`
for each seed, runs each once, and hashes what it gave: the canonical JSON
of the returned report's payload, or the exception's type name, message and
index.  Two checkouts that print the same digest gave every op the same
verdict and the same payload bytes.  The ops come from the bench module of
this checkout, which is only imported, and the library from its `src/`.
The last line of stdout is ``<digest> <ops>``; with ``--each``, one line
per op (its workload, seed, id and own digest) comes first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chain-tower", "lattice", "spin-mlm")


def _import_workloads():
    for path in (ROOT / "bench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    return workloads


def verdict_bytes(call) -> bytes:
    """The canonical bytes of one op's outcome."""
    try:
        value = call()
    except Exception as exc:  # the verdict is the exception itself
        record = {"raises": type(exc).__name__, "message": str(exc),
                  "index": getattr(exc, "index", None)}
    else:
        record = {"payload": value.to_payload()}
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def digest(seeds, size: str = "full", each=None) -> tuple[str, int]:
    """(hex SHA-256, op count) over every op of every seed and workload,
    in order; ``each(line)`` receives one line per op when given."""
    workloads = _import_workloads()
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as work:
        for seed in seeds:
            for name in WORKLOADS:
                for op in workloads.make_ops(name, seed, size, ROOT, Path(work)):
                    data = verdict_bytes(op.call)
                    total.update(len(data).to_bytes(8, "little"))
                    total.update(data)
                    count += 1
                    if each is not None:
                        each(f"{name} {seed} {op.id} {hashlib.sha256(data).hexdigest()[:16]}")
    return total.hexdigest(), count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--each", action="store_true", help="print every op's own digest")
    args = parser.parse_args(argv)
    hexdigest, count = digest(args.seeds, args.size, print if args.each else None)
    print(f"{hexdigest} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
