"""Print one SHA-256 over the verdicts of the seeded library benchmark ops.

    python tests/verdict_hash.py [--seeds 1 2] [--size full] [--records FILE]

Builds the `chain-tower`, `lattice` and `spin-mlm` ops of `bench/workloads.py`
for each seed, runs each once, and hashes what it gave: the canonical JSON
of the returned report's payload, or the exception's type name, message and
index.  Two checkouts that print the same digest gave every op the same
verdict and the same payload bytes.  The ops come from the bench module of
this checkout, which is only imported, and the library from its `src/`.
The last line of stdout is ``<digest> <ops>``; with ``--each``, one line
per op (its workload, seed, id and own digest) comes first.

Run as a script, it pins BLAS to one thread with the values of
`bench/run.py`'s ``BLAS_ENV`` before numpy loads, whatever the caller's
environment says: a BLAS that splits a product over threads sums in
another order, and the payload floats move with it.  ``--records FILE``
writes every op's record as JSON, ``[[workload, seed, op id, record],
...]``, so that ``python tests/golden_delta.py old.json new.json`` names
each leaf that moved between two checkouts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("chain-tower", "lattice", "spin-mlm")


def _bench_module(name: str):
    """A module of this checkout's bench/, with its src/ importable."""
    for path in (ROOT / "bench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return importlib.import_module(name)


def verdict_record(call) -> dict:
    """One op's outcome: its report's payload, or the exception's type
    name, message and index."""
    try:
        value = call()
    except Exception as exc:  # the verdict is the exception itself
        return {"raises": type(exc).__name__, "message": str(exc),
                "index": getattr(exc, "index", None)}
    return {"payload": value.to_payload()}


def _canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def verdict_bytes(call) -> bytes:
    """The canonical bytes of one op's outcome."""
    return _canonical(verdict_record(call))


def digest(seeds, size: str = "full", each=None, records=None) -> tuple[str, int]:
    """(hex SHA-256, op count) over every op of every seed and workload,
    in order; ``each(line)`` receives one line per op when given, and
    ``records`` (a list) gets [workload, seed, op id, record] per op."""
    workloads = _bench_module("workloads")
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as work:
        for seed in seeds:
            for name in WORKLOADS:
                for op in workloads.make_ops(name, seed, size, ROOT, Path(work)):
                    record = verdict_record(op.call)
                    data = _canonical(record)
                    total.update(len(data).to_bytes(8, "little"))
                    total.update(data)
                    count += 1
                    if each is not None:
                        each(f"{name} {seed} {op.id} {hashlib.sha256(data).hexdigest()[:16]}")
                    if records is not None:
                        records.append([name, seed, op.id, record])
    return total.hexdigest(), count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--each", action="store_true", help="print every op's own digest")
    parser.add_argument("--records", type=Path, metavar="FILE",
                        help="write every op's record to FILE as JSON")
    args = parser.parse_args(argv)
    os.environ.update(_bench_module("run").BLAS_ENV)  # numpy has not loaded yet
    records = None if args.records is None else []
    hexdigest, count = digest(args.seeds, args.size, print if args.each else None, records)
    if records is not None:
        args.records.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{hexdigest} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
