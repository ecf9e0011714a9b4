import json
import os
import subprocess
import sys
from pathlib import Path

import verdict_hash


def test_toy_digest_is_stable_and_counts_every_op():
    lines = []
    first = verdict_hash.digest([1], "toy", lines.append)
    assert first == verdict_hash.digest([1], "toy")
    assert first[1] == len(lines) >= 3
    assert {line.split()[0] for line in lines} == set(verdict_hash.WORKLOADS)


def test_an_exception_is_hashed_by_type_message_and_index():
    def broken():
        exc = ValueError("link 2 failed")
        exc.index = 2
        raise exc

    assert verdict_hash.verdict_bytes(broken) == (
        b'{"index":2,"message":"link 2 failed","raises":"ValueError"}')


def test_the_digest_does_not_depend_on_the_blas_threads_asked_for(tmp_path):
    # a multithreaded BLAS moves payload floats of the 10-site spin sectors
    # of seed 1, so the script pins one thread whatever the caller sets
    script = Path(verdict_hash.__file__)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        records = tmp_path / f"records-{threads}.json"
        result = subprocess.run([sys.executable, str(script), "--seeds", "1",
                                 "--records", str(records)],
                                capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        outputs.append((result.stdout.splitlines()[-1], json.loads(records.read_text())))
    (digest, records), (other_digest, other_records) = outputs
    assert digest == other_digest
    assert records == other_records
    assert digest.split()[1] == str(len(records))
    assert {tuple(entry[:2]) for entry in records} == {(name, 1) for name in verdict_hash.WORKLOADS}
