"""Self-test of the benchmark at toy size (a depth-2 tower, a 2-slot lattice,
4 spin sites, one shipped config):

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from yardstick import Yardstick  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["attempted"] >= 2 and result["failed"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_expectation_raises_failed_frac(workload, tmp_path):
    ops = workloads.make_ops(workload, 5, "toy", ROOT, tmp_path)
    check, ruler = workloads.CHECKS[workload], Yardstick()
    _, summary = run.end_to_end([run.run_pass(ops, workloads, check, ruler)], ops, [1.0], [1.0])
    assert summary["failed_frac"] == 0.0

    op = next(op for op in ops if op.positive)
    if op.is_cli:
        op.expected["fields"] = [(path, want + 1.0 if isinstance(want, float) else want)
                                 for path, want in op.expected["fields"]]
    else:
        op.expected["mu"] += 1.0
    samples = run.run_pass(ops, workloads, check, ruler)
    values, summary = run.end_to_end([samples], ops, [1.0], [1.0])
    assert [s.op.id for s in samples if s.failure] == [op.id]
    assert summary["failed_frac"] == 1 / len(ops)
    assert values["verdict_ok_frac"] == 1 - 1 / len(ops)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_mix(workload, tmp_path):
    one = workloads.make_ops(workload, 1, "full", ROOT, tmp_path / "a")
    again = workloads.make_ops(workload, 1, "full", ROOT, tmp_path / "b")
    two = workloads.make_ops(workload, 2, "full", ROOT, tmp_path / "c")
    assert [op.kind for op in one] == [op.kind for op in two]
    assert [op.id for op in one] == [op.id for op in two]
    assert [op.fingerprint for op in one] == [op.fingerprint for op in again]
    generated = [a.fingerprint != b.fingerprint for a, b in zip(one, two)
                 if not a.kind.startswith("shipped-")]
    assert generated and all(generated)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "chain-tower", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
