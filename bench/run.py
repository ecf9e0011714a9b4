"""conecalc benchmark: one seeded workload, end to end or traced by layer.

    python3 bench/run.py --workload chain-tower --seed 1 --seconds 20 --trace 0

Workloads: cli-cold, chain-tower, lattice, spin-mlm, or ``all``.  With
``--trace 0`` the run times whole passes over the workload's ops for about
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it runs
one plain and one traced pass and reports the per-layer metrics.  End-to-end
times are in reference seconds (see yardstick.py).  Every op's verdict is
checked against its expected answer.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the lines
before it record the environment and a summary.  bench/RATIONALE.md says why
each workload and metric is there.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

# Set before numpy loads BLAS; children inherit it through child_env().
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_run"
SETUP_PROBES = {"full": 5, "toy": 1}
IMPORT_PROBES = {"full": 3, "toy": 1}
TAIL_BEYOND = 10
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "reject_s.p50": "s",
    "peak_rss_mb": "MB",
    "verdict_ok_frac": "ratio",
}


@dataclass
class Sample:
    op: object
    raw_s: float          # wall time of the op
    failure: str | None
    rss_kb: int
    seconds: float = 0.0  # the same in reference seconds (yardstick.py)


def tail_rank(n: int, positives_per_pass: int) -> tuple[int, float]:
    """(1-based rank, percentile) of op_s.tail among n sorted samples.

    The percentile is fixed by the op mix: the highest one that leaves
    TAIL_BEYOND samples of a single pass beyond it, and never below the
    median (the caller also keeps the value at or above the median).  Whole
    passes repeat the mix, so k passes leave 10k samples beyond it.
    """
    p = positives_per_pass
    if p <= 2 * TAIL_BEYOND:
        return (n + 1) // 2, 50.0
    return -(-n * (p - TAIL_BEYOND) // p), 100.0 * (p - TAIL_BEYOND) / p


def run_pass(ops, workloads, check, ruler, tracer=None,
             spans_dir: Path | None = None) -> list[Sample]:
    """Run every op once, in order, and check each verdict.  The yardstick
    ``ruler`` is timed before the first op and after each op."""
    import yardstick

    samples = []
    marks = [ruler.measure()]
    for op in ops:
        if op.is_cli:
            spans = spans_dir / f"{op.id}.jsonl" if spans_dir else None
            outcome, seconds = workloads.run_cli(op, ROOT, workloads.cli_command(spans, op.id))
        else:
            with tracer.root(op.id) if tracer else nullcontext():
                start = perf_counter()
                try:
                    outcome = workloads.Outcome(value=op.call())
                except Exception as exc:  # noqa: BLE001 - an op's verdict, checked below
                    outcome = workloads.Outcome(exc=exc)
                seconds = perf_counter() - start
        samples.append(Sample(op, seconds, check(op.expected, outcome), outcome.rss_kb))
        marks.append(ruler.measure())
    for sample, scale in zip(samples, yardstick.scales(marks)):
        sample.seconds = sample.raw_s * scale
    return samples


def timed_passes(ops, workloads, check, ruler, seconds: float) -> list[list[Sample]]:
    """Whole passes until the next one would end after ``seconds``; at least one."""
    passes, durations = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(ops, workloads, check, ruler))
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return passes


def setup_seconds(workload: str, seed: int, size: str, workloads, ruler,
                  probes: int) -> tuple[list[float], list[float]]:
    """Spawn-to-ready times of fresh interpreters running bench/probe.py,
    raw and in reference seconds."""
    import yardstick

    times, marks = [], [ruler.measure()]
    for k in range(probes):
        workdir = WORK / f"probe-{os.getpid()}-{k}"
        cmd = [sys.executable, str(ROOT / "bench" / "probe.py"), workload, str(seed), size,
               str(workdir)]
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=workloads.child_env(ROOT),
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.close()
        code, _ = workloads.wait_child(proc, workloads.CLI_TIMEOUT_S)
        shutil.rmtree(workdir, ignore_errors=True)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited {code}")
        times.append(ready - start)
        marks.append(ruler.measure())
    scaled = [t * f for t, f in zip(times, yardstick.scales(marks))]
    return times, scaled


def import_seconds(workload: str, workloads, probes: int) -> tuple[float, float]:
    """Median conecalc and scipy import times from ``-X importtime``."""
    from tracing import parse_importtime

    module = "conecalc.cli" if workload == "cli-cold" else "conecalc"
    totals, scipys = [], []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                              cwd=ROOT, env=workloads.child_env(ROOT), capture_output=True,
                              text=True, timeout=workloads.CLI_TIMEOUT_S, check=True)
        total, scipy_s = parse_importtime(proc.stderr)
        totals.append(total)
        scipys.append(scipy_s)
    return statistics.median(totals), statistics.median(scipys)


def warm_up(workload: str, seed: int, workloads, ruler, workdir: Path) -> None:
    """Run the toy-size ops once untimed, so lazy imports and first calls
    are paid before measuring.  CLI children are warmed by the set-up probes."""
    for _ in range(3):
        ruler.measure()
    if workload != "cli-cold":
        run_pass(workloads.make_ops(workload, seed, "toy", ROOT, workdir), workloads,
                 workloads.CHECKS[workload], ruler)


def end_to_end(passes: list[list[Sample]], ops, setup: list[float],
               setup_raw: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics in reference seconds, and a summary that also
    gives the raw wall-clock figures."""
    samples = [s for pass_samples in passes for s in pass_samples]
    per_pass = sum(op.positive for op in ops)
    if any(op.is_cli for op in ops):
        rss_kb = max(s.rss_kb for s in samples)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = sum(s.failure is not None for s in samples)

    def times(attr: str) -> dict:
        positive = sorted(getattr(s, attr) for s in samples if s.op.positive)
        rank, _ = tail_rank(len(positive), per_pass)
        median = statistics.median(positive)
        return {
            "wall_s": statistics.median(sum(getattr(s, attr) for s in p) for p in passes),
            "op_s.p50": median,
            "op_s.tail": max(positive[rank - 1], median),
            "reject_s.p50": statistics.median(getattr(s, attr) for s in samples
                                              if not s.op.positive),
        }

    values = {
        "setup_s": statistics.median(setup),
        **times("seconds"),
        "peak_rss_mb": rss_kb / 1024.0,
        "verdict_ok_frac": 1.0 - failed / len(samples),
    }
    summary = {
        "passes": len(passes),
        "raw": {"setup_s": statistics.median(setup_raw), **times("raw_s")},
        "speed": statistics.median(s.seconds / s.raw_s for s in samples if s.raw_s > 0),
        "setup_samples_s": setup,
        "positive_samples": sum(s.op.positive for s in samples),
        "reject_samples": sum(not s.op.positive for s in samples),
        "tail_percentile": tail_rank(1, per_pass)[1],
        "failed_frac": failed / len(samples),
        "op_s_by_kind": {kind: statistics.median(s.seconds for s in samples if s.op.kind == kind)
                         for kind in dict.fromkeys(op.kind for op in ops)},
    }
    return values, summary


def failures(samples: list[Sample]) -> list[dict]:
    """Each failing op once, with its reason and known-defect label."""
    seen = {}
    for s in samples:
        if s.failure is not None and s.op.id not in seen:
            seen[s.op.id] = {"op": s.op.id, "known_defect": s.op.known_defect,
                             "reason": s.failure[:300]}
    return list(seen.values())


def traced(workload: str, seed: int, size: str, ops, workloads, ruler, workdir: Path):
    """One plain and one traced pass; per-layer metrics of the traced one.

    Library ops are traced in this process; CLI ops run under
    bench/tracecli.py, which writes each child's spans to a file.
    """
    import tracing

    check = workloads.CHECKS[workload]
    import_s, import_scipy_s = import_seconds(workload, workloads, IMPORT_PROBES[size])
    plain = run_pass(ops, workloads, check, ruler)
    if workload == "cli-cold":
        spans_dir = workdir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        samples = run_pass(ops, workloads, check, ruler, spans_dir=spans_dir)
        files = [spans_dir / f"{op.id}.jsonl" for op in ops]
        spans = tracing.merge_spans([tracing.load_spans(f) for f in files if f.is_file()])
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            samples = run_pass(ops, workloads, check, ruler, tracer=tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans
    wall_plain = sum(s.raw_s for s in plain)
    wall_traced = sum(s.raw_s for s in samples)
    metrics = tracing.layer_metrics(spans, ops)
    metrics["cli.import_s"] = import_s
    metrics["cli.import_scipy_s"] = import_scipy_s
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    out = WORK / "spans"
    out.mkdir(parents=True, exist_ok=True)
    spans_file = out / f"{workload}-seed{seed}.jsonl"
    tracing.dump_spans(spans, spans_file)
    first_of_kind = {}
    for op in ops:
        first_of_kind.setdefault(op.kind, op.id)
    counts = tracing.per_op_counts(spans)
    summary = {
        "pass_s": {"plain": wall_plain, "traced": wall_traced},
        "spans": len(spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "calls_per_op_kind": {
            kind: {k: v for k, v in counts.get(op_id, {}).items() if v}
            for kind, op_id in first_of_kind.items()},
    }
    return metrics, plain + samples, summary


def environment(seed: int, workload: str) -> dict:
    """Machine and library record of a run; numpy must already be loaded."""
    blas_version, blas_threads = None, None
    try:
        paths = sorted({line.split()[-1] for line in open("/proc/self/maps", encoding="utf-8")
                        if "openblas" in line and line.split()[-1].startswith("/")})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and blas_threads is None:
                    threads.restype = ctypes.c_int
                    blas_threads = threads()
                if config is not None and blas_version is None:
                    config.restype = ctypes.c_char_p
                    blas_version = config().decode(errors="replace")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "blas_env": BLAS_ENV,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is its own git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Run one workload; print its environment and summary lines and return
    the result object."""
    import tracing
    import workloads
    import yardstick

    ruler = yardstick.Yardstick()
    workdir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        ops = workloads.make_ops(workload, seed, size, ROOT, workdir)
        print("env: " + json.dumps(environment(seed, workload)), flush=True)
        if trace:
            warm_up(workload, seed, workloads, ruler, workdir / "warm")
            values, samples, summary = traced(workload, seed, size, ops, workloads, ruler,
                                              workdir)
            units = tracing.metric_units()
        else:
            warm_up(workload, seed, workloads, ruler, workdir / "warm")
            setup_raw, setup = setup_seconds(workload, seed, size, workloads, ruler,
                                             SETUP_PROBES[size])
            passes = timed_passes(ops, workloads, workloads.CHECKS[workload], ruler, seconds)
            values, summary = end_to_end(passes, ops, setup, setup_raw)
            samples = [s for pass_samples in passes for s in pass_samples]
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = failures(samples)
    summary.update({"workload": workload, "ops_per_pass": len(ops),
                    "positive_per_pass": sum(op.positive for op in ops), "failed_ops": failed})
    print("summary: " + json.dumps(summary), flush=True)
    return {
        "correct": all(f["known_defect"] for f in failed),
        "attempted": len(samples),
        "failed": sum(s.failure is not None for s in samples),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="cli-cold, chain-tower, lattice, spin-mlm or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs for the benchmark's self-test")
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)
    os.environ.pop("CONECALC_THREADS", None)

    src = ROOT / "src"
    if not (src / "conecalc" / "__init__.py").is_file():
        print(f"bench: no conecalc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS + ("all",):
        parser.error(f"unknown workload {args.workload!r}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace), args.size)
        if len(names) > 1:
            print(f"result {name}: " + json.dumps(results[name]), flush=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
