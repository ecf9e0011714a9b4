"""Batch front-end: JSON config in, canonical JSON report (and DOT diagram)
out, with a strict exit-code contract.

Exit codes: 0 = task ran and every asserted invariant held; 1 = task failed
or errored; 2 = the configuration did not validate.  Reports are byte-stable
functions of the config bytes.  A config is read by `spec`, with the standard
library alone; its digest is taken once it has read, and numpy and the
verifier modules load as it is built and run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import ConecalcError, IoError, SchemaError
from .spec import TASKS, _require, read_config


def run_config(config: dict, digest: str | bytes) -> tuple[dict, dict]:
    """Read the config, build its registries, run its task, and wrap the
    outcome as a report object.

    ``digest`` is the report's config digest, or the config's bytes, whose
    sha256 hex digest it is: taken once the config reads, so a refusal
    loads no `hashlib`.  Returns (report, extra_files).  A config that does
    not read or build raises SchemaError; every failure of the run is
    folded into the report's status.
    """
    task, ctx, run = read_config(config)
    if isinstance(digest, bytes):
        import hashlib

        digest = hashlib.sha256(digest).hexdigest()
    ctx.build()  # refuses what only floats can tell: a non-orthonormal cone or isometry

    extra_files: dict[str, str] = {}
    try:
        ok, payload, *extra = run()
        extra_files.update(*extra)  # a diagram file, if the task draws one
        status = "pass" if ok else "fail"
    except ConecalcError as exc:  # the verification ran and said no, not a crash
        status = "fail"
        payload = {"reason": str(exc), "error_type": type(exc).__name__}
        index = getattr(exc, "index", None)
        if index is not None:
            payload["index"] = index
    except Exception as exc:  # noqa: BLE001 - surfaced in the report
        status = "error"
        payload = {"reason": str(exc), "error_type": type(exc).__name__}

    report = {
        "task": task,
        "status": status,
        "payload": payload,
        "tool_version": __version__,
        "config_digest": digest,
    }
    return report, extra_files


def emit(report: dict, out_dir: str | Path, extra_files: dict[str, str] | None = None) -> list[Path]:
    """Write report.json (and any diagram files) with canonical bytes."""
    from .jsonio import canonical_dumps
    out = Path(out_dir)
    # rendered first, so a report that cannot be leaves no directory
    rendered = canonical_dumps(report) + "\n"
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        # a lone surrogate is the one string UTF-8 cannot encode; it is
        # written as its JSON escape \udXXX
        report_path.write_text(rendered, encoding="utf-8", errors="backslashreplace")
        written.append(report_path)
        for name, text in (extra_files or {}).items():
            path = out / name
            path.write_text(text, encoding="utf-8")
            written.append(path)
    except OSError as exc:
        raise IoError(f"cannot write outputs to {out}: {exc}") from exc
    return written


def _reject_constant(token: str):
    raise SchemaError(f"config contains the non-finite number {token}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refusing a repeated key where json would keep the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="conecalc",
        description="Verify positivity, inheritance chains, and quantum-number "
                    "stability from a JSON run configuration.",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", help="path to the run configuration JSON")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    args = parser.parse_args(argv)

    try:
        _require(args.config is not None, "--config is required")
        raw = Path(args.config).read_bytes()
        try:
            config = json.loads(raw, parse_constant=_reject_constant,
                                object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
        if isinstance(config, dict) and args.task != config.get("task", args.task):
            raise SchemaError(
                f"config task {config.get('task')!r} does not match CLI task {args.task!r}"
            )
        report, extra = run_config(config, raw)
    except SchemaError as exc:
        print(f"conecalc: schema error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"conecalc: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        paths = emit(report, args.out, extra)
    except IoError as exc:
        print(f"conecalc: {exc}", file=sys.stderr)
        return 1
    print(f"{report['status']}: {report['task']} -> {paths[0]}")
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
