"""Run the conecalc CLI with span tracing, then write the spans.

    python3 bench/tracecli.py SPANS_FILE OP_ID TASK [CLI ARGS...]

Behaves like ``python -m conecalc TASK ...``: same exit code, and an
unexpected exception still ends in a traceback.  The spans are written
even then.
"""

import sys

import conecalc.cli

from tracing import Tracer, dump_spans


def main() -> int:
    spans_path, op_id, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root(op_id):
            return conecalc.cli.main(argv)
    finally:
        dump_spans(tracer.spans, spans_path)


if __name__ == "__main__":
    sys.exit(main())
