"""Traced ``repro serve``: install the span wrappers, then serve.

    python3 perfbench/launcher.py SPANS_PATH serve [repro serve options]

Runs ``repro.__main__.main`` with the remaining arguments in this
process, so the server's layers record spans exactly as the traced
client's do; once the SIGTERM drain returns, the spans are written to
``SPANS_PATH`` as JSON lines.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.__main__ import main as repro_main

    code = repro_main(argv)
    tracing.write_spans(tracer.spans, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
