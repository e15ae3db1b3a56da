"""Run one eqdeg command line with the benchmark's tracer installed.

Usage: python perfbench/cli_traced.py SPANS_JSON REQUEST_ID VERB CONFIG

Behaves like `python -m eqdeg.cli VERB CONFIG` and writes the spans of
the call to SPANS_JSON.  Interpreter start and import fall outside every
span, so they show up as unattributed time.
"""

import sys

import eqdeg.cli

import tracer as tr


def main(argv: list[str]) -> int:
    spans_path, request_id = argv[1], int(argv[2])
    tracer = tr.Tracer()
    tr.install(tracer)
    root = tracer.begin_request(request_id)
    try:
        return eqdeg.cli.main(argv[3:])
    finally:
        tracer.end_request(root)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
