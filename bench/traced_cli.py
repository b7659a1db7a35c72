"""Run one veronese CLI command with the benchmark's tracer installed.

Usage: python3 bench/traced_cli.py SPANS_FILE OP_ID -- CLI_ARGS...

Standard output, standard error and the exit code are the CLI's own; the
spans and counts of the run are written to SPANS_FILE as JSON on exit.
The veronese package must be importable (PYTHONPATH pointing at src/).
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_file, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE OP_ID -- CLI_ARGS...")
    import veronese.cli

    tracer = Tracer()
    tracer.op = int(op)
    tracer.install()
    try:
        return veronese.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
