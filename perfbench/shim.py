"""Run one ``realgw`` CLI request in a fresh interpreter under the tracer.

Usage: python shim.py SPANS_FILE REQUEST_ID [realgw arguments...]

Stdin, stdout, stderr and the exit code are those of ``realgw.cli.main``;
the spans are written to SPANS_FILE when the request ends.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_file, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.request = request
    import realgw.cli

    try:
        return realgw.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
