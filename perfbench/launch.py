"""Start the recourse-lab CLI the way its console script does, and time the import.

Usage: python launch.py READY_FILE SPAN_DIR CLI_ARG...

Writes the CLOCK_MONOTONIC time at which `recourse_lab.cli` finished importing
to READY_FILE, then runs `recourse_lab.cli.main(CLI_ARG...)`. When SPAN_DIR is
not empty, calls into each module are traced (see spans.py) under one root
span named `cli.main`, and the spans are written to SPAN_DIR.
"""

import sys
import time


def main() -> int:
    ready_file, span_dir, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import recourse_lab.cli as cli

    ready = time.monotonic()
    with open(ready_file, "w", encoding="utf-8") as fh:
        fh.write(repr(ready))
    if not span_dir:
        return cli.main(argv)

    import spans

    tracer = spans.install(span_dir)
    root = tracer.start("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.end(root)


if __name__ == "__main__":
    sys.exit(main())
