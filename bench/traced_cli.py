"""One gausshaar CLI invocation in-process, with spans at the module boundaries.

    python3 bench/traced_cli.py SPANS_FILE RUN_ID -- CLI_ARGS...

Imports the program, interposes the tracer, runs `gausshaar.cli.main` under a
root span `cli.main`, writes the spans to SPANS_FILE and exits with the
command's exit code.
"""

import sys

from tracer import Tracer, interpose


def main() -> int:
    spans_path, run_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit(__doc__)
    from gausshaar import cli

    tracer = Tracer(run_id)
    interpose(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
