"""One benchmark op: a dsh-lab CLI invocation in a fresh interpreter.

    python3 op.py SIDE_FILE MODE OP_ID -- DSH_LAB_ARGS...

Does what the ``dsh-lab`` console script does (import ``dsh_lab.cli`` and
call ``main``), and records in SIDE_FILE the CLOCK_MONOTONIC instant at
which ``main`` is entered, so the parent can split the op's wall time into
set-up and work. MODE is ``plain``, ``trace`` (the layers are wrapped by
``tracer`` first and the spans go to SIDE_FILE.trace) or ``setup`` (stop
at the entry to ``main``: one more set-up sample).
"""

import json
import sys
import time


def main() -> int:
    side, mode, op_id, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace", "setup"):
        sys.stderr.write("usage: op.py SIDE_FILE plain|trace|setup OP_ID -- ARGS...\n")
        return 1
    from dsh_lab import cli

    tracer = None
    run = cli.main
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.install(int(op_id))
        run = tracer.span("cli", cli.main)
    entry = time.monotonic()
    rc = 0
    try:
        if mode != "setup":
            rc = run(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(side + ".trace")
        with open(side, "w", encoding="utf-8") as fh:
            json.dump({"entry": entry}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
