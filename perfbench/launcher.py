"""Traced `stratabord` command line: installs the span wrappers, then runs
`stratabord.cli.run` on the remaining arguments.

    python3 perfbench/launcher.py SUMMARY.json ARG...

Exits with the command's own exit code.  It writes the spans next to
SUMMARY.json (same name, `.tsv`) and a summary holding the time spent
inside `cli.run`, the time spent writing the trace, and the per-name span
sums.
"""

import json
import os
import sys
import time


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    from stratabord import cli

    start = time.perf_counter()
    try:
        return cli.run(argv)
    finally:
        # Also after an uncaught exception, which then prints its traceback
        # and exits with code 1 as the plain command does.
        inside = time.perf_counter() - start
        sys.stdout.flush()
        tracer.write(summary_path[: -len(".json")] + ".tsv")
        doc = {"inside_s": inside, "layers": tracer.summary()}
        doc["tail_s"] = time.perf_counter() - start - inside
        with open(summary_path, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
