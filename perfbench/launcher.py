"""Run one signalnorm CLI command in a fresh process, traced.

    PERFBENCH_SPANS=spans.json python3 perfbench/launcher.py estimate --regime high ...

Times the import of ``signalnorm.cli``, installs the benchmark's timing
wrappers, calls ``signalnorm.cli.main`` with the remaining arguments, writes
the spans to the file named by ``PERFBENCH_SPANS`` and exits with the
command's status.  The package must be importable (PYTHONPATH=src).
"""

import json
import os
import sys

from tracing import Tracer, install, now


def main() -> int:
    tracer = Tracer()
    start = now()
    import signalnorm.cli

    tracer.record("process.import", start, now())
    install(tracer)
    try:
        return signalnorm.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(tracer.records(), fh)


if __name__ == "__main__":
    sys.exit(main())
