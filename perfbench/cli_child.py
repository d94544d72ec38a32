"""Run one `inputproc` command under the tracer, as `python -m inputproc` would.

    PYTHONPATH=src PERFBENCH_TRACE_OUT=trace.json python perfbench/cli_child.py check --text t.txt

Times the import of `inputproc.cli`, wraps the package's public functions,
calls `cli.main` with the arguments, and writes per-function calls and self
time, the tracer's counters and the import time as JSON to the file named by
PERFBENCH_TRACE_OUT. Standard output and the exit code are the command's own.
"""

import json
import os
import sys
from time import perf_counter


def main() -> int:
    t0 = perf_counter()
    import inputproc.cli as cli
    import_ms = (perf_counter() - t0) * 1e3

    from tracing import Tracer, package_modules
    tracer = Tracer()
    tracer.install(package_modules())
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    summary = {
        "import_ms": import_ms,
        "spans": {name: [calls, secs * 1e3] for name, (calls, secs) in tracer.aggregate().items()},
        "span_count": tracer.mark(),
        "counters": dict(tracer.counters),
    }
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as out:
        json.dump(summary, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
