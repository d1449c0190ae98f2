"""One benchmark operation: a fresh interpreter that imports ``qwalk.cli``
from a source tree and calls ``main`` once.

Usage::

    python3 perfbench/child.py ROOT RESULT_JSON TRACE -- QWALK_ARGV...

ROOT is the checkout whose ``src/`` holds the package.  RESULT_JSON
receives the exit code, the time the import finished (on the monotonic
clock, so the parent can subtract the moment it spawned this process),
and the wall time, CPU time and peak RSS of ``main``.  TRACE is ``-`` for an
untraced call, or ``spans:PATH`` or ``memory:PATH`` to run ``main`` under
the timing or the memory tracer of ``spans.py``; the spans are written to
PATH after ``main`` returns.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    root, result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: child.py ROOT RESULT_JSON TRACE -- ARGV...", file=sys.stderr)
        return 2
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import qwalk.cli

    imported = time.monotonic()
    if not os.path.abspath(qwalk.cli.__file__).startswith(src + os.sep):
        print(f"qwalk imported from {qwalk.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace != "-":
        mode, _, trace_path = trace.partition(":")
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer(memory=mode == "memory")
        tracer.install()

    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is None:
        rc = qwalk.cli.main(argv)
    else:
        rc = tracer.run_main(argv)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.uninstall()
        tracer.write(trace_path)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "rc": rc,
                "imported_monotonic": imported,
                "wall_s": wall,
                "cpu_s": cpu,
                "peak_rss_mb": after.ru_maxrss / 1024.0,
            },
            f,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
