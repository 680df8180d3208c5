"""Run one `superq` command the way the installed script does
(``sys.exit(superq.cli.main())``), and report on it to a file.

    PERFBENCH_REPORT=report.json python3 perfbench/launch.py ARGS...

The report holds the clock reading when ``import superq.cli`` finished
(``time.perf_counter``, which shares its clock with the parent process), the
import's own duration, the peak RSS and the rational backend.  With
``PERFBENCH_TRACE=1`` the superq entry points are traced after the import,
the report also holds the raw per-layer totals, and the spans are written to
the path in ``PERFBENCH_SPANS`` when it is set.  Stdout is the command's own.
"""

import os
import sys
import time


def main():
    started = time.perf_counter()
    import superq.cli

    imported = time.perf_counter()
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return superq.cli.main()
    finally:
        sys.stdout.flush()
        _report(started, imported, tracer)


def _report(started, imported, tracer):
    import json
    import resource

    report = {
        "import_done": imported,
        "import_s": imported - started,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": sys.modules["superq.rational"].BACKEND,
    }
    if tracer is not None:
        report["raw"] = tracer.raw()
        if os.environ.get("PERFBENCH_SPANS"):
            tracer.write(os.environ["PERFBENCH_SPANS"], os.environ["PERFBENCH_RUN_ID"])
    with open(os.environ["PERFBENCH_REPORT"], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
