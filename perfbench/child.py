"""One cold run of a compute workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE RUN_ID [SPANS_PATH]

Prints one JSON line: the timed section's wall time, the peak RSS at its end,
the rational backend and the oracle's checks.  With TRACE = 1 the superq
entry points are traced during the timed section; the line then also holds
the raw per-layer totals, and the spans go to SPANS_PATH.
"""

import json
import resource
import sys
import time

import superq

import spans
import workloads


def main(argv):
    name, seed, trace, run_id = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed)
    compute = workload.compute
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        compute = tracer.span("workload." + name, compute)
    started = time.perf_counter()
    outputs = compute(inputs)
    wall = time.perf_counter() - started
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall, "peak_rss_kb": peak_rss_kb,
              "backend": superq.rational.BACKEND}
    if tracer is not None:
        result["raw"] = tracer.raw()
        traced_spans = len(tracer.starts)
    checks = workload.check(inputs, outputs)
    result["attempted"] = len(checks)
    result["failures"] = [message for ok, message in checks if not ok]
    if tracer is not None and len(argv) > 5:
        tracer.write(argv[5], run_id, traced_spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
