"""Benchmark of superq: cold time to an exact solution, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a superq checkout; it needs ``src/superq`` there and
writes only there: bytecode to the ``__pycache__`` directories, everything else
under ``.bench_build/``.  Workloads:

- chartable, frak, bruteforce: one cold computation (see workloads.py) per
  fresh interpreter, repeated one process at a time until S seconds have
  passed.  After each repetition the next five of the README's example
  commands run as `superq` subprocesses, for the set-up and per-command
  metrics.
- cli: passes over the README's example commands plus `superq verify`, each
  command a subprocess, repeated until S seconds have passed.

All runs are a closed loop with one client: never more than one superq
process at a time.  With --trace 0 the end-to-end metrics are reported:

- setup_s: from spawning a `superq` process until `import superq.cli` has
  finished in it (median over the run's commands).
- wall_s: the timed section of one cold computation; on cli, the summed
  latency of one pass over all commands (upper quartile over repetitions).
- peak_rss_mb: peak resident memory of the computing process (median over
  repetitions; on cli, the largest command of a pass).

Printed with them: cmd_p50_s, the median latency of one `superq` command from
spawn to exit, and fail_frac, the share of the oracle's checks that failed,
which is the result's `failed` over `attempted`.  With --trace 1, traced and
untraced repetitions alternate; the per-layer metrics of spans.LAYER_METRICS
come from the traced ones, trace.overhead_ratio is traced over untraced
wall_s, and the spans are written under .bench_build/spans/.

The last line of stdout is the result as one JSON object; a full record,
stamped with the Python version, rational backend, nproc and seed, goes to
.bench_build/results/ for compare.py.
"""

import argparse
import json
import os
import platform
import random
import statistics
import shutil
import subprocess
import sys
import time
import uuid

import cli_commands
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("chartable", "frak", "bruteforce", "cli")
CHILD_TIMEOUT_S = 150
BUDGET_S = 170  # stop starting repetitions past this, to exit within 180 s
# superq needs only the standard library; -S keeps the machine's site-packages
# start-up hooks out of the measured set-up time.
PYTHON = [sys.executable, "-S"]

PROBES_PER_REP = 5
# (name, unit, statistic of the run's samples that is reported as its value).
# wall_s reports the upper quartile of the repetitions: on a shared machine
# whose CPU speed switches between a contended plateau and faster bursts, the
# median of a run flips between the two more often.
END_TO_END = [("setup_s", "s", "median"), ("wall_s", "s", "p75"),
              ("peak_rss_mb", "MB", "median"), ("cmd_p50_s", "s", "median")]
# The metrics in the result and in BENCHMARK.json.  cmd_p50_s is only printed:
# its median is as unsteady as that of wall_s, and setup_s and the wall_s of
# the cli workload carry its signal.
DECLARED = ["setup_s", "wall_s", "peak_rss_mb"]


def summary(values):
    """Median, upper quartile, and the highest percentile with at least ten
    samples above it."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "n": len(ordered),
           "p75": (statistics.quantiles(ordered, n=4, method="inclusive")[2]
                   if len(ordered) > 1 else ordered[0])}
    if len(ordered) > 10:
        rank = len(ordered) - 10
        out["pct"] = 100 * rank // len(ordered)
        out["pct_value"] = ordered[rank - 1]
    return out


class Bench:
    def __init__(self, root, args):
        self.args = args
        self.run_id = uuid.uuid4().hex[:12]
        self.build = os.path.join(root, ".bench_build")
        self.tmp = os.path.join(self.build, "tmp", self.run_id)
        self.spans_dir = os.path.join(self.build, "spans")
        os.makedirs(self.tmp, exist_ok=True)
        os.makedirs(self.spans_dir, exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            PYTHONHASHSEED="0",  # the same dict layouts, so the same work, every run
            PYTHONIOENCODING="utf-8",
        )
        self.started = time.perf_counter()
        self.checks = 0
        self.failures = []
        self.backends = set()
        self.spans_written = 0

    def elapsed(self):
        return time.perf_counter() - self.started

    def record_checks(self, checks):
        self.checks += len(checks)
        self.failures += [message for ok, message in checks if not ok]

    def warm(self):
        """Compile superq and the benchmark to bytecode once, and load them
        from disk once, so that no timed process compiles or reads cold."""
        for argv in (["-m", "compileall", "-q", "src/superq", HERE],
                     ["-c", "import superq.cli"]):
            done = subprocess.run([*PYTHON, *argv], env=self.env,
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
            if done.returncode:
                sys.exit("perfbench: cannot build or import superq:\n"
                         + done.stderr.decode(errors="replace"))

    def _spans_path(self, label):
        self.spans_written += 1
        return os.path.join(self.spans_dir,
                            f"{self.run_id}-{self.spans_written:03d}-{label}.tsv.gz")

    def command(self, slug, argv, stated, traced):
        """Run one `superq` command; returns (latency, setup, report) or None."""
        report_path = os.path.join(self.tmp, "report.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        env = dict(self.env, PERFBENCH_REPORT=report_path,
                   PERFBENCH_TRACE="1" if traced else "0", PERFBENCH_RUN_ID=self.run_id)
        if traced:
            env["PERFBENCH_SPANS"] = self._spans_path(slug)
        spawned = time.perf_counter()
        try:
            done = subprocess.run([*PYTHON, os.path.join(HERE, "launch.py"), *argv],
                                  env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.record_checks([(False, f"{slug}: timed out")])
            return None
        latency = time.perf_counter() - spawned
        self.record_checks(cli_commands.check_command(
            slug, stated, done.returncode, done.stdout, cli_commands.read_golden(slug)))
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            self.record_checks([(False, f"{slug}: no report from the command")])
            return None
        self.backends.add(report["backend"])
        return latency, report["import_done"] - spawned, report

    def cli_pass(self, rng, commands, traced):
        """One pass over commands in a seeded order; None if a command broke."""
        order = list(commands)
        rng.shuffle(order)
        latencies, setups, rss, imports, raw = [], [], [], [], {}
        for slug, argv, stated in order:
            outcome = self.command(slug, argv, stated, traced)
            if outcome is None:
                return None
            latency, setup, report = outcome
            latencies.append(latency)
            setups.append(setup)
            rss.append(report["peak_rss_kb"])
            imports.append(report["import_s"])
            spans.add_raw(raw, report.get("raw", {}))
        return {"latencies": latencies, "setups": setups, "wall_s": sum(latencies),
                "peak_rss_kb": max(rss), "import_s": statistics.median(imports),
                "raw": raw}

    def compute_rep(self, seed, traced):
        """One cold computation in a fresh interpreter; None if it broke."""
        name = self.args.workload
        argv = [*PYTHON, os.path.join(HERE, "child.py"), name, str(seed),
                "1" if traced else "0", self.run_id]
        if traced:
            argv.append(self._spans_path(name))
        try:
            done = subprocess.run(argv, env=self.env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.record_checks([(False, f"{name}: timed out")])
            return None
        if done.returncode:
            self.record_checks([(False, f"{name}: exit code {done.returncode}: "
                                 + done.stderr.decode(errors="replace")[-2000:])])
            return None
        result = json.loads(done.stdout.decode().splitlines()[-1])
        self.checks += result["attempted"]
        self.failures += result["failures"]
        self.backends.add(result["backend"])
        return result

    def measure(self):
        """Repetitions, one process at a time, until the next one would end
        past --seconds, with at least one of each kind.  After each compute
        repetition a few README commands run, for setup_s and cmd_p50_s."""
        args = self.args
        rng = random.Random(args.seed)
        start = time.perf_counter()
        probes = []
        if args.workload == "cli":
            def rep(traced):
                return self.cli_pass(rng, cli_commands.COMMANDS, traced)
        else:
            def rep(traced):
                return self.compute_rep(args.seed, traced)
            if not args.trace:
                probes = [c for c in cli_commands.COMMANDS if c[0] != "verify"]
                rng.shuffle(probes)
        plain, traced, probed, last = [], [], [], {}
        while self.elapsed() < BUDGET_S:
            kind = bool(args.trace) and len(traced) < len(plain)
            done = plain and (traced or not args.trace)
            if done and time.perf_counter() - start + last[kind] > args.seconds:
                break
            began = time.perf_counter()
            result = rep(kind)
            if result is None:
                break
            (traced if kind else plain).append(result)
            if probes:
                first = len(probed) * PROBES_PER_REP
                chunk = [probes[(first + i) % len(probes)] for i in range(PROBES_PER_REP)]
                probed.append(self.cli_pass(rng, chunk, False))
                if probed[-1] is None:
                    break
            last[kind] = time.perf_counter() - began
        if not plain or (args.trace and not traced) or None in probed:
            sys.exit("perfbench: a repetition of the workload failed:\n"
                     + "\n".join(self.failures[:5]))
        return probed, plain, traced

    def end_to_end(self, probed, plain):
        passes = probed or plain
        samples = {
            "setup_s": [s for p in passes for s in p["setups"]],
            "wall_s": [r["wall_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in plain],
            "cmd_p50_s": [s for p in passes for s in p["latencies"]],
        }
        out = {}
        for name, unit, statistic in END_TO_END:
            out[name] = dict(summary(samples[name]), unit=unit, samples=samples[name])
            out[name]["value"] = out[name][statistic]
        return out

    def per_layer(self, plain, traced):
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain))
        import_s = statistics.median(r.get("import_s", 0.0) for r in traced)
        layers = [spans.layer_metrics(r["raw"], import_s, overhead) for r in traced]
        for name in spans.EXACT:
            values = {layer[name] for layer in layers}
            self.record_checks([(len(values) == 1,
                                 f"{name} differs between traced repetitions: {values}")])
        out = {}
        for name, unit, _, _ in spans.LAYER_METRICS:
            middle = statistics.median_low if name in spans.EXACT else statistics.median
            value = middle(layer[name] for layer in layers)
            out[name] = {"value": value, "median": value, "n": len(layers), "unit": unit}
            if name.endswith(".hit_ratio"):
                base = name[: -len("hit_ratio")] + "calls"
                out[name]["base"] = statistics.median(layer[base] for layer in layers)
        return out

    def stamp(self):
        return {"python": platform.python_version(),
                "backend": ",".join(sorted(self.backends)),
                "nproc": os.cpu_count(), "seed": self.args.seed,
                "workload": self.args.workload, "trace": self.args.trace,
                "seconds": self.args.seconds, "run_id": self.run_id}


def print_table(stamp, metrics, attempted, failed, moves):
    print(" ".join(f"{key}={value}" for key, value in stamp.items()))
    print(f"{'metric':42} {'unit':6} {'value':>12} {'median':>12}  "
          f"{'high percentile':18} {'n':>4}")
    for name, m in metrics.items():
        high = f"p{m['pct']} {m['pct_value']:.6g}" if "pct" in m else "-"
        note = f"  of {m['base']} calls" if "base" in m else ""
        note += f"  moves {moves[name]}" if name in moves else ""
        print(f"{name:42} {m['unit']:6} {m['value']:12.6g} {m['median']:12.6g}  "
              f"{high:18} {m['n']:4}{note}")
    print(f"{'fail_frac':42} {'1':6} {failed / attempted:12.6g}  "
          f"({failed} of {attempted} checks failed)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "superq", "__init__.py")):
        sys.exit("perfbench: no src/superq here; run from the root of a superq checkout")

    bench = Bench(root, args)
    try:
        bench.warm()
        probed, plain, traced = bench.measure()
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    if args.trace:
        metrics = bench.per_layer(plain, traced)
        moves = {name: move for name, _, _, move in spans.LAYER_METRICS}
    else:
        metrics = bench.end_to_end(probed, plain)
        moves = {}
    attempted, failed = bench.checks, len(bench.failures)
    stamp = bench.stamp()

    os.makedirs(os.path.join(bench.build, "results"), exist_ok=True)
    record_path = os.path.join(
        bench.build, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{bench.run_id}.json")
    with open(record_path, "w") as fh:
        json.dump({"stamp": stamp, "attempted": attempted, "failed": failed,
                   "failures": bench.failures[:50], "metrics": metrics}, fh, indent=1)

    print_table(stamp, metrics, attempted, failed, moves)
    for message in bench.failures[:10]:
        print("FAILED:", message)
    print("record:", os.path.relpath(record_path, root))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items() if args.trace or name in DECLARED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
