"""Span tracing of superq's public entry points, installed from outside.

`Tracer.install()` replaces each traced function with a wrapper that records
one span (name, start, end, parent span) per call.  The wrapper is bound
wherever the function is held: under every name that a loaded module binds
it to, and inside superq's module-level dicts (the expression basis table) and
lists of tuples (the verify checks).  Wrappers sit outside ``functools.cache``,
so cache hits count as calls.  The GammaElement operators are wrapped on the
class and also count the terms they touch; partition constructions are
counted without spans.  Spans stay in memory until the run ends.

`raw()` sums everything into flat additive numbers, so the results of several
processes combine by adding; `layer_metrics()` turns a sum into the reported
per-layer metrics.
"""

import array
import gzip
import sys
import time

TRACED = [
    "partitions.g",
    "partitions.enumerate_strict",
    "schurq.q",
    "schurq.character_table",
    "factorial.p_star",
    "factorial.p_to_pstar_coeffs",
    "frakp.frak_p",
    "frakp.expand_gamma_in_frak",
    "plancherel.average_symbolic",
    "plancherel.average_mu_symbolic",
    "plancherel.prob",
    "plancherel.prob_mu",
    "plancherel.average_bruteforce",
    "content.hat_p",
    "explorer.structure_constants",
    "expr.parse_and_eval",
    "cli.main",
]

# Memoised entry points whose hit ratio is reported; the base is their calls.
CACHED = ["schurq.q", "schurq.character_table", "factorial.p_star", "frakp.frak_p"]

COUNTERS = [
    "partitions.keys_built",
    "gamma.mul.term_pairs",
    "gamma.mul.terms_out",
    "gamma.add.terms_copied",
    "gamma.add.terms_touched",
]

# The verify checks, in the order of superq.verify.CHECKS.
VERIFY_CHECKS = [
    "check_measure_normalization",
    "check_character_integrity",
    "check_polynomial_averages",
    "check_golden_expansions",
    "check_deformed_average_constants",
    "check_product_average_orthogonality",
    "check_han_xiong_identity",
    "check_corner_functions",
    "check_p2_experiment",
    "check_discrepancy_guard",
    "check_conjecture_scan",
]

# Reported per-layer metrics: (name, unit, better, end-to-end metric and
# workload it is expected to move).
LAYER_METRICS = [
    ("partitions.g.calls", "count", "lower", "wall_s on bruteforce"),
    ("partitions.g.self_s", "s", "lower", "wall_s on bruteforce"),
    ("partitions.g_skew.cache_entries", "count", "lower", "peak_rss_mb on bruteforce"),
    ("partitions.enumerate_strict.self_s", "s", "lower", "wall_s on bruteforce"),
    ("partitions.keys_built", "count", "lower", "wall_s on chartable and bruteforce"),
    ("gamma.mul.calls", "count", "lower", "wall_s on chartable"),
    ("gamma.mul.self_s", "s", "lower", "wall_s on chartable"),
    ("gamma.mul.term_pairs", "count", "lower", "wall_s on chartable"),
    ("gamma.mul.terms_out", "count", "lower", "wall_s on chartable"),
    ("gamma.add.calls", "count", "lower", "wall_s on frak"),
    ("gamma.add.self_s", "s", "lower", "wall_s on frak"),
    ("gamma.add.terms_copied", "count", "lower", "wall_s on frak"),
    ("gamma.add.touched_ratio", "ratio", "higher", "wall_s on frak"),
    ("gamma.scale.calls", "count", "lower", "wall_s on frak"),
    ("gamma.scale.self_s", "s", "lower", "wall_s on frak"),
    ("gamma.evaluate.calls", "count", "lower", "wall_s on bruteforce"),
    ("gamma.evaluate.self_s", "s", "lower", "wall_s on bruteforce"),
    ("schurq.q.calls", "count", "lower", "wall_s on chartable"),
    ("schurq.q.self_s", "s", "lower", "wall_s on chartable"),
    ("schurq.q.hit_ratio", "ratio", "higher", "wall_s on chartable"),
    ("schurq.character_table.calls", "count", "lower", "wall_s on chartable"),
    ("schurq.character_table.self_s", "s", "lower", "wall_s on chartable"),
    ("schurq.character_table.hit_ratio", "ratio", "higher", "wall_s on frak"),
    ("factorial.p_star.calls", "count", "lower", "wall_s on frak"),
    ("factorial.p_star.self_s", "s", "lower", "wall_s on frak"),
    ("factorial.p_star.hit_ratio", "ratio", "higher", "wall_s on frak"),
    ("factorial.p_to_pstar_coeffs.self_s", "s", "lower", "wall_s on frak"),
    ("frakp.frak_p.calls", "count", "lower", "wall_s on frak"),
    ("frakp.frak_p.self_s", "s", "lower", "wall_s on frak"),
    ("frakp.frak_p.hit_ratio", "ratio", "higher", "wall_s on frak"),
    ("frakp.expand_gamma_in_frak.calls", "count", "lower", "wall_s on frak"),
    ("frakp.expand_gamma_in_frak.self_s", "s", "lower", "wall_s on frak"),
    ("plancherel.average_symbolic.self_s", "s", "lower", "wall_s on frak"),
    ("plancherel.average_mu_symbolic.self_s", "s", "lower", "wall_s on frak"),
    ("plancherel.prob.calls", "count", "lower", "wall_s on bruteforce"),
    ("plancherel.prob.self_s", "s", "lower", "wall_s on bruteforce"),
    ("plancherel.prob_mu.self_s", "s", "lower", "wall_s on bruteforce"),
    ("plancherel.average_bruteforce.self_s", "s", "lower", "wall_s on bruteforce"),
    ("content.hat_p.self_s", "s", "lower", "wall_s on frak and bruteforce"),
    ("explorer.structure_constants.calls", "count", "lower", "wall_s on frak"),
    ("explorer.structure_constants.self_s", "s", "lower", "wall_s on frak"),
    ("expr.parse_and_eval.self_s", "s", "lower", "cmd_p50_s on cli"),
    ("cli.main.self_s", "s", "lower", "cmd_p50_s on cli"),
    ("cli.import_s", "s", "lower", "setup_s and cmd_p50_s on cli"),
] + [
    (f"verify.{name}.s", "s", "lower", "wall_s on cli") for name in VERIFY_CHECKS
] + [
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced wall_s"),
]

# Metrics that count work; they must repeat exactly for the same inputs.
EXACT = [name for name, unit, _, _ in LAYER_METRICS if unit == "count"]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = array.array("q")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._cache_base = {}
        self._caches = {}
        self._g_skew = None

    def span(self, name, fn):
        """Wrap fn so that each call records a span called name."""
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        import superq.cli  # noqa: F401  (loads every superq module)
        from superq import gamma, partitions, verify

        swaps = {}
        for name in TRACED:
            module, attr = name.rsplit(".", 1)
            fn = getattr(sys.modules["superq." + module], attr)
            swaps[id(fn)] = self.span(name, fn)
            if name in CACHED:
                self._caches[name] = fn
                self._cache_base[name] = fn.cache_info()
        for _, _, fn in verify.CHECKS:
            swaps[id(fn)] = self.span("verify." + fn.__name__, fn)
        for mod_name, module in list(sys.modules.items()):
            # Callers of superq, such as the workloads, bind names only.
            in_superq = mod_name == "superq" or mod_name.startswith("superq.")
            _rebind(getattr(module, "__dict__", {}), swaps, in_superq)
        self._g_skew = partitions._g_skew
        self._wrap_gamma(gamma.GammaElement)
        self._count_keys(partitions._Partition)

    def _wrap_gamma(self, cls):
        counts = self.counts
        mul = self.span("gamma.mul", cls.__mul__)
        add = self.span("gamma.add", cls.__add__)
        plain_mul = cls.__mul__

        def __mul__(a, b):
            if not isinstance(b, cls):
                return plain_mul(a, b)  # a scalar product, spanned as gamma.scale
            counts["gamma.mul.term_pairs"] += len(a._coeffs) * len(b._coeffs)
            out = mul(a, b)
            counts["gamma.mul.terms_out"] += len(out._coeffs)
            return out

        def __add__(a, b):
            if isinstance(b, cls):
                counts["gamma.add.terms_copied"] += len(a._coeffs)
                counts["gamma.add.terms_touched"] += len(b._coeffs)
            return add(a, b)

        cls.__mul__ = __mul__
        cls.__add__ = __add__
        cls._scale = self.span("gamma.scale", cls._scale)
        cls.evaluate = self.span("gamma.evaluate", cls.evaluate)

    def _count_keys(self, cls):
        counts = self.counts
        init = cls.__init__

        def __init__(self, parts=()):
            counts["partitions.keys_built"] += 1
            init(self, parts)

        cls.__init__ = __init__

    def raw(self):
        """Additive totals: calls, self and total seconds per span name,
        cache hits and misses, counters and memo sizes."""
        names, name_ids, parents = self.names, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        covered = [0.0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        out = {}
        for name in names:
            out[name + ".calls"] = 0
            out[name + ".self_s"] = 0.0
            out[name + ".total_s"] = 0.0
        for i, nid in enumerate(name_ids):
            name = names[nid]
            duration = ends[i] - starts[i]
            out[name + ".calls"] += 1
            out[name + ".total_s"] += duration
            out[name + ".self_s"] += duration - covered[i]
        for name, fn in self._caches.items():
            now, base = fn.cache_info(), self._cache_base[name]
            out[name + ".hits"] = now.hits - base.hits
            out[name + ".misses"] = now.misses - base.misses
        out.update(self.counts)
        out["partitions.g_skew.cache_entries"] = self._g_skew.cache_info().currsize
        return out

    def write(self, path, run_id, limit=None):
        """Write the first `limit` spans (default all) as tab-separated
        lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# run_id={run_id}\n# span\tparent\tname\tstart\tend\n")
            names = self.names
            for i, nid in enumerate(self.name_ids[:limit]):
                fh.write(f"{i}\t{self.parents[i]}\t{names[nid]}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


def _rebind(namespace, swaps, containers):
    """Replace every value in swaps; with containers, also inside dicts and
    inside the tuples of lists."""
    for key, value in list(namespace.items()):
        if isinstance(key, str) and key.startswith("__"):
            continue
        if id(value) in swaps:
            namespace[key] = swaps[id(value)]
        elif not containers:
            continue
        elif isinstance(value, dict):
            _rebind(value, swaps, containers)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, tuple) and any(id(x) in swaps for x in item):
                    value[i] = tuple(swaps.get(id(x), x) for x in item)


def add_raw(total, raw):
    for key, value in raw.items():
        total[key] = total.get(key, 0) + value
    return total


def layer_metrics(raw, import_s=0.0, overhead_ratio=0.0):
    """The per-layer metrics of LAYER_METRICS from summed raw totals."""

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _, _, _ in LAYER_METRICS:
        if name.endswith(".hit_ratio"):
            base = name[: -len(".hit_ratio")]
            hits = raw.get(base + ".hits", 0)
            value = ratio(hits, hits + raw.get(base + ".misses", 0))
        elif name == "gamma.add.touched_ratio":
            value = ratio(raw.get("gamma.add.terms_touched", 0),
                          raw.get("gamma.add.terms_copied", 0))
        elif name.startswith("verify."):
            value = raw.get(name[: -len(".s")] + ".total_s", 0.0)
        elif name == "cli.import_s":
            value = import_s
        elif name == "trace.overhead_ratio":
            value = overhead_ratio
        else:
            value = raw.get(name, 0)
        out[name] = value
    return out
