"""Compare two benchmark records written by run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Prints, for each metric both records hold, the two values, the relative
change and, for end-to-end metrics, the bound from BENCHMARK.json.  Refuses
(exit 2) to compare records whose Python version, rational backend, workload
or trace mode differ, since their timings are not comparable.
"""

import json
import os
import sys

MUST_MATCH = ("python", "backend", "workload", "trace")


def load(path):
    with open(path) as fh:
        return json.load(fh)


def compare(base, new, bounds):
    """Lines of the comparison; raises ValueError if the stamps differ."""
    for key in MUST_MATCH:
        if base["stamp"][key] != new["stamp"][key]:
            raise ValueError(f"refusing to compare: {key} is {base['stamp'][key]!r} "
                             f"in one record and {new['stamp'][key]!r} in the other")
    lines = []
    for name, b in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        n = new["metrics"][name]
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else 0.0
        bound = f"bound {bounds[name]:+.0%}" if name in bounds else ""
        lines.append(f"{name:42} {b['value']:12.6g} {n['value']:12.6g} "
                     f"{change:+8.1%} {bound}")
    return lines


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        bounds = {m["name"]: m["bound"] for m in load("BENCHMARK.json")["end_to_end"]}
    try:
        lines = compare(load(argv[1]), load(argv[2]), bounds)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{'metric':42} {'base':>12} {'new':>12} {'change':>8}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
