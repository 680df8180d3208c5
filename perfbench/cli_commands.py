"""The README's `superq` example commands, plus `superq verify`, and the
checks on their output.

Each command has a golden stdout file in ``golden/<slug>.out``, captured
from the library as it stood when the benchmark was written; a command
passes when it exits 0, prints those bytes exactly, and prints the value the
README states for it, where it states one.
"""

import json
import os

from spans import VERIFY_CHECKS

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (slug, argv after `superq`, value stated in the README or None).  A stated
# value is (json key or None for plain-text output, expected string).
COMMANDS = [
    ("enum", ["enum", "5"], None),
    ("g", ["g", "4,1"], (None, "3")),
    ("gskew", ["gskew", "4,1", "3"], (None, "2")),
    ("prob", ["prob", "5", "4,1"], ("prob", "3/5")),
    ("prob-mu", ["prob", "2", "3,2", "--mu", "2,1"], None),
    ("qfunc", ["qfunc", "2,1"], None),
    ("chartable", ["chartable", "4"], None),
    ("pstar", ["pstar", "3"], None),
    ("pstar-eval", ["pstar-eval", "2,1", "2,1"], (None, "6")),
    ("frak-expand-p", ["frak", "expand-p", "5"], None),
    ("frak-eval", ["frak", "eval", "3", "2,1"], (None, "-12")),
    ("frak-deg1", ["frak", "deg1", "p[3]"], (None, "4")),
    ("avg-symbolic", ["avg", "--f", "p[3]", "--symbolic"], None),
    ("avg-n", ["avg", "--f", "hatp[1]^2", "--n", "3"], ("value", "11")),
    ("avg-mu-symbolic", ["avg", "--f", "hatp[1]", "--mu", "2,1", "--symbolic"], None),
    ("content-hatp", ["content", "hatp", "2"], None),
    ("content-hatF",
     ["content", "hatF", "--psum", '[{"partition": "1,1", "coeff": "1"}]'], None),
    ("psi", ["psi", "3"], None),
    ("psi-lambda", ["psi", "2", "--lambda", "2,1"], ("value", "36")),
    ("phi-check", ["phi-check", "5,4,2", "8"], None),
    ("lab-deg1-scan", ["lab", "deg1-scan", "--max", "8"], None),
    ("lab-p2", ["lab", "p2", "--max-n", "6"], None),
    ("lab-fstruct", ["lab", "fstruct", "3", "3"], None),
    ("verify", ["verify"], None),
]


def golden_path(slug):
    return os.path.join(GOLDEN_DIR, slug + ".out")


def read_golden(slug):
    with open(golden_path(slug), "rb") as fh:
        return fh.read()


def check_command(slug, stated, code, stdout, golden):
    """One (ok, message) pair per check on a finished command."""
    results = [(code == 0, f"{slug}: exit code {code}")]
    results.append((stdout == golden, f"{slug}: stdout differs from golden"))
    if stated is not None:
        key, want = stated
        text = stdout.decode("utf-8", "replace").strip()
        try:
            got = text if key is None else json.loads(text)[key]
        except (ValueError, KeyError, TypeError):
            got = None
        results.append((got == want, f"{slug}: README value {want!r}, got {got!r}"))
    if slug == "verify":
        lines = stdout.decode("utf-8", "replace").splitlines()
        passed = sum(line.startswith("[PASS]") for line in lines)
        results.append((passed == len(lines) == len(VERIFY_CHECKS),
                        f"verify: {passed} of {len(lines)} lines PASS"))
    return results
