"""The per-layer counts repeat exactly, the result has the promised shape,
and the benchmark refuses to run without superq or to compare unlike records."""

import json
import os
import subprocess
import sys

import pytest

import compare
import run
import spans
from conftest import PERFBENCH, REPO


def bench(*args, cwd=REPO):
    done = subprocess.run([sys.executable, os.path.join(PERFBENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = result(bench(*args)), result(bench(*args))
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert list(res["metrics"]) == [name for name, _, _, _ in spans.LAYER_METRICS]
    for name in spans.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert any(first["metrics"][name]["value"] for name in spans.EXACT)


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [m["name"] for m in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END if name in run.DECLARED]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in spans.LAYER_METRICS]


def test_no_superq_source_means_no_result(tmp_path):
    done = bench("--workload", "frak", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_compare_refuses_unlike_records():
    stamp = {"python": "3.11.7", "backend": "fractions", "workload": "frak", "trace": 0}
    metrics = {"wall_s": {"value": 2.0}}
    base = {"stamp": stamp, "metrics": metrics}
    new = {"stamp": dict(stamp), "metrics": {"wall_s": {"value": 2.2}}}
    assert "+10.0%" in compare.compare(base, new, {"wall_s": 0.25})[0]
    for key, other in (("backend", "gmpy2"), ("python", "3.12.1")):
        with pytest.raises(ValueError):
            compare.compare(base, dict(new, stamp=dict(stamp, **{key: other})), {})
