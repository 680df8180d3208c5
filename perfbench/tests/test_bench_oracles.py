"""The oracles must pass on the library's outputs and fail on a corrupted one."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import cli_commands
import workloads
from conftest import PERFBENCH, REPO
from superq import PolynomialInN, character_table


def failures(checks):
    assert checks
    return [message for ok, message in checks if not ok]


def test_chartable_oracle_catches_any_changed_entry():
    inputs = workloads.chartable_inputs(3)
    tables = {k: character_table(k) for k in range(9)}
    assert failures(workloads.chartable_check(inputs, tables)) == []
    table = tables[8]
    for lam in table.strict:
        for rho in table.odd:
            for wrong in (-table.value(lam, rho), table.value(lam, rho) + 1):
                if wrong == table.value(lam, rho):
                    continue
                bad = copy.copy(table)
                bad._values = dict(table._values)
                bad._values[(lam, rho)] = wrong
                assert failures(workloads.chartable_check(inputs, {**tables, 8: bad}))


@pytest.fixture
def small_frak(monkeypatch):
    monkeypatch.setattr(workloads, "FRAK_DEGREE", 9)
    monkeypatch.setattr(workloads, "FRAK_MU_DEGREE", 7)
    monkeypatch.setattr(workloads, "FRAK_SCAN_MAX", 6)
    inputs = workloads.frak_inputs(4)
    return inputs, workloads.frak_compute(inputs)


def test_frak_oracle_catches_wrong_coefficient(small_frak):
    inputs, outputs = small_frak
    assert failures(workloads.frak_check(inputs, outputs)) == []
    falling = outputs["symbolic"].falling_coeffs()
    top = max(falling)
    falling[top] += 1
    bad = dict(outputs, symbolic=PolynomialInN(falling))
    assert failures(workloads.frak_check(inputs, bad))


def test_frak_oracle_catches_scan_violation(small_frak):
    inputs, outputs = small_frak
    scan = copy.copy(outputs["scan"])
    scan.violations = ["a violation"]
    assert failures(workloads.frak_check(inputs, dict(outputs, scan=scan)))


def test_bruteforce_oracle_catches_wrong_values(monkeypatch):
    monkeypatch.setattr(workloads, "BRUTE_NS", (6, 11))
    monkeypatch.setattr(workloads, "BRUTE_P2_NS", (1, 2, 3, 4, 5, 6, 10))
    monkeypatch.setattr(workloads, "BRUTE_MU_N", 7)
    inputs = workloads.bruteforce_inputs(5)
    outputs = workloads.bruteforce_compute(inputs)
    assert failures(workloads.bruteforce_check(inputs, outputs)) == []
    averages = [list(row) for row in outputs["averages"]]
    averages[1][0] += 1
    assert failures(workloads.bruteforce_check(inputs, dict(outputs, averages=averages)))
    for i in (2, 6):
        p2 = list(outputs["p2"])
        p2[i] *= -1
        assert failures(workloads.bruteforce_check(inputs, dict(outputs, p2=p2)))


def test_cli_check_catches_golden_and_stated_values():
    golden = cli_commands.read_golden("g")
    assert failures(cli_commands.check_command("g", (None, "3"), 0, golden, golden)) == []
    altered = golden[:-1] + b" "
    assert failures(cli_commands.check_command("g", (None, "3"), 0, golden, altered))
    assert failures(cli_commands.check_command("g", (None, "3"), 0, b"4\n", b"4\n"))
    assert failures(cli_commands.check_command("g", (None, "3"), 1, golden, golden))
    verify = cli_commands.read_golden("verify")
    failed = verify.replace(b"[PASS]", b"[FAIL]", 1)
    assert failures(cli_commands.check_command("verify", None, 0, verify, verify)) == []
    assert failures(cli_commands.check_command("verify", None, 0, failed, failed))


def test_altered_golden_byte_raises_failed_count(tmp_path):
    shutil.copytree(os.path.join(REPO, "src", "superq"), tmp_path / "src" / "superq")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    golden = tmp_path / "perfbench" / "golden" / "psi-lambda.out"
    golden.write_bytes(golden.read_bytes().replace(b"36", b"37"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
