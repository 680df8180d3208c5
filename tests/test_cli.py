import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import superq
import superq.cli
from superq.cli import main
from superq.frakp import expand_p_in_frak
from superq.gamma import GammaElement
from superq.partitions import OddPartition, StrictPartition, enumerate_odd, enumerate_strict
from superq.plancherel import PolynomialInN, average_bruteforce
from superq.schurq import q
from superq.verify import CHECKS

# the benchmark's README commands and their golden stdout, read in place
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import cli_commands  # noqa: E402
from spans import TRACED, VERIFY_CHECKS  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _golden(name):
    # a golden stdout of tests/golden
    return (Path(__file__).resolve().parent / "golden" / name).read_bytes()


def test_enum(capsys):
    code, out, _ = run(capsys, "enum", "5")
    assert code == 0
    assert json.loads(out) == {
        "n": 5,
        "strict": ["5", "4,1", "3,2"],
        "odd": ["5", "3,1,1", "1,1,1,1,1"],
    }


def test_g_and_gskew(capsys):
    code, out, _ = run(capsys, "g", "4,1")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "gskew", "4,1", "3")
    assert code == 0 and out.strip() == "2"


def test_prob(capsys):
    code, out, _ = run(capsys, "prob", "5", "4,1")
    assert code == 0
    assert json.loads(out)["prob"] == "3/5"
    # mu = (2,1), n = 2: hand computation gives P((4,1)) = 3/5, P((3,2)) = 2/5
    code, out, _ = run(capsys, "prob", "2", "3,2", "--mu", "2,1")
    assert code == 0
    assert json.loads(out)["prob"] == "2/5"


def test_qfunc_round_trip(capsys):
    code, out, _ = run(capsys, "qfunc", "2,1")
    assert code == 0
    parsed = GammaElement.from_json_obj(json.loads(out))
    assert parsed == q(StrictPartition((2, 1)))


def test_avg_symbolic_golden_bytes(capsys):
    code, out, _ = run(capsys, "avg", "--f", "p[3]", "--symbolic")
    assert code == 0
    expected = (
        '{"falling": {"2": "3", "1": "1"}, '
        '"monomial": {"2": "3", "1": "-2"}, '
        '"binomial": {"2": "6", "1": "1"}}'
    )
    assert out.strip() == expected


def test_avg_symbolic_large_degree(capsys):
    # degree 21 interpolates through n = 0..22; n = 23 lies beyond the nodes
    code, out, _ = run(capsys, "avg", "--f", "p[21]", "--symbolic")
    assert code == 0
    poly = PolynomialInN.from_json_obj(json.loads(out))
    assert poly.evaluate(23) == average_bruteforce(GammaElement.p(21), 23)


def test_avg_at_n(capsys):
    code, out, _ = run(capsys, "avg", "--f", "p[3]", "--n", "3")
    assert code == 0
    assert json.loads(out)["value"] == "21"
    code, out, _ = run(capsys, "avg", "--f", "hatp[1]", "--mu", "2,1", "--n", "2")
    assert code == 0
    # E_{mu,n}[hatp1] = hatp1(mu) + n(n-1)/2 + n|mu| at mu = (2,1), n = 2
    assert json.loads(out)["value"] == "8"


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "avg", "--f", "p[5]", "--symbolic")
    _, second, _ = run(capsys, "avg", "--f", "p[5]", "--symbolic")
    assert first == second


def test_chartable_csv(capsys):
    code, out, _ = run(capsys, "chartable", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == 'lambda/rho,3,"1,1,1"'
    assert lines[1] == "3,1,1"
    assert lines[2] == '"2,1",-2,1'


def test_chartable_json(capsys):
    code, out, _ = run(capsys, "chartable", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 4
    rows = {row["lambda"]: row["values"] for row in obj["rows"]}
    assert rows["3,1"]["1,1,1,1"] == "2"


def test_pstar_commands(capsys):
    code, out, _ = run(capsys, "pstar-eval", "2,1", "2,1")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "pstar", "2")
    assert code == 0
    assert json.loads(out) == [
        {"partition": "1,1", "coeff": "1"},
        {"partition": "1", "coeff": "-1"},
    ]


def test_frak_subcommands(capsys):
    code, out, _ = run(capsys, "frak", "eval", "3", "2,1")
    assert code == 0 and out.strip() == "-12"
    code, out, _ = run(capsys, "frak", "deg1", "p[3]")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "frak", "expand-p", "5")
    assert code == 0
    records = {rec["partition"]: rec["coeff"] for rec in json.loads(out)}
    assert records["3,1"] == "10" and records["3"] == "35/3"


def test_content_commands(capsys):
    code, out, _ = run(capsys, "content", "hatp", "1")
    assert code == 0
    assert json.loads(out) == [
        {"partition": "3", "coeff": "1/6"},
        {"partition": "1", "coeff": "-1/6"},
    ]
    psum = '[{"partition": "1,1", "coeff": "1"}]'
    code, out, _ = run(capsys, "content", "hatF", "--psum", psum)
    assert code == 0
    from superq.content import hat_p

    assert GammaElement.from_json_obj(json.loads(out)) == hat_p(1) ** 2
    # a partition given twice adds up: hat-F of 1*p_1 + 2*p_1 is 3*hat_p(1)
    psum = '[{"partition": "1", "coeff": "1"}, {"partition": "1", "coeff": "2"}]'
    code, out, _ = run(capsys, "content", "hatF", "--psum", psum)
    assert code == 0
    assert GammaElement.from_json_obj(json.loads(out)) == 3 * hat_p(1)


def test_psi_and_phi(capsys):
    code, out, _ = run(capsys, "psi", "2")
    assert code == 0
    assert json.loads(out) == [{"partition": "3", "coeff": "4"}]
    code, out, _ = run(capsys, "psi", "2", "--lambda", "2,1")
    assert code == 0
    assert json.loads(out)["value"] == "36"
    code, out, _ = run(capsys, "phi-check", "5,4,2", "8")
    assert code == 0
    assert json.loads(out)["identity_holds"] is True


def test_lab_commands(capsys):
    code, out, _ = run(capsys, "lab", "deg1-scan", "--max", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["violations_found"] == 0 and obj["pairs_scanned"] > 0
    code, out, _ = run(capsys, "lab", "p2", "--max-n", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["values"]["6"] == "1016/45"
    assert obj["degree2_fit_fails"] is True
    code, out, _ = run(capsys, "lab", "fstruct", "3", "3")
    assert code == 0
    obj = json.loads(out)
    by_rho = {rec["rho"]: rec["value"] for rec in obj["records"]}
    assert by_rho["1,1,1"] == "12"


def test_domain_error_exits_1(capsys):
    code, out, err = run(capsys, "avg", "--f", "p[2]", "--symbolic")
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "domain"
    code, _, err = run(capsys, "g", "3,3")
    assert code == 1
    code, _, err = run(capsys, "prob", "4", "5")
    assert code == 1


def test_negative_chartable_degree_is_a_domain_error(capsys):
    code, out, err = run(capsys, "chartable", "-1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["message"] == "k must be nonnegative"


_SMALLEST = [
    (("enum", "0"), '{"n": 0, "strict": [""], "odd": [""]}\n'),
    (("g", ""), "1\n"),
    (("gskew", "", ""), "1\n"),
    (("prob", "0", ""), '{"n": 0, "lambda": "", "prob": "1"}\n'),
    (("chartable", "0"), "lambda/rho,\n,1\n"),
    (("qfunc", ""), '[{"partition": "", "coeff": "1"}]\n'),
    (("pstar", ""), '[{"partition": "", "coeff": "1"}]\n'),
    (("pstar-eval", "", ""), "1\n"),
    (("frak", "expand-p", ""), '[{"partition": "", "coeff": "1"}]\n'),
    (("frak", "eval", "", ""), "1\n"),
    (("frak", "deg1", "1"), "0\n"),
    (("avg", "--f", "1", "--n", "0"), '{"n": 0, "mu": null, "f": "1", "value": "1"}\n'),
    (("content", "hatp", "0"), '[{"partition": "1", "coeff": "1"}]\n'),
    (("psi", "1"), '[{"partition": "1", "coeff": "2"}]\n'),
    (("phi-check", "", "1"), '{"lambda": "", "order": 1, "identity_holds": true}\n'),
    (("lab", "deg1-scan", "--max", "2"),
     '{"max_total": 2, "pairs_scanned": 1, "records_checked": 2, "min_slack": 0, '
     '"max_slack": 2, "violations_found": 0, "violations": [], '
     '"conjecture_holds_in_range": true}\n'),
    (("lab", "p2", "--max-n", "6"),
     '{"max_n": 6, "values": {"0": "0", "1": "1", "2": "4", "3": "23/3", "4": "12", '
     '"5": "17", "6": "1016/45"}, "fit_nodes": [1, 2, 3], '
     '"residuals": {"4": "0", "5": "0", "6": "-4/45"}, "degree2_fit_fails": true}\n'),
    (("lab", "fstruct", "", ""),
     '{"sigma": "", "tau": "", "records": [{"sigma": "", "tau": "", "rho": "", '
     '"value": "1", "deg1_lhs": 0, "deg1_rhs": 0}]}\n'),
]

_FIRST_REFUSED = [
    (("enum", "-1"), "n must be nonnegative"),
    (("psi", "0"), "k must be positive"),
    (("phi-check", "", "0"), "order must be positive"),
    (("lab", "deg1-scan", "--max", "1"), "max_total must be at least 2"),
    (("lab", "p2", "--max-n", "5"), "max_n must be at least 6 to cover the reference table"),
]


@pytest.mark.parametrize("argv, expected", _SMALLEST + _FIRST_REFUSED,
                         ids=[" ".join(a or "''" for a in argv)
                              for argv, _ in _SMALLEST + _FIRST_REFUSED])
def test_smallest_inputs_and_first_refused_values(capsys, argv, expected):
    # each subcommand's smallest valid input (n = 0, the empty partition,
    # k = 0 or 1, the least scan) exits 0 with these bytes; one step below
    # it, where the domain has an edge, exits 1 with one stderr line
    code, out, err = run(capsys, *argv)
    if (argv, expected) in _SMALLEST:
        assert (code, out, err) == (0, expected, "")
    else:
        error = {"error": {"kind": "domain", "message": expected}}
        assert (code, out, err) == (1, "", json.dumps(error) + "\n")


def superq_in_subprocess(*argv, module="superq"):
    env = dict(os.environ)
    src = str(Path(superq.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def assert_domain_error_in_subprocess(*argv):
    proc = superq_in_subprocess(*argv, module="superq.cli")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert json.loads(proc.stderr)["error"]["kind"] == "domain"
    return json.loads(proc.stderr)["error"]["message"]


def test_too_large_input_is_a_domain_error():
    # the expression parser recurses once per parenthesis, so deep nesting
    # exhausts the stack
    nested = "(" * 3000 + "p[1]" + ")" * 3000
    message = assert_domain_error_in_subprocess("frak", "deg1", nested)
    assert message == "input too large (RecursionError)"


def test_g_of_one_huge_row_is_1(capsys):
    # one part fills one way, so no factorial of 10^20 is taken
    code, out, _ = run(capsys, "g", "99999999999999999999")
    assert (code, out) == (0, "1\n")


def test_g_past_the_factorial_range_is_a_domain_error():
    message = assert_domain_error_in_subprocess("g", "99999999999999999999,1")
    assert message == "input too large (OverflowError)"


def test_psi_past_the_digit_limit_is_a_domain_error():
    message = assert_domain_error_in_subprocess("psi", "10000", "--lambda", "3,1")
    assert message.startswith("the value has more decimal digits than")
    assert f"limit is {sys.get_int_max_str_digits()} digits" in message
    assert "set_int_max_str_digits" not in message


def test_content_hatp_60_is_quick():
    start = time.perf_counter()
    proc = superq_in_subprocess("content", "hatp", "60")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0
    # F(m) = sum_{c<m} (c(c+1)/2)^60 leads with m^121 / (2^60 * 121)
    assert json.loads(proc.stdout)[0] == {"partition": "121",
                                          "coeff": f"1/{2**60 * 121}"}


def test_content_hatp_200_is_quick():
    # the Stirling rows are built once each, so hat_p(k) costs about k^2
    start = time.perf_counter()
    proc = superq_in_subprocess("content", "hatp", "200")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0] == {"partition": "401",
                                          "coeff": f"1/{2**200 * 401}"}


def test_phi_check_400_is_quick():
    # the identity is checked on logarithms: psi_k against a row sum, k <= 400
    start = time.perf_counter()
    proc = superq_in_subprocess("phi-check", "5,4,2", "400")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0
    assert '"identity_holds": true' in proc.stdout


def test_gskew_on_a_long_row(capsys):
    assert run(capsys, "gskew", "1500", "1") == (0, "1\n", "")


@pytest.mark.parametrize("argv, message", [
    (("pstar", "13,11,9,7,5"), "|mu| = 45 exceeds the cap 30; raise --cap to allow"),
    (("chartable", "40"), "k = 40 exceeds the cap 30; raise --cap to allow"),
    (("lab", "p2", "--max-n", "15"),
     "max_n = 15 exceeds the cap 14; raise --cap to allow"),
    (("qfunc", "12,10,8,6,4,2"),
     "|lambda| = 42 exceeds the cap 30; raise --cap to allow"),
    (("enum", "150"), "n = 150 exceeds the cap 80; raise --cap to allow"),
    (("lab", "deg1-scan", "--max", "24"),
     "max_total = 24 exceeds the cap 23; raise --cap to allow"),
    (("lab", "fstruct", "23", "1"),
     "|sigma| + |tau| = 24 exceeds the cap 23; raise --cap to allow"),
    (("avg", "--f", "hatp[40]", "--symbolic"),
     "deg f + 1 = 82 exceeds the cap 80; raise --cap to allow"),
], ids=["pstar", "chartable", "lab-p2", "qfunc", "enum", "lab-deg1-scan",
        "lab-fstruct", "avg-symbolic"])
def test_work_budget_is_a_quick_domain_error(argv, message):
    start = time.perf_counter()
    assert assert_domain_error_in_subprocess(*argv) == message
    assert time.perf_counter() - start < 2


def test_work_budget_can_be_raised(capsys):
    code, out, err = run(capsys, "chartable", "4", "--cap", "3")
    assert code == 1 and out == "" and "cap 3" in err
    assert run(capsys, "chartable", "4", "--cap", "4")[1].encode() == \
        cli_commands.read_golden("chartable")
    code, out, err = run(capsys, "pstar", "3", "--cap", "2")
    assert code == 1 and out == "" and "cap 2" in err
    assert run(capsys, "pstar", "3", "--cap", "3")[1].encode() == \
        cli_commands.read_golden("pstar")
    code, out, err = run(capsys, "qfunc", "2,1", "--cap", "2")
    assert code == 1 and out == "" and "cap 2" in err
    assert run(capsys, "qfunc", "2,1", "--cap", "3") == run(capsys, "qfunc", "2,1")
    code, out, err = run(capsys, "enum", "5", "--cap", "4")
    assert code == 1 and out == "" and "cap 4" in err
    assert run(capsys, "enum", "5", "--cap", "5")[1].encode() == \
        cli_commands.read_golden("enum")


@pytest.mark.parametrize("argv, message", [
    (("avg", "--f", "p[1]", "--n", "110"), "n = 110 exceeds the cap 80; raise --cap to allow"),
    (("avg", "--f", "p[3]", "--mu", "3,1", "--n", "77"),
     "n + |mu| = 81 exceeds the cap 80; raise --cap to allow"),
    (("avg", "--f", "p[1]^200", "--symbolic"),
     "deg f + 1 = 201 exceeds the cap 80; raise --cap to allow"),
], ids=["E_n", "E_mu_n", "symbolic"])
def test_avg_past_its_cap_fails_at_once(argv, message):
    # avg --f p[1] --n 110 walked every strict partition of 110 for about
    # 3 s, and avg --f p[1]^200 --symbolic those of 0..201 for over 30 s
    start = time.perf_counter()
    assert assert_domain_error_in_subprocess(*argv) == message
    assert time.perf_counter() - start < 1


def test_avg_cap_can_be_raised_in_both_modes(capsys):
    code, out, err = run(capsys, "avg", "--f", "p[3]", "--n", "3", "--cap", "2")
    assert code == 1 and out == "" and "n = 3 exceeds the cap 2" in err
    assert json.loads(run(capsys, "avg", "--f", "p[3]", "--n", "3", "--cap", "3")[1]) \
        == {"n": 3, "mu": None, "f": "p[3]", "value": "21"}
    argv = ("avg", "--f", "hatp[1]", "--mu", "2,1", "--n", "2")
    code, out, err = run(capsys, *argv, "--cap", "4")
    assert code == 1 and out == "" and "n + |mu| = 5 exceeds the cap 4" in err
    assert json.loads(run(capsys, *argv, "--cap", "5")[1])["value"] == "8"
    # with --symbolic the cap bounds deg f + 1 + |mu|, the size of the
    # shapes at the last node
    argv = ("avg", "--f", "p[3]^3", "--symbolic")
    code, out, err = run(capsys, *argv, "--cap", "9")
    assert code == 1 and out == "" and "deg f + 1 = 10 exceeds the cap 9" in err
    assert run(capsys, *argv, "--cap", "10") == run(capsys, *argv)
    argv = ("avg", "--f", "hatp[1]", "--mu", "2,1", "--symbolic")
    code, out, err = run(capsys, *argv, "--cap", "6")
    assert code == 1 and out == "" and "deg f + 1 + |mu| = 7 exceeds the cap 6" in err
    assert run(capsys, *argv, "--cap", "7") == run(capsys, *argv)


def test_enum_streams_its_output():
    # the partitions are written as they are generated: enum 80 peaks at about
    # 17 MB of RSS, against 72 MB when the lists and the JSON text were held.
    # A small interpreter starts the command and reads its peak (KiB on
    # Linux), since a child can inherit the peak of a large parent
    code = ("import resource, subprocess, sys; "
            "subprocess.run([sys.executable, '-m', 'superq', 'enum', '80'], check=True, "
            "stdout=subprocess.DEVNULL); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    env = dict(os.environ)
    src = str(Path(superq.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 32 * 1024


def test_lab_scan_to_the_cap_is_quick():
    # every pair with parts equal to 1 is derived from its ones-free product
    start = time.perf_counter()
    proc = superq_in_subprocess("lab", "deg1-scan", "--max", "23")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["violations_found"] == 0 and report["min_slack"] == 0


def test_integers_are_ascii_digits_only(capsys):
    for literal in ("1_0", "\u0663", "+3", "3,1_1"):
        code, out, err = run(capsys, "g", literal)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["message"] == f"bad partition literal {literal!r}"
    code, out, err = run(capsys, "lab", "fstruct", "3,1", "1_1")
    assert code == 1 and "bad partition literal" in err
    code, out, _ = run(capsys, "g", "3, 1")
    assert (code, out) == (0, "2\n")
    for expr, pos in (("\u00b2", 0), ("p[1_1]", 3), ("p[\u0663]", 2), ("2^\u00b2", 2)):
        code, out, err = run(capsys, "frak", "deg1", expr)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["message"].startswith(f"at position {pos}:")
    for argv in (["enum", "1_0"], ["chartable", "\u0663"], ["enum", " 3"],
                 ["lab", "deg1-scan", "--max", "1_0"], ["avg", "--f", "p[1]", "--n", "1_0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid integer" in capsys.readouterr().err


def test_malformed_psum_is_a_domain_error(capsys):
    message = assert_domain_error_in_subprocess(
        "content", "hatF", "--psum", '[{"partition": "1"}]'
    )
    assert '"partition" and "coeff"' in message
    # an exponent would ask Fraction for a hundred-million-digit integer
    message = assert_domain_error_in_subprocess(
        "content", "hatF", "--psum", '[{"partition": "1", "coeff": "1e100000000"}]'
    )
    assert "not a rational literal" in message
    for psum in ('"p[1]"', '{"partition": "1", "coeff": "1"}', '["1"]',
                 '[{"partition": 1, "coeff": "1"}]', '[{"partition": "1", "coeff": 2}]'):
        code, out, err = run(capsys, "content", "hatF", "--psum", psum)
        assert code == 1 and out == ""
        assert "record" in json.loads(err)["error"]["message"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["avg", "--f", "p[1]"])  # neither --symbolic nor --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "enum", "3"])  # no such global option
    assert exc.value.code == 2


def _outcome(capsys, argv):
    # (exit code, stdout, stderr) of main, usage errors and --help included
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_subcommand_parser_matches_the_full_parser(capsys, monkeypatch):
    parser = superq.cli.build_parser()
    assert tuple(parser._subparsers._group_actions[0].choices) == superq.cli.COMMANDS
    cases = [["--help"], ["g", "--help"], ["frak", "eval", "--help"], ["bogus"], [],
             ["--threads", "2", "enum", "3"], ["g", "4,1", "--bogus"], ["-h", "g"],
             ["lab", "fstruct", "3"], ["avg", "--f", "p[3]", "--format", "pretty"],
             ["avg", "--f", "p[3]", "--n", "2", "--format", "pretty"], ["g", "4,1"]]
    one = [_outcome(capsys, argv) for argv in cases]
    monkeypatch.setattr(superq.cli, "COMMANDS", ())  # every argv gets the full parser
    assert [_outcome(capsys, argv) for argv in cases] == one
    assert [code for code, _, _ in one] == [0, 0, 0, 2, 2, 2, 2, 0, 2, 2, 2, 0]


# (argv, a format the command does not render, one it does)
FORMAT_CASES = [
    (["enum", "5"], "pretty", "json"),
    (["g", "4,1"], "pretty", "json"),
    (["gskew", "4,1", "3"], "csv", "json"),
    (["prob", "5", "4,1"], "pretty", "json"),
    (["qfunc", "2,1"], "csv", "pretty"),
    (["chartable", "3"], "pretty", "json"),
    (["pstar", "3"], "csv", "pretty"),
    (["pstar-eval", "2,1", "2,1"], "pretty", "json"),
    (["frak", "expand-p", "5"], "csv", "pretty"),
    (["frak", "eval", "3", "2,1"], "pretty", "json"),
    (["frak", "deg1", "p[3]"], "csv", "json"),
    (["avg", "--f", "p[3]", "--symbolic"], "csv", "pretty"),
    (["avg", "--f", "p[3]", "--n", "3"], "pretty", "json"),
    (["content", "hatp", "2"], "csv", "pretty"),
    (["content", "hatF", "--psum", '[{"partition": "2", "coeff": "1"}]'],
     "csv", "pretty"),
    (["psi", "3"], "csv", "pretty"),
    (["psi", "2", "--lambda", "2,1"], "pretty", "json"),
    (["phi-check", "5,4,2", "8"], "pretty", "json"),
    (["lab", "deg1-scan", "--max", "4"], "csv", "json"),
    (["lab", "p2", "--max-n", "6"], "pretty", "json"),
    (["lab", "fstruct", "3", "3"], "csv", "json"),
    (["verify"], "csv", "pretty"),
]


@pytest.mark.parametrize("argv, rejected, accepted", FORMAT_CASES)
def test_format_is_checked_per_command(capsys, argv, rejected, accepted):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", rejected])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code, out, _ = run(capsys, *argv, "--format", accepted)
    assert code == 0 and out


def test_non_evaluator_average_is_a_domain_error(capsys, monkeypatch):
    # every parsed expression is a GammaElement, so feed the CLI a frak-p one
    monkeypatch.setattr(superq.cli, "parse_and_eval",
                        lambda text: expand_p_in_frak(OddPartition((3,))))
    code, out, err = run(capsys, "avg", "--f", "p[3]", "--n", "3")
    assert code == 1 and out == ""
    message = json.loads(err)["error"]["message"]
    assert "GammaElement or an OrdinaryPSumExpr" in message


@pytest.mark.parametrize("slug, argv", [(slug, argv) for slug, argv, _ in cli_commands.COMMANDS],
                         ids=[slug for slug, _, _ in cli_commands.COMMANDS])
def test_cli_goldens(capsys, slug, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == cli_commands.read_golden(slug)


@pytest.mark.parametrize("name, argv", [
    ("pstar-9-7-4-2.out", ["pstar", "9,7,4,2"]),
    ("frak-expand-p-9-7-5-1-1.out", ["frak", "expand-p", "9,7,5,1,1"]),
])
def test_cli_goldens_through_psi_at_degree_22_and_23(capsys, name, argv):
    # large enough that a sign or a factor 2 slip in Psi or Psi^{-1} shows
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == _golden(name)


@pytest.mark.parametrize("name, argv", [
    ("avg-symbolic-p3-hatp2-4.out", ["avg", "--f", "(p[3]+hatp[2])^4", "--symbolic"]),
    ("avg-mu-symbolic-hatp2-3.out", ["avg", "--f", "hatp[2]^3", "--mu", "3,1", "--symbolic"]),
])
def test_cli_goldens_of_symbolic_averages_with_multi_part_monomials(capsys, name, argv):
    # monomials of 0 to 4 parts, so each product of the prefix plan is read
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == _golden(name)


def test_cli_import_skips_typing_and_dataclasses():
    # start-up cost: `import superq.cli` loads neither module, and so not
    # inspect, but loads every module whose functions the benchmark traces
    src = str(Path(superq.__file__).parents[1])
    code = "import json, sys, superq.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"typing", "dataclasses", "inspect"}
    traced = {"superq." + name.rsplit(".", 1)[0] for name in TRACED}
    assert traced and traced <= loaded


def test_a_command_loads_neither_shutil_nor_csv_nor_verify():
    # start-up cost: the parser is built without reading the terminal width,
    # and only chartable and verify load csv and superq.verify
    src = str(Path(superq.__file__).parents[1])
    code = ("import json, sys, superq.cli; superq.cli.main(['g', '4,1']); "
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out, modules = proc.stdout.splitlines()
    assert out == "3"
    assert not set(json.loads(modules)) & {"shutil", "csv", "superq.verify"}


def test_main_as_the_program_freezes_the_import_heap(capsys):
    # run as the program, main() moves everything loaded so far out of the
    # collector's reach, so the collections at exit skip it; a caller that
    # passes argv keeps its collector as it was
    src = str(Path(superq.__file__).parents[1])
    code = ("import gc, sys, superq.cli; sys.argv = ['superq', 'g', '4,1']; "
            "superq.cli.main(); print(gc.get_freeze_count() > 0)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3\nTrue\n"
    frozen = gc.get_freeze_count()
    assert run(capsys, "g", "4,1") == (0, "3\n", "")
    assert gc.get_freeze_count() == frozen


HELP_AND_USAGE_ERRORS = [
    ["--help"], [], ["bogus"], ["g"], ["frak", "--help"], ["frak", "eval"],
    ["lab", "p2", "--help"], ["avg", "--help"],
    ["avg", "--f", "p[1]", "--n", "3", "--format", "pretty"],
]


@pytest.mark.parametrize("columns", ["20", "200"])
def test_help_and_usage_errors_are_argparse_own(capsys, monkeypatch, columns):
    # the bytes of a parser built with the plain HelpFormatter throughout,
    # at the terminal width in COLUMNS
    monkeypatch.setenv("COLUMNS", columns)

    def outputs():
        got = []
        for argv in HELP_AND_USAGE_ERRORS:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            got.append((argv, exc.value.code, captured.out, captured.err))
        return got

    ours = outputs()
    monkeypatch.setattr(superq.cli, "_build_formatter", argparse.HelpFormatter)
    assert ours == outputs()


def test_python_dash_m_runs_the_cli():
    proc = superq_in_subprocess("g", "4,1")
    assert proc.returncode == 0 and proc.stdout == "3\n"


PRETTY_CASES = [
    (["avg", "--f", "p[3]", "--symbolic"], "3·n^↓2 + n"),
    (["qfunc", "2,1"], "-4/3·p[3] + 4/3·p[1,1,1]"),
    (["frak", "expand-p", "5"],
     "𝔭[5] + 10·𝔭[3,1] + 35/3·𝔭[3] + 40/3·𝔭[1,1,1] + 15·𝔭[1,1] + 𝔭[1]"),
    (["psi", "3"], "6·p[5] + 2·p[3]"),
    (["content", "hatp", "2"], "1/20·p[5] - 1/12·p[3] + 1/30·p[1]"),
    (["avg", "--f", "hatp[1]", "--mu", "2,1", "--symbolic"], "1/2·n^↓2 + 3·n + 1"),
    (["avg", "--f", "p[1]-p[1]", "--symbolic"], "0"),
    (["avg", "--f", "3", "--symbolic"], "3"),
    (["content", "hatF", "--psum", '[{"partition": "2", "coeff": "-1/3"}]'],
     "-1/60·p[5] + 1/36·p[3] - 1/90·p[1]"),
]


def test_pretty_format(capsys):
    for argv, expected in PRETTY_CASES:
        code, out, _ = run(capsys, *argv, "--format", "pretty")
        assert code == 0
        assert out == expected + "\n", argv


def test_verify_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    results = json.loads(out)
    assert len(results) == 11
    assert all(r["ok"] for r in results)
    misprint = [r for r in results if "misprint" in r["detail"]]
    assert misprint and "§5.2 confirmed" in misprint[0]["detail"]


def test_verify_json_golden_bytes(capsys):
    # every field, key and description included, in a fixed order
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == _golden("verify.json")


# commands whose bytes must not follow the iteration order of a set or a
# dict keyed by partitions, which changes with the hash seed
HASH_SEED_GOLDENS = [
    (["verify"], cli_commands.read_golden("verify")),
    (["verify", "--format", "json"], _golden("verify.json")),
    (["frak", "expand-p", "9,7,5,1,1"], _golden("frak-expand-p-9-7-5-1-1.out")),
    (["avg", "--f", "(p[3]+hatp[2])^4", "--symbolic"], _golden("avg-symbolic-p3-hatp2-4.out")),
    (["avg", "--f", "hatp[2]^3", "--mu", "3,1", "--symbolic"],
     _golden("avg-mu-symbolic-hatp2-3.out")),
]


@pytest.mark.parametrize("seed", range(4))
def test_goldens_do_not_depend_on_the_hash_seed(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    src = str(Path(superq.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the commands of one seed run at once, each in its own interpreter
    procs = [subprocess.Popen([sys.executable, "-m", "superq", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv, _ in HASH_SEED_GOLDENS]
    for (argv, golden), proc in zip(HASH_SEED_GOLDENS, procs):
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (argv, err)
        assert out == golden, argv


def test_verify_checks_are_the_traced_checks():
    # the tracer wraps the verify checks by this list of names
    assert [fn.__name__ for _, _, fn in CHECKS] == VERIFY_CHECKS


# --- the exit-code contract, fuzzed --------------------------------------------------

# the strict and the odd partitions of size <= 5 as text (so each is a
# malformed input for the commands that take the other kind), and malformed
# ones: a repeated part, an even part where odd parts are needed, a 0, a
# letter, an empty part, a full-width digit, a sign, a trailing comma
_PARTITIONS = st.one_of(
    st.sampled_from(sorted({",".join(map(str, lam.parts)) for n in range(6)
                            for lam in (*enumerate_strict(n), *enumerate_odd(n))})),
    st.sampled_from(["3,3", "2", "0,1", "a", "1,,2", "１", "-1", "2,"]))
# small integers, digits of other scripts, and what int() takes but ascii_int
# refuses
_INTEGERS = st.one_of(st.integers(-1, 9).map(str),
                      st.sampled_from(["３", "٣", "1_0", " 3", "+2", "", "x"]))
_FORMATS = st.one_of(st.just([]), st.sampled_from(
    ["json", "pretty", "csv", "table", ""]).map(lambda f: ["--format", f]))
_CAPS = st.one_of(st.just([]), st.integers(0, 8).map(lambda c: ["--cap", str(c)]))
# expressions: sums of at most two products of at most two powers of an
# atom of degree <= 3, with exponents <= 3, and malformed ones
_ATOMS = ["p[1]", "p[3]", "p[1,1]", "fp[3]", "fp[1]", "hatp[1]", "psi[1]", "pstar[2]",
          "pstar[2,1]", "Q[2,1]", "Q[3]", "2", "-1/3", "0"]
_POWERS = st.tuples(st.sampled_from(_ATOMS), st.integers(0, 3)).map(
    lambda t: t[0] if t[1] == 1 else f"({t[0]})^{t[1]}")
_EXPRESSIONS = st.one_of(
    st.lists(st.lists(_POWERS, min_size=1, max_size=2).map("*".join),
             min_size=1, max_size=2).map(" + ".join),
    st.sampled_from(["p[2]", "p[", "p[3]^", "p[3]^-1", "1/0", "(p[3]", "p[3]]", "",
                     "hatp[x]", "p[3]^1.5", "Q[3,3]", "p[3]^２", "fp[2]",
                     "pstar[2,2]", "+", "p[3] p[3]", "psi[0]", "²"]))
_PSUMS = st.one_of(
    st.lists(st.tuples(st.sampled_from(["1", "2", "1,1", "3,1", "2,2", ""]),
                       st.sampled_from(["1", "-2/3", "0"])), max_size=3).map(
        lambda terms: json.dumps([{"partition": mu, "coeff": c} for mu, c in terms])),
    st.sampled_from(['[{"partition": "1"}]', '"p[1]"', "[", '[{"partition": "0", "coeff": "1"}]',
                     '[{"partition": "1", "coeff": "1/0"}]', '[{"partition": 1, "coeff": "1"}]']))


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _capped(draw, flag=None, lo=0):
    # an integer argument, after its flag if it has one, and at times an
    # explicit small cap with the value at it or one past it
    if draw(st.booleans()):
        value, cap = draw(_INTEGERS), []
    else:
        c = draw(st.integers(lo, lo + 8))
        value, cap = str(c + draw(st.integers(0, 1))), ["--cap", str(c)]
    return [flag] * (flag is not None) + [value] + cap


def _argv(*parts):
    # one argv from fixed words and strategies of one word or of a list
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(
        lambda words: [w for word in words for w in ([word] if isinstance(word, str) else word)])


# one mode, as required, or none or both
_AVG_MODES = st.one_of(st.sampled_from([["--symbolic"], [], ["--symbolic", "--n", "2"]]),
                       _INTEGERS.map(lambda n: ["--n", n]))

_FUZZED = {
    "enum": _argv("enum", _capped(), _FORMATS),
    "g": _argv("g", _PARTITIONS, _FORMATS),
    "gskew": _argv("gskew", _PARTITIONS, _PARTITIONS, _FORMATS),
    "prob": _argv("prob", _INTEGERS, _PARTITIONS, _optional("--mu", _PARTITIONS), _FORMATS),
    "qfunc": _argv("qfunc", _PARTITIONS, _CAPS, _FORMATS),
    "chartable": _argv("chartable", _capped(), _FORMATS),
    "pstar": _argv("pstar", _PARTITIONS, _CAPS, _FORMATS),
    "pstar-eval": _argv("pstar-eval", _PARTITIONS, _PARTITIONS, _FORMATS),
    "frak expand-p": _argv("frak", "expand-p", _PARTITIONS, _FORMATS),
    "frak eval": _argv("frak", "eval", _PARTITIONS, _PARTITIONS, _FORMATS),
    "frak deg1": _argv("frak", "deg1", _EXPRESSIONS, _FORMATS),
    "avg": _argv("avg", "--f", _EXPRESSIONS, _AVG_MODES, _optional("--mu", _PARTITIONS),
                 _CAPS, _FORMATS),
    "content hatp": _argv("content", "hatp", _INTEGERS, _FORMATS),
    "content hatF": _argv("content", "hatF", "--psum", _PSUMS, _FORMATS),
    "psi": _argv("psi", _INTEGERS, _optional("--lambda", _PARTITIONS), _FORMATS),
    "phi-check": _argv("phi-check", _PARTITIONS, _INTEGERS, _FORMATS),
    "lab deg1-scan": _argv("lab", "deg1-scan", _capped("--max"), _FORMATS),
    "lab p2": _argv("lab", "p2", st.one_of(st.just([]), _capped("--max-n", lo=5)), _FORMATS),
    "lab fstruct": _argv("lab", "fstruct", _PARTITIONS, _PARTITIONS, _CAPS, _FORMATS),
    "verify": _argv("verify", _FORMATS),
}


@pytest.mark.parametrize("command", list(_FUZZED))
@settings(max_examples=40)
@given(data=st.data())
def test_every_subcommand_keeps_the_exit_code_contract(command, data):
    """Every leaf subcommand, on valid and malformed argv, exits 0 with
    nothing on stderr, 1 with nothing on stdout and one JSON domain-error
    line on stderr, or 2 with argparse's usage error; no other exception
    leaves ``main``.

    The inputs are small, so a drawn argv runs in milliseconds.  Four
    commands still run past 12 s and are not drawn: ``frak deg1
    p[1]^3000``, ``frak eval 31 30,20,10``, ``avg --f p[3]^999999 --n 2``
    and ``phi-check 3,1 100000000``.  Bounding them is the open budget
    work of ROADMAP item 8.
    """
    argv = data.draw(_FUZZED[command], label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, out, err)
    if code == 0:
        assert err == ""
    elif code == 1:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, (out, err)
        error = json.loads(err)["error"]
        assert error["kind"] == "domain" and isinstance(error["message"], str), err
    else:
        assert "error:" in err, err
