import copy
import os
import subprocess
import sys
import textwrap
from math import factorial
from pathlib import Path

import pytest

import superq
from recursive_oracle import oracle_expand_gamma_in_frak
from superq import explorer
from superq.explorer import (
    ScanReport,
    StructureConstantRecord,
    deg1_conjecture_scan,
    p2_experiment,
    structure_constants,
)
from superq.frakp import frak_p
from superq.partitions import (
    OddPartition,
    _deg1_of,
    _ones_free,
    enumerate_odd,
    g,
    term_sort_key,
)
from superq.plancherel import PolynomialInN, product_average_check
from superq.rational import rat
from superq.schurq import character_table


def test_structure_constants_identity_element():
    tau = OddPartition((3, 1))
    records = structure_constants(OddPartition(()), tau)
    assert len(records) == 1
    assert records[0].rho == tau and records[0].value == 1


def test_structure_constants_top_coefficient():
    records = structure_constants(OddPartition((1,)), OddPartition((1,)))
    by_rho = {rec.rho: rec.value for rec in records}
    assert by_rho[OddPartition((1, 1))] == 1


def test_structure_constants_theorem_4_4_witness():
    records = structure_constants(OddPartition((3,)), OddPartition((3,)))
    by_rho = {rec.rho: rec.value for rec in records}
    assert by_rho[OddPartition((1, 1, 1))] == 12


def test_structure_constants_bookkeeping():
    sigma, tau = OddPartition((3,)), OddPartition((3, 1))
    for rec in structure_constants(sigma, tau):
        assert rec.value != 0
        assert rec.deg1_lhs == rec.rho.size + rec.rho.multiplicity(1)
        assert rec.deg1_rhs == 3 + (4 + 1)


def _peeled_records(sigma, tau):
    # the independent route: expand the Gamma product by peeling
    deg1 = _deg1_of
    records = [
        StructureConstantRecord(sigma, tau, rho, value, deg1(rho), deg1(sigma) + deg1(tau))
        for rho, value in oracle_expand_gamma_in_frak(frak_p(sigma) * frak_p(tau)).items()
    ]
    records.sort(key=lambda rec: term_sort_key(rec.rho))
    return records


def test_character_sums_match_the_peeling_up_to_total_12():
    pairs = 0
    for a in range(0, 7):
        for sigma in enumerate_odd(a):
            for b in range(a, 12 - a + 1):
                for tau in enumerate_odd(b):
                    assert structure_constants(sigma, tau) == _peeled_records(sigma, tau)
                    pairs += 1
    assert pairs == 317


def test_scan_to_14_counts():
    # the counts the Gamma-product peeling gave for the same scan
    report = deg1_conjecture_scan(14)
    assert report.pairs_scanned == 477
    assert report.records_checked == 4391
    assert report.ok and report.min_slack == 0


def test_scan_to_20_counts():
    report = deg1_conjecture_scan(20)
    assert (report.pairs_scanned, report.records_checked) == (2990, 84739)
    assert (report.min_slack, report.max_slack) == (0, 20) and report.ok


def _pairs(max_total):
    # every unordered pair the scan visits, in its order
    for a in range(1, max_total):
        for sigma in enumerate_odd(a):
            for b in range(a, max_total - a + 1):
                for tau in enumerate_odd(b):
                    if b > a or term_sort_key(tau) >= term_sort_key(sigma):
                        yield sigma, tau


def _folded_report(max_total):
    # the scan's report, folded from the full records of structure_constants
    report = ScanReport(max_total)
    for sigma, tau in _pairs(max_total):
        report.pairs_scanned += 1
        for rec in structure_constants(sigma, tau):
            report.records_checked += 1
            if report.min_slack is None or rec.slack < report.min_slack:
                report.min_slack = rec.slack
            if report.max_slack is None or rec.slack > report.max_slack:
                report.max_slack = rec.slack
            if rec.violates:
                report.violations.append(rec)
    return report


def test_scan_equals_the_folded_structure_constants(monkeypatch):
    for max_total in range(2, 15):
        assert deg1_conjecture_scan(max_total) == _folded_report(max_total)
    # a term fp_{1^7} in the ones-free product fp_() * fp_3, where both
    # routes read it: each 1 added to either factor keeps every entry of it
    # nonzero and adds one, and every entry has deg1 >= 14 above
    # deg1(sigma) + deg1(tau) <= 12, so the scan builds m_1(sigma) +
    # m_1(tau) + 1 records per pair through the same values as
    # structure_constants
    route = explorer._ones_free_terms

    def with_violations(sigma_t, tau_t):
        terms = route(sigma_t, tau_t)
        if {sigma_t, tau_t} == {(), (3,)}:
            terms = [*terms, ((), 0, [0] * 7 + [1])]
        return terms

    monkeypatch.setattr(explorer, "_ones_free_terms", with_violations)
    report = deg1_conjecture_scan(6)
    assert report == _folded_report(6)
    ones = [s.multiplicity(1) + t.multiplicity(1) for s, t in _pairs(6)
            if {_ones_free(s.parts), _ones_free(t.parts)} == {(), (3,)}]
    assert len(report.violations) == sum(m + 1 for m in ones) == 20
    assert report.min_slack < 0


def _newton_nonzero(sigma, tau):
    return sorted((s, k, d) for s, diffs in explorer._newton_terms(sigma, tau).items()
                  for k, d in enumerate(diffs) if d)


def test_terms_equal_the_newton_route_on_every_pair_to_16():
    # every pair with parts equal to 1 is derived from its ones-free product
    # along the scan's walk; the oracle runs the Newton route on the full pair
    walked = []
    for sigma, tau, terms in explorer._scan_pairs(16):
        want = _newton_nonzero(sigma, tau)
        got = sorted((s, k, d) for s, _, diffs in terms for k, d in enumerate(diffs) if d)
        assert got == want, (sigma, tau)
        assert sorted(explorer._terms(sigma, tau)) == want, (sigma, tau)
        walked.append((sigma, tau))
    # each pair of the scan exactly once, sigma first
    assert len(walked) == len(set(walked)) == 915  # as deg1_conjecture_scan(16) counts
    assert set(walked) == set(_pairs(16))
    # in any order, and with an empty factor
    for sigma, tau in [(OddPartition((3, 1, 1)), OddPartition((1,))),
                       (OddPartition(()), OddPartition((5, 1, 1))),
                       (OddPartition((1, 1)), OddPartition(()))]:
        assert sorted(explorer._terms(sigma, tau)) == _newton_nonzero(sigma, tau)


def test_sigma_gaining_a_one_costs_one_step(monkeypatch):
    # the walk steps each sigma~ u 1^a once and each tau~ u 1^b once from
    # it, so no pair replays the 1s of sigma from the ones-free product
    calls = 0
    step = explorer._add_one

    def counted(terms, size):
        nonlocal calls
        calls += 1
        return step(terms, size)

    monkeypatch.setattr(explorer, "_add_one", counted)
    report = deg1_conjecture_scan(16)
    assert (report.pairs_scanned, report.records_checked) == (915, 12248)
    assert calls <= report.pairs_scanned


def _spin_sums_by_dot_products(sigma_t, tau_t, n):
    # the sums of _spin_sums, one dot product per column
    table = character_table(n)
    columns = [list(column) for column in zip(*table._rows)]
    a = columns[table._col_of[sigma_t + (1,) * (n - sum(sigma_t))]]
    b = columns[table._col_of[tau_t + (1,) * (n - sum(tau_t))]]
    weights = [2 ** (n - lam.length) * factorial(n) // g(lam) * x * y
               for lam, x, y in zip(table.strict, a, b)]
    sums = {}
    for rho, column in zip(table.odd, columns):
        total = sum(w * x for w, x in zip(weights, column))
        if total:
            sums[tuple(part for part in rho.parts if part > 1)] = total
    return sums


def test_packed_sums_equal_the_dot_products():
    for n in (0, 1, 6, 13, 25):
        free = [tuple(part for part in rho.parts if part > 1) for rho in enumerate_odd(n)]
        for sigma_t, tau_t in [((), ()), ((), free[0]), (free[0], free[0]),
                               (free[len(free) // 3], free[len(free) // 2])]:
            assert explorer._spin_sums(sigma_t, tau_t, n) == \
                _spin_sums_by_dot_products(sigma_t, tau_t, n)


def test_corrupt_node_trips_the_degree_check(monkeypatch):
    route = explorer._spin_sums

    def corrupted(sigma_t, tau_t, n):
        sums = dict(route(sigma_t, tau_t, n))
        if n == 4:
            sums[(3,)] = sums.get((3,), 0) + 1
        return sums

    monkeypatch.setattr(explorer, "_spin_sums", corrupted)
    with pytest.raises(ArithmeticError, match="degree-check node"):
        structure_constants(OddPartition((3,)), OddPartition((3,)))


_SCAN_RETAINED = textwrap.dedent("""
    import gc, tracemalloc
    from superq import explorer
    from superq.partitions import enumerate_odd
    for n in range(18):  # the tables and row packings a scan to 16 reads
        explorer._packed_rows(n)
        enumerate_odd(n)
    gc.collect()
    tracemalloc.start()
    explorer.deg1_conjecture_scan(16)
    gc.collect()
    print(tracemalloc.get_traced_memory()[0])
""")


def test_scan_keeps_no_sums_after_it_returns():
    # a fresh interpreter, so that no earlier scan has filled any memo
    env = dict(os.environ)
    src = str(Path(superq.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCAN_RETAINED],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100_000


_SCAN_PEAK = textwrap.dedent("""
    import gc, tracemalloc
    from superq import explorer
    from superq.partitions import enumerate_odd
    for n in range(22):  # the tables and row packings a scan to 20 reads
        explorer._packed_rows(n)
        enumerate_odd(n)
    gc.collect()
    walk, high = explorer._scan_pairs, [0]

    def sampled(max_total):
        # the traced memory in use at each pair the scan reads
        for pair in walk(max_total):
            high[0] = max(high[0], tracemalloc.get_traced_memory()[0])
            yield pair

    explorer._scan_pairs = sampled
    tracemalloc.start()
    explorer.deg1_conjecture_scan(20)
    print(high[0])
""")


def test_scan_memo_drops_what_no_later_pair_reads():
    # the traced memory in use at each pair, at its largest: 0.07 MB when
    # only the 1-chains of the current pair of ones-free parts are alive,
    # against 0.76 MB when _ones_free_terms keeps every product in a cache
    # (Python 3.11); the bound sits between the two.  A sample, unlike the
    # traced peak, misses the short-lived blocks, though tuples parked on
    # the interpreter's free lists still count: a partition built by a
    # generator per pair lifts it to 0.34 MB.
    env = dict(os.environ)
    src = str(Path(superq.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCAN_PEAK],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 400_000


def test_lab_cap():
    with pytest.raises(ValueError, match="exceeds the cap 23"):
        structure_constants(OddPartition((23,)), OddPartition((1,)))
    with pytest.raises(ValueError, match="exceeds the cap 23"):
        deg1_conjecture_scan(24)
    with pytest.raises(ValueError, match="exceeds the cap 5"):
        deg1_conjecture_scan(6, cap=5)
    with pytest.raises(ValueError, match="exceeds the cap 5"):
        structure_constants(OddPartition((3,)), OddPartition((3,)), cap=5)
    # the cap is a flag, not a hard limit
    assert len(structure_constants(OddPartition((23,)), OddPartition((1,)), cap=24)) == 2
    assert deg1_conjecture_scan(4, cap=30) == deg1_conjecture_scan(4)


def test_consistency_with_product_averages():
    # ones-coefficients of the expansion reproduce E_n[fp_sigma fp_tau]
    m1_free = [OddPartition(()), OddPartition((3,)), OddPartition((5,)),
               OddPartition((3, 3))]
    for sigma in m1_free:
        for tau in m1_free:
            records = structure_constants(sigma, tau)
            poly = PolynomialInN(
                {
                    rec.rho.length: rec.value
                    for rec in records
                    if all(part == 1 for part in rec.rho.parts)
                }
            )
            assert poly == product_average_check(sigma, tau)


def test_scan_small():
    report = deg1_conjecture_scan(2)
    assert report.pairs_scanned == 1  # only sigma = tau = (1)
    assert report.ok and not report.violations

    report = deg1_conjecture_scan(6)
    assert report.ok
    assert report.pairs_scanned > 1
    assert report.records_checked > 0
    assert report.min_slack is not None and report.min_slack >= 0
    assert report.max_slack >= report.min_slack


def test_scan_counts_unordered_pairs():
    # |sigma| + |tau| <= 4 with both nonempty: sizes (1,1), (1,2), (1,3), (2,2)
    count = 0
    for a in range(1, 4):
        for b in range(a, 4 - a + 1):
            odd_a, odd_b = enumerate_odd(a), enumerate_odd(b)
            if a == b:
                count += len(odd_a) * (len(odd_a) + 1) // 2
            else:
                count += len(odd_a) * len(odd_b)
    assert deg1_conjecture_scan(4).pairs_scanned == count


def test_scan_rejects_tiny_bound():
    with pytest.raises(ValueError):
        deg1_conjecture_scan(1)


def test_scan_report_json():
    obj = deg1_conjecture_scan(4).to_json_obj()
    assert obj["conjecture_holds_in_range"] is True
    assert obj["violations"] == []
    assert obj["pairs_scanned"] > 0


def test_p2_experiment_table():
    report = p2_experiment(6)
    table = dict(report.values)
    assert table[0] == 0
    assert table[1] == 1
    assert table[2] == 4
    assert table[3] == rat(23, 3)
    assert table[4] == 12
    assert table[5] == 17
    assert table[6] == rat(1016, 45)


def test_p2_fit_fails():
    report = p2_experiment(6)
    assert report.polynomial_fit_fails
    assert any(r != 0 for _, r in report.residuals)
    # the quadratic matches its own nodes by construction, so the failure
    # certifies no degree-2 polynomial fits all of n = 1..6
    assert report.fit_nodes == (1, 2, 3)


def test_p2_experiment_bounds():
    with pytest.raises(ValueError):
        p2_experiment(5)
    with pytest.raises(ValueError):
        p2_experiment(20)
    p2_experiment(15, cap=15)  # cap is a flag, not a hard limit


def test_record_reprs():
    rec = structure_constants(OddPartition((3,)), OddPartition((1,)))[0]
    assert repr(rec) == (
        "StructureConstantRecord(sigma=OddPartition((3,)), tau=OddPartition((1,)), "
        "rho=OddPartition((3,)), value=Fraction(3, 1), deg1_lhs=3, deg1_rhs=5)"
    )
    assert repr(deg1_conjecture_scan(2)) == (
        "ScanReport(max_total=2, pairs_scanned=1, records_checked=2, "
        "min_slack=0, max_slack=2, violations=[])"
    )
    assert repr(p2_experiment(6)) == (
        "P2Report(max_n=6, values=[(0, Fraction(0, 1)), (1, Fraction(1, 1)), "
        "(2, Fraction(4, 1)), (3, Fraction(23, 3)), (4, Fraction(12, 1)), "
        "(5, Fraction(17, 1)), (6, Fraction(1016, 45))], fit_nodes=(1, 2, 3), "
        "residuals=[(4, Fraction(0, 1)), (5, Fraction(0, 1)), (6, Fraction(-4, 45))])"
    )


def test_structure_constant_records_are_frozen_values():
    sigma, tau = OddPartition((3,)), OddPartition((3,))
    first, again = structure_constants(sigma, tau), _peeled_records(sigma, tau)
    assert first == again and first[0] is not again[0]
    assert {hash(rec) for rec in first} == {hash(rec) for rec in again}
    assert first[0] != first[1]
    with pytest.raises(AttributeError):
        first[0].value = 0
    moved = first[0]._replace(deg1_lhs=first[0].deg1_rhs + 1)
    assert moved.violates and moved.slack == -1 and not first[0].violates
    p2 = p2_experiment(6)
    assert p2 == p2_experiment(6)
    with pytest.raises(AttributeError):
        p2.max_n = 7


def test_scan_report_copy_is_independent():
    scan = deg1_conjecture_scan(4)
    bad = copy.copy(scan)
    assert bad == scan
    bad.violations = ["a record"]
    bad.pairs_scanned += 1
    assert scan.violations == [] and scan.ok
    assert bad != scan and not bad.ok
    assert scan == ScanReport(4, scan.pairs_scanned, scan.records_checked,
                              scan.min_slack, scan.max_slack)
