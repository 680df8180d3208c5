"""One-line mutants of the library, each with the tier-1 test that kills it.

Run from the root of the repository:

    python tests/mutants.py

For each mutant in turn it copies the repository to a temporary directory
and replaces the old text by the new text in that copy.  There it runs the
expected killer, and if that passes, the whole tier-1 suite with ``-x``.
It prints one line per mutant (killed, killed but not by its expected test,
or survived) and exits 1 if any mutant survives.  A mutant that only the
whole suite kills costs a full tier-1 run, so this is a command and not a
test; ``test_mutants.py`` checks in a second that each old text still
occurs exactly once in its file.

The copies leave ``test_mutants.py`` out: in a mutated copy its old text is
gone, so it would fail for every mutant and no mutant could survive.  For
the same reason the command first runs tier-1 on an unmutated copy and
stops with exit 2 if that fails, printing the failing test from pytest's
short summary.  The mutated runs print nothing of pytest's.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file, old text, new text, the test expected to kill the mutant)
MUTANTS = [
    # factorial._sweep: the sign counts the used indices above j, or an
    # index already used is not skipped
    ("src/superq/factorial.py", "(mask & (bit - 1)).bit_count()",
     "(mask & ~(2 * bit - 1)).bit_count()",
     "tests/test_factorial.py::test_sweep_equals_the_walk_over_index_tuples"),
    ("src/superq/factorial.py", "if not mask & bit:", "if True:",
     "tests/test_factorial.py::test_sweep_equals_the_walk_over_index_tuples"),
    # schurq._combine_P without its 2^{L - l(lambda)}, 2^{l(rho)}, z_rho or 2^L
    ("src/superq/schurq.py", "w = a << (top - lam.length)", "w = a",
     "tests/test_factorial.py::test_through_sums_integers_over_one_denominator"),
    ("src/superq/schurq.py", "rat(t << rho.length,", "rat(t,",
     "tests/test_schurq.py::test_row_combination_gives_each_P_entry_by_entry"),
    ("src/superq/schurq.py", "z(rho) * denom << top)", "denom << top)",
     "tests/test_schurq.py::test_row_combination_gives_each_P_entry_by_entry"),
    ("src/superq/schurq.py", "denom << top)", "denom)",
     "tests/test_schurq.py::test_row_combination_gives_each_P_entry_by_entry"),
    # factorial._through returning its sums keyed by masks, not partitions
    ("src/superq/factorial.py", "return _by_partition(sums), denom",
     "return sums, denom",
     "tests/test_factorial.py::test_through_sums_integers_over_one_denominator"),
    # expand_in_pstar not dividing by the denominator of the integer form
    ("src/superq/factorial.py", "rat(b, denom)", "rat(b, 1)",
     "tests/test_factorial.py::test_through_sums_integers_over_one_denominator"),
    # gamma.integer_form scaling each numerator by the whole lcm
    ("src/superq/gamma.py", "(denom // c.denominator)", "denom",
     "tests/test_gamma.py::test_integer_form"),
    # GammaElement.__mul__ dividing by one factor's denominator only
    ("src/superq/gamma.py", "denom = da * db", "denom = da",
     "tests/test_gamma.py::test_mul_equals_the_pairwise_rational_products"),
    # scalar_product shifting each term one bit too far, and a wrapped
    # element keeping its coefficients over 1 as its integer form
    ("src/superq/gamma.py", "<< (top - rho.length)", "<< (top - rho.length + 1)",
     "tests/test_gamma.py::test_scalar_product_equals_the_termwise_rational_sum"),
    ("src/superq/gamma.py", "result._int = None", "result._int = (1, coeffs)",
     "tests/test_gamma.py::"
     "test_the_kept_integer_form_is_the_integer_form_of_its_coefficients"),
    # the 1s of a monomial cut off by a slice that is empty when there are
    # none, or only one of them cut off
    ("src/superq/partitions.py", "parts[: len(parts) - parts.count(1)]",
     "parts[: -parts.count(1)]",
     "tests/test_plancherel.py::test_moments_equal_the_oracle_cold_and_warm"),
    ("src/superq/partitions.py", "- parts.count(1)]", "- min(parts.count(1), 1)]",
     "tests/test_partitions.py::test_the_ones_split_off_in_one_place"),
    # _moments giving the constant monomial 0 instead of 1
    ("src/superq/plancherel.py", "totals[k] += weight if i is None",
     "totals[k] += 0 if i is None",
     "tests/test_plancherel.py::test_moments_equal_the_oracle_cold_and_warm"),
    # the prefix plan building a monomial of three or more
    # parts from its first part instead of its longest proper prefix
    ("src/superq/plancherel.py", "steps.append((slot[nu[:end - 1]],",
     "steps.append((slot[nu[:1]],",
     "tests/test_cli.py::"
     "test_cli_goldens_of_symbolic_averages_with_multi_part_monomials"),
    # the walk adding the two slots of a step instead of multiplying them
    ("src/superq/partitions.py", "out.append(out[i] * out[j])",
     "out.append(out[i] + out[j])",
     "tests/test_partitions.py::test_walk_appends_the_products_of_its_steps"),
    # the fold counting p_1 once more than the monomial has it
    ("src/superq/plancherel.py", "a * size**ones", "a * size**(ones + 1)",
     "tests/test_plancherel.py::test_fold_leaves_the_parts_above_1"),
    # the Stirling triangle subtracting its weighted term instead of adding it
    ("src/superq/partitions.py", "a + weight(i, j) * b", "a - weight(i, j) * b",
     "tests/test_partitions.py::test_stirling2_entry_matches_the_row"),
    # the integer interpolation without g(mu) in its scale, or with the
    # falling factor (hi + m)!/(n + m)! of node n one step short
    ("src/superq/plancherel.py", "(top // factorial(m)) * g(mu)",
     "(top // factorial(m))",
     "tests/test_plancherel.py::test_one_walk_equals_the_walk_per_node"),
    ("src/superq/plancherel.py", "total * (top // factorial(n + m))",
     "total * (top // factorial(n + m + 1))",
     "tests/test_plancherel.py::test_average_symbolic_paper_forms"),
    # the closed form of average_symbolic_frak halved past degree 10, which
    # no brute-force oracle of the tests reaches
    ("src/superq/plancherel.py", "g(mu), factorial(m)))",
     "g(mu), factorial(m) << (m > 10)))",
     "tests/test_acceptance.py::"
     "test_odd_power_sum_averages_have_the_limit_shape_top_coefficient"),
    # psi_direct squaring c(c - 1) at the outer corners
    ("src/superq/content.py", "total -= (c * (c + 1)) ** k",
     "total -= (c * (c - 1)) ** k",
     "tests/test_content.py::test_psi_direct_equals_the_fraction_corner_sum"),
    # verify's orthogonality weight one power of 2 too large
    ("src/superq/verify.py", "[1 << (k - lam.length) for", "[1 << (k + 1 - lam.length) for",
     "tests/test_acceptance.py::test_criterion_02_character_table_integrity"),
    # theorems 4.2 and 4.4 asking for their smallest element first
    ("src/superq/verify.py",
     "smaller rho there too\n    rhos = _ones_free_odd(7)[::-1]",
     "smaller rho there too\n    rhos = _ones_free_odd(7)",
     "tests/test_plancherel.py::test_theorems_4_2_and_4_4_walk_about_once_per_mu_and_n"),
    ("src/superq/verify.py",
     "fills the moments\n    rhos = _ones_free_odd(7)[::-1]",
     "fills the moments\n    rhos = _ones_free_odd(7)",
     "tests/test_plancherel.py::test_theorems_4_2_and_4_4_walk_about_once_per_mu_and_n"),
    # verify check 3 comparing brute force only at n <= 1
    ("src/superq/verify.py",
     "for n in range(10):\n            brute = average_bruteforce(f, n)",
     "for n in range(2):\n            brute = average_bruteforce(f, n)",
     "tests/test_acceptance.py::test_polynomial_averages_reach_n_9"),
    # phi_series_check checking one order fewer
    ("src/superq/content.py", "for k in range(1, order + 1))",
     "for k in range(1, order))",
     "tests/test_content.py::test_phi_series_check_reads_every_order"),
    # cli.build_parser: the build-time formatter reading the terminal width
    # (and so importing shutil), a subcommand's parser or every parser
    # keeping the build-time formatter for its help
    ("src/superq/cli.py", "argparse.HelpFormatter(prog, width=80)",
     "argparse.HelpFormatter(prog)",
     "tests/test_cli.py::test_a_command_loads_neither_shutil_nor_csv_nor_verify"),
    ("src/superq/cli.py", "        parsers.append(p)\n", "",
     "tests/test_cli.py::test_help_and_usage_errors_are_argparse_own"),
    ("src/superq/cli.py", "p.formatter_class = argparse.HelpFormatter",
     "p.formatter_class = _build_formatter",
     "tests/test_cli.py::test_help_and_usage_errors_are_argparse_own"),
    # cli.main run as the program leaving the import heap to the collector
    ("src/superq/cli.py", "        gc.freeze()\n", "",
     "tests/test_cli.py::test_main_as_the_program_freezes_the_import_heap"),
    # a bar of kind (c) in the sum of the other sign
    ("src/superq/schurq.py", ".bit_count() + c) & 1]", ".bit_count() + c + 1) & 1]",
     "tests/test_schurq.py::test_bits_moved_on_masks_give_the_sum_over_the_bars"),
    # the table's digit bound without its factor 2
    ("src/superq/schurq.py", "_digit_width(2 *", "_digit_width(1 *",
     "tests/test_schurq.py::test_digit_width_is_the_fewest_bytes_that_hold_the_bound"),
    # the digit-by-digit route, taken for widths array lacks and on every
    # machine that is not little-endian, reading unsigned digits
    ("src/superq/schurq.py", 'data[i : i + width], "little", signed=True)',
     'data[i : i + width], "little", signed=False)',
     "tests/test_schurq.py::test_digit_by_digit_route_equals_the_array_route"),
    # the successor step writing an odd remainder as an even part and a 1
    ("src/superq/partitions.py", "head = r - (r - 1) % step", "head = r - r % step",
     "tests/test_partitions.py::test_successor_steps_equal_the_recursive_descent"),
    # the interpolated averages halved past degree 12, which only the closed
    # form of E_n[hatp_k] reaches
    ("src/superq/plancherel.py", "rat(c, factorial(j) * scale)",
     "rat(c, factorial(j) * scale << (j > 12))",
     "tests/test_acceptance.py::test_hatp_averages_have_a_closed_form"),
    # enum refusing n = 0, its smallest valid input
    ("src/superq/cli.py", "if args.n < 0", "if args.n <= 0",
     "tests/test_cli.py::test_smallest_inputs_and_first_refused_values"),
]


def _copy(tmp: str) -> None:
    ignore = shutil.ignore_patterns(
        "__pycache__", ".bench_build", ".pytest_cache", "test_mutants.py")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, Path(tmp) / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tmp)


def _fails(tmp: str, *args) -> str:
    """"" when the tests pass in ``tmp``; else the FAILED and ERROR lines of
    pytest's short summary, which name the failing tests, or its exit code
    when it printed none."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=tmp, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True)
    if not proc.returncode:
        return ""
    lines = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "\n".join(lines) or f"pytest exited with code {proc.returncode}"


def _verdict(path: str, old: str, new: str, test: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        _copy(tmp)
        target = Path(tmp) / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{path}: the old text {old!r} does not occur exactly once")
        target.write_text(text.replace(old, new), encoding="utf-8")
        # the expected killer first, since it is one test; then all of tier-1
        if _fails(tmp, test):
            return "killed"
        if _fails(tmp, "--continue-on-collection-errors"):
            return "killed, but not by its expected test"
        return "SURVIVED"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _copy(tmp)
        failures = _fails(tmp, "--continue-on-collection-errors")
        if failures:
            print("tier-1 fails on an unmutated copy, so no verdict would mean anything:")
            print(failures)
            return 2
    survived = 0
    for path, old, new, test in MUTANTS:
        verdict = _verdict(path, old, new, test)
        survived += verdict == "SURVIVED"
        print(f"{verdict}: {path}: {old!r} -> {new!r} (expected killer {test})", flush=True)
    print(f"{len(MUTANTS) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
