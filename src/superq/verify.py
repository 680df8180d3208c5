"""The paper-identity golden suite behind ``superq verify``.

Each check recomputes one block of published identities from scratch and
compares exactly (rational equality, no tolerances).  The acceptance tests
run the same checks one by one; the CLI prints them as a pass/fail table
keyed by where the identity appears in the source material.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .content import hat_p, phi_series_check, psi, psi_direct
from .explorer import deg1_conjecture_scan, p2_experiment
from .frakp import assemble, expand_p_in_frak, frak_p, frak_p_eval, FrakExpansion
from .gamma import GammaElement, scalar_product
from .partitions import (
    OddPartition,
    StrictPartition,
    _ones_free_odd,
    enumerate_strict,
    g,
    z,
)
from .plancherel import (
    PolynomialInN,
    average_bruteforce,
    average_mu_bruteforce,
    average_mu_symbolic_frak,
    average_symbolic_frak,
    prob,
    product_average_check,
    product_average_closed_form,
)
from .rational import rat
from .schurq import character_table, p_fn, q


# One check's outcome; run_all fills in key and description from CHECKS.
CheckResult = namedtuple("CheckResult", "ok detail key description", defaults=("", ""))


def _sample_strict(count: int) -> list[StrictPartition]:
    out = []
    n = 0
    while len(out) < count:
        out.extend(enumerate_strict(n))
        n += 1
    return out[:count]


# --- individual checks ---------------------------------------------------------


def check_measure_normalization() -> CheckResult:
    for n in range(11):
        total = sum(prob(n, lam) for lam in enumerate_strict(n))
        if total != 1:
            return CheckResult(False, f"sum P_{n} = {total}")
    expected = {
        (5,): rat(16, 120),
        (4, 1): rat(72, 120),
        (3, 2): rat(32, 120),
    }
    for parts, value in expected.items():
        got = prob(5, StrictPartition(parts))
        if got != value:
            return CheckResult(False, f"P_5({parts}) = {got} != {value}")
    return CheckResult(True, "sum P_n = 1 for n <= 10; P_5 values exact")


def check_character_integrity() -> CheckResult:
    for k in range(10):  # degrees 0..9
        table = character_table(k)
        strict = table.strict
        # duality <P_lam, Q_mu> = delta
        for lam in strict:
            plam = p_fn(lam)
            for mu in strict:
                want = 1 if lam == mu else 0
                if scalar_product(plam, q(mu)) != want:
                    return CheckResult(False, f"duality fails at ({lam}, {mu})")
        # orthogonality sum_lam 2^{-l} X X = delta 2^{-l(rho)} z_rho, times
        # 2^k so that it sums the integer rows of the table as ints
        weights = [1 << (k - lam.length) for lam in strict]
        for i, rho in enumerate(table.odd):
            for j, sigma in enumerate(table.odd):
                total = sum(w * row[i] * row[j] for w, row in zip(weights, table._rows))
                want = z(rho) << (k - rho.length) if i == j else 0
                if total != want:
                    return CheckResult(False, f"orthogonality fails at ({rho}, {sigma})")
        ones = OddPartition((1,) * k)
        for lam in strict:
            if table.value(lam, ones) != g(lam):
                return CheckResult(False, f"X^{lam}_(1^k) != g at {lam}")
        if k >= 1:
            row = StrictPartition((k,))
            for rho in table.odd:
                if table.value(row, rho) != 1:
                    return CheckResult(False, f"X^(k)_{rho} != 1")
    return CheckResult(True, "duality, orthogonality, g- and one-row rows exact to degree 9")


def _closed_form_average_cases() -> list[tuple[str, GammaElement, PolynomialInN]]:
    p = GammaElement.p
    return [
        ("E_n[p3]", p(3), PolynomialInN({2: 3, 1: 1})),
        ("E_n[p5]", p(5), PolynomialInN({3: rat(40, 3), 2: 15, 1: 1})),
        ("E_n[p3^2]", p(3) ** 2, PolynomialInN({4: 9, 3: 54, 2: 31, 1: 1})),
        ("E_n[hatp1]", hat_p(1), PolynomialInN({2: rat(1, 2)})),
        ("E_n[hatp2]", hat_p(2), PolynomialInN({3: rat(2, 3), 2: rat(1, 2)})),
        (
            "E_n[hatp1^2]",
            hat_p(1) ** 2,
            PolynomialInN.from_binomial({4: 6, 3: 8, 2: 1}),
        ),
    ]


def check_polynomial_averages() -> CheckResult:
    for name, f, closed in _closed_form_average_cases():
        symbolic = average_symbolic_frak(f)
        if symbolic != closed:
            return CheckResult(False, f"{name}: symbolic {symbolic} != paper {closed}")
        for n in range(10):
            brute = average_bruteforce(f, n)
            if brute != closed.evaluate(n):
                return CheckResult(False, f"{name}: brute force differs at n={n}")
    return CheckResult(True, "six closed forms match brute force for n <= 9")


GOLDEN_P_TO_FRAK = {
    (1,): {(1,): 1},
    (1, 1): {(1, 1): 1, (1,): 1},
    (3,): {(3,): 1, (1, 1): 3, (1,): 1},
    (1, 1, 1): {(1, 1, 1): 1, (1, 1): 3, (1,): 1},
    (3, 1): {(3, 1): 1, (3,): 3, (1, 1, 1): 3, (1, 1): 7, (1,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (1, 1, 1): 6, (1, 1): 7, (1,): 1},
    (5,): {
        (5,): 1,
        (3, 1): 10,
        (3,): rat(35, 3),
        (1, 1, 1): rat(40, 3),
        (1, 1): 15,
        (1,): 1,
    },
    (3, 1, 1): {
        (3, 1, 1): 1,
        (3, 1): 7,
        (1, 1, 1, 1): 3,
        (3,): 9,
        (1, 1, 1): 16,
        (1, 1): 15,
        (1,): 1,
    },
    (1, 1, 1, 1, 1): {
        (1, 1, 1, 1, 1): 1,
        (1, 1, 1, 1): 10,
        (1, 1, 1): 25,
        (1, 1): 15,
        (1,): 1,
    },
}


def check_golden_expansions() -> CheckResult:
    for rho_parts, expected in GOLDEN_P_TO_FRAK.items():
        rho = OddPartition(rho_parts)
        got = expand_p_in_frak(rho)
        want = FrakExpansion(expected)
        if got != want:
            return CheckResult(False, f"expansion of p[{rho}] differs")
        # Psi^{-1} through the T-system against Psi through the s-system
        if assemble(got) != GammaElement.p(rho):
            return CheckResult(False, f"reassembly of p[{rho}] differs")
    return CheckResult(True, "all nine expansions coefficient-exact")


def check_deformed_average_constants() -> CheckResult:
    mus = [mu for m in range(6) for mu in enumerate_strict(m)]
    # the largest rho first: its brute-force walk at each (mu, n) fills the
    # moments of every smaller rho there too
    rhos = _ones_free_odd(7)[::-1]
    for mu in mus:
        for rho in rhos:
            expected = frak_p_eval(rho, mu)
            element = frak_p(rho)
            for n in range(8):
                brute = average_mu_bruteforce(element, mu, n)
                if brute != expected:
                    return CheckResult(
                        False, f"E_mu,n[fp_{rho}] at mu={mu}, n={n}: {brute} != {expected}")
            symbolic = average_mu_symbolic_frak(element, mu)
            if symbolic != PolynomialInN.constant(expected):
                return CheckResult(
                    False, f"symbolic E_mu,n[fp_{rho}] not constant at mu={mu}")
    return CheckResult(
        True, f"{len(mus)}x{len(rhos)} (mu, rho) pairs constant and equal to fp_rho(mu)")


def check_product_average_orthogonality() -> CheckResult:
    # from the largest pair down, so that one walk per n fills the moments
    rhos = _ones_free_odd(7)[::-1]
    for i, rho in enumerate(rhos):
        for sigma in rhos[i:]:
            symbolic = product_average_check(rho, sigma)
            closed = (
                product_average_closed_form(rho) if rho == sigma else PolynomialInN.zero()
            )
            if symbolic != closed:
                return CheckResult(False, f"symbolic E_n[fp_{rho} fp_{sigma}] != closed form")
            product = frak_p(rho) * frak_p(sigma)
            for n in range(10):
                if average_bruteforce(product, n) != closed.evaluate(n):
                    return CheckResult(
                        False, f"brute force differs at ({rho},{sigma}), n={n}")
    return CheckResult(True, "orthogonality of products exact for all m1-free pairs, n <= 9")


def check_han_xiong_identity() -> CheckResult:
    f = hat_p(1)
    for m in range(6):
        for mu in enumerate_strict(m):
            shifted = f - f.evaluate(mu) * GammaElement.one()
            expected_poly = PolynomialInN.from_monomial(
                {2: rat(1, 2), 1: rat(2 * m - 1, 2)}
            )  # n(n-1)/2 + n|mu|
            if average_mu_symbolic_frak(shifted, mu) != expected_poly:
                return CheckResult(False, f"symbolic form differs at mu={mu}")
            for n in range(8):
                want = rat(n * (n - 1), 2) + n * m
                if average_mu_bruteforce(shifted, mu, n) != want:
                    return CheckResult(False, f"value differs at mu={mu}, n={n}")
    return CheckResult(
        True, "E_mu,n[hatp1 - hatp1(mu)] = n(n-1)/2 + n|mu| for |mu| <= 5, n <= 7")


def check_corner_functions() -> CheckResult:
    expected = {
        1: {(1,): 2},
        2: {(3,): 4},
        3: {(5,): 6, (3,): 2},
        4: {(7,): 8, (5,): 8},
    }
    for k, coeffs in expected.items():
        if psi(k) != GammaElement(coeffs):
            return CheckResult(False, f"psi_{k} expansion differs")
    for k in range(1, 6):
        element = psi(k)
        for n in range(11):
            for lam in enumerate_strict(n):
                if psi_direct(k, lam) != element.evaluate(lam):
                    return CheckResult(False, f"psi_{k} corner sum differs at {lam}")
    samples = _sample_strict(20)
    for lam in samples:
        if not phi_series_check(lam, 8):
            return CheckResult(False, f"series identity fails at {lam}")
    return CheckResult(
        True,
        "psi_1..4 verbatim; corner sums match Gamma route (k <= 5, |lam| <= 10); "
        "series identity to order 8 on 20 shapes")


def check_p2_experiment() -> CheckResult:
    report = p2_experiment(6)
    expected = {1: rat(1), 2: rat(4), 3: rat(23, 3), 4: rat(12), 5: rat(17),
                6: rat(1016, 45)}
    table = dict(report.values)
    for n, want in expected.items():
        if table[n] != want:
            return CheckResult(False, f"E_{n}[p2] = {table[n]} != {want}")
    if not report.polynomial_fit_fails:
        return CheckResult(False, "degree-2 fit unexpectedly matched")
    first_bad = next((n, r) for n, r in report.residuals if r)
    return CheckResult(
        True,
        f"table exact; degree-2 fit through n=1..3 off by {first_bad[1]} at n={first_bad[0]}")


def check_discrepancy_guard() -> CheckResult:
    f = hat_p(1) ** 2
    if average_bruteforce(f, 2) != 1 or average_bruteforce(f, 3) != 11:
        return CheckResult(False, "brute-force anchor values differ")
    sec52 = PolynomialInN.from_binomial({4: 6, 3: 8, 2: 1})
    if average_symbolic_frak(f) != sec52:
        return CheckResult(False, "symbolic form differs from section 5.2")
    sec14 = PolynomialInN(
        {4: rat(1, 12), 3: rat(4, 12), 2: rat(-8, 12), 1: rat(-2, 12)}
    )
    if sec14.evaluate(2) == 1:
        return CheckResult(False, "section 1.4 display unexpectedly matches brute force")
    return CheckResult(
        True,
        "paper §1.4 display: suspected misprint, §5.2 confirmed "
        "(E_2 = 1, E_3 = 11 by brute force)")


def check_conjecture_scan() -> CheckResult:
    report = deg1_conjecture_scan(8)
    if report.violations:
        worst = report.violations[0].to_json_obj()
        return CheckResult(False, f"COUNTEREXAMPLE FOUND (not a bug, publish it): {worst}")
    return CheckResult(
        True,
        f"no deg1 violations across {report.pairs_scanned} pairs "
        f"({report.records_checked} records, min slack {report.min_slack})")


CHECKS: list[tuple[str, str, Callable[[], CheckResult]]] = [
    ("§1.2 measure", "shifted Plancherel measure normalizes; P_5 values",
     check_measure_normalization),
    ("§2 characters", "duality, orthogonality, tableau/one-row rows (deg <= 9)",
     check_character_integrity),
    ("§1.2+§5.2 averages", "six closed-form averages vs brute force (n <= 9)",
     check_polynomial_averages),
    ("§3 example", "nine p -> frak-p expansions, both routes",
     check_golden_expansions),
    ("§4 theorem 4.2", "deformed averages of frak-p are constants",
     check_deformed_average_constants),
    ("§4 theorem 4.4", "product averages are diagonal",
     check_product_average_orthogonality),
    ("§5.2 Han-Xiong", "E_mu,n[hatp1 - hatp1(mu)] identity",
     check_han_xiong_identity),
    ("§6 corners", "psi expansions, corner sums, series identity",
     check_corner_functions),
    ("§7.2 p2", "E_n[p2] table and failed quadratic fit",
     check_p2_experiment),
    ("§1.4 vs §5.2", "discrepancy guard for E_n[(hatp1)^2]",
     check_discrepancy_guard),
    ("§7.1 conjecture", "deg1 filtration scan to total size 8",
     check_conjecture_scan),
]


def run_all() -> list[CheckResult]:
    return [fn()._replace(key=key, description=description)
            for key, description, fn in CHECKS]
