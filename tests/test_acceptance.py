"""Acceptance suite: the eleven exit criteria, all at zero tolerance, and
the paper's closed form for the averages of the factorial P*-functions.

Each criterion test recomputes its criterion through the verify engine (the
same functions behind ``superq verify``) and prints one PASS/FAIL line; any
mismatch carries the failing detail in the assertion message.
"""

from fractions import Fraction
from math import comb, factorial

import pytest

from superq import explorer, verify
from superq.content import hat_p
from superq.factorial import p_star
from superq.frakp import frak_p
from superq.gamma import GammaElement
from superq.partitions import (
    OddPartition,
    StrictPartition,
    _deg1_of,
    enumerate_odd,
    enumerate_strict,
    g,
)
from superq.plancherel import (
    PolynomialInN,
    average_bruteforce,
    average_mu_symbolic_frak,
    average_symbolic,
    average_symbolic_frak,
)
from superq.rational import rat


def _report(number: int, title: str, result) -> None:
    status = "PASS" if result.ok else "FAIL"
    print(f"[criterion {number:02d}] {status}  {title}: {result.detail}")
    assert result.ok, f"criterion {number}: {result.detail}"


def test_criterion_01_measure_normalization():
    _report(1, "measure normalization and P_5 values",
            verify.check_measure_normalization())


def test_criterion_02_character_table_integrity():
    _report(2, "duality + orthogonality + g/one-row rows to degree 9",
            verify.check_character_integrity())


def test_criterion_03_polynomial_averages():
    _report(3, "six closed-form averages, symbolic == brute force, n <= 9",
            verify.check_polynomial_averages())


def test_criterion_04_golden_expansions():
    _report(4, "nine p -> frak-p expansions coefficient-for-coefficient",
            verify.check_golden_expansions())


def test_criterion_05_deformed_averages_constant():
    _report(5, "E_{mu,n}[fp_rho] = fp_rho(mu), |mu| <= 5, |rho| <= 7, n <= 7",
            verify.check_deformed_average_constants())


def test_criterion_06_product_average_orthogonality():
    _report(6, "E_n[fp_rho fp_sigma] diagonal closed form, sizes <= 7, n <= 9",
            verify.check_product_average_orthogonality())


def test_criterion_07_han_xiong_identity():
    _report(7, "E_{mu,n}[hatp1 - hatp1(mu)] = n(n-1)/2 + n|mu|",
            verify.check_han_xiong_identity())


def test_criterion_08_corner_function_suite():
    _report(8, "psi expansions, corner sums, series identity to order 8",
            verify.check_corner_functions())


def test_criterion_09_p2_suite():
    _report(9, "E_n[p2] table exact and degree-2 fit provably fails",
            verify.check_p2_experiment())


def test_criterion_10_discrepancy_guard():
    result = verify.check_discrepancy_guard()
    _report(10, "E_2[(hatp1)^2] = 1, E_3 = 11; section 5.2 confirmed", result)
    assert "paper §1.4 display: suspected misprint, §5.2 confirmed" in result.detail


def test_criterion_11_conjecture_scan():
    result = verify.check_conjecture_scan()
    _report(11, "deg1 scan to total size 8, zero violations", result)
    assert "pairs" in result.detail  # scanned-pair count is emitted


def test_pstar_averages_match_the_closed_form():
    # E_n[P*_mu] = 2^{|mu| - l(mu)} g(mu) / |mu|! * n^(|mu|) for every strict
    # |mu| <= 10; brute force checks it beyond the nodes 0..|mu| + 1
    shapes = [mu for m in range(11) for mu in enumerate_strict(m)]
    assert len(shapes) == 43
    for mu in shapes:
        m = mu.size
        closed = PolynomialInN({m: rat(2 ** (m - mu.length) * g(mu), factorial(m))})
        f = p_star(mu)
        assert average_symbolic_frak(f) == closed, mu
        for n in (m + 2, m + 5):
            assert average_bruteforce(f, n) == closed.evaluate(n), (mu, n)


def test_odd_power_sum_averages_have_the_limit_shape_top_coefficient():
    # E_n[p_{2k+1}] has degree k + 1 and top falling-factorial coefficient
    # 2^k C(2k+1, k) / (k + 1), past the reach of brute force; its n^(1) and
    # n^(2) coefficients, read at n = 1 and 2, are 1 and 4^k - 1
    for k in range(16):
        average = average_symbolic_frak(GammaElement.p(2 * k + 1))
        assert average.degree() == k + 1, k
        assert average.coefficient(k + 1) == rat(2**k * comb(2 * k + 1, k), k + 1), k
        assert average.coefficient(1) == 1, k
        if k:
            assert average.coefficient(2) == 4**k - 1, k


def test_deformed_odd_power_sum_averages_have_the_same_top_coefficient():
    # E_{mu,n}[p_{2k+1}] has the degree and the top falling-factorial
    # coefficient of E_n[p_{2k+1}]: the limit shape does not see mu
    for parts in ((1,), (2, 1), (3, 1), (3, 2), (4, 1), (5, 3, 1)):
        mu = StrictPartition(parts)
        for k in range(6):
            average = average_mu_symbolic_frak(GammaElement.p(2 * k + 1), mu)
            assert average.degree() == k + 1, (mu, k)
            assert average.coefficient(k + 1) == rat(2**k * comb(2 * k + 1, k), k + 1), \
                (mu, k)


def test_hatp_averages_have_the_catalan_top_coefficient():
    # E_n[hatp_k] has degree k + 1 and top coefficient Catalan(k) / (k + 1),
    # since hatp_k's top term is p_{2k+1} / (2^k (2k+1))
    for k in range(1, 19):
        average = average_symbolic_frak(hat_p(k))
        assert average.degree() == k + 1, k
        assert average.coefficient(k + 1) == rat(comb(2 * k, k), (k + 1) ** 2), k


def _han_xiong_closed_form(k):
    # E_n[hatp_k] = sum_{j=1..k} Cat(j) h_{k-j}(T_1, ..., T_j) n^(j+1) / (j+1)
    # with T_a = a(a+1)/2, from integers alone; h[m] holds the complete
    # homogeneous h_m(T_1, ..., T_j) as one variable T_j is added per j
    h = [1] + [0] * k
    coeffs = {}
    for j in range(1, k + 1):
        t = j * (j + 1) // 2
        for m in range(1, k + 1):
            h[m] += t * h[m - 1]
        coeffs[j + 1] = rat(comb(2 * j, j) // (j + 1) * h[k - j], j + 1)
    return PolynomialInN(coeffs)


def test_hatp_averages_have_a_closed_form():
    # both routes, interpolation to k = 20 and the P* expansion to k = 18,
    # agree with the closed form coefficient for coefficient
    for k in range(1, 21):
        closed = _han_xiong_closed_form(k)
        assert average_symbolic(hat_p(k)) == closed, k
        if k <= 18:
            assert average_symbolic_frak(hat_p(k)) == closed, k


def test_parts_equal_to_1_are_linear_factors():
    # fp_{sigma~ u 1^a} = fp_sigma~ (p_1 - |sigma~|)^{falling a} as elements of
    # Gamma, for every m_1-free sigma~ and a with |sigma~| + a <= 12: the
    # identity that lets the deg1 scan derive every pair from its ones-free one
    p1 = GammaElement.p(1)
    pairs = 0
    for size in range(13):
        for sigma_t in enumerate_odd(size):
            if sigma_t.multiplicity(1):
                continue
            product = frak_p(sigma_t)
            for a in range(13 - size):
                assert frak_p(OddPartition(sigma_t.parts + (1,) * a)) == product, \
                    (sigma_t, a)
                product = product * (p1 - (size + a) * GammaElement.one())
                pairs += 1
    assert pairs == 70


def _growth_steps(lam):
    # (x, probability) for each strict Lambda that grows a row of length x
    # of lam to x + 1, x = 0 starting a new part: 2^{1 - delta} g(Lambda) /
    # ((|lam| + 1) g(lam)), delta = 1 when Lambda has one more part
    parts = lam.parts
    grown = [(x, parts[:i] + (x + 1,) + parts[i + 1:], 1)
             for i, x in enumerate(parts) if i == 0 or parts[i - 1] > x + 1]
    if not parts or parts[-1] > 1:
        grown.append((0, parts + (1,), 0))
    return [(x, Fraction(2**shift * g(StrictPartition(big)), (lam.size + 1) * g(lam)))
            for x, big, shift in grown]


def test_the_growth_step_is_a_measure_with_the_phi_series_moments():
    # for every strict lam with |lam| <= 20, the steps' probabilities sum
    # to 1, and E[y^i | lam], y = x(x + 1) with x the content of the new
    # box, is the u^i coefficient of prod (1 - a(a-1)u) / (1 - a(a+1)u)
    # over the parts a of lam, for i <= 6
    shapes = 0
    for size in range(21):
        for lam in enumerate_strict(size):
            steps = _growth_steps(lam)
            assert sum(chance for _, chance in steps) == 1, lam
            series = [1] + [0] * 6
            for a in lam.parts:
                for i in range(1, 7):  # times 1 / (1 - a(a+1)u)
                    series[i] += a * (a + 1) * series[i - 1]
                for i in range(6, 0, -1):  # times (1 - a(a-1)u)
                    series[i] -= a * (a - 1) * series[i - 1]
            moments = [sum(chance * (x * (x + 1))**i for x, chance in steps)
                       for i in range(7)]
            assert moments == series, lam
            p1, p3 = size, sum(a**3 for a in lam.parts)
            assert moments[1:3] == [2 * p1, 2 * p3 + 2 * p1**2], lam
            shapes += 1
    assert shapes == 371


def _plus_one(route):
    return lambda *args: route(*args) + 1


def _negated(route):
    return lambda *args: -route(*args)


def _inverted(route):
    # for a bool route, where -True is still truthy
    return lambda *args: not route(*args)


def _shifted_p2_values(route):
    def wrong(max_n):
        report = route(max_n)
        return report._replace(values=[(n, v + 1) for n, v in report.values])
    return wrong


def _term_above_rhs(route):
    # adds fp_{1^k} with deg1 = 2k above deg1(sigma) + deg1(tau)
    def wrong(max_total):
        for sigma, tau, terms in route(max_total):
            k = _deg1_of(sigma) + _deg1_of(tau) + 1
            yield sigma, tau, [*terms, ((), 0, [0] * k + [1])]
    return wrong


# (check, module holding one of its two routes, that route's name, a breakage)
BROKEN_ROUTES = [
    ("check_measure_normalization", verify, "prob", _plus_one),
    ("check_character_integrity", verify, "g", _plus_one),
    ("check_polynomial_averages", verify, "average_bruteforce", _plus_one),
    ("check_polynomial_averages", verify, "average_symbolic_frak", _plus_one),
    ("check_golden_expansions", verify, "assemble", _negated),
    ("check_deformed_average_constants", verify, "frak_p_eval", _plus_one),
    ("check_product_average_orthogonality", verify, "product_average_closed_form",
     _plus_one),
    ("check_han_xiong_identity", verify, "average_mu_symbolic_frak", _plus_one),
    ("check_corner_functions", verify, "psi", _negated),
    ("check_corner_functions", verify, "phi_series_check", _inverted),
    ("check_p2_experiment", verify, "p2_experiment", _shifted_p2_values),
    ("check_discrepancy_guard", verify, "average_bruteforce", _plus_one),
    ("check_conjecture_scan", explorer, "_scan_pairs", _term_above_rhs),
]


def _row_ids(rows):
    # the check's name, and check-route for its second route
    seen = set()
    for check, _, route, _ in rows:
        yield f"{check}-{route}" if check in seen else check
        seen.add(check)


@pytest.mark.parametrize("check, module, route, breakage", BROKEN_ROUTES,
                         ids=list(_row_ids(BROKEN_ROUTES)))
def test_every_check_can_fail(monkeypatch, check, module, route, breakage):
    monkeypatch.setattr(module, route, breakage(getattr(module, route)))
    result = getattr(verify, check)()
    assert result.ok is False
    assert result.detail
    if check == "check_conjecture_scan":
        assert result.detail.startswith("COUNTEREXAMPLE FOUND")


def test_polynomial_averages_reach_n_9(monkeypatch):
    # brute force wrong only at the last n the detail names
    right = verify.average_bruteforce
    monkeypatch.setattr(verify, "average_bruteforce",
                        lambda f, n: right(f, n) + (n == 9))
    result = verify.check_polynomial_averages()
    assert result.ok is False
    assert result.detail.endswith("brute force differs at n=9")
