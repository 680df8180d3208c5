"""The compute workloads: seeded inputs, the timed section, and the oracle.

Inputs are plain tuples and fractions drawn from the seed; making them
touches no superq memo cache, so the timed section starts cold.  The seed
changes which inputs are drawn, never how many or how large, so the cost is
similar across seeds.  Each oracle checks the timed outputs by a route other
than the one timed and returns one (ok, message) pair per check.

- chartable: character_table(k) for every k <= CHARTABLE_MAX_K, in a seeded
  order.  Almost all time goes to GammaElement products in the Pfaffians.
- frak: symbolic averages of elements with every odd partition of
  FRAK_DEGREE (and of FRAK_MU_DEGREE) in their support, seeded coefficients,
  and the deg1 scan.  Almost all time goes to the frak-p peeling and the P*
  recursion (GammaElement sums and scalar products).
- bruteforce: brute-force averages of seeded elements and of the even p_2 up
  to n = 50.  Time goes to g, the partition enumeration and evaluation;
  GammaElement products and sums barely run.
"""

import random
from fractions import Fraction
from math import factorial, prod
from typing import Callable, NamedTuple

from superq import (
    GammaElement,
    OrdinaryPSumExpr,
    StrictPartition,
    average_bruteforce,
    average_mu_bruteforce,
    average_mu_symbolic,
    average_symbolic,
    character_table,
    deg1_conjecture_scan,
    enumerate_strict,
    g,
    hat_p,
    prob,
)

CHARTABLE_MAX_K = 24
CHARTABLE_SAMPLED_PAIRS = 4

FRAK_DEGREE = 17
FRAK_MU_DEGREE = 12
FRAK_MU_SIZE = 4
FRAK_SCAN_MAX = 12

BRUTE_NS = (20, 35, 50)
BRUTE_P2_NS = (1, 2, 3, 4, 5, 6, 45)
BRUTE_MU_N = 40
BRUTE_MU_SIZE = 3
BRUTE_SUPPORT_DEGREE = 6
BRUTE_ELEMENTS = 2

# E_n[p_2] for n = 1..6, the table of section 7.2 of the paper.
P2_TABLE = {1: Fraction(1), 2: Fraction(4), 3: Fraction(23, 3), 4: Fraction(12),
            5: Fraction(17), 6: Fraction(1016, 45)}


class Workload(NamedTuple):
    inputs: Callable  # seed -> plain inputs
    compute: Callable  # inputs -> outputs; this is what is timed
    check: Callable  # (inputs, outputs) -> [(ok, message), ...]


# --- plain combinatorics, independent of superq --------------------------------


def odd_partitions(n, largest=None):
    """Partitions of n into odd parts, as weakly decreasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(first,) + rest
            for first in range(min(n, largest), 0, -1) if first % 2
            for rest in odd_partitions(n - first, first)]


def strict_partitions(n, largest=None):
    """Partitions of n into distinct parts, as decreasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(first,) + rest
            for first in range(min(n, largest), 0, -1)
            for rest in strict_partitions(n - first, first - 1)]


def z(rho):
    """prod_r r^{m_r} m_r! for a tuple of parts."""
    return prod(r ** rho.count(r) * factorial(rho.count(r)) for r in set(rho))


def g_hook(lam):
    """Standard shifted tableaux of shape lam, by the shifted hook formula
    n!/prod(lam_i!) * prod_{i<j} (lam_i - lam_j)/(lam_i + lam_j)."""
    value = Fraction(factorial(sum(lam)), prod(factorial(p) for p in lam))
    for i, a in enumerate(lam):
        for b in lam[i + 1:]:
            value *= Fraction(a - b, a + b)
    return value


def _coefficient(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _checks_equal(pairs, what):
    return [(got == want, f"{what} {label}: got {got}, want {want}")
            for label, got, want in pairs]


# --- chartable -----------------------------------------------------------------


def chartable_inputs(seed):
    rng = random.Random(seed)
    order = list(range(CHARTABLE_MAX_K + 1))
    rng.shuffle(order)
    return {"order": order, "sample_seed": rng.randrange(2**32)}


def chartable_compute(inputs):
    return {k: character_table(k) for k in inputs["order"]}


def chartable_check(inputs, tables):
    """X^lam_(1^k) = g(lam), X^(k)_rho = 1, and column orthogonality
    sum_lam 2^-l(lam) X^lam_rho X^lam_sigma = delta 2^-l(rho) z_rho for every
    column against (1^k), whose entries g(lam) are all positive, so that any
    single wrong entry shows, plus a seeded sample of other column pairs."""
    rng = random.Random(inputs["sample_seed"])
    out = []
    for k in sorted(tables):
        table = tables[k]
        ones = next(rho for rho in table.odd if set(rho.parts) <= {1})
        out += _checks_equal(
            [(f"k={k} lam={lam}", table.value(lam, ones), g(lam)) for lam in table.strict],
            "X^lam_(1^k) vs g(lam)")
        if k:
            row = next(lam for lam in table.strict if lam.length == 1)
            out += _checks_equal(
                [(f"k={k} rho={rho}", table.value(row, rho), 1) for rho in table.odd],
                "X^(k)_rho")
        pairs = [(rho, ones) for rho in table.odd]
        pairs += [tuple(rng.choice(table.odd) for _ in "ab")
                  for _ in range(CHARTABLE_SAMPLED_PAIRS)]
        for rho, sigma in pairs:
            total = sum((Fraction(1, 2**lam.length) * table.value(lam, rho)
                         * table.value(lam, sigma) for lam in table.strict), Fraction(0))
            want = Fraction(z(rho.parts), 2**rho.length) if rho == sigma else 0
            out.append((total == want, f"orthogonality k={k} ({rho}; {sigma}): {total}"))
    return out


# --- frak ----------------------------------------------------------------------


def frak_inputs(seed):
    rng = random.Random(seed)

    def element(degree):
        return [(rho, _coefficient(rng)) for rho in odd_partitions(degree)], _coefficient(rng)

    return {
        "symbolic": element(FRAK_DEGREE),
        "mu_element": element(FRAK_MU_DEGREE),
        "mu": rng.choice(strict_partitions(FRAK_MU_SIZE)),
    }


def _frak_element(spec):
    # The seeded p-terms plus a multiple of hatp[3] * hatp[2] (degree 12).
    terms, c = spec
    return GammaElement(dict(terms)) + c * (hat_p(3) * hat_p(2))


def frak_compute(inputs):
    mu = StrictPartition(inputs["mu"])
    return {
        "symbolic": average_symbolic(_frak_element(inputs["symbolic"])),
        "mu_symbolic": average_mu_symbolic(_frak_element(inputs["mu_element"]), mu),
        "scan": deg1_conjecture_scan(FRAK_SCAN_MAX),
    }


def frak_check(inputs, outputs):
    """Each polynomial equals the brute-force average at n = 0..deg+1 (which
    pins a polynomial of degree <= deg), and the scan covers every unordered
    pair of odd partitions with total size <= FRAK_SCAN_MAX, violation-free."""
    f = _frak_element(inputs["symbolic"])
    h = _frak_element(inputs["mu_element"])
    mu = StrictPartition(inputs["mu"])
    poly, poly_mu, scan = outputs["symbolic"], outputs["mu_symbolic"], outputs["scan"]
    out = [(poly.degree() <= FRAK_DEGREE, f"E_n[f] has degree {poly.degree()}"),
           (poly_mu.degree() <= FRAK_MU_DEGREE, f"E_mu,n[h] has degree {poly_mu.degree()}")]
    out += _checks_equal(
        [(f"n={n}", poly.evaluate(n), average_bruteforce(f, n))
         for n in range(FRAK_DEGREE + 2)], "E_n[f] symbolic vs brute force")
    out += _checks_equal(
        [(f"n={n} mu={mu}", poly_mu.evaluate(n), average_mu_bruteforce(h, mu, n))
         for n in range(FRAK_MU_DEGREE + 2)], "E_mu,n[h] symbolic vs brute force")
    sizes = [d for d in range(1, FRAK_SCAN_MAX) for _ in odd_partitions(d)]
    pairs = sum(1 for i, a in enumerate(sizes) for b in sizes[i:] if a + b <= FRAK_SCAN_MAX)
    out.append((scan.pairs_scanned == pairs,
                f"deg1 scan covered {scan.pairs_scanned} pairs, want {pairs}"))
    out.append((not scan.violations, f"deg1 scan found {len(scan.violations)} violations"))
    return out


# --- bruteforce ------------------------------------------------------------------


def bruteforce_inputs(seed):
    rng = random.Random(seed)
    support = [rho for d in range(1, BRUTE_SUPPORT_DEGREE + 1) for rho in odd_partitions(d)]
    elements = [([(rho, _coefficient(rng)) for rho in support],
                 _coefficient(rng), _coefficient(rng))
                for _ in range(BRUTE_ELEMENTS)]
    return {"elements": elements, "mu": rng.choice(strict_partitions(BRUTE_MU_SIZE))}


def _brute_element(spec):
    # The seeded p-terms plus multiples of hatp[1]^2 and hatp[2] (degree <= 6).
    terms, a, b = spec
    return GammaElement(dict(terms)) + a * hat_p(1) ** 2 + b * hat_p(2)


def bruteforce_compute(inputs):
    elements = [_brute_element(spec) for spec in inputs["elements"]]
    p2 = OrdinaryPSumExpr.p(2)
    mu = StrictPartition(inputs["mu"])
    return {
        "averages": [[average_bruteforce(f, n) for n in BRUTE_NS] for f in elements],
        "p2": [average_bruteforce(p2, n) for n in BRUTE_P2_NS],
        "mu_average": average_mu_bruteforce(elements[0], mu, BRUTE_MU_N),
    }


def p2_average(n):
    """E_n[p_2] from the hook formula and the parts themselves."""
    return sum((Fraction(2 ** (n - len(lam)) * g_hook(lam) ** 2, factorial(n))
                * sum(p * p for p in lam) for lam in strict_partitions(n)), Fraction(0))


def bruteforce_check(inputs, outputs):
    """The measures sum to 1; each Gamma average equals its symbolic
    polynomial at n; p_2, which has no polynomial, matches the paper's table
    for n <= 6 and a hook-formula sum for every n."""
    elements = [_brute_element(spec) for spec in inputs["elements"]]
    mu = StrictPartition(inputs["mu"])
    ns = sorted(set(BRUTE_NS + BRUTE_P2_NS))
    out = _checks_equal(
        [(f"n={n}", sum(prob(n, lam) for lam in enumerate_strict(n)), 1) for n in ns],
        "sum of P_n")
    for i, f in enumerate(elements):
        poly = average_symbolic(f)
        out += _checks_equal(
            [(f"f{i} n={n}", got, poly.evaluate(n))
             for n, got in zip(BRUTE_NS, outputs["averages"][i])],
            "E_n[f] brute force vs symbolic")
    out += _checks_equal(
        [(f"mu={mu} n={BRUTE_MU_N}", outputs["mu_average"],
          average_mu_symbolic(elements[0], mu).evaluate(BRUTE_MU_N))],
        "E_mu,n[f0] brute force vs symbolic")
    out += _checks_equal(
        [(f"n={n}", got, P2_TABLE[n])
         for n, got in zip(BRUTE_P2_NS, outputs["p2"]) if n in P2_TABLE],
        "E_n[p2] vs the section 7.2 table")
    out += _checks_equal(
        [(f"n={n}", got, p2_average(n)) for n, got in zip(BRUTE_P2_NS, outputs["p2"])],
        "E_n[p2] vs hook-formula sum")
    return out


WORKLOADS = {
    "chartable": Workload(chartable_inputs, chartable_compute, chartable_check),
    "frak": Workload(frak_inputs, frak_compute, frak_check),
    "bruteforce": Workload(bruteforce_inputs, bruteforce_compute, bruteforce_check),
}
